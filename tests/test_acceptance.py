"""Acceptance suite: ten property gates, one test per criterion.

Each test prints a single PASS line with its headline numbers (run pytest
with ``-s`` to see them stream).  Every tolerance is exact; there are no
numeric fudge factors anywhere.  Engineering caps used below (pool sizes,
chunking) are recorded in the printed lines.
"""

import itertools
import json
import pathlib
import random
import time

import pytest

from dtlstar.preorder import enumerate_preorders, monotone_maps
from dtlstar.proofkit import (
    AXIOM_NAMES,
    check_proof,
    proof_from_json,
    schema_sweep_instances,
    soundness_harness,
)
from dtlstar.quasimodel import (
    Path,
    extend_path_below,
    is_realizing,
    orbit_lasso,
    quasimodel_from_json,
    quasimodel_of_model,
    validate_quasimodel,
)
from dtlstar.semantics import (
    DynModel,
    enumerate_static_models,
    model_from_json,
    random_model,
    tangled_cluster_mask,
    tangled_gfp_mask,
)
from dtlstar.simformula import check_propsub, sim_formula
from dtlstar.simulation import simulated_points_mask, simulates
from dtlstar.states import (
    State,
    StateError,
    TypedPreorder,
    distinctly_typed,
    typed_preorder_of_model,
)
from dtlstar.statespace import (
    Caps,
    efficient_paths,
    enumerate_phi_states,
    enumerate_states,
    is_small_successor,
    satisfy,
    temporal_successor,
)
from dtlstar.syntax import And, Neg, Tangle, Var, conj, parse, to_text
p, q = Var("p"), Var("q")

DATA = pathlib.Path(__file__).parent / "data" / "proofs"


def report(number: int, detail: str) -> None:
    print(f"\nACCEPTANCE {number:2d} PASS - {detail}")


def random_formula(rng, vars_, depth):
    from dtlstar.proofkit import random_formula as rf

    return rf(rng, vars_, depth)


# ---------------------------------------------------------------------------
# 1. The two tangled-closure algorithms agree everywhere.

def test_criterion_01_tangled_closure_oracle_equivalence():
    t0 = time.time()
    checked = 0
    for n in range(1, 6):
        for space in enumerate_preorders(n):
            subsets = list(range(1 << n))
            for size in range(0, 4):
                for fam in itertools.combinations(subsets, size):
                    assert tangled_gfp_mask(space, fam) == tangled_cluster_mask(space, fam)
                    checked += 1
    report(1, f"tangled gfp == cluster oracle on {checked} (preorder, family) "
              f"pairs, all preorders <=5 worlds up to iso, families of <=3 "
              f"subsets, {time.time()-t0:.1f}s")


# ---------------------------------------------------------------------------
# 2. Singleton tangle degenerates to topological closure.

def test_criterion_02_singleton_tangle_is_closure():
    t0 = time.time()
    rng = random.Random(20_02)
    for trial in range(1000):
        model = random_model(rng, 5, ["p", "q"])
        gamma = random_formula(rng, ["p", "q"], 4)
        lhs = model.eval_mask(Tangle((gamma,)))
        rhs = model.space.closure_mask(model.eval_mask(gamma))
        assert lhs == rhs, f"trial {trial}"
    report(2, f"singleton tangle == closure on 1000 random (model, formula) "
              f"pairs, depth <=4, {time.time()-t0:.1f}s")


# ---------------------------------------------------------------------------
# 3. Axiom soundness: randomized harness plus exhaustive schema sweep.

def test_criterion_03_axiom_soundness():
    t0 = time.time()
    harness = soundness_harness(10_000, seed=3003, max_worlds=6)
    assert harness["ok"], harness["violations"][:1]

    sweep = schema_sweep_instances(gamma_max=2)
    assert {name for name, _ in sweep} == set(AXIOM_NAMES)
    models = exhaustive_dynamic_models(3, ["p", "q"])
    swept = 0
    for name, instance in sweep:
        for model in models:
            assert model.is_valid(instance), (name, to_text(instance))
            swept += 1
    report(3, f"0 violations in 10000 random instances (<=6 worlds) and "
              f"{swept} exhaustive schema/model checks over {len(models)} "
              f"models <=3 worlds, {time.time()-t0:.1f}s")


def exhaustive_dynamic_models(n_max, vars_):
    out = []
    for n in range(1, n_max + 1):
        for space in enumerate_preorders(n):
            for fmap in monotone_maps(space):
                for combo in itertools.product(range(1 << n), repeat=len(vars_)):
                    out.append(DynModel(space, fmap, dict(zip(vars_, combo))))
    return out


# ---------------------------------------------------------------------------
# 4. The simulation formula defines simulability, exhaustively.

LITERAL_TYPES = [frozenset(s) for s in (
    {p}, {Neg(p)}, {q}, {Neg(q)},
    {p, q}, {p, Neg(q)}, {Neg(p), q}, {Neg(p), Neg(q)},
)]


def literal_state_pool(max_worlds):
    """Every distinctly typed rooted state over the nonempty consistent
    literal types in two variables, up to isomorphism."""
    seen, out = set(), []
    for n in range(1, max_worlds + 1):
        for space in enumerate_preorders(n):
            tops = [w for w in space.worlds if space.down[space.index[w]] == space.full]
            for root in tops:
                for assign in itertools.product(range(len(LITERAL_TYPES)), repeat=n):
                    types = {w: LITERAL_TYPES[assign[i]]
                             for i, w in enumerate(space.worlds)}
                    try:
                        st = State(TypedPreorder(space, types), root)
                    except StateError:
                        continue
                    if not distinctly_typed(st):
                        continue
                    key = st.canonical_key()
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append(st)
    return out


def _formula_dag(formulas):
    """Shared bottom-up evaluation plan over the union of formula DAGs."""
    node_id, ops = {}, []

    def intern(f):
        i = node_id.get(f)
        if i is not None:
            return i
        if isinstance(f, Var):
            op = (0, 0 if f.name == "p" else 1)
        elif isinstance(f, Neg):
            op = (1, intern(f.sub))
        elif isinstance(f, And):
            op = (2, intern(f.left), intern(f.right))
        elif isinstance(f, Tangle):
            op = (3, tuple(intern(m) for m in f.members))
        else:  # pragma: no cover - simulation formulas are map-free
            raise AssertionError("unexpected connective")
        i = len(ops)
        ops.append(op)
        node_id[f] = i
        return i

    return [intern(f) for f in formulas], ops


def _dag_eval(ops, full, down, pm, qm):
    n = len(down)
    vals = [0] * len(ops)
    varm = (pm, qm)
    for i, op in enumerate(ops):
        k = op[0]
        if k == 0:
            vals[i] = varm[op[1]]
        elif k == 1:
            vals[i] = full ^ vals[op[1]]
        elif k == 2:
            vals[i] = vals[op[1]] & vals[op[2]]
        else:
            sets = [vals[j] for j in op[1]]
            e = full
            changed = True
            while changed:
                changed = False
                for w in range(n):
                    if e >> w & 1:
                        de = down[w] & e
                        for a in sets:
                            if not de & a:
                                e ^= 1 << w
                                changed = True
                                break
            vals[i] = e
    return vals


def test_criterion_04_simulation_formula_biconditional():
    t0 = time.time()
    pool = literal_state_pool(4)
    forms = [sim_formula(st) for st in pool]
    roots, ops = _formula_dag(forms)
    lit_index = {t: i for i, t in enumerate(LITERAL_TYPES)}
    state_pre = [
        (st.space.down, [lit_index[t] for t in st.types], st.space.index[st.root])
        for st in pool
    ]
    models = list(enumerate_static_models(4, ["p", "q"]))
    mismatches = 0
    pairs = 0
    for model in models:
        full = model.space.full
        down = model.space.down
        n = len(down)
        pm = model.val.get("p", 0)
        qm = model.val.get("q", 0)
        litmask = [pm, full ^ pm, qm, full ^ qm, pm & qm, pm & ~qm & full,
                   (full ^ pm) & qm, (full ^ pm) & (full ^ qm)]
        vals = _dag_eval(ops, full, down, pm, qm)
        for (sdown, tidx, ri), root in zip(state_pre, roots):
            ns = len(sdown)
            rel = [litmask[t] for t in tidx]
            changed = True
            while changed:
                changed = False
                for w in range(ns):
                    m = rel[w]
                    if not m:
                        continue
                    dw = sdown[w]
                    for v in range(n):
                        if m >> v & 1:
                            dv = down[v]
                            for w2 in range(ns):
                                if dw >> w2 & 1 and rel[w2] & dv == 0:
                                    rel[w] &= ~(1 << v)
                                    changed = True
                                    break
            pairs += 1
            if vals[root] != rel[ri]:
                mismatches += 1
    assert mismatches == 0

    # the fast sweep must agree with the public evaluation and simulation
    # surfaces; spot-weld them together on a deterministic sample
    rng = random.Random(4004)
    sampled = 0
    for _ in range(400):
        st = rng.choice(pool)
        model = rng.choice(models)
        lhs = model.eval_mask(sim_formula(st))
        rhs = simulated_points_mask(st, model)
        assert lhs == rhs
        sampled += 1
    report(4, f"defining property exact on {pairs} (state, model) pairs "
              f"({len(pool)} states <=4 worlds, {len(models)} models <=4 "
              f"worlds up to iso incl. valuation; map-free quotient since "
              f"both sides ignore the map), plus {sampled} library-surface "
              f"agreements, {time.time()-t0:.1f}s")


# ---------------------------------------------------------------------------
# 5. The five simulation-formula validities, on sampled states.

PROPSUB_SIGNATURES = [
    (p,),
    (parse("<>p"),),
    (parse("X p"),),
    (parse("F p"),),
    (parse("G p"),),
]


def _chunks(seq, size):
    for i in range(0, len(seq), size):
        yield seq[i:i + size]


@pytest.fixture(scope="module")
def propsub_setup():
    pools = {}
    spaces = {}
    for phi in PROPSUB_SIGNATURES:
        vars_ = sorted({v for f in phi for v in _vars_of(f)})
        pools[phi] = exhaustive_dynamic_models(4, vars_)
        # the full norm-bounded state list up to the pool's world count: the
        # item 4/5 disjunctions must not miss any candidate witness
        spaces[phi] = enumerate_phi_states(phi, 0, Caps(max_worlds=4, max_states=2000))[0]
    return pools, spaces


def _vars_of(f):
    from dtlstar.syntax import variables

    return variables(f)


def test_criterion_05_simulation_formula_validities(propsub_setup):
    t0 = time.time()
    pools, spaces = propsub_setup
    rng = random.Random(5005)
    counts = {i: 0 for i in (1, 2, 3, 4, 5)}

    def run_chunked(st, phi, pool, items, i0=None, succ=None):
        for chunk in _chunks(pool, 4000):
            rep = check_propsub(st, phi, chunk, i0_states=i0,
                                successor_states=succ, items=items)
            assert rep.ok, rep.items
            for m in chunk:
                m.clear_cache()

    # items 1-3 and 5: 50 sampled states each (10 per signature); small
    # states keep the per-model antecedent evaluation cheap while the
    # disjunction lists stay complete over the whole enumerated space
    for phi in PROPSUB_SIGNATURES:
        pool = pools[phi]
        states = spaces[phi]
        small = [s for s in states if len(s) <= 2]
        picks = [small[rng.randrange(len(small))] for _ in range(10)]
        for st in picks:
            succ = [v for v in states
                    if temporal_successor(st, v) and is_small_successor(st, v)]
            run_chunked(st, phi, pool, items=(1, 2, 3), i0=None, succ=None)
            run_chunked(st, phi, pool, items=(5,), succ=succ)
            for i in (1, 2, 3, 5):
                counts[i] += 1
    # item 4 is state-independent: once per signature over the whole pool
    for phi in PROPSUB_SIGNATURES:
        st = spaces[phi][0]
        run_chunked(st, phi, pools[phi], items=(4,), i0=spaces[phi])
        counts[4] += 1
    report(5, f"0 countermodels: items 1/2/3/5 on 50 sampled states each "
              f"(10 per signature x {len(PROPSUB_SIGNATURES)} signatures), "
              f"item 4 once per signature, exhaustive <=4-world pools "
              f"({', '.join(str(len(pools[s])) for s in PROPSUB_SIGNATURES)} "
              f"models), {time.time()-t0:.1f}s")


# ---------------------------------------------------------------------------
# 6. Every finite model induces a valid quasimodel with realizing orbits.

def test_criterion_06_model_to_quasimodel_bridge():
    t0 = time.time()
    rng = random.Random(6006)
    formulas = [random_formula(rng, ["p", "q"], 3) for _ in range(180)]
    formulas += [random_formula(rng, ["p"], 3) for _ in range(20)]
    structures3 = [(space, fmap) for n in range(1, 4)
                   for space in enumerate_preorders(n)
                   for fmap in monotone_maps(space)]
    structures4 = [(space, fmap) for space in enumerate_preorders(4)
                   for fmap in monotone_maps(space)]
    checked = 0
    for idx, f in enumerate(formulas):
        vars_ = sorted(_vars_of(f)) or ["p"]
        # every <=3-world model for every formula; the <=4-world layer for
        # eight of the single-variable formulas at the tail
        structs = structures3 if idx < 192 else structures3 + structures4
        for space, fmap in structs:
            n = len(space.worlds)
            for combo in itertools.product(range(1 << n), repeat=len(vars_)):
                model = DynModel(space, fmap, dict(zip(vars_, combo)))
                qm = quasimodel_of_model(model, [f])
                assert validate_quasimodel(qm), (to_text(f), model)
                for x in model.space.worlds:
                    lasso = orbit_lasso(model, x)
                    assert is_realizing(qm, lasso), (to_text(f), model, x)
                checked += 1
    report(6, f"bridge valid and all orbit lassos realizing on {checked} "
              f"(model, formula) pairs: 200 formulas depth <=3, exhaustive "
              f"structures x valuations (<=3 worlds for all, <=4 worlds for "
              f"the 8 single-variable tail formulas), {time.time()-t0:.1f}s")


# ---------------------------------------------------------------------------
# 7. Pointwise path extension below a given path.

def test_criterion_07_path_extension_below():
    t0 = time.time()
    rng = random.Random(7007)
    pool = [parse("<>p"), parse("F p"), parse("G q"), parse("X p & <>q")]
    done = 0
    while done < 1000:
        model = random_model(rng, 5, ["p", "q"])
        f = rng.choice(pool)
        qm = quasimodel_of_model(model, [f])
        x = rng.choice(model.space.worlds)
        steps = [x]
        for _ in range(rng.randint(0, 5)):
            steps.append(model.map_of(steps[-1]))
        path = Path(tuple(steps), None)
        v0 = rng.choice(sorted(model.space.downset(x)))
        want = rng.randint(0, 9)
        out = extend_path_below(qm, path, v0, want)
        assert len(out.worlds) == max(len(path.worlds), want)
        for i in range(len(path.worlds)):
            assert qm.space.le(out.worlds[i], path.worlds[i])
        done += 1
    report(7, f"1000 random (quasimodel, path, start) triples extended with "
              f"the pointwise-below guarantee intact, {time.time()-t0:.1f}s")


# ---------------------------------------------------------------------------
# 8. Efficient path enumeration terminates with verified pruning.

# Space generators: signature text, world cap, and start states.  Efficient
# path counts are always finite but can be astronomically large; these
# combinations were measured to finish their full enumeration quickly, so the
# finiteness claim is exercised rather than merely trusted.
SPACE_GENERATORS = [
    ("p", 1, (0, 1)), ("p", 2, (0, 1)),
    ("~p", 1, (0, 1)), ("~p", 2, (0, 1, 2)),
    ("<>p", 1, (0, 1)), ("<>p", 2, (0, 1, 2)),
    ("<>~p", 1, (0, 1)), ("<>~p", 2, (0, 1, 2)),
    ("X p", 1, (0, 1, 2)), ("X p", 2, (0, 1, 2)),
    ("X ~p", 1, (0, 1, 2)), ("X ~p", 2, (0, 1, 2)),
    ("F p", 1, (0, 1, 2)), ("F p", 2, (0, 1, 2)),
    ("F ~p", 1, (0, 1, 2)), ("F ~p", 2, (0, 1, 2)),
    ("G p", 1, (0, 1, 2)), ("G p", 2, (0, 1, 2)),
    ("G ~p", 1, (0, 1, 2)), ("G ~p", 2, (0, 1, 2)),
    ("G(p & q)", 1, (0, 1, 2)), ("F(p & q)", 1, (0, 1, 2)),
    ("G p & q", 1, (0, 1, 2)), ("F p & G q", 1, (0, 1, 2)),
    ("<>p & G p", 1, (0, 1, 2)), ("<>p & G p", 2, (0, 1, 2)),
    ("G <>p", 1, (0, 1, 2)), ("G <>p", 2, (0, 1, 2)),
    ("<>G p", 1, (0, 1, 2)), ("<>G p", 2, (0, 1, 2)),
    ("X G p", 1, (0, 1, 2)), ("X G p", 2, (0, 1, 2)),
    ("G X p", 1, (0, 1, 2)), ("G X p", 2, (0, 2, 5)),
    ("F <>p", 1, (0, 1, 2)), ("F <>p", 2, (0, 1, 2)),
]


def test_criterion_08_efficient_path_finiteness():
    t0 = time.time()
    tasks = [(text, mw, start)
             for text, mw, starts in SPACE_GENERATORS for start in starts][:100]
    assert len(tasks) == 100
    spaces = {}
    runs = 0
    paths_total = 0
    prunes_verified = 0
    for text, mw, start in tasks:
        key = (text, mw)
        if key not in spaces:
            spaces[key] = enumerate_states(
                (parse(text),), 0, Caps(max_worlds=mw, max_states=200)
            )
            assert len(spaces[key].states) <= 200
        space = spaces[key]
        out = efficient_paths(start, space, Caps(path_steps=500_000))
        assert not out.truncated, f"space {key} start {start} truncated"
        paths_total += len(out.paths)
        for path, m1, m2 in out.prunes:
            assert m1 < m2
            assert simulates(space.states[path[m1]], space.states[path[m2]])
        prunes_verified += len(out.prunes)
        runs += 1
    report(8, f"full enumeration terminated in {runs} runs over "
              f"{len(spaces)} generated spaces (<=200 states, varied start "
              f"states), {paths_total} maximal efficient paths, "
              f"{prunes_verified} pruning witnesses re-verified, "
              f"{time.time()-t0:.1f}s")


# ---------------------------------------------------------------------------
# 9. Satisfiability pipeline is sound and its witnesses re-verify.

def test_criterion_09_satisfiability_soundness():
    t0 = time.time()
    rng = random.Random(9009)
    sat_done = 0
    with_quasimodel = 0
    while sat_done < 100:
        model = random_model(rng, 3, ["p", "q"])
        seed_formula = random_formula(rng, ["p", "q"], 2)
        x = rng.choice(model.space.worlds)
        t = typed_preorder_of_model(model, [seed_formula]).type_of(x)
        formula = conj(t)
        caps = Caps(oracle_worlds=3, oracle_budget=60_000, state_worlds=2)
        result = satisfy(formula, caps)
        assert result.verdict == "satisfiable", (to_text(formula), result.info)
        # the model witness re-verifies under evaluation
        wm = model_from_json(result.witness_model["model"])
        assert wm.satisfies(result.witness_model["point"], formula)
        # the witness state carries the formula at its root
        ws = result.witness_state
        assert to_text(formula) in ws["types"][ws["root"]]
        # the quasimodel witness, when emitted, re-verifies independently
        if result.quasimodel is not None:
            qm = quasimodel_from_json(result.quasimodel)
            assert validate_quasimodel(qm)
            lasso = Path(tuple(result.lasso["worlds"]), result.lasso["loop"])
            assert is_realizing(qm, lasso)
            with_quasimodel += 1
        sat_done += 1
    refuted = 0
    for text in ("p & ~p", "q & ~q & p", "(p & q) & ~(p & q)",
                 "p & ~p & <>q", "X(p & ~p)"):
        result = satisfy(parse(text))
        assert result.verdict == "no-witness-found", text
        refuted += 1
    report(9, f"100 constructed-satisfiable formulas all satisfiable with "
              f"re-verified model witnesses ({with_quasimodel} also shipped "
              f"a validated quasimodel + realizing lasso); {refuted} "
              f"type-empty formulas answered no-witness-found, "
              f"{time.time()-t0:.1f}s")


# ---------------------------------------------------------------------------
# 10. Proof corpus accepted, single-step mutations rejected.

def test_criterion_10_proof_checker_gate():
    t0 = time.time()
    corpus = {}
    for path in sorted(DATA.glob("*.json")):
        with open(path) as fh:
            corpus[path.stem] = proof_from_json(json.load(fh))
    assert len(corpus) == 20
    schemas, rules = set(), set()
    for name, proof in corpus.items():
        assert check_proof(proof), name
        for step in proof.steps:
            rules.add(step.rule)
            if step.name:
                schemas.add(step.name)
    assert schemas == set(AXIOM_NAMES)
    assert rules == {"Axiom", "MP", "Subs", "NecBox", "NecNext", "NecHence"}

    from test_proofkit import mutate

    rng = random.Random(1010)
    rejected = 0
    while rejected < 200:
        for name, proof in sorted(corpus.items()):
            if rejected >= 200:
                break
            k = rng.randrange(len(proof.steps))
            bad = mutate(proof, rng.randrange(2), k)
            assert not check_proof(bad), (name, k)
            rejected += 1
    report(10, f"20 bundled proofs accepted (all 11 schemata, all 5 rules), "
               f"{rejected} single-step mutations rejected, "
               f"{time.time()-t0:.1f}s")
