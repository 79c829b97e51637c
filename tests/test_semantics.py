import itertools
import random

import pytest

from dtlstar.preorder import Preorder, enumerate_preorders, monotone_maps
from dtlstar.semantics import (
    DynModel,
    ModelError,
    enumerate_models,
    enumerate_static_models,
    first_model,
    model_from_json,
    model_to_json,
    random_model,
    tangled_cluster,
    tangled_cluster_mask,
    tangled_gfp,
    tangled_gfp_mask,
)
from dtlstar.syntax import And, Hence, Neg, Next, Tangle, Var, parse
from dtlstar.util import bits


def chain_model(val_p=("b",)):
    p = Preorder(["a", "b"], [("b", "a")])
    return DynModel(p, {"a": "a", "b": "b"}, {"p": list(val_p)})


def cluster_model():
    p = Preorder(["x", "y"], [("x", "y"), ("y", "x")])
    return DynModel(p, {"x": "x", "y": "y"}, {"p": ["x"], "q": ["y"]})


class TestEval:
    def test_diamond_is_closure(self):
        assert chain_model().eval(parse("<>p")) == {"a", "b"}

    def test_hence_under_identity_map(self):
        assert chain_model().eval(parse("G p")) == {"b"}

    def test_cluster_tangle(self):
        # brute-force oracle: try every subset for tangledness
        m = cluster_model()
        f = parse("<>{p, q}")
        sets = [m.eval_mask(Var("p")), m.eval_mask(Var("q"))]
        best = 0
        for e in range(1 << 2):
            if all(m.space.closure_mask(a & e) & e == e for a in sets):
                best |= e
        assert m.eval_mask(f) == best == 0b11
        assert m.eval(f) == {"x", "y"}

    def test_contradictory_tangle_empty(self):
        m = chain_model()
        f = parse("<>{p, ~p}")
        sets = [m.eval_mask(Var("p")), m.eval_mask(Neg(Var("p")))]
        best = 0
        for e in range(1 << 2):
            if all(m.space.closure_mask(a & e) & e == e for a in sets):
                best |= e
        assert best == 0
        assert m.eval(f) == frozenset()

    def test_empty_tangle_is_whole_space(self):
        m = chain_model()
        assert m.eval(parse("<>{}")) == {"a", "b"}

    def test_next_is_preimage(self):
        p = Preorder(["a", "b"], [])
        m = DynModel(p, {"a": "b", "b": "a"}, {"p": ["b"]})
        assert m.eval(parse("X p")) == {"a"}
        assert m.eval(parse("X X p")) == {"b"}

    def test_missing_variable_defaults_to_empty(self):
        assert chain_model().eval(parse("zz")) == frozenset()

    def test_strict_mode_rejects_missing_variable(self):
        p = Preorder(["a"], [])
        m = DynModel(p, {"a": "a"}, {}, strict=True)
        with pytest.raises(ModelError):
            m.eval(parse("zz"))

    def test_hence_equals_intersected_preimages(self):
        rng = random.Random(5)
        f = parse("G p")
        for _ in range(60):
            m = random_model(rng, 5, ["p"])
            expected = m.space.full
            cur = m.eval_mask(Var("p"))
            for _ in range(len(m.space.worlds) + 1):
                expected &= cur
                cur = m.preimage_mask(cur)
            assert m.eval_mask(f) == expected

    def test_fixpoint_soundness_of_tangle(self):
        rng = random.Random(9)
        f = parse("<>{p, q}")
        for _ in range(60):
            m = random_model(rng, 5, ["p", "q"])
            t = m.eval_mask(f)
            for g in (Var("p"), Var("q")):
                assert t & ~m.space.closure_mask(m.eval_mask(g) & t) == 0

    def test_tangled_continuity_inclusion(self):
        rng = random.Random(11)
        lhs = parse("<>{X p, X q}")
        rhs = parse("X <>{p, q}")
        for _ in range(80):
            m = random_model(rng, 5, ["p", "q"])
            assert m.eval_mask(lhs) & ~m.eval_mask(rhs) == 0


class TestTangledOperators:
    def test_singleton_family_is_closure(self):
        m = chain_model()
        assert tangled_gfp(m, [["b"]]) == m.space.closure(["b"])
        assert tangled_cluster(m, [["b"]]) == m.space.closure(["b"])

    def test_empty_family_is_everything(self):
        m = chain_model()
        assert tangled_gfp(m, []) == {"a", "b"}
        assert tangled_cluster(m, []) == {"a", "b"}

    def test_two_singletons_on_cluster(self):
        m = cluster_model()
        assert tangled_gfp(m, [["x"], ["y"]]) == {"x", "y"}

    def test_incompatible_on_chain(self):
        m = chain_model()
        assert tangled_cluster(m, [["a"], ["b"]]) == frozenset()

    def test_three_point_cluster(self):
        p = Preorder(["u", "v", "w"],
                     [(a, b) for a in "uvw" for b in "uvw" if a != b])
        m = DynModel(p, {"u": "u", "v": "v", "w": "w"}, {})
        got = tangled_cluster(m, [["u"], ["v"], ["w"]])
        assert got == {"u", "v", "w"}

    def test_agreement_on_random_small_spaces(self):
        rng = random.Random(3)
        for _ in range(150):
            m = random_model(rng, 4, [])
            n = len(m.space.worlds)
            fam = [rng.randrange(1 << n) for _ in range(rng.randint(0, 3))]
            assert tangled_gfp_mask(m.space, fam) == tangled_cluster_mask(m.space, fam)


class TestEnumerateModels:
    def test_one_world_one_var(self):
        models = list(enumerate_models(1, ["p"]))
        assert len(models) == 2

    def test_preorder_count_up_to_two_worlds(self):
        assert sum(1 for n in (1, 2) for _ in enumerate_preorders(n)) == 4

    def test_random_models_reproducible(self):
        a, b = random.Random(42), random.Random(42)
        for _ in range(10):
            assert model_to_json(random_model(a, 4, ["p"])) == model_to_json(
                random_model(b, 4, ["p"]))

    def test_cap_enforced(self):
        with pytest.raises(ModelError):
            next(enumerate_models(7, []))

    def test_exhaustive_covers_all_monotone_maps(self):
        count = 0
        for p in enumerate_preorders(2):
            count += sum(1 for _ in monotone_maps(p))
        assert sum(1 for _ in enumerate_models(2, [])) == count + 1  # plus 1-world

    def test_static_models_dedup_valuations(self):
        # two worlds, no order: p on either world is the same model up to iso
        models = [
            m for m in enumerate_static_models(2, ["p"])
            if len(m.space.worlds) == 2 and m.space.down[0] == 1 and m.space.down[1] == 2
        ]
        masks = sorted(m.val["p"] for m in models)
        assert masks == [0b00, 0b01, 0b11]


class TestModelJson:
    def test_round_trip(self):
        m = cluster_model()
        again = model_from_json(model_to_json(m))
        assert model_to_json(again) == model_to_json(m)

    def test_monotonicity_checked_at_load(self):
        data = {
            "worlds": ["a", "b"],
            "order": [["b", "a"]],
            "f": {"a": "b", "b": "a"},
            "val": {},
        }
        with pytest.raises(ModelError):
            model_from_json(data)

    def test_totality_checked(self):
        data = {"worlds": ["a"], "order": [], "f": {}, "val": {}}
        with pytest.raises(ModelError):
            model_from_json(data)


# Shaped like the benchmark's slow satisfy requests: the first five need 2-3
# worlds, the rest have no model of at most 3 worlds although a type
# contains them.
SEARCH_TEMPLATES = (
    "~p & ~q & <>{p, q} & []~(p & q)",
    "~p & <>(p & ~<>q) & <>(q & ~<>p)",
    "~p & ~q & <>p & <>q & []~(p & q) & ~<>{p, q}",
    "p & X ~p & X X ~p & X X X p & G(q | ~q)",
    "p & ~q & X q & X X (~p & ~q) & G(p | q | X p)",
    "p & G(p -> X p) & F ~p & G(q | ~q)",
    "(F(p & q) & G ~(p & q)) | (<>p & []~p)",
    "<>{p, q} & []~q",
    "(p & []~p) | (q & G ~q & F q)",
    "<>(p & q) & [](~p | ~q)",
    "~p & X p & G(~p -> X ~p) & (q | ~q)",
)


def random_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.2:
        return Var(rng.choice(names))
    kind = rng.randrange(5)
    if kind == 0:
        return Neg(random_formula(rng, names, depth - 1))
    if kind == 1:
        return And(random_formula(rng, names, depth - 1), random_formula(rng, names, depth - 1))
    if kind == 2:
        return Next(random_formula(rng, names, depth - 1))
    if kind == 3:
        return Hence(random_formula(rng, names, depth - 1))
    return Tangle([random_formula(rng, names, depth - 1) for _ in range(rng.randint(0, 2))])


def scan(f, pool, budget):
    """The per-model scan that ``first_model`` replaces."""
    examined = 0
    for model in pool:
        examined += 1
        if examined > budget:
            break
        m = model.eval_mask(f)
        if m:
            return examined, model, model.space.worlds[next(bits(m))]
    return examined, None, None


def skeleton_ends(pool):
    """1-based positions of the last model of each (preorder, map) skeleton."""
    ends = []
    for i, model in enumerate(pool):
        if i + 1 == len(pool) or (pool[i + 1].space, pool[i + 1].f) != (model.space, model.f):
            ends.append(i + 1)
    return ends


class TestFirstModel:
    """``first_model`` against a scan over ``enumerate_models``, its slow twin."""

    POOLS = [(n, ("p",)) for n in (1, 2, 3)] + [(n, ("p", "q")) for n in (1, 2, 3)] \
        + [(n, ("p", "q", "r")) for n in (1, 2)]

    @pytest.mark.parametrize("n_max,names", POOLS,
                             ids=[f"{n}w-{''.join(names)}" for n, names in POOLS])
    def test_agrees_with_scan(self, n_max, names):
        pool = list(enumerate_models(n_max, names))
        ends = skeleton_ends(pool)
        rng = random.Random(f"{n_max}/{names}")
        # <>{p, ~p} first holds on a two-world cluster, at both of its worlds
        formulas = [parse(t) for t in SEARCH_TEMPLATES + ("<>{p, ~p}",)]
        formulas += [random_formula(rng, names, rng.randint(1, 4))
                     for _ in range(8 if n_max == 3 else 30)]
        for f in formulas:
            _, hit, _ = scan(f, pool, len(pool))
            hit_at = pool.index(hit) + 1 if hit is not None else None
            budgets = {1, len(pool), len(pool) + 1}
            for n in range(1, n_max + 1):
                size = 2 ** (n * len(names))
                budgets |= {size - 1, size, size + 1}
            # both sides of every skeleton boundary, or, in the 3-world pools,
            # of the first and last ones and of those around the hit
            near = ends if len(ends) <= 20 else ends[:3] + ends[-3:] + [
                e for e in ends if hit_at is not None and abs(e - hit_at) <= 2 ** (n_max * len(names))]
            for e in near:
                budgets |= {e - 1, e, e + 1}
            if hit_at is not None:
                budgets |= {hit_at - 1, hit_at, hit_at + 1}
            for budget in sorted(b for b in budgets if b >= 1):
                want = scan(f, pool, budget)
                got = first_model(f, n_max, names, budget)
                assert (got[0], got[1] and model_to_json(got[1]), got[2]) == \
                    (want[0], want[1] and model_to_json(want[1]), want[2]), (str(f), budget)
            for model in pool:
                model.clear_cache()

    def test_budget_below_one_skeleton(self):
        # one world and 40 variables: a skeleton has 2^40 valuations, so the
        # search slices off the first ``budget`` and the planes of the high
        # valuation bits are empty
        names = [f"p{i}" for i in range(40)]
        pool = list(itertools.islice(enumerate_models(1, names), 1100))
        for text in ("p39 & ~p38", "p30 & p39", "p0", "~p39 & p5"):
            f = parse(text)
            for budget in (1, 7, 100, 1025, 1099):
                want = scan(f, pool, budget)
                got = first_model(f, 1, names, budget)
                assert (got[0], got[1] and model_to_json(got[1]), got[2]) == \
                    (want[0], want[1] and model_to_json(want[1]), want[2]), (text, budget)

    def test_templates_need_the_pool_they_are_meant_for(self):
        names = ("p", "q")
        for text in SEARCH_TEMPLATES[:5]:
            _, model, _ = first_model(parse(text), 3, names, 50_000)
            assert model is not None and len(model.space.worlds) > 1
        for text in SEARCH_TEMPLATES[5:]:
            assert first_model(parse(text), 3, names, 50_000) == (9076, None, None)

    def test_cap_enforced(self):
        with pytest.raises(ModelError):
            first_model(Var("p"), 6, ["p"], 10)
