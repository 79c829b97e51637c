"""The three workloads: request generators, handlers and answer checks.

Every request is a JSON-able payload; a handler calls the library through
the public functions the CLI dispatches to and returns a JSON-able answer
plus the raw result objects the checks and the trace counts need.  Checks
run outside the timed region, right after each request, and report problems
as strings.

Requests come in blocks.  A block holds every slot of ``BLOCK`` once, in a
seeded order, so each class of request keeps the same share in every run
whatever the seed; the seed decides the inputs inside each slot.  Set-up
serves the ``WARMUP`` slots, drawn from a stream of their own: a few light
requests that touch every layer the workload uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

import reference as ref


@dataclass
class Request:
    """A payload for the library, its class, and what its check compares
    against (``expect`` never reaches the library)."""

    cls: str
    payload: dict
    expect: Any = None


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    certified: bool | None = None  # None: the request has nothing to certify


def _rng(seed: int, stream: str, index: int) -> random.Random:
    return random.Random(f"{seed}/{stream}/{index}")


def request_stream(workload, seed: int):
    """Yield the timed requests of a seed, block by block."""
    block_no = 0
    while True:
        order = list(workload.BLOCK)
        _rng(seed, "order", block_no).shuffle(order)
        for slot_no, slot in enumerate(order):
            yield workload.request(_rng(seed, "timed", block_no * len(order) + slot_no), slot)
        block_no += 1


def warmup_requests(workload, seed: int) -> list[Request]:
    return [workload.request(_rng(seed, "warmup", i), slot)
            for i, slot in enumerate(workload.WARMUP)]


# Variable names a request may use; pairs keep their order so renaming never
# changes the order in which the library enumerates valuations.
NAME_PAIRS = (("p", "q"), ("a", "b"), ("s", "t"), ("m", "n"), ("c1", "c2"), ("u", "v"))


# ---------------------------------------------------------------------------
# modelcheck: load a large structured model, evaluate a batch of formulas.

class ModelCheck:
    name = "modelcheck"
    # (class, size stratum, batch stratum): within a block the model sizes
    # of each class are stratified log-uniformly over 64-512 worlds and the
    # batch sizes uniformly over 2-31 formulas, so blocks carry equal work
    BLOCK = (tuple(("single", k, 0) for k in range(4))
             + tuple(("batched", k, b) for k, b in enumerate((3, 0, 4, 1, 5, 2))))
    WARMUP = (("single", 0, 0), ("batched", 0, 0))
    FORMULA_DEPTH = 5

    def request(self, rng: random.Random, slot) -> Request:
        cls, size_stratum, batch_stratum = slot
        strata = 4 if cls == "single" else 6
        u = (size_stratum + rng.random()) / strata
        model = ref.layered_model(rng, int(64 * 2 ** (3 * u)))
        count = 1 if cls == "single" else 2 + int(30 * (batch_stratum + rng.random()) / strata)
        formulas = [ref.random_formula(rng, ref.VARS, self.FORMULA_DEPTH, ref.KERNEL)
                    for _ in range(count)]
        payload = {"model": model.to_json(), "formulas": [ref.text(f) for f in formulas]}
        return Request(cls, payload, (model, formulas))

    def handle(self, lib, payload: dict):
        model = lib.semantics.model_from_json(payload["model"])
        extensions = []
        for text in payload["formulas"]:
            f = lib.syntax.parse(text)
            extensions.append({"formula": lib.syntax.to_text(f), "worlds": sorted(model.eval(f))})
        return {"worlds": len(model.space.worlds), "extensions": extensions}, None

    def check(self, lib, req: Request, answer: dict, raw) -> Outcome:
        model, formulas = req.expect
        out = Outcome()
        if len(answer["extensions"]) != len(formulas):
            out.problems.append("wrong number of extensions")
        for f, ext in zip(formulas, answer["extensions"]):
            if ext["worlds"] != model.worlds_of(model.eval(f)):
                out.problems.append(f"extension of {ref.text(f)} differs from the reference")
        out.certified = not out.problems
        return out

    def counts(self, raw) -> dict[str, int]:
        return {}


# ---------------------------------------------------------------------------
# satisfy: bounded witness-producing satisfiability with known answers.

def _v(name):
    return ("var", name)


def _n(a):
    return ("not", a)


def _and(*parts):
    return ref.conjunction(list(parts))


P, Q = _v("p"), _v("q")

# Satisfiable, but only on models of 2-3 worlds: thousands of models are
# examined before the hit.  Each entry is a list of top-level conjuncts.
DEEP = (
    [_n(P), _n(Q), ("tangle", (P, Q)), ("box", _n(_and(P, Q)))],
    [_n(P), ("dia", _and(P, _n(("dia", Q)))), ("dia", _and(Q, _n(("dia", P))))],
    [_n(P), _n(Q), ("dia", P), ("dia", Q), ("box", _n(_and(P, Q))), _n(("tangle", (P, Q)))],
    [P, ("X", _n(P)), ("X", ("X", _n(P))), ("X", ("X", ("X", P))), ("G", ("or", Q, _n(Q)))],
    [P, _n(Q), ("X", Q), ("X", ("X", _and(_n(P), _n(Q)))), ("G", ("or", ("or", P, Q), ("X", P)))],
)

# Unsatisfiable although some type contains them: every model of at most
# three worlds is examined and none satisfies them.
NO_WITNESS = (
    [P, ("G", ("imp", P, ("X", P))), ("F", _n(P)), ("G", ("or", Q, _n(Q)))],
    [("or", _and(("F", _and(P, Q)), ("G", _n(_and(P, Q)))), _and(("dia", P), ("box", _n(P))))],
    [("tangle", (P, Q)), ("box", _n(Q))],
    [("or", _and(P, ("box", _n(P))), _and(Q, ("G", _n(Q)), ("F", Q)))],
    [("dia", _and(P, Q)), ("box", ("or", _n(P), _n(Q)))],
    [_n(P), ("X", P), ("G", ("imp", _n(P), ("X", _n(P)))), ("or", Q, _n(Q))],
)


def _rename(f: tuple, names: dict[str, str]) -> tuple:
    if f[0] == "var":
        return ("var", names.get(f[1], f[1]))
    if f[0] == "tangle":
        return ("tangle", tuple(_rename(m, names) for m in f[1]))
    return (f[0],) + tuple(_rename(a, names) for a in f[1:])


class Satisfy:
    name = "satisfy"
    # 26 quick hits and one request per deep-search and no-witness template:
    # 70% of requests are quick (1-4 ms) and 30% slow (90-270 ms), so the
    # median falls among the quick hits and the 90th percentile among the
    # slow requests, both well away from the boundary between them
    BLOCK = ((("quick", 0),) * 26 + tuple(("deep", i) for i in range(len(DEEP)))
             + tuple(("none", i) for i in range(len(NO_WITNESS))))
    WARMUP = (("quick", 0),) * 3
    CAP_WORLDS = 3
    BUDGET = 50_000

    def request(self, rng: random.Random, slot) -> Request:
        cls, template = slot
        a, b = rng.choice(NAME_PAIRS)
        if cls == "quick":
            # the library's type enumeration is exponential in the subterms, so
            # a fixed count keeps the quick hits at 1-4 ms
            while True:
                psi = ref.random_formula(rng, (a, b), 2)
                terms = ref.subterms(psi)
                if len(terms) == 4:
                    break
            n = rng.randint(1, 3)
            model = ref.tiny_model(rng, n, (a, b))
            x = rng.randrange(n)
            parts = [t if model.eval(t) >> x & 1 else ("not", t) for t in terms]
            verdict = "satisfiable"
        else:
            parts = [_rename(p, {"p": a, "q": b})
                     for p in (DEEP if cls == "deep" else NO_WITNESS)[template]]
            verdict = "satisfiable" if cls == "deep" else "no-witness-found"
        rng.shuffle(parts)
        formula = ref.conjunction(parts)
        return Request(cls, {"formula": ref.text(formula)}, (verdict, formula))

    def handle(self, lib, payload: dict):
        caps = lib.statespace.Caps(oracle_worlds=self.CAP_WORLDS, oracle_budget=self.BUDGET)
        report = lib.statespace.satisfy(lib.syntax.parse(payload["formula"]), caps, "model-search")
        return report.to_json(), report

    def check(self, lib, req: Request, answer: dict, raw) -> Outcome:
        verdict, formula = req.expect
        out = Outcome()
        if answer["verdict"] != verdict:
            out.problems.append(f"verdict {answer['verdict']} for {ref.text(formula)}, "
                                f"expected {verdict}")
            return out
        if verdict != "satisfiable":
            return out
        witness = answer["witness_model"]
        point = witness["point"]
        model = lib.semantics.model_from_json(witness["model"])
        if not model.satisfies(point, lib.syntax.parse(req.payload["formula"])):
            out.problems.append("witness model does not satisfy the formula")
        mirror = ref.model_from_json(witness["model"])
        if not mirror.eval(formula) >> mirror.names.index(point) & 1:
            out.problems.append("reference evaluator rejects the witness point")
        out.certified = False
        if answer["quasimodel"] is not None:
            q = lib.quasimodel.quasimodel_from_json(answer["quasimodel"])
            valid = lib.quasimodel.validate_quasimodel(q)
            lasso = answer["lasso"]
            if not valid:
                out.problems.append(f"shipped quasimodel invalid: {valid.reason}")
            elif lasso is None:
                out.problems.append("validated quasimodel shipped without a lasso")
            else:
                path = lib.quasimodel.Path(tuple(lasso["worlds"]), lasso["loop"])
                realizing = lib.quasimodel.is_realizing(q, path)
                if not realizing:
                    out.problems.append(f"lasso does not realize: {realizing.reason}")
                out.certified = bool(realizing)
        return out

    def counts(self, report) -> dict[str, int]:
        checks = report.checks or {}
        return {"search_hits": int(report.verdict == "satisfiable"),
                "step_pairs": checks.get("edge_count", 0)}


# ---------------------------------------------------------------------------
# explore: state space, efficient paths and the canonical structure.

# (class, signature with role variables, world cap).  "eventual" signatures
# contain G or F, so some of their states carry eventualities that
# canonical_structure must chase with reachable; "plain" ones do not.
# Two-variable signatures are explored up to one world (5-20 ms each) and
# one-variable eventual ones up to two worlds (60-200 ms each, most of them
# near 100 ms).  The two-world requests are 4 of every 21, so the median
# falls among the one-world requests and the 90th percentile near the
# middle of the two-world ones, where their latencies are densest and the
# percentile moves least from run to run.  Plain two-world signatures
# (``[] X p``, ``X <>p``, ``<>X p``: 150-260 ms) are left out: they spread
# the slow tail without adding a layer the others do not reach.
EXPLORE = (
    ("eventual", "F(p & q)", 1), ("eventual", "G p & q", 1), ("eventual", "F p & G q", 1),
    ("eventual", "X G p", 1), ("eventual", "G p | F q", 1), ("eventual", "G(p | q)", 1),
    ("eventual", "F p | G q", 1),
    ("plain", "X p & <>q", 1), ("plain", "<>{p, q}", 1), ("plain", "p -> X q", 1),
    ("plain", "X X p", 1), ("plain", "<>(p & ~q) & []X q", 1), ("plain", "X(p & q)", 1),
    ("plain", "p & X q & <>~q", 1), ("plain", "X <>(p | q)", 1),
    ("plain", "X(p -> q) & <>p", 1), ("plain", "[](p -> X q)", 1),
    ("eventual", "F p", 2), ("eventual", "G p", 2), ("eventual", "~p & F p", 2),
    ("eventual", "G <>p", 2),
)


class Explore:
    name = "explore"
    BLOCK = tuple(range(len(EXPLORE)))
    WARMUP = (0, 7)
    PATH_STEPS = 5_000
    ORACLE_WORLDS = 2
    ORACLE_BUDGET = 2_000

    def request(self, rng: random.Random, slot: int) -> Request:
        cls, template, worlds = EXPLORE[slot]
        a, b = rng.choice(NAME_PAIRS)
        signature = template.replace("p", "\0").replace("q", b).replace("\0", a)
        payload = {"signature": signature, "max_worlds": worlds, "start": rng.randrange(1 << 20)}
        return Request(cls, payload)

    def handle(self, lib, payload: dict):
        ss = lib.statespace
        caps = ss.Caps(max_worlds=payload["max_worlds"], path_steps=self.PATH_STEPS,
                       oracle_worlds=self.ORACLE_WORLDS, oracle_budget=self.ORACLE_BUDGET)
        formula = lib.syntax.parse(payload["signature"])
        phi = (formula,)
        space = ss.enumerate_states(phi, 0, caps)
        starts = [i for i, st in enumerate(space.states)
                  if lib.states.t_contains(st.root_type(), formula)] or range(len(space.states))
        start = starts[payload["start"] % len(starts)]
        paths = ss.efficient_paths(start, space, caps)
        result = ss.canonical_structure(phi, space, ss.make_oracle("model-search", caps), caps)
        statuses = [v.status for v in result.verdicts]
        answer = {
            "states": len(space.states),
            "complete": space.complete,
            "substate_pairs": len(space.substate_pairs),
            "step_pairs": len(space.step_pairs),
            "small_pairs": len(space.small_pairs),
            "start": start,
            "paths": len(paths.paths),
            "longest_path": max(map(len, paths.paths), default=0),
            "prunes": len(paths.prunes),
            "truncated": paths.truncated,
            "verdicts": {s: statuses.count(s) for s in sorted(set(statuses))},
            "structure": result.check_summary(),
        }
        return answer, (space, paths, result)

    def check(self, lib, req: Request, answer: dict, raw) -> Outcome:
        space, paths, result = raw
        states = space.states
        out = Outcome(certified=bool(result.regular))
        sensible: dict[tuple, bool] = {}
        for a, b in sorted(space.step_pairs):
            problem = _check_step(lib, sensible, states[a], states[b])
            if problem:
                out.problems.append(f"step pair ({a}, {b}): {problem}")
        pruned = {(path[m1], path[m2]) for path, m1, m2 in paths.prunes}
        for i, j in sorted(pruned):
            if not lib.simulation.simulates(states[i], states[j]):
                out.problems.append(f"prune witness: state {i} does not simulate state {j}")
        for i, v in enumerate(result.verdicts):
            if v.status != "consistent":
                continue
            model = lib.semantics.model_from_json(v.witness["model"])
            if not lib.simulation.simulates_in_model(states[i], model, v.witness["point"]):
                out.problems.append(f"consistency witness of state {i} does not embed it")
        return out

    def counts(self, raw) -> dict[str, int]:
        space, paths, result = raw
        statuses = [v.status for v in result.verdicts]
        return {
            "step_pairs": len(space.step_pairs),
            "paths": len(paths.paths),
            "prunes": len(paths.prunes),
            "truncated_paths": int(paths.truncated),
            "judged": len(statuses),
            "unknown": statuses.count("unknown"),
            "search_hits": statuses.count("consistent"),
        }


def _check_step(lib, sensible: dict[tuple, bool], a, b) -> str:
    """Rebuild a witness for the step a -> b and check it with the library's
    sensibility and continuity predicates; ``sensible`` memoises the former.

    The witness is the greatest relation inside the sensible world pairs that
    satisfies the back-down condition, found by the benchmark's own
    refinement: drop (w, v) while some w2 below w has no partner below v.
    """
    pa, pb = a.space, b.space
    rel = set()
    for w in pa.worlds:
        for v in pb.worlds:
            key = (a.type_of(w), b.type_of(v))
            if key not in sensible:
                sensible[key] = bool(lib.quasimodel.is_sensible_pair(*key))
            if sensible[key]:
                rel.add((w, v))
    changed = True
    while changed:
        changed = False
        for w, v in sorted(rel):
            below_v = pb.downset(v)
            if any(not any((w2, v2) in rel for v2 in below_v) for w2 in pa.downset(w)):
                rel.discard((w, v))
                changed = True
    if (a.root, b.root) not in rel:
        return "no sensible continuous relation joins the roots"
    if {w for w, _ in rel} != set(pa.worlds):
        return "relation is not serial"
    continuous = lib.preorder.is_continuous_relation(pa, pb, rel)
    if not continuous:
        return continuous.reason
    return ""


WORKLOADS = {w.name: w for w in (ModelCheck(), Satisfy(), Explore())}
