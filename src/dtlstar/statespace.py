"""The universal state space, temporal successors, efficiency, reachability,
canonical structures over a consistency oracle, and bounded satisfiability.

States with a shared formula signature are related two ways: the substate
embedding (their order) and the temporal successor relation (a serial,
continuous, pairwise-sensible relation over their underlying worlds relating
the roots).  A successor is *small* when its norm stays within the source's
norm plus the number of tangle subformulas in play; efficient paths use only
small steps and forbid any earlier state that the path later simulates,
which keeps the search space finite.  One depth-first walker serves
efficient paths, reachability and the eventuality check of canonical
structures; ``canonical_structure`` judges each state once and walks from
every eventuality state over one set of successor lists and one
simulation memo.

Consistency of a state means its simulation formula cannot be refuted.
That is undecidable, so it is oracle-mediated here: a model-search oracle
(a finite model of the simulation formula proves consistency), a
proof-witness oracle (a checked derivation of the negated simulation formula
proves inconsistency), and a trusting oracle (everything consistent).
Unknown verdicts are reported, never silently dropped: a failed check on an
oracle-filtered structure distinguishes genuine violations from oracle gaps.

The ``satisfy`` pipeline is sound-only: a satisfiable verdict always carries
independently re-checkable witnesses (a model with a point, and, when the
reachable fragment certifies as a quasimodel, the fragment plus a realizing
lasso); exhausted caps yield "no witness found", never "unsatisfiable".
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Container, Iterable, Iterator, Sequence

from .preorder import Preorder, enumerate_preorders
from .proofkit import check_proof
from .semantics import DynModel, first_model, model_to_json
from .simformula import sim_formula
from .simulation import simulates
from .states import (
    State,
    StateError,
    TypedPreorder,
    has_type_containing,
    norm,
    phi_types,
    root_restrictions,
    state_of_model_point,
    state_to_json,
    sub_dia_count,
    substates,
    t_contains,
    validate_typing,
)
from .quasimodel import (
    Quasimodel,
    eventualities_of,
    is_sensible_pair,
    quasimodel_to_json,
    realizing_lasso,
    validate_quasimodel,
)
from .syntax import Formula, Neg, formula_length, to_text, variables
from .util import Verdict, bits, choices, fail

# simulation's refinement loop drives the successor search as well
from .simulation import _refine, simulated_points_mask


class SpaceError(ValueError):
    pass


def _check_oracle_caps(worlds: int, budget: int) -> None:
    if worlds < 1:
        raise SpaceError(f"oracle world cap must be at least 1 (got {worlds})")
    if budget < 1:
        raise SpaceError(f"oracle model budget must be at least 1 (got {budget})")


@dataclass(frozen=True)
class Caps:
    """Engineering truncations; every cap hit is recorded in the output.
    Every cap must be at least 1."""

    max_worlds: int = 6          # world cap for full state-space enumeration
    max_states: int = 2000
    state_worlds: int = 3        # world cap for states inside satisfy
    oracle_worlds: int = 3       # model size cap for the search oracle
    oracle_budget: int = 50_000
    fragment_states: int = 80
    path_steps: int = 50_000

    def __post_init__(self) -> None:
        _check_oracle_caps(self.oracle_worlds, self.oracle_budget)
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 1:
                raise SpaceError(f"cap {f.name} must be at least 1 (got {value})")


def _norm_bound(phi: Sequence[Formula], k: int = 0) -> int:
    """The level-k norm bound over phi; an empty signature still admits the
    one-world state with the empty type."""
    return max(1, (k + 1) * formula_length(phi))


# ---------------------------------------------------------------------------
# Temporal successors.

def _sensible_types(t1, t2, memo: dict[tuple, bool]) -> bool:
    hit = memo.get((t1, t2))
    if hit is None:
        hit = bool(is_sensible_pair(t1, t2))
        memo[t1, t2] = hit
    return hit


def temporal_successor(w: State, v: State, memo: dict[tuple, bool] | None = None) -> Verdict:
    """Is there a serial continuous pairwise-sensible relation w -> v joining
    the roots?  Computed by refining the all-sensible-pairs relation; the
    greatest continuous subrelation decides both conditions at once.

    ``memo`` caches sensibility by type pair; a caller checking many pairs
    passes one dict for all of them, so its life is the caller's."""
    if memo is None:
        memo = {}
    nv = len(v.space.worlds)
    initial = []
    for t in w.types:
        m = 0
        for j in range(nv):
            if _sensible_types(t, v.types[j], memo):
                m |= 1 << j
        initial.append(m)
    rel = _refine(w.base, v.space.down, initial)
    ri = w.space.index[w.root]
    rj = v.space.index[v.root]
    if not rel[ri] >> rj & 1:
        return fail("no sensible continuous relation joins the roots")
    if any(m == 0 for m in rel):
        i = next(i for i, m in enumerate(rel) if m == 0)
        return fail("relation cannot be serial", w.space.worlds[i])
    pairs = frozenset(
        (w.space.worlds[i], v.space.worlds[j])
        for i in range(len(rel))
        for j in bits(rel[i])
    )
    return Verdict(True, "", pairs)


def is_small_successor(w: State, v: State) -> bool:
    """Norm bound for successors: target norm at most source norm plus the
    count of tangle subformulas appearing in the source's types."""
    return norm(v)[2] <= norm(w)[2] + sub_dia_count(w)


# ---------------------------------------------------------------------------
# State enumeration.

@dataclass
class StateSpace:
    phi: tuple[Formula, ...]
    states: list[State]
    substate_pairs: set[tuple[int, int]]   # (substate, superstate)
    step_pairs: set[tuple[int, int]]
    small_pairs: set[tuple[int, int]]
    complete: bool
    notes: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.states)


def _rooted_shapes(n: int) -> Iterator[tuple[Preorder, list[str]]]:
    for p in enumerate_preorders(n):
        tops = [w for w in p.worlds if p.down[p.index[w]] == p.full]
        if tops:
            yield p, tops


def enumerate_phi_states(
    phi: Iterable[Formula], k: int = 0, caps: Caps = Caps()
) -> tuple[list[State], bool, list[str]]:
    """All states over phi within the norm bound and the world cap.

    Returns (states, complete, notes); ``complete`` is False when a cap
    truncated the enumeration.
    """
    phi = tuple(phi)
    bound = _norm_bound(phi, k)
    types = phi_types(phi)
    notes: list[str] = []
    seen: set[tuple] = set()
    out: list[State] = []
    complete = True
    # a state within the norm bound has at most bound^bound clusters of at
    # most min(#types, 2^len) worlds each; never enumerate shapes past that
    max_cluster = min(len(types), 2 ** formula_length(phi))
    max_clusters = sum(max(1, bound) ** i for i in range(max(1, bound)))
    hard_world_cap = min(caps.max_worlds, max_cluster * max_clusters)
    for n in range(1, hard_world_cap + 1):
        for shape, tops in _rooted_shapes(n):
            if shape.norm()[2] > bound:
                continue
            for assign in _type_assignments(shape, types):
                tp = TypedPreorder(shape, list(assign))
                if not validate_typing(tp):
                    continue
                for root in tops:
                    st = State(tp, root)
                    key = st.canonical_key()
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append(st)
                    if len(out) >= caps.max_states:
                        notes.append(f"state cap {caps.max_states} reached")
                        return out, False, notes
    if hard_world_cap < max_cluster * max_clusters:
        complete = False
        notes.append(f"world cap {hard_world_cap} below the norm-bound maximum")
    return out, complete, notes


def _type_assignments(shape: Preorder, types: Sequence) -> Iterator[tuple]:
    """Assign a type per world, distinct within each cluster."""
    earlier = [shape.cluster_mask(i) & ((1 << i) - 1) for i in range(len(shape.worlds))]

    def allowed(i: int, chosen: list) -> Iterator:
        taken = [chosen[j] for j in bits(earlier[i])]
        return (t for t in types if t not in taken)

    return choices(len(shape.worlds), allowed)


def _substate_pairs(states: Sequence[State]) -> tuple[set[tuple[int, int]], list[int]]:
    """(substate, superstate) index pairs among the states, and the index of
    a state once for each of its substates that is not among them."""
    key_index = {st.canonical_key(): i for i, st in enumerate(states)}
    pairs: set[tuple[int, int]] = set()
    missing: list[int] = []
    for i, st in enumerate(states):
        for sub in substates(st):
            j = key_index.get(sub.canonical_key())
            if j is None:
                missing.append(i)
            else:
                pairs.add((j, i))
    return pairs, missing


def enumerate_states(phi: Iterable[Formula], k: int = 0, caps: Caps = Caps()) -> StateSpace:
    """Materialize the state space with its substate and successor relations."""
    phi = tuple(phi)
    states, complete, notes = enumerate_phi_states(phi, k, caps)
    sub_pairs, missing = _substate_pairs(states)
    notes.extend(f"substate of state {i} missing (cap)" for i in missing)
    space = StateSpace(
        phi=phi,
        states=states,
        substate_pairs=sub_pairs,
        step_pairs=set(),
        small_pairs=set(),
        complete=complete,
        notes=notes,
    )
    memo: dict[tuple, bool] = {}
    # is_small_successor per pair, with each state's side computed once
    size = [norm(st)[2] for st in states]
    small_limit = [n + sub_dia_count(st) for n, st in zip(size, states)]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            if not _sensible_types(a.root_type(), b.root_type(), memo):
                continue
            t = temporal_successor(a, b, memo)
            if t:
                space.step_pairs.add((i, j))
                if size[j] <= small_limit[i]:
                    space.small_pairs.add((i, j))
    return space


# ---------------------------------------------------------------------------
# Reduction into the base norm bound.

def reduce_state(st: State, phi: Iterable[Formula]) -> State | None:
    """Find a norm-bounded state that simulates the given one.

    Searches root-preserving restrictions (dropping worlds preserves the
    root type and can only shrink the norm).  Returns None when the search
    fails; callers treat that as unknown.
    """
    bound = _norm_bound(tuple(phi))
    if norm(st)[2] <= bound:
        return st
    return next((cand for cand in root_restrictions(st) if norm(cand)[2] <= bound
                 and validate_typing(cand.base) and simulates(cand, st)), None)


# ---------------------------------------------------------------------------
# Efficiency and reachability.

@dataclass
class EfficientPaths:
    paths: list[tuple[int, ...]]
    prunes: list[tuple[tuple[int, ...], int, int]]  # (attempted path, m1, m2)
    truncated: bool


def _start_index(start: int, space: StateSpace) -> int:
    if not 0 <= start < len(space.states):
        raise SpaceError(f"start index {start} outside a space of {len(space.states)} states")
    return start


def _small_successors(space: StateSpace, keep: Container[int]) -> dict[int, list[int]]:
    """Small-step successor lists in index order, between kept states only."""
    succ: dict[int, list[int]] = {}
    for a, b in sorted(space.small_pairs):
        if a in keep and b in keep:
            succ.setdefault(a, []).append(b)
    return succ


class _SimMasks:
    """Which states simulate state j, decided lazily over one list of
    states: ``decided[j]`` holds the states whose answer is known and
    ``yes[j]`` those of them that simulate state j."""

    __slots__ = ("states", "decided", "yes")

    def __init__(self, states: Sequence[State]):
        self.states = states
        self.decided = [0] * len(states)
        self.yes = [0] * len(states)

    def decide(self, mask: int, j: int) -> None:
        """Decide for every state in ``mask`` whether it simulates state j."""
        todo = mask & ~self.decided[j]
        target = self.states[j]
        for i in bits(todo):
            if simulates(self.states[i], target):
                self.yes[j] |= 1 << i
        self.decided[j] |= todo


def _walk(i0: int, succ: dict[int, list[int]], sim: _SimMasks, steps: int,
          sink: EfficientPaths | None = None) -> tuple[set[int], bool]:
    """Depth-first search of the efficient paths from ``i0`` along ``succ``.

    A step to a state that an earlier path state simulates is pruned, with
    the first such state as the prune's witness.  Each visited path costs
    one of ``steps``; when they run out the walk stops and reports
    truncation.  Returns (visited states, truncated); a ``sink`` also
    receives every maximal path and every prune.

    Every state simulates itself, so a path never repeats a state and the
    mask of its states stands for the path in the simulation test.
    """
    decided, yes = sim.decided, sim.yes
    visited = 0
    budget = steps
    truncated = False

    def visit(path: list[int], on_path: int) -> None:
        nonlocal visited, budget, truncated
        if budget <= 0:
            truncated = True
            return
        budget -= 1
        visited |= 1 << path[-1]
        extended = False
        for nxt in succ.get(path[-1], ()):
            if on_path & ~decided[nxt]:
                sim.decide(on_path, nxt)
            hit = yes[nxt] & on_path
            if hit:
                if sink is not None:
                    for m1, old in enumerate(path):
                        if hit >> old & 1:
                            break
                    sink.prunes.append((tuple(path) + (nxt,), m1, len(path)))
            else:
                extended = True
                path.append(nxt)
                visit(path, on_path | 1 << nxt)
                path.pop()
        if not extended and sink is not None:
            sink.paths.append(tuple(path))

    visit([i0], 1 << i0)
    return set(bits(visited)), truncated


def efficient_paths(start: int, space: StateSpace, caps: Caps = Caps()) -> EfficientPaths:
    """All maximal small-step paths from the start state (an index into
    ``space.states``) with no earlier state simulating a later one.  Any
    repeat is already inefficient, so only finitely many such paths exist;
    the step cap is a guard that flags truncation instead of hanging."""
    i0 = _start_index(start, space)
    result = EfficientPaths([], [], False)
    succ = _small_successors(space, range(len(space.states)))
    _, result.truncated = _walk(i0, succ, _SimMasks(space.states), caps.path_steps, result)
    return result


@dataclass(frozen=True)
class ConsistencyVerdict:
    status: str  # "consistent" | "inconsistent" | "unknown"
    witness: Any = None
    note: str = ""

    @property
    def consistent(self) -> bool:
        return self.status == "consistent"


class TrustingOracle:
    """Marks every state consistent; reproduces the unrestricted space."""

    name = "trusting"

    def judge(self, st: State) -> ConsistencyVerdict:
        return ConsistencyVerdict("consistent", None, "assumed")


class ModelSearchOracle:
    """Bounded search for a finite model of the state's simulation formula.

    A hit proves consistency (the axioms are sound); exhaustion leaves the
    state unknown, never inconsistent.
    """

    name = "model-search"

    def __init__(self, max_worlds: int = 3, budget: int = 50_000):
        _check_oracle_caps(max_worlds, budget)
        self.max_worlds = max_worlds
        self.budget = budget
        self._cache: dict[tuple, ConsistencyVerdict] = {}

    def judge(self, st: State) -> ConsistencyVerdict:
        key = st.canonical_key()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        f = sim_formula(st)
        examined, model, x = first_model(f, self.max_worlds, sorted(variables(f)), self.budget)
        if model is not None:
            out = ConsistencyVerdict(
                "consistent", {"model": model_to_json(model), "point": x},
                f"model found after {examined}"
            )
        elif examined > self.budget:
            out = ConsistencyVerdict("unknown", None, f"budget {self.budget} exhausted")
        else:
            out = ConsistencyVerdict(
                "unknown", None,
                f"no model with at most {self.max_worlds} worlds ({examined} searched)"
            )
        self._cache[key] = out
        return out


class ProofWitnessOracle:
    """Accepts user-supplied derivations of the negated simulation formula."""

    name = "proof-witness"

    def __init__(self, proofs: Sequence = ()):
        self.proofs = list(proofs)

    def judge(self, st: State) -> ConsistencyVerdict:
        goal = Neg(sim_formula(st))
        for proof in self.proofs:
            if proof.steps and proof.steps[-1].formula == goal and check_proof(proof):
                return ConsistencyVerdict("inconsistent", proof, "derivation of the negation")
        return ConsistencyVerdict("unknown", None, "no matching derivation")


def make_oracle(name: str, caps: Caps = Caps()) -> Any:
    if name == "trusting":
        return TrustingOracle()
    if name == "model-search":
        return ModelSearchOracle(caps.oracle_worlds, caps.oracle_budget)
    raise SpaceError(f"unknown oracle {name!r}")


@dataclass
class ReachResult:
    reachable: set[int]
    excluded_unknown: set[int]
    truncated: bool


def reachable(start: int, space: StateSpace, oracle, caps: Caps = Caps()) -> ReachResult:
    """Endpoints of efficient small-step paths from the start state (an index
    into ``space.states``) through consistent states.

    Unknown states are excluded and recorded.
    """
    i0 = _start_index(start, space)
    verdicts = [oracle.judge(st) for st in space.states]
    allowed = {i for i, v in enumerate(verdicts) if v.consistent}
    excluded = {i for i, v in enumerate(verdicts) if v.status == "unknown"}
    if i0 not in allowed:
        return ReachResult(set(), excluded, False)
    out, truncated = _walk(
        i0, _small_successors(space, allowed), _SimMasks(space.states), caps.path_steps)
    return ReachResult(out, excluded, truncated)


# ---------------------------------------------------------------------------
# Canonical structures.

def _named_structure(
    states: Sequence[State], members: Iterable[int], sub_pairs: Iterable[tuple[int, int]],
    step_pairs: Iterable[tuple[int, int]], what: str,
) -> tuple[dict[str, int], Quasimodel | None, Verdict]:
    """The member states named s0, s1, ... in order, typed by their root
    types, ordered by the substate pairs and stepped by the step pairs
    among them, as a validated quasimodel.

    Returns (names, structure, verdict) with ``names`` mapping each name to
    its state index; a structure that cannot be built is reported as
    ``"<what> not well formed: ..."``.
    """
    names = {f"s{pos}": i for pos, i in enumerate(members)}
    rev = {i: nm for nm, i in names.items()}
    structure = None
    try:
        structure = Quasimodel(
            TypedPreorder(
                Preorder(names, [(rev[a], rev[b]) for a, b in sub_pairs
                                 if a in rev and b in rev]),
                {nm: states[i].root_type() for nm, i in names.items()},
            ),
            [(rev[a], rev[b]) for a, b in step_pairs if a in rev and b in rev],
        )
        return names, structure, validate_quasimodel(structure)
    except (StateError, ValueError) as e:
        return names, structure, fail(f"{what} not well formed: {e}")


@dataclass
class CanonicalResult:
    structure: Quasimodel | None
    state_names: dict[str, int]
    verdicts: list[ConsistencyVerdict]
    openness: list[dict]
    seriality: list[dict]
    eventuality: list[dict]
    quasimodel_verdict: Verdict | None
    regular: bool

    def check_summary(self) -> dict:
        return {
            "openness_issues": self.openness,
            "seriality_issues": self.seriality,
            "eventuality_issues": self.eventuality,
            "quasimodel": None if self.quasimodel_verdict is None
            else {"ok": bool(self.quasimodel_verdict),
                  "reason": self.quasimodel_verdict.reason},
            "regular": self.regular,
        }


def canonical_structure(
    phi: Iterable[Formula], space: StateSpace, oracle, caps: Caps = Caps()
) -> CanonicalResult:
    """Restrict the space to oracle-consistent states and run the structure
    checks: substate-closure of consistency, small-step seriality, and
    realization of every eventuality within reach.  A structure passing all
    checks and the quasimodel laws is certified regular."""
    verdicts = [oracle.judge(st) for st in space.states]
    cons = [i for i, v in enumerate(verdicts) if v.consistent]
    cons_set = set(cons)
    kind = lambda i: "violation" if verdicts[i].status == "inconsistent" else "oracle-gap"

    openness: list[dict] = []
    for (sub, sup) in sorted(space.substate_pairs):
        if sup in cons_set and sub not in cons_set:
            openness.append({"state": sup, "substate": sub, "kind": kind(sub)})

    succ = _small_successors(space, cons_set)
    sim = _SimMasks(space.states)
    small_sources = {a for a, _ in space.small_pairs}
    seriality: list[dict] = []
    for i in cons:
        if i not in succ:
            seriality.append({
                "state": i,
                "kind": "oracle-gap" if i in small_sources or not space.complete
                else "violation",
            })

    eventuality: list[dict] = []
    for i in cons:
        evs = eventualities_of(space.states[i].root_type())
        if not evs:
            continue
        rho, _ = _walk(i, succ, sim, caps.path_steps)
        for ev, target in evs:
            if not any(t_contains(space.states[j].root_type(), target) for j in rho):
                eventuality.append({
                    "state": i,
                    "eventuality": to_text(ev),
                    "kind": "violation" if space.complete else "oracle-gap",
                })

    structure = None
    qverdict = None
    names: dict[str, int] = {}
    if cons:
        names, structure, qverdict = _named_structure(
            space.states, cons, space.substate_pairs, space.step_pairs, "structure")
    regular = (
        not openness
        and not seriality
        and not eventuality
        and qverdict is not None
        and bool(qverdict)
    )
    return CanonicalResult(
        structure, names, verdicts, openness, seriality, eventuality, qverdict, regular
    )


# ---------------------------------------------------------------------------
# Satisfiability.

@dataclass
class SatReport:
    verdict: str  # "satisfiable" | "no-witness-found"
    formula: str
    witness_model: dict | None = None
    witness_state: dict | None = None
    quasimodel: dict | None = None
    quasimodel_states: dict | None = None
    lasso: dict | None = None
    checks: dict | None = None
    info: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _fragment_from_model(
    model: DynModel, phi: tuple[Formula, ...], x: str, caps: Caps
) -> tuple[list[State], list[tuple[int, int]], list[str]]:
    """Orbit-closed family of model-derived states with step edges.

    Nodes are the point-states of every world in the forward closure of the
    downset of ``x``; each point belongs to the node of its point-state, and
    steps follow the map from point to point.  Returns (nodes, edges, notes).
    """
    space = model.space
    points: set[int] = set(bits(space.down[space.index[x]]))
    frontier = list(points)
    while frontier:
        i = frontier.pop()
        j = model.f[i]
        if j not in points:
            points.add(j)
            frontier.append(j)
        for d in bits(space.down[j]):
            if d not in points:
                points.add(d)
                frontier.append(d)
    notes: list[str] = []
    nodes: list[State] = []
    key_of: dict[tuple, int] = {}
    point_node: dict[int, int] = {}
    for i in sorted(points):
        st = state_of_model_point(model, phi, space.worlds[i])
        key = st.canonical_key()
        if key not in key_of:
            if len(nodes) >= caps.fragment_states:
                notes.append(f"fragment cap {caps.fragment_states} reached")
                break
            key_of[key] = len(nodes)
            nodes.append(st)
        point_node[i] = key_of[key]
    edges: set[tuple[int, int]] = set()
    for i in sorted(points):
        if i in point_node and model.f[i] in point_node:
            edges.add((point_node[i], point_node[model.f[i]]))
    return nodes, sorted(edges), notes


def satisfy(
    formula: Formula,
    caps: Caps = Caps(),
    oracle: str = "model-search",
    seed: int = 0,
) -> SatReport:
    """Witness-producing bounded satisfiability.

    With the model-search oracle: look for a finite model of the formula
    within caps; on a hit, carve the witness state out of the satisfying
    point, build the reachable model-derived fragment, re-verify every step
    edge, run the structure checks on it, and emit all witnesses.  With the
    trusting oracle: pure state search.  Never answers "unsatisfiable".
    """
    if oracle not in ("model-search", "trusting"):
        raise SpaceError(f"unknown oracle {oracle!r}")
    phi = (formula,)
    info: dict[str, Any] = {
        "caps": {
            "max_worlds": caps.max_worlds,
            "oracle_worlds": caps.oracle_worlds,
            "oracle_budget": caps.oracle_budget,
            "fragment_states": caps.fragment_states,
        },
        "oracle": oracle,
        "seed": seed,
    }
    if not has_type_containing(formula):
        info["reason"] = "no type contains the formula"
        return SatReport("no-witness-found", to_text(formula), info=info)

    if oracle == "trusting":
        return _satisfy_trusting(formula, caps, info)

    examined, model, x = first_model(
        formula, caps.oracle_worlds, sorted(variables(formula)), caps.oracle_budget)
    info["models_examined"] = examined
    if model is None:
        info["reason"] = "no model within caps"
        return SatReport("no-witness-found", to_text(formula), info=info)

    w_star = state_of_model_point(model, phi, x)
    orbit_key = w_star.canonical_key()
    reduced = reduce_state(w_star, phi)
    if reduced is None:
        info["witness_state_in_base_norm"] = False
    else:
        info["witness_state_in_base_norm"] = True
        w_star = reduced

    nodes, edges, notes = _fragment_from_model(model, phi, x, caps)
    info["fragment_notes"] = notes
    # independent re-verification of every edge and of node consistency
    verified_edges = []
    sensible: dict[tuple, bool] = {}
    for (a, b) in edges:
        if temporal_successor(nodes[a], nodes[b], sensible):
            verified_edges.append((a, b))
        else:
            notes.append(f"edge ({a},{b}) failed re-verification")
    small_edges = [
        (a, b) for (a, b) in verified_edges if is_small_successor(nodes[a], nodes[b])
    ]
    sub_pairs, missing = _substate_pairs(nodes)
    openness = [
        {"state": i, "substate": None, "kind": "oracle-gap"}
        for i in dict.fromkeys(missing)
    ]
    seriality = [
        {"state": i, "kind": "oracle-gap"}
        for i in range(len(nodes))
        if not any(a == i for (a, b) in small_edges)
    ]

    names, structure, qverdict = _named_structure(
        nodes, range(len(nodes)), sub_pairs, verified_edges, "fragment")
    label = list(names)
    lasso_json = None
    # the lasso starts at the orbit node carved from the satisfying point;
    # its root type matches the reported witness state's root type
    start_idx = next((i for i, st in enumerate(nodes) if st.canonical_key() == orbit_key), None)
    if qverdict and start_idx is not None:
        try:
            lasso = realizing_lasso(structure, label[start_idx])
            lasso_json = {"worlds": list(lasso.worlds), "loop": lasso.loop}
        except (StateError, ValueError) as e:
            qverdict = fail(f"fragment not well formed: {e}")

    checks = {
        "edge_count": len(verified_edges),
        "small_edge_count": len(small_edges),
        "openness_issues": openness,
        "seriality_issues": seriality,
        "quasimodel": {"ok": bool(qverdict), "reason": qverdict.reason},
        # the construction guarantees each node a point of the witness model
        "consistency": [
            {"state": label[i], "status": "consistent", "note": "witness model"}
            if simulated_points_mask(st, model)
            else {"state": label[i], "status": "unknown", "note": "no point in witness model"}
            for i, st in enumerate(nodes)
        ],
    }
    report = SatReport(
        "satisfiable",
        to_text(formula),
        witness_model={"model": model_to_json(model), "point": x},
        witness_state=state_to_json(w_star),
        checks=checks,
        info=info,
    )
    if qverdict:
        report.quasimodel = quasimodel_to_json(structure)
        report.quasimodel_states = {nm: state_to_json(nodes[i]) for nm, i in names.items()}
        report.lasso = lasso_json
    return report


def _satisfy_trusting(formula: Formula, caps: Caps, info: dict) -> SatReport:
    """State-search pipeline under the trusting oracle.

    Satisfiable only when the restricted space certifies as a quasimodel and
    carries the formula; otherwise honestly inconclusive.
    """
    phi = (formula,)
    space = enumerate_states(
        phi, 0,
        Caps(max_worlds=caps.state_worlds, max_states=caps.max_states,
             path_steps=caps.path_steps),
    )
    info["space_states"] = len(space.states)
    info["space_complete"] = space.complete
    oracle = TrustingOracle()
    result = canonical_structure(phi, space, oracle, caps)
    start = next(
        (i for i, st in enumerate(space.states) if t_contains(st.root_type(), formula)),
        None,
    )
    checks = result.check_summary()
    if (
        start is not None
        and result.structure is not None
        and result.quasimodel_verdict
    ):
        name = next(nm for nm, i in result.state_names.items() if i == start)
        lasso = realizing_lasso(result.structure, name)
        return SatReport(
            "satisfiable",
            to_text(formula),
            witness_state=state_to_json(space.states[start]),
            quasimodel=quasimodel_to_json(result.structure),
            quasimodel_states={
                nm: state_to_json(space.states[i]) for nm, i in result.state_names.items()
            },
            lasso={"worlds": list(lasso.worlds), "loop": lasso.loop},
            checks=checks,
            info=info,
        )
    info["reason"] = "restricted space did not certify as a quasimodel" \
        if start is not None else "no enumerated state carries the formula"
    return SatReport("no-witness-found", to_text(formula), checks=checks, info=info)
