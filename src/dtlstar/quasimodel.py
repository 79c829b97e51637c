"""Quasimodels: typed preorders with a sensible step relation, plus paths.

A step pair of types is *sensible* when next-members transfer positively and
negatively, henceforth members persist, and eventualities are either realized
on the spot or deferred.  A quasimodel's step relation must be serial,
continuous, pairwise sensible, and omega-sensible: every eventuality in any
type is realized along some step path.

Infinite step paths are represented exclusively as lassos (finite stem plus
a cycle entry index); realization and pointwise comparison are decidable on
lassos, which is all the finite machinery needs.  Every finite model induces
a quasimodel over its own worlds (semantic types, step = graph of the map),
and the orbit of any point closes into a realizing lasso; that bridge is the
workhorse oracle for this module's tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from .preorder import Preorder, is_continuous_relation, json_key, json_pairs
from .semantics import DynModel
from .states import (
    TypedPreorder,
    TypeSet,
    t_contains,
    typed_preorder_from_json,
    typed_preorder_of_model,
    typed_preorder_to_json,
    validate_typing,
)
from .syntax import Formula, Hence, Neg, Next, negated, strip_double_neg, to_text
from .util import Verdict, OK, bits, fail, least_failure


class QuasimodelError(ValueError):
    pass


def eventualities_of(t: TypeSet) -> list[tuple[Formula, Formula]]:
    """Pairs (eventuality member, realization target) in a type.

    An eventuality is a member of shape ``~G d``; its target is ``~d``
    normalized.
    """
    out = []
    for f in sorted(t, key=Formula.sort_key):
        if isinstance(f, Neg) and isinstance(f.sub, Hence):
            out.append((f, negated(strip_double_neg(f.sub.sub))))
    return out


def is_sensible_pair(t1: TypeSet, t2: TypeSet) -> Verdict:
    """The four transfer conditions from one type to its step successor.
    Types are used as stored, so pass normalized ones, as a ``TypedPreorder``
    holds."""
    bad = []
    for f in t1:
        if isinstance(f, Next):
            if not t_contains(t2, f.sub):
                bad.append(("next member not carried over", f))
        elif isinstance(f, Neg) and isinstance(f.sub, Next):
            if negated(strip_double_neg(f.sub.sub)) not in t2:
                bad.append(("negated next member not refuted", f))
        elif isinstance(f, Hence):
            if f not in t2:
                bad.append(("henceforth member dropped", f))
        elif isinstance(f, Neg) and isinstance(f.sub, Hence):
            target = negated(strip_double_neg(f.sub.sub))
            if target not in t1 and f not in t2:
                bad.append(("eventuality neither realized nor deferred", f))
    return least_failure(bad)


class Quasimodel:
    """Typed preorder plus a step relation over its worlds."""

    __slots__ = ("base", "succ")

    def __init__(self, base: TypedPreorder, step: Iterable[tuple[str, str]]):
        self.base = base
        idx = base.space.index
        succ = [0] * len(base.space.worlds)
        for w, v in step:
            if w not in idx or v not in idx:
                raise QuasimodelError(f"unknown world in step pair ({w!r}, {v!r})")
            succ[idx[w]] |= 1 << idx[v]
        self.succ: tuple[int, ...] = tuple(succ)

    @property
    def space(self) -> Preorder:
        return self.base.space

    def type_of(self, w: str) -> TypeSet:
        return self.base.type_of(w)

    def step_pairs(self) -> list[tuple[str, str]]:
        ws = self.space.worlds
        return [(ws[i], ws[j]) for i in range(len(ws)) for j in bits(self.succ[i])]

    def __repr__(self) -> str:
        return f"Quasimodel({len(self.space.worlds)} worlds)"


def validate_quasimodel(q: Quasimodel) -> Verdict:
    """All quasimodel laws; the search bound for realization is the world
    count (plain reachability decides it)."""
    typing = validate_typing(q.base)
    if not typing:
        return fail(f"typing: {typing.reason}", typing.witness)
    space = q.space
    for i, m in enumerate(q.succ):
        if not m:
            return fail("step is not serial", space.worlds[i])
    cont = is_continuous_relation(space, space, q.step_pairs())
    if not cont:
        return fail(f"step: {cont.reason}", cont.witness)
    for i in range(len(space.worlds)):
        for j in bits(q.succ[i]):
            v = is_sensible_pair(q.base.types[i], q.base.types[j])
            if not v:
                return fail(
                    f"pair ({space.worlds[i]}, {space.worlds[j]}) not sensible: {v.reason}",
                    (space.worlds[i], space.worlds[j], v.witness),
                )
    for i in range(len(space.worlds)):
        for ev, target in eventualities_of(q.base.types[i]):
            if _shortest_path_to(q, i, target) is None:
                return fail(
                    "eventuality never realized along any step path",
                    (space.worlds[i], ev),
                )
    return OK


def _shortest_path_to(q: Quasimodel, start: int, target: Formula) -> list[int] | None:
    """BFS step path from start to the nearest world whose type has target."""
    if t_contains(q.base.types[start], target):
        return [start]
    prev: dict[int, int] = {start: -1}
    frontier = [start]
    while frontier:
        nxt = []
        for i in frontier:
            for j in sorted(bits(q.succ[i])):
                if j in prev:
                    continue
                prev[j] = i
                if t_contains(q.base.types[j], target):
                    path = [j]
                    while path[-1] != start:
                        path.append(prev[path[-1]])
                    path.reverse()
                    return path
                nxt.append(j)
        frontier = nxt
    return None


def quasimodel_of_model(model: DynModel, phi: Iterable[Formula]) -> Quasimodel:
    """Semantic types over the model's own worlds, step = graph of the map."""
    base = typed_preorder_of_model(model, phi)
    ws = model.space.worlds
    step = [(w, ws[model.f[model.space.index[w]]]) for w in ws]
    return Quasimodel(base, step)


# ---------------------------------------------------------------------------
# Paths and lassos.

@dataclass(frozen=True)
class Path:
    """Finite step path; with ``loop`` set it denotes the eventually periodic
    infinite path repeating from that index."""

    worlds: tuple[str, ...]
    loop: int | None = None

    def __post_init__(self):
        if not self.worlds:
            raise QuasimodelError("empty path")
        if self.loop is not None and not 0 <= self.loop < len(self.worlds):
            raise QuasimodelError("loop index out of range")

    def __len__(self) -> int:
        return len(self.worlds)

    def at(self, n: int) -> str:
        if n < len(self.worlds):
            return self.worlds[n]
        if self.loop is None:
            raise IndexError("finite path exhausted")
        period = len(self.worlds) - self.loop
        return self.worlds[self.loop + (n - self.loop) % period]

    def shift(self) -> "Path":
        """Drop the first element; a realizing lasso stays a realizing lasso."""
        if self.loop is None:
            if len(self.worlds) < 2:
                raise QuasimodelError("cannot shift a one-element finite path")
            return Path(self.worlds[1:], None)
        if self.loop > 0:
            return Path(self.worlds[1:], self.loop - 1)
        return Path(self.worlds[1:] + (self.worlds[0],), 0)


def validate_path(q: Quasimodel, path: Path) -> Verdict:
    idx = q.space.index
    for a, b in zip(path.worlds, path.worlds[1:]):
        if not q.succ[idx[a]] >> idx[b] & 1:
            return fail("consecutive worlds not in step", (a, b))
    if path.loop is not None:
        a, b = path.worlds[-1], path.worlds[path.loop]
        if not q.succ[idx[a]] >> idx[b] & 1:
            return fail("lasso does not close", (a, b))
    return OK


def path_below(q: Quasimodel, lower: Path, upper: Path, n: int) -> bool:
    """Pointwise comparison of the first ``n`` entries (basic open membership)."""
    for i in range(n):
        if not q.space.le(lower.at(i), upper.at(i)):
            return False
    return True


def extend_path_below(q: Quasimodel, path: Path, v0: str, length: int = 0) -> Path:
    """A path starting at ``v0`` running below the given one, then extended.

    Uses the continuity of the step relation pointwise, and seriality past
    the end of the given path.  Requires ``v0`` below the path's start.
    """
    space = q.space
    idx = space.index
    if not space.le(v0, path.worlds[0]):
        raise QuasimodelError(f"{v0!r} is not below the path start {path.worlds[0]!r}")
    out = [idx[v0]]
    for n in range(1, len(path.worlds)):
        wn = idx[path.worlds[n]]
        cands = q.succ[out[-1]] & space.down[wn]
        if not cands:
            raise QuasimodelError(
                "step relation is not continuous at "
                f"({space.worlds[out[-1]]!r}, {path.worlds[n]!r})"
            )
        out.append(next(bits(cands)))
    while len(out) < length:
        cands = q.succ[out[-1]]
        if not cands:
            raise QuasimodelError(f"step is not serial at {space.worlds[out[-1]]!r}")
        out.append(next(bits(cands)))
    return Path(tuple(space.worlds[i] for i in out), None)


def is_realizing(q: Quasimodel, path: Path) -> Verdict:
    """Every eventuality at every position is realized at a later position.

    Only lassos can certify this; positions at or past the loop recur, so a
    target found anywhere in the loop serves any earlier obligation.
    """
    if path.loop is None:
        return fail("only lasso paths can be certified realizing", None)
    v = validate_path(q, path)
    if not v:
        return v
    n = len(path.worlds)
    types = [q.type_of(w) for w in path.worlds]
    for i in range(n):
        for ev, target in eventualities_of(types[i]):
            if not any(t_contains(types[j], target) for j in range(min(i, path.loop), n)):
                return fail("eventuality unrealized on the lasso", (path.worlds[i], ev))
    return OK


def realizing_lasso(q: Quasimodel, w0: str) -> Path:
    """Build a realizing lasso from ``w0`` on a valid quasimodel.

    Scheduler: discharge pending eventualities first-in-first-out, each via
    the shortest step path to a realizing world; watch for a repeated world
    whose induced cycle passes the realizing check.
    """
    space = q.space
    idx = space.index
    start = idx[w0]
    path = [start]
    pending: list[Formula] = []

    def absorb(i: int) -> None:
        t = q.base.types[i]
        for ev, target in eventualities_of(t):
            if not t_contains(t, target) and target not in pending:
                pending.append(target)

    def discharge(i: int) -> None:
        t = q.base.types[i]
        nonlocal pending
        pending = [x for x in pending if not t_contains(t, x)]

    def close() -> Path | None:
        """A realizing lasso closing the cycle through an earlier occurrence
        of the path's last world, if one exists."""
        for jpos in range(len(path) - 1):
            if path[jpos] == path[-1]:
                cand = Path(tuple(space.worlds[i] for i in path[:-1]), jpos)
                if is_realizing(q, cand):
                    return cand
        return None

    absorb(start)
    discharge(start)
    n_types = len(space.worlds)
    bound = 4 * (n_types + 1) * (1 << min(len(pending) + 4, 12)) + 64
    for _ in range(bound):
        if not pending:
            if (lasso := close()) is not None:
                return lasso
            nxt = next(bits(q.succ[path[-1]]), None)
            if nxt is None:
                raise QuasimodelError(f"step is not serial at {space.worlds[path[-1]]!r}")
            path.append(nxt)
            absorb(nxt)
            discharge(nxt)
            continue
        target = pending[0]
        seg = _shortest_path_to(q, path[-1], target)
        if seg is None:
            raise QuasimodelError(
                f"eventuality target {to_text(target)!r} unreachable from "
                f"{space.worlds[path[-1]]!r}"
            )
        for i in seg[1:]:
            path.append(i)
            absorb(i)
            discharge(i)
        if t_contains(q.base.types[path[-1]], target):
            discharge(path[-1])
        if not pending and (lasso := close()) is not None:
            return lasso
    raise QuasimodelError("no realizing lasso found within the search bound")


def orbit_lasso(model: DynModel, x: str) -> Path:
    """The map orbit of a point, closed at its first repetition."""
    space = model.space
    seen: dict[int, int] = {}
    seq = []
    i = space.index[x]
    while i not in seen:
        seen[i] = len(seq)
        seq.append(i)
        i = model.f[i]
    return Path(tuple(space.worlds[j] for j in seq), seen[i])


# ---------------------------------------------------------------------------
# JSON.

def quasimodel_from_json(data: Any) -> Quasimodel:
    base = typed_preorder_from_json(data, "quasimodel")
    return Quasimodel(base, json_pairs(json_key(data, "step", "quasimodel"),
                                       "quasimodel JSON 'step'"))


def quasimodel_to_json(q: Quasimodel) -> dict:
    return {**typed_preorder_to_json(q.base), "step": [list(p) for p in q.step_pairs()]}
