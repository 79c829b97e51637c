"""Simulations between typed preorders, between states, and into models.

A simulation is a continuous relation (back-down condition: anything below a
related source world must be matched below its target) whose pairs respect
types -- exact type equality between typed structures, satisfaction of the
source type when the target is a model.  The greatest simulation is computed
by fixpoint refinement from the full matching relation; it is the union of
all simulations, so root-relatedness in it decides the simulates-question.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .semantics import DynModel
from .states import State, TypedPreorder
from .util import Verdict, bits, fail


@dataclass(frozen=True)
class SimRelation:
    """Witnessing relation: per source world, the mask of the target worlds
    it is related to."""

    masks: tuple[int, ...]
    source_worlds: tuple
    target_worlds: tuple

    @functools.cached_property
    def pairs(self) -> frozenset:
        """The relation as (source world, target world) pairs."""
        return frozenset(
            (self.source_worlds[w], self.target_worlds[v])
            for w, m in enumerate(self.masks)
            for v in bits(m)
        )

    def related(self, w: str, v: str) -> bool:
        if w not in self.source_worlds or v not in self.target_worlds:
            return False
        return bool(self.masks[self.source_worlds.index(w)]
                    >> self.target_worlds.index(v) & 1)


def _refine(
    source: TypedPreorder,
    target_down: tuple[int, ...],
    initial: list[int],
) -> list[int]:
    """Shrink per-world target masks to the greatest continuous subrelation."""
    down = source.space.down
    n = len(initial)
    rel = list(initial)
    changed = True
    while changed:
        changed = False
        for w in range(n):
            m = rel[w]
            if not m:
                continue
            for v in bits(m):
                dv = target_down[v]
                ok = True
                for w2 in bits(down[w]):
                    if rel[w2] & dv == 0:
                        ok = False
                        break
                if not ok:
                    rel[w] &= ~(1 << v)
                    changed = True
    return rel


def greatest_simulation(a: TypedPreorder, b: TypedPreorder) -> SimRelation:
    """Largest type-preserving continuous relation between two typed preorders."""
    worlds_b: dict[frozenset, int] = {}
    for j, t in enumerate(b.types):
        worlds_b[t] = worlds_b.get(t, 0) | 1 << j
    initial = [worlds_b.get(t, 0) for t in a.types]
    rel = _refine(a, b.space.down, initial)
    return SimRelation(tuple(rel), a.space.worlds, b.space.worlds)


def simulates(w: State, v: State) -> Verdict:
    """Does the pattern of ``w`` embed into ``v`` from the roots?"""
    rel = greatest_simulation(w.base, v.base)
    if rel.related(w.root, v.root):
        return Verdict(True, "", rel)
    return fail("no simulation relates the roots", rel)


def _model_relation(st: State, model: DynModel) -> list[int]:
    """Per state world, the mask of model points it is related to by the
    greatest continuous relation whose pairs satisfy the source world's type."""
    initial = []
    for t in st.types:
        m = model.space.full
        for f in t:
            m &= model.eval_mask(f)
            if not m:
                break
        initial.append(m)
    return _refine(st.base, model.space.down, initial)


def simulated_points_mask(st: State, model: DynModel) -> int:
    """Mask of model points whose downset the state embeds into."""
    return _model_relation(st, model)[st.space.index[st.root]]


def simulates_in_model(st: State, model: DynModel, x: str) -> Verdict:
    """Continuous embedding of the state into the model at the point ``x``.

    Pairs must satisfy the source world's whole type at the target point.
    """
    rel = _model_relation(st, model)
    witness = SimRelation(tuple(rel), st.space.worlds, model.space.worlds)
    if rel[st.space.index[st.root]] >> model.space.index[x] & 1:
        return Verdict(True, "", witness)
    return fail("state does not embed at the point", witness)
