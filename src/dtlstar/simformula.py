"""Defining formulas for "is simulated by this state".

For a distinctly typed state the constructed formula holds at a model point
exactly when the state's pattern embeds continuously below that point.  The
construction recurses on the rooted cluster structure:

    Sim(w) = /\\ type(root)
             & /\\_j <> Sim(daughter_j)
             & <>{ /\\ type(c) & /\\_j <> Sim(daughter_j)  :  c in root cluster }

with one daughter substate per immediate strictly-lower cluster of the root
cluster.  The tangle member set forces a single cluster in the model to host
matching points for every root-cluster world simultaneously, which is what
the back-and-forth unwinding of a simulation demands; plain closure diamonds
cannot express this.

The shipped formula is factored through indicator variables: the state is
retyped with one fresh variable per type in range, the construction runs on
that indicator state, and the indicators are substituted away by the type
conjunctions.  This keeps the defining property an instance of a purely
indicator-level fact and makes the factorization a syntactic identity.

Correctness is not assumed anywhere: the defining property is gated by an
exhaustive test over small states and models, and the construction can be
swapped behind ``sim_formula`` if a counterexample ever appears.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .semantics import DynModel, model_to_json
from .simulation import simulates
from .states import (
    State,
    StateError,
    distinctly_typed,
    root_restrictions,
    state_p,
    substate_at,
    substates,
    t_contains,
    type_key,
)
from .syntax import (
    Formula,
    Neg,
    Tangle,
    Var,
    conj,
    sub_pm,
    substitute,
    to_text,
)
from .util import bits


@functools.lru_cache(maxsize=4096)
def raw_sim_formula(st: State) -> Formula:
    """The recursive construction applied to the state's own types.  States
    hash and compare by canonical key, so the memo serves every state
    isomorphic to one already built."""
    space = st.space
    ri = space.index[st.root]
    root_cluster = space.cluster_mask(ri)
    cms = space.cluster_masks()
    daughter_reps = []
    for d in space.daughters(cms.index(root_cluster)):
        rep = min(bits(cms[d]), key=lambda i: (type_key(st.types[i]), i))
        daughter_reps.append(space.worlds[rep])
    daughter_sims = [raw_sim_formula(substate_at(st, rep)) for rep in sorted(daughter_reps)]
    diamonds = [Tangle((s,)) for s in daughter_sims]
    members = []
    for c in bits(root_cluster):
        members.append(conj([conj(st.types[c])] + diamonds))
    top = [conj(st.types[ri])] + diamonds + [Tangle(members)]
    return conj(top)


def _indicator_typed(st: State) -> bool:
    """One positive variable per type plus negations of all the others.

    Exactly the shape the indicator retyping produces; on such states the
    construction is its own factor, so the recursion bottoms out here.
    """
    positives: set[str] = set()
    for t in st.types:
        pos = [f for f in t if isinstance(f, Var)]
        if len(pos) != 1:
            return False
        if any(not (isinstance(f, Neg) and isinstance(f.sub, Var))
               for f in t if not isinstance(f, Var)):
            return False
        positives.add(pos[0].name)
    for t in st.types:
        mine = next(f for f in t if isinstance(f, Var)).name
        negs = {f.sub.name for f in t if isinstance(f, Neg)}
        if negs != positives - {mine}:
            return False
    return True


@functools.lru_cache(maxsize=4096)
def sim_formula(st: State) -> Formula:
    """Formula defining "simulated by ``st``" on every finite model.

    Factored form: the indicator-state construction with indicators replaced
    by their type conjunctions.  Requires a distinctly typed state.
    """
    verdict = distinctly_typed(st)
    if not verdict:
        raise StateError(f"state is not distinctly typed: {verdict.witness}")
    if any(not t for t in st.types):
        raise StateError("a world has an empty type; its conjunction has no formula form")
    if _indicator_typed(st):
        return raw_sim_formula(st)
    pst, var_types = state_p(st)
    sigma = {name: conj(t) for name, t in var_types.items()}
    return substitute(raw_sim_formula(pst), sigma)


# ---------------------------------------------------------------------------
# Property checks for simulation formulas over a model pool.

@dataclass
class ItemReport:
    checked: int = 0
    countermodel: dict | None = None

    @property
    def ok(self) -> bool:
        return self.countermodel is None


@dataclass
class PropsubReport:
    items: dict[int, ItemReport] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.items.values())


def _countermodel(
    pool: Sequence[DynModel],
    ant: Formula,
    disjuncts: Sequence[Formula],
    consequent: Formula | str | None,
    through_next: bool = False,
) -> dict | None:
    """The first pool model with a world where ``ant`` holds and no disjunct
    does, as a record naming ``consequent``; None when there is none.

    Disjuncts are checked one by one, so a large disjunction is never
    materialized as one formula, and an empty list asks whether ``ant`` is
    satisfiable.  ``through_next`` interposes the map preimage (the
    disjunction sits under a next).
    """
    for model in pool:
        bad = model.eval_mask(ant)
        for d in disjuncts:
            if not bad:
                break
            dm = model.eval_mask(d)
            if through_next:
                dm = model.preimage_mask(dm)
            bad &= ~dm
        if bad:
            return {
                "model": model_to_json(model),
                "world": model.space.worlds[next(bits(bad))],
                "antecedent": to_text(ant),
                "consequent": to_text(consequent) if isinstance(consequent, Formula)
                else consequent,
            }
    return None


def _lazy_countermodel(
    pool: Sequence[DynModel], ant: Formula, disjuncts: Sequence[Formula],
    through_next: bool = False,
) -> dict | None:
    """``_countermodel`` into the disjunction of ``disjuncts``, shortest first."""
    ordered = sorted(disjuncts, key=lambda f: (len(to_text(f)), f.sort_key()))
    what = (f"(lazy disjunction over {len(ordered)} terms"
            f"{' under next' if through_next else ''})") if ordered else None
    return _countermodel(pool, ant, ordered, what, through_next)


def _first_countermodel(
    pool: Sequence[DynModel], ant: Formula, consequents: Iterable[Formula]
) -> ItemReport:
    """Each consequent in turn, up to the first one with a countermodel."""
    rep = ItemReport()
    for cons in consequents:
        rep.checked += 1
        rep.countermodel = _countermodel(pool, ant, [cons], cons)
        if rep.countermodel:
            break
    return rep


def check_propsub(
    st: State,
    phi: Iterable[Formula],
    pool: Sequence[DynModel],
    i0_states: Sequence[State] | None = None,
    successor_states: Sequence[State] | None = None,
    items: Sequence[int] = (1, 2, 3, 4, 5),
) -> PropsubReport:
    """Check the five simulation-formula validities semantically over a pool.

    Item 4 needs the full list of norm-bounded states for ``phi`` (at least
    up to the pool's world count) and item 5 the state's small temporal
    successors; both are supplied by the caller so this module stays
    independent of the state-space machinery.
    """
    pool = list(pool)
    if not pool:
        raise ValueError("empty model pool")
    phi = tuple(phi)
    report = PropsubReport()
    sim_w = sim_formula(st)

    if 1 in items:
        report.items[1] = _first_countermodel(
            pool, sim_w, sorted(st.root_type(), key=Formula.sort_key))
    if 2 in items:
        report.items[2] = _first_countermodel(
            pool, sim_w, (sim_formula(v) for v in root_restrictions(st) if simulates(v, st)))
    if 3 in items:
        report.items[3] = _first_countermodel(
            pool, sim_w, (Tangle((sim_formula(v),)) for v in substates(st)))

    if 4 in items:
        if i0_states is None:
            raise ValueError("item 4 needs the norm-bounded state list")
        rep = report.items[4] = ItemReport()
        for psi in sorted(sub_pm(phi), key=Formula.sort_key):
            rep.checked += 1
            rep.countermodel = _lazy_countermodel(
                pool, psi, [sim_formula(w) for w in i0_states if t_contains(w.root_type(), psi)])
            if rep.countermodel:
                break

    if 5 in items:
        if successor_states is None:
            raise ValueError("item 5 needs the small temporal successor list")
        report.items[5] = ItemReport(1, _lazy_countermodel(
            pool, sim_w, [sim_formula(v) for v in successor_states], through_next=True))

    return report
