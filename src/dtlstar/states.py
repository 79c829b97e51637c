"""Weak types, typed preorders, and rooted states.

A *type* here is a finite set of formulas subject to local closure laws
(no member together with its negation, conjunctions split, negated
conjunctions split negatively, henceforth members imply their body).  Type
members are stored with leading double negations stripped, and membership is
always tested modulo that normalization.

A *typed preorder* attaches a type to every world and must satisfy the two
tangle witness laws: a tangle member of a type needs a cluster below the
world covering all its members, and a negated tangle member forbids any such
cluster from jointly refuting it.  A *state* is a finite typed preorder with
a top point above everything; states are the local building blocks of the
satisfiability machinery, are kept duplicate-free inside clusters, and
compare equal exactly when isomorphic.

Isomorphism is decided by one canonical labelling.  Each world is coloured
by (not root, type key), and colours are refined by the multisets of colours
below and above each world until no class splits.  The key of a state is
its type keys in colour order together with the least down masks over the
arrangements that list the worlds by colour, permuting only within a colour
class.  Colours are invariant, so isomorphic states share their arrangements
and their least one; the key determines the state (the root is the one world
of the first colour), so equal keys mean isomorphic states.

Checks over a set of members report the failing member least in
``Formula.sort_key`` order, so witnesses do not depend on set order.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .preorder import Preorder, json_key, permute_down, preorder_from_json, preorder_to_json
from .semantics import DynModel
from .syntax import (
    And,
    Formula,
    Hence,
    Neg,
    Next,
    Tangle,
    Var,
    negated,
    parse,
    postorder,
    strip_double_neg,
    sub_pm,
    subformulas,
    substitute,
    to_text,
    variables,
)
from .util import Verdict, OK, bits, fail, least_failure

TypeSet = frozenset  # of Formula, normalized members


class StateError(ValueError):
    pass


def norm_type(formulas: Iterable[Formula]) -> TypeSet:
    return frozenset(strip_double_neg(f) for f in formulas)


def t_contains(t: TypeSet, f: Formula) -> bool:
    return strip_double_neg(f) in t


def type_key(t: TypeSet) -> tuple:
    return tuple(sorted(f.sort_key() for f in t))


def is_weak_type(t: Iterable[Formula]) -> Verdict:
    t = norm_type(t)
    bad = []
    for f in t:
        if negated(f) in t:
            bad.append(("member and its negation both present", f))
        elif isinstance(f, And):
            if not t_contains(t, f.left) or not t_contains(t, f.right):
                bad.append(("conjunction member without both conjuncts", f))
        elif isinstance(f, Neg) and isinstance(f.sub, And):
            a = negated(strip_double_neg(f.sub.left))
            b = negated(strip_double_neg(f.sub.right))
            if a not in t and b not in t:
                bad.append(("negated conjunction without a negated conjunct", f))
        elif isinstance(f, Hence):
            if not t_contains(t, f.sub):
                bad.append(("henceforth member without its body", f))
    return least_failure(bad)


def is_phi_type(t: Iterable[Formula], phi: Iterable[Formula]) -> Verdict:
    """Weak type that decides every subformula of phi and stays inside sub±."""
    t = norm_type(t)
    weak = is_weak_type(t)
    if not weak:
        return weak
    allowed = sub_pm(phi)
    outside = least_failure(("member outside the signed subformula closure", f)
                            for f in t if f not in allowed)
    if not outside:
        return outside
    return least_failure(("undecided subformula", s)
                         for s in map(strip_double_neg, subformulas(phi))
                         if s not in t and negated(s) not in t)


def phi_types(phi: Iterable[Formula]) -> list[TypeSet]:
    """All types over phi, deterministically ordered."""
    phi = tuple(phi)
    reps: set[Formula] = set()
    for s in subformulas(phi):
        s = strip_double_neg(s)
        reps.add(s.sub if isinstance(s, Neg) else s)
    ordered = sorted(reps, key=Formula.sort_key)
    out = []
    for signs in itertools.product((False, True), repeat=len(ordered)):
        t = frozenset(negated(r) if s else r for r, s in zip(ordered, signs))
        if is_weak_type(t):
            out.append(t)
    out.sort(key=type_key)
    return out


def has_type_containing(f: Formula) -> bool:
    """Whether some type over ``(f,)`` contains ``f``.

    Same answer as ``any(t_contains(t, f) for t in phi_types((f,)))``, but
    the search stops at the first such type.  A type picks a sign for every
    variable, ``X`` and tangle subformula freely; ``&`` and ``~`` follow from
    their children, and ``G s`` may hold only where ``s`` holds.  The search
    backtracks over those atoms, evaluating ``f`` three-valued (None for
    undecided) after each choice, and abandons a branch once ``f`` is false
    or some chosen ``G s`` has a false body.
    """
    nodes = postorder(f)
    at = {g: i for i, g in enumerate(nodes)}
    atoms = [i for i, g in enumerate(nodes) if not isinstance(g, (Neg, And))]
    hence = [(i, at[g.sub]) for i, g in enumerate(nodes) if isinstance(g, Hence)]
    derived = [
        (i, at[g.sub], None) if isinstance(g, Neg) else (i, at[g.left], at[g.right])
        for i, g in enumerate(nodes) if isinstance(g, (Neg, And))
    ]
    val: list[bool | None] = [None] * len(nodes)

    def verdict() -> bool | None:
        for i, a, b in derived:
            x = val[a]
            if b is None:
                val[i] = None if x is None else not x
            else:
                y = val[b]
                val[i] = False if x is False or y is False else (
                    True if x and y else None)
        if val[-1] is False or any(val[h] and val[s] is False for h, s in hence):
            return False
        if val[-1] and all(not val[h] or val[s] for h, s in hence):
            return True
        return None

    # depth-first over the atoms in order, True before False; the atoms
    # chosen so far are atoms[:depth], the rest are None
    depth = 0
    while True:
        v = verdict()
        if v:
            return True
        if v is None:
            val[atoms[depth]] = True
            depth += 1
            continue
        while depth and val[atoms[depth - 1]] is False:
            depth -= 1
            val[atoms[depth]] = None
        if not depth:
            return False
        val[atoms[depth - 1]] = False


class TypedPreorder:
    """A preorder with a type attached to each world."""

    __slots__ = ("space", "types")

    def __init__(self, space: Preorder, types: Mapping[str, Iterable[Formula]] | Sequence[Iterable[Formula]]):
        self.space = space
        if isinstance(types, Mapping):
            missing = [w for w in space.worlds if w not in types]
            if missing:
                raise StateError(f"missing types for worlds {missing}")
            self.types: tuple[TypeSet, ...] = tuple(norm_type(types[w]) for w in space.worlds)
        else:
            if len(types) != len(space.worlds):
                raise StateError("one type per world required")
            self.types = tuple(norm_type(t) for t in types)

    def type_of(self, w: str) -> TypeSet:
        return self.types[self.space.index[w]]

    def cluster_union(self, mask: int) -> TypeSet:
        out: set[Formula] = set()
        for i in bits(mask):
            out |= self.types[i]
        return frozenset(out)

    def restrict(self, mask: int) -> "TypedPreorder":
        space = Preorder([self.space.worlds[i] for i in bits(mask)],
                         self.space.order_pairs(mask))
        return TypedPreorder(space, [self.types[i] for i in bits(mask)])

    def __repr__(self) -> str:
        return f"TypedPreorder({len(self.space.worlds)} worlds)"


def validate_typing(tp: TypedPreorder) -> Verdict:
    """Both tangle witness laws, for every world and tangle-shaped member.

    Failure witness is ``(world, formula)`` for the offending obligation.
    """
    space = tp.space
    cluster_of_rep = {c: tp.cluster_union(c) for c in space.cluster_masks()}
    cluster_inter: dict[int, TypeSet] = {}
    for c in space.cluster_masks():
        members = [tp.types[i] for i in bits(c)]
        inter = set(members[0])
        for t in members[1:]:
            inter &= t
        cluster_inter[c] = frozenset(inter)
    for w in range(len(space.worlds)):
        clusters_below = {c for c in space.cluster_masks() if c & space.down[w]}
        bad = []
        for f in tp.types[w]:
            if isinstance(f, Tangle):
                if not any(
                    all(t_contains(cluster_of_rep[c], g) for g in f.members)
                    for c in clusters_below
                ):
                    bad.append(("tangle member lacks a witnessing cluster", f))
            elif isinstance(f, Neg) and isinstance(f.sub, Tangle):
                if not all(
                    any(negated(strip_double_neg(g)) in cluster_inter[c] for g in f.sub.members)
                    for c in clusters_below
                ):
                    bad.append(("negated tangle member refuted by a cluster below", f))
        if bad:
            v = least_failure(bad)
            return fail(v.reason, (space.worlds[w], v.witness))
    return OK


class State:
    """Finite rooted typed preorder, duplicate-free inside each cluster.

    Equality and hashing are up to isomorphism (type- and root-preserving
    relabeling), via a cached canonical form.
    """

    __slots__ = ("base", "root", "_canon")

    def __init__(self, base: TypedPreorder, root: str):
        self.base = base
        if root not in base.space.index:
            raise StateError(f"unknown root {root!r}")
        self.root = root
        space = base.space
        ri = space.index[root]
        if space.down[ri] != space.full:
            raise StateError("not every world lies below the root")
        for c in space.cluster_masks():
            seen: set[TypeSet] = set()
            for i in bits(c):
                if base.types[i] in seen:
                    raise StateError(
                        f"two equivalent worlds share a type in cluster {sorted(space.ids_of(c))}"
                    )
                seen.add(base.types[i])
        self._canon: tuple | None = None

    @property
    def space(self) -> Preorder:
        return self.base.space

    @property
    def types(self) -> tuple[TypeSet, ...]:
        return self.base.types

    def root_type(self) -> TypeSet:
        return self.base.type_of(self.root)

    def type_of(self, w: str) -> TypeSet:
        return self.base.type_of(w)

    def __len__(self) -> int:
        return len(self.space.worlds)

    def __repr__(self) -> str:
        return f"State({len(self)} worlds, root={self.root!r})"

    def canonical_key(self) -> tuple:
        if self._canon is None:
            self._canon = _canonical_state_key(self)
        return self._canon

    def __eq__(self, other: object) -> bool:
        return isinstance(other, State) and self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())


def _canonical_state_key(st: State) -> tuple:
    """The labelling of the module docstring."""
    ri = st.space.index[st.root]
    keys = [type_key(t) for t in st.types]
    colour = [(i != ri, k) for i, k in enumerate(keys)]
    # refine until the colours are all distinct or no class splits
    while len(rank := {c: r for r, c in enumerate(sorted(set(colour)))}) < len(colour):
        finer = [(rank[c],
                  tuple(sorted(rank[colour[j]] for j in bits(st.space.down[i]))),
                  tuple(sorted(rank[colour[j]] for j in bits(st.space.up[i]))))
                 for i, c in enumerate(colour)]
        if len(set(finer)) == len(rank):
            break
        colour = finer
    order = sorted(range(len(keys)), key=colour.__getitem__)
    groups = [tuple(g) for _, g in itertools.groupby(order, key=colour.__getitem__)]
    arrangements = (list(itertools.chain(*a))
                    for a in itertools.product(*map(itertools.permutations, groups)))
    # an arrangement lists the old indices in their new order; sorting inverts it
    return tuple(keys[i] for i in order), min(
        permute_down(st.space.down, sorted(range(len(keys)), key=flat.__getitem__))
        for flat in arrangements)


# ---------------------------------------------------------------------------
# Bridges from models.

def typed_preorder_of_model(model: DynModel, phi: Iterable[Formula]) -> TypedPreorder:
    """Each world typed by the signed subformulas of phi true there, each
    evaluated once and in sort order (a strict model's error is fixed)."""
    masks = [(f, model.eval_mask(f)) for f in sorted(sub_pm(phi), key=Formula.sort_key)]
    return TypedPreorder(model.space, [frozenset(f for f, m in masks if m >> i & 1)
                                       for i in range(len(model.space.worlds))])


def state_of_model_point(model: DynModel, phi: Iterable[Formula], x: str) -> State:
    """The state carved out of the downset of ``x``, with semantic types.

    Worlds that are equivalent and carry the same type are merged, so the
    output always satisfies the duplicate-free state invariant.  The point
    ``x`` survives the merge as the root.
    """
    space = model.space
    xi = space.index[x]
    tp = typed_preorder_of_model(model, phi)
    reps: dict[tuple[int, TypeSet], int] = {}
    for i in bits(space.down[xi]):
        key = (space.cluster_mask(i), tp.types[i])
        if key not in reps or i == xi:
            reps[key] = i
    keep = 0
    for i in reps.values():
        keep |= 1 << i
    return State(tp.restrict(keep), x)


# ---------------------------------------------------------------------------
# Norms.

def norm(st: State) -> tuple[int, int, int]:
    """Height, width, and their maximum of the state's preorder (see
    ``Preorder.norm``)."""
    return st.space.norm()


def sub_dia_count(st: State) -> int:
    """Distinct tangle-shaped subformulas occurring in any type of the state."""
    tangles: set[Formula] = set()
    for t in st.types:
        for f in subformulas(t):
            if isinstance(f, Tangle):
                tangles.add(f)
    return len(tangles)


# ---------------------------------------------------------------------------
# Substates and state transforms.

def substate_at(st: State, v: str) -> State:
    vi = st.space.index[v]
    return State(st.base.restrict(st.space.down[vi]), v)


def substates(st: State) -> list[State]:
    """One generated substate per world, the state itself at the root."""
    return [substate_at(st, v) for v in st.space.worlds]


def root_restrictions(st: State) -> Iterator[State]:
    """The state restricted to each world set that holds its root: smaller
    sets first, each size in lexicographic order of world index."""
    ri = st.space.index[st.root]
    rest = [i for i in range(len(st)) if i != ri]
    for size in range(len(rest) + 1):
        for combo in itertools.combinations(rest, size):
            yield State(st.base.restrict(sum(1 << i for i in combo) | 1 << ri), st.root)


def distinctly_typed(st: State) -> Verdict:
    distinct = sorted({type_key(t): t for t in st.types}.items())
    tys = [t for _, t in distinct]
    for a, b in itertools.combinations(tys, 2):
        if not any(negated(f) in b for f in a) and not any(negated(f) in a for f in b):
            return fail("two types differ without an explicit conflict",
                        (sorted(map(to_text, a)), sorted(map(to_text, b))))
    return OK


def state_p(st: State) -> tuple[State, dict[str, TypeSet]]:
    """Retype each world by indicator variables, one per type in range.

    The world's own indicator is asserted and every other range type's
    indicator is denied.  Returns the retyped state and the variable-to-type
    map needed to substitute the indicators away again.
    """
    rng = sorted({type_key(t): t for t in st.types}.items())
    used = set()
    for t in st.types:
        used |= variables(t)
    # Zero-padded so later batches of fresh names sort the same way; keeps
    # the indicator construction stable under repeated application.
    gen = (f"pt{i:03d}" for i in itertools.count())
    fresh = (nm for nm in gen if nm not in used)
    names = [next(fresh) for _ in rng]
    name_of = {k: nm for (k, _), nm in zip(rng, names)}
    new_types = []
    for t in st.types:
        mine = name_of[type_key(t)]
        members = [Var(mine)]
        members.extend(Neg(Var(nm)) for nm in names if nm != mine)
        new_types.append(frozenset(members))
    base = TypedPreorder(st.space, new_types)
    return State(base, st.root), {nm: t for (_, t), nm in zip(rng, names)}


def state_plus(st: State, phi: Iterable[Formula], range_over_types: bool = False) -> State:
    """Close every type under the next-step consequences of its temporal members.

    For each henceforth formula (drawn from ``phi`` itself, or from the type
    when ``range_over_types`` is set) the type gains its next-shifted copy;
    each unrealized eventuality gains its next-shifted copy too.
    """
    phi = tuple(phi)
    hence_pool = [f for f in phi if isinstance(f, Hence)]
    new_types = []
    for t in st.types:
        add: set[Formula] = set(t)
        pool = [f for f in t if isinstance(f, Hence)] if range_over_types else hence_pool
        for f in pool:
            add.add(Next(f))
        for f in t:
            if isinstance(f, Neg) and isinstance(f.sub, Hence):
                body = negated(strip_double_neg(f.sub.sub))
                if body not in t:
                    add.add(Next(f))
        new_types.append(frozenset(add))
    return State(TypedPreorder(st.space, new_types), st.root)


def state_subst(st: State, sigma: Mapping[str, Formula]) -> State:
    """Map every type member through a substitution; may collapse types.

    Raises if the substitution makes two equivalent worlds indistinguishable.
    """
    new_types = [norm_type(substitute(f, sigma) for f in t) for t in st.types]
    try:
        return State(TypedPreorder(st.space, new_types), st.root)
    except StateError as e:
        raise StateError(f"substitution collapses equivalent worlds: {e}") from None


# ---------------------------------------------------------------------------
# JSON.

def typed_preorder_from_json(data: Any, what: str) -> TypedPreorder:
    """The ``worlds``, ``order`` and ``types`` block of a JSON document named
    ``what``."""
    space = preorder_from_json(data, what)
    types = json_key(data, "types", what)
    if not isinstance(types, Mapping) or not all(
        isinstance(ts, list) and all(isinstance(t, str) for t in ts) for ts in types.values()
    ):
        raise StateError(f"{what} JSON 'types' must map worlds to lists of formulas")
    return TypedPreorder(space, {w: [parse(t) for t in ts] for w, ts in types.items()})


def typed_preorder_to_json(tp: TypedPreorder) -> dict:
    return {
        **preorder_to_json(tp.space),
        "types": {w: sorted(to_text(f) for f in tp.type_of(w)) for w in tp.space.worlds},
    }


def state_from_json(data: Any) -> State:
    base = typed_preorder_from_json(data, "state")
    root = json_key(data, "root", "state")
    if not isinstance(root, str):
        raise StateError("state JSON 'root' must be a world")
    return State(base, root)


def state_to_json(st: State) -> dict:
    return {**typed_preorder_to_json(st.base), "root": st.root}
