"""Finite dynamic preorder models and full evaluation of the language.

A model is a finite preorder (read as a down-set topology), a continuous --
i.e. monotone -- self-map, and a valuation.  Evaluation follows the clause
set: Boolean set algebra, ``X`` as preimage under the map, ``G`` as the
greatest fixpoint of ``H = [[f]] & preimage(H)`` (which on a finite space
equals the intersection of all iterated preimages), and the tangle diamond
via the tangled closure.

The tangled closure of a family S of sets is computed two independent ways:

* ``tangled_gfp`` -- the production path: greatest fixpoint of the pruning
  map ``E -> {x in E : every A in S meets the downset of x inside E}``.
* ``tangled_cluster`` -- the oracle: a point qualifies iff some cluster in
  its downset contains a representative of every member of S.

The two must agree on every finite model; the test suite checks this
exhaustively on small spaces.

Model search (``first_model``) finds the first model of the exhaustive
stream that satisfies a formula without building the models before it: it
evaluates each (preorder, map) skeleton once over all of its valuations at
the same time, one bit per valuation (bit slicing).  ``enumerate_models``,
which builds every model, is its reference: the test suite checks that a
scan over it gives the same count, model and point on small pools.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator, Mapping, Sequence

from .preorder import (
    Preorder,
    enumerate_preorders,
    is_continuous_map,
    monotone_maps,
    permute_mask,
    preorder_from_json,
    preorder_to_json,
)
from .syntax import And, Formula, Hence, Neg, Next, Tangle, Var, postorder
from .util import bits


class ModelError(ValueError):
    pass


class DynModel:
    """Immutable finite dynamic preorder model."""

    __slots__ = ("space", "f", "val", "strict", "_preimage", "_cache")

    def __init__(
        self,
        space: Preorder,
        f: Mapping[str, str],
        val: Mapping[str, Iterable[str] | int],
        strict: bool = False,
    ):
        self.space = space
        verdict = is_continuous_map(space, f)
        if not verdict:
            raise ModelError(f"map is not continuous: witness {verdict.witness}")
        self.f: tuple[int, ...] = tuple(space.index[f[w]] for w in space.worlds)
        masks: dict[str, int] = {}
        for var, ws in val.items():
            masks[var] = ws if isinstance(ws, int) else space.mask_of(ws)
        self.val = masks
        self.strict = strict
        pre = [0] * len(space.worlds)
        for x, y in enumerate(self.f):
            pre[y] |= 1 << x
        self._preimage: tuple[int, ...] = tuple(pre)
        self._cache: dict[Formula, int] = {}

    def __repr__(self) -> str:
        return f"DynModel({len(self.space.worlds)} worlds, {sorted(self.val)})"

    def map_of(self, w: str) -> str:
        return self.space.worlds[self.f[self.space.index[w]]]

    def preimage_mask(self, mask: int) -> int:
        out = 0
        for j in bits(mask):
            out |= self._preimage[j]
        return out

    def eval_mask(self, f: Formula) -> int:
        cached = self._cache.get(f)
        if cached is not None:
            return cached
        if isinstance(f, Var):
            if self.strict and f.name not in self.val:
                raise ModelError(f"valuation missing variable {f.name!r}")
            out = self.val.get(f.name, 0)
        elif isinstance(f, Neg):
            out = self.space.full ^ self.eval_mask(f.sub)
        elif isinstance(f, And):
            out = self.eval_mask(f.left) & self.eval_mask(f.right)
        elif isinstance(f, Next):
            out = self.preimage_mask(self.eval_mask(f.sub))
        elif isinstance(f, Hence):
            base = self.eval_mask(f.sub)
            out = base
            while True:
                nxt = base & self.preimage_mask(out)
                if nxt == out:
                    break
                out = nxt
        elif isinstance(f, Tangle):
            out = tangled_gfp_mask(self.space, [self.eval_mask(m) for m in f.members])
        else:
            raise TypeError(f"not a formula: {f!r}")
        self._cache[f] = out
        return out

    def clear_cache(self) -> None:
        """Drop memoized extensions; useful in long sweeps over one pool."""
        self._cache.clear()

    def eval(self, f: Formula) -> frozenset[str]:
        return self.space.ids_of(self.eval_mask(f))

    def satisfies(self, w: str, f: Formula) -> bool:
        return bool(self.eval_mask(f) >> self.space.index[w] & 1)

    def is_valid(self, f: Formula) -> bool:
        return self.eval_mask(f) == self.space.full


# ---------------------------------------------------------------------------
# Tangled closure, two ways.

def tangled_gfp_mask(space: Preorder, sets: Sequence[int]) -> int:
    """Greatest fixpoint of the pruning map, starting from the whole space."""
    e = space.full
    down = space.down
    n = len(down)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            if not e >> i & 1:
                continue
            de = down[i] & e
            for a in sets:
                if not de & a:
                    e ^= 1 << i
                    changed = True
                    break
    return e


def tangled_cluster_mask(space: Preorder, sets: Sequence[int]) -> int:
    """Oracle form: union of closures of clusters meeting every member."""
    out = 0
    for c in space.cluster_masks():
        if all(c & a for a in sets):
            out |= space.closure_mask(c)
    return out


def _space_of(model: DynModel | Preorder) -> Preorder:
    return model.space if isinstance(model, DynModel) else model


def _set_masks(space: Preorder, sets: Iterable[Iterable[str] | int]) -> list[int]:
    return [s if isinstance(s, int) else space.mask_of(s) for s in sets]


def tangled_gfp(model: DynModel | Preorder, sets: Iterable[Iterable[str] | int]) -> frozenset[str]:
    space = _space_of(model)
    return space.ids_of(tangled_gfp_mask(space, _set_masks(space, sets)))


def tangled_cluster(model: DynModel | Preorder, sets: Iterable[Iterable[str] | int]) -> frozenset[str]:
    space = _space_of(model)
    return space.ids_of(tangled_cluster_mask(space, _set_masks(space, sets)))


# ---------------------------------------------------------------------------
# Model JSON.

def model_from_json(data: Mapping) -> DynModel:
    for key in ("worlds", "f"):
        if isinstance(data, Mapping) and key not in data:
            raise ModelError(f"model JSON missing key {key!r}")
    space = preorder_from_json(data, "model")
    fmap, val = data["f"], data.get("val", {})
    if not isinstance(fmap, Mapping) or not all(isinstance(v, str) for v in fmap.values()):
        raise ModelError("model JSON 'f' must map worlds to worlds")
    if not isinstance(val, Mapping) or not all(
        isinstance(ws, list) and all(isinstance(w, str) for w in ws) for ws in val.values()
    ):
        raise ModelError("model JSON 'val' must map variables to lists of worlds")
    missing = [w for w in space.worlds if w not in fmap]
    if missing:
        raise ModelError(f"map not total: missing {missing}")
    return DynModel(space, fmap, val, strict=bool(data.get("strict", False)))


def model_to_json(model: DynModel) -> dict:
    space = model.space
    return {
        **preorder_to_json(space),
        "f": {w: model.map_of(w) for w in space.worlds},
        "val": {v: sorted(space.ids_of(m)) for v, m in sorted(model.val.items())},
    }


# ---------------------------------------------------------------------------
# Model enumeration.

EXHAUSTIVE_CAP = 5


def enumerate_models(n_max: int, vars: Sequence[str] = ()) -> Iterator[DynModel]:
    """Stream every finite model over the given variables: every preorder on
    at most ``n_max`` worlds up to isomorphism, every monotone self-map on it,
    and every valuation of the variables; ``EXHAUSTIVE_CAP`` guards against
    accidental blow-ups."""
    if n_max > EXHAUSTIVE_CAP:
        raise ModelError(
            f"exhaustive enumeration capped at {EXHAUSTIVE_CAP} worlds (asked {n_max})")
    for n in range(1, n_max + 1):
        for space in enumerate_preorders(n):
            for fmap in monotone_maps(space):
                for val in _all_valuations(space, vars):
                    yield DynModel(space, fmap, val)


def _all_valuations(space: Preorder, vars: Sequence[str]) -> Iterator[dict[str, int]]:
    n = len(space.worlds)
    if not vars:
        yield {}
        return
    for combo in itertools.product(range(1 << n), repeat=len(vars)):
        yield {v: m for v, m in zip(vars, combo)}


def random_model(rng: random.Random, n_max: int, vars: Sequence[str]) -> DynModel:
    n = rng.randint(1, n_max)
    names = tuple(f"w{i}" for i in range(n))
    pairs = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.35:
                pairs.append((names[i], names[j]))
    space = Preorder(names, pairs)
    fmap = _random_monotone_map(rng, space)
    val = {v: rng.randrange(1 << n) for v in vars}
    return DynModel(space, fmap, val)


_MAP_TRIES = 200  # random self-maps drawn before falling back to the identity


def _random_monotone_map(rng: random.Random, space: Preorder) -> dict[str, str]:
    n = len(space.worlds)
    for _ in range(_MAP_TRIES):
        f = {w: space.worlds[rng.randrange(n)] for w in space.worlds}
        if is_continuous_map(space, f):
            return f
    return {w: w for w in space.worlds}


def enumerate_static_models(
    n_max: int, vars: Sequence[str]
) -> Iterator[DynModel]:
    """Identity-map models, deduplicated up to isomorphism including valuation.

    Useful when evaluating map-free formulas: the map is irrelevant there, so
    one identity-map representative per (preorder, valuation) class covers
    every model.  Valuations are deduplicated through each preorder's
    automorphism group.
    """
    for n in range(1, n_max + 1):
        for space in enumerate_preorders(n):
            auts = space.automorphisms()
            ident = {w: w for w in space.worlds}
            seen: set[tuple[int, ...]] = set()
            for val in _all_valuations(space, vars):
                combo = tuple(val[v] for v in vars)
                canon = min(tuple(permute_mask(m, perm) for m in combo) for perm in auts) \
                    if vars else ()
                if canon in seen:
                    continue
                seen.add(canon)
                yield DynModel(space, ident, val)


# ---------------------------------------------------------------------------
# Bit-sliced model search.

_VAR, _NEG, _AND, _NEXT, _HENCE, _TANGLE = range(6)
_OPS = {Var: _VAR, Neg: _NEG, And: _AND, Next: _NEXT, Hence: _HENCE, Tangle: _TANGLE}


def first_model(
    formula: Formula, n_max: int, vars: Sequence[str], budget: int
) -> tuple[int, DynModel | None, str | None]:
    """The first model of ``enumerate_models(n_max, vars)`` with a point
    satisfying ``formula``, among its first ``budget`` models.

    Returns ``(examined, model, point)`` as a scan of that stream would: the
    hit's 1-based position and its lowest satisfying world; with no hit, the
    number of models drawn, which is ``budget + 1`` when the stream outlasts
    the budget.  Only the hit is built as a ``DynModel``.

    Each (preorder, map) skeleton is evaluated once for all of its
    valuations: the extension at a world is an int with one bit per
    valuation.  Valuation ``v`` is numbered in the order of
    ``_all_valuations``, so bit ``(k-1-i)*n + w`` of ``v`` is the value of
    ``vars[i]`` at world ``w`` (k variables, n worlds).  Every connective is
    bitwise, so the fixpoints of ``G`` and of the tangle are reached for all
    valuations at once, and the lowest set bit of the union over the worlds
    is the first hit.
    """
    if n_max > EXHAUSTIVE_CAP:
        raise ModelError(f"exhaustive enumeration capped at {EXHAUSTIVE_CAP} worlds (asked {n_max})")
    prog = _compile(formula, vars)
    # nodes without X or G below them depend on the preorder, not on the map
    timed: list[bool] = []
    for op, _, kids in prog:
        timed.append(op in (_NEXT, _HENCE) or any(timed[c] for c in kids))
    static = [i for i, t in enumerate(timed) if not t]
    dynamic = [i for i, t in enumerate(timed) if t]
    k = len(vars)
    done = 0
    for n in range(1, n_max + 1):
        size = 1 << (n * k)
        for space in enumerate_preorders(n):
            down = [list(bits(d)) for d in space.down]
            base: list | None = None
            for fmap in monotone_maps(space):
                left = budget - done
                if left <= 0:
                    return budget + 1, None, None
                verdict = is_continuous_map(space, fmap)
                if not verdict:
                    raise ModelError(f"map is not continuous: witness {verdict.witness}")
                if base is None:
                    # a narrower slice only happens where the scan stops
                    width = min(size, left)
                    base = [None] * len(prog)
                    _run_slices(prog, static, base, n, k, width, down, ())
                vals = list(base)
                fi = tuple(space.index[fmap[w]] for w in space.worlds)
                _run_slices(prog, dynamic, vals, n, k, width, down, fi)
                root = vals[-1]
                hits = 0
                for x in root:
                    hits |= x
                hits &= (1 << min(size, left)) - 1
                if hits:
                    v = (hits & -hits).bit_length() - 1
                    point = next(w for w in range(n) if root[w] >> v & 1)
                    val = {name: v >> ((k - 1 - i) * n) & space.full
                           for i, name in enumerate(vars)}
                    return done + v + 1, DynModel(space, fmap, val), space.worlds[point]
                if size > left:
                    return budget + 1, None, None
                done += size
    return done, None, None


def _compile(formula: Formula, vars: Sequence[str]) -> list[tuple]:
    """The distinct subformulas as ``(op, slot, children)``, children first
    and the formula last.  ``children`` index earlier entries; ``slot`` is a
    variable's position in ``vars`` (None when it is not there)."""
    nodes = postorder(formula)
    at = {g: i for i, g in enumerate(nodes)}
    slot = {name: i for i, name in enumerate(vars)}
    return [(_OPS[type(g)], slot.get(g.name) if isinstance(g, Var) else None,
             tuple(at[k] for k in g.kids)) for g in nodes]


def _bit_plane(b: int, width: int) -> int:
    """The valuation indices below ``width`` that have bit ``b`` set."""
    h = 1 << b
    if h >= width:
        return 0
    span = -(-width // (2 * h)) * 2 * h
    # all-ones over whole periods of 2h, divided by 2^h + 1, repeats h ones
    return (((1 << span) - 1) // ((1 << h) + 1) << h) & ((1 << width) - 1)


def _run_slices(
    prog: list[tuple], order: Sequence[int], vals: list, n: int, k: int,
    width: int, down: list[list[int]], fi: tuple[int, ...],
) -> None:
    """Evaluate the entries ``order`` of ``prog`` into ``vals``: one list of
    per-world valuation slices each, ``width`` valuations wide."""
    full = (1 << width) - 1
    for i in order:
        op, s, kids = prog[i]
        if op == _VAR:
            vals[i] = [0] * n if s is None else [
                _bit_plane((k - 1 - s) * n + w, width) for w in range(n)]
        elif op == _NEG:
            vals[i] = [full ^ x for x in vals[kids[0]]]
        elif op == _AND:
            vals[i] = [x & y for x, y in zip(vals[kids[0]], vals[kids[1]])]
        elif op == _NEXT:
            sub = vals[kids[0]]
            vals[i] = [sub[fi[x]] for x in range(n)]
        elif op == _HENCE:
            sub = vals[kids[0]]
            out = list(sub)
            changed = True
            while changed:
                changed = False
                for x in range(n):
                    nxt = sub[x] & out[fi[x]]
                    if nxt != out[x]:
                        out[x] = nxt
                        changed = True
            vals[i] = out
        else:
            sets = [vals[m] for m in kids]
            e = [full] * n
            changed = True
            while changed:
                changed = False
                for x in range(n):
                    keep = e[x]
                    for a in sets:
                        if not keep:
                            break
                        meet = 0
                        for j in down[x]:
                            meet |= e[j] & a[j]
                        keep &= meet
                    if keep != e[x]:
                        e[x] = keep
                        changed = True
            vals[i] = e
