"""Finite preorders viewed as topological spaces.

A finite preorder determines a topology whose open sets are exactly the
down-closed sets; the sets ``downset(w)`` form a basis.  Closure, interior,
cluster decomposition, and the continuity tests for maps and relations all
reduce to bitmask arithmetic over world indices, which is what this module
does throughout.  World identifiers are stable strings and every set-valued
result is reported in sorted id order.
"""

from __future__ import annotations

import functools
import itertools
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .util import Verdict, OK, bits, choices, fail


class PreorderError(ValueError):
    pass


class Preorder:
    """Worlds with a reflexive-transitive ``below`` relation.

    Input pairs ``(v, w)`` mean ``v`` lies below ``w`` (v is in the downset
    of w); the constructor closes them reflexively and transitively, so model
    authors may write Hasse-style edges.
    """

    __slots__ = ("worlds", "index", "down", "up", "full", "_cluster_masks", "_quotient",
                 "_norm", "_auts")

    def __init__(self, worlds: Iterable[str], pairs: Iterable[tuple[str, str]] = ()):
        self.worlds: tuple[str, ...] = tuple(sorted(set(worlds)))
        if not self.worlds:
            raise PreorderError("a preorder needs at least one world")
        self.index: dict[str, int] = {w: i for i, w in enumerate(self.worlds)}
        n = len(self.worlds)
        down = [1 << i for i in range(n)]
        for v, w in pairs:
            if v not in self.index or w not in self.index:
                raise PreorderError(f"unknown world in order pair ({v!r}, {w!r})")
            down[self.index[w]] |= 1 << self.index[v]
        for k in range(n):
            bit = 1 << k
            for i in range(n):
                if down[i] & bit:
                    down[i] |= down[k]
        self.down: tuple[int, ...] = tuple(down)
        up = [0] * n
        for j in range(n):
            dj = down[j]
            for i in bits(dj):
                up[i] |= 1 << j
        self.up: tuple[int, ...] = tuple(up)
        self.full: int = (1 << n) - 1
        self._cluster_masks: tuple[int, ...] | None = None
        self._quotient: tuple[tuple[int, ...], tuple[tuple[int, ...], ...]] | None = None
        self._norm: tuple[int, int, int] | None = None
        self._auts: tuple[tuple[int, ...], ...] | None = None

    def __len__(self) -> int:
        return len(self.worlds)

    def __repr__(self) -> str:
        return f"Preorder({len(self.worlds)} worlds)"

    # -- mask/id conversions ------------------------------------------------

    def mask_of(self, worlds: Iterable[str]) -> int:
        m = 0
        for w in worlds:
            try:
                m |= 1 << self.index[w]
            except KeyError:
                raise PreorderError(f"unknown world {w!r}") from None
        return m

    def ids_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.worlds[i] for i in bits(mask))

    def le(self, v: str, w: str) -> bool:
        """v below w."""
        return bool(self.down[self.index[w]] >> self.index[v] & 1)

    # -- topology -----------------------------------------------------------

    def downset(self, w: str) -> frozenset[str]:
        if w not in self.index:
            raise PreorderError(f"unknown world {w!r}")
        return self.ids_of(self.down[self.index[w]])

    def closure_mask(self, mask: int) -> int:
        out = 0
        for i, d in enumerate(self.down):
            if d & mask:
                out |= 1 << i
        return out

    def interior_mask(self, mask: int) -> int:
        return self.full ^ self.closure_mask(self.full ^ mask)

    def closure(self, worlds: Iterable[str]) -> frozenset[str]:
        return self.ids_of(self.closure_mask(self.mask_of(worlds)))

    def interior(self, worlds: Iterable[str]) -> frozenset[str]:
        return self.ids_of(self.interior_mask(self.mask_of(worlds)))

    def is_open_mask(self, mask: int) -> bool:
        return all(self.down[i] & ~mask == 0 for i in bits(mask))

    # -- clusters -----------------------------------------------------------

    def cluster_mask(self, i: int) -> int:
        return self.down[i] & self.up[i]

    def cluster_masks(self) -> tuple[int, ...]:
        """Distinct clusters, ordered by least member index."""
        if self._cluster_masks is None:
            seen: list[int] = []
            placed = 0
            for i in range(len(self.worlds)):
                if placed >> i & 1:
                    continue
                c = self.cluster_mask(i)
                seen.append(c)
                placed |= c
            self._cluster_masks = tuple(seen)
        return self._cluster_masks

    def cluster(self, w: str) -> frozenset[str]:
        return self.ids_of(self.cluster_mask(self.index[w]))

    def quotient(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """Cluster masks plus, per cluster, the indices of the strictly lower
        clusters."""
        if self._quotient is None:
            cms = self.cluster_masks()
            reps = [next(bits(c)) for c in cms]
            below = tuple(
                tuple(dj for dj, drep in enumerate(reps)
                      if dj != ci and self.down[rep] >> drep & 1)
                for ci, rep in enumerate(reps)
            )
            self._quotient = (cms, below)
        return self._quotient

    def daughters(self, ci: int) -> list[int]:
        """The clusters immediately below cluster ``ci``."""
        below = self.quotient()[1]
        return [d for d in below[ci] if not any(d in below[e] for e in below[ci])]

    def norm(self) -> tuple[int, int, int]:
        """Height, width, and their maximum.

        Height counts distinct worlds along a maximal comparability chain, so a
        cluster contributes its whole size; bounding height and width therefore
        bounds the world count on its own.  (Counting only strict steps is
        refuted by experiment: the small-successor norm budget it yields is too
        tight for cluster states to discharge their eventualities, breaking the
        successor-disjunction validity that the acceptance suite gates.)
        Width is the largest number of immediate strictly-lower daughter
        clusters any single world has.
        """
        if self._norm is None:
            cms, below = self.quotient()
            height = [0] * len(cms)
            # a strictly lower cluster has strictly fewer clusters below it
            for ci in sorted(range(len(cms)), key=lambda ci: len(below[ci])):
                height[ci] = cms[ci].bit_count() + max((height[d] for d in below[ci]),
                                                       default=0)
            hgt = max(height)
            wdt = max(len(self.daughters(ci)) for ci in range(len(cms)))
            self._norm = (hgt, wdt, max(hgt, wdt))
        return self._norm

    def order_pairs(self, mask: int | None = None) -> list[tuple[str, str]]:
        """(lower, upper) pairs of distinct worlds, both in ``mask`` (default
        all), ordered by upper index and then by lower index."""
        return _order_pairs(self.worlds, self.down, self.full if mask is None else mask)

    # -- isomorphism --------------------------------------------------------

    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """All permutations of world indices preserving the order."""
        if self._auts is None:
            n = len(self.worlds)
            down = self.down
            auts = [perm for perm in itertools.permutations(range(n))
                    if permute_down(down, perm) == down]
            self._auts = tuple(auts)
        return self._auts


def permute_mask(mask: int, perm: Sequence[int]) -> int:
    """``mask`` with each world index i moved to ``perm[i]``."""
    out = 0
    for i in bits(mask):
        out |= 1 << perm[i]
    return out


def permute_down(down: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    """The down-vector ``down`` with each world index i moved to ``perm[i]``."""
    out = [0] * len(down)
    for i, d in enumerate(down):
        out[perm[i]] = permute_mask(d, perm)
    return tuple(out)


def _order_pairs(names: tuple[str, ...], down: tuple[int, ...], mask: int) -> list[tuple[str, str]]:
    return [(names[j], names[i]) for i in bits(mask) for j in bits(down[i] & mask) if j != i]


def is_continuous_map(p: Preorder, f: Mapping[str, str]) -> Verdict:
    """Continuity of a self-map; on a down-set topology this is monotonicity.

    On failure the witness is a pair ``(v, w)`` with v below w but f(v) not
    below f(w).
    """
    fi = []
    for w in p.worlds:
        if w not in f:
            raise PreorderError(f"map undefined on world {w!r}")
        if f[w] not in p.index:
            raise PreorderError(f"map sends {w!r} to unknown world {f[w]!r}")
        fi.append(p.index[f[w]])
    for w in range(len(p.worlds)):
        fw_down = p.down[fi[w]]
        for v in bits(p.down[w]):
            if not fw_down >> fi[v] & 1:
                return fail("map is not monotone", (p.worlds[v], p.worlds[w]))
    return OK


def is_continuous_relation(
    p: Preorder, q: Preorder, rel: Iterable[tuple[str, str]]
) -> Verdict:
    """Preimage-of-open-is-open test for a relation between two preorders.

    Equivalent back-down form: whenever ``w R v`` and ``w'`` is below ``w``,
    some ``v'`` below ``v`` has ``w' R v'``.  Witness on failure is
    ``(w', w, v)``: the pair (w, v) whose obligation at w' has no image.
    """
    images = [0] * len(p.worlds)
    for w, v in rel:
        if w not in p.index:
            raise PreorderError(f"unknown world {w!r} on the left of the relation")
        if v not in q.index:
            raise PreorderError(f"unknown world {v!r} on the right of the relation")
        images[p.index[w]] |= 1 << q.index[v]
    for w in range(len(p.worlds)):
        for v in bits(images[w]):
            dv = q.down[v]
            for w2 in bits(p.down[w]):
                if images[w2] & dv == 0:
                    return fail(
                        "relation is not continuous",
                        (p.worlds[w2], p.worlds[w], q.worlds[v]),
                    )
    return OK


# ---------------------------------------------------------------------------
# Enumeration.

def _down_vectors(n: int) -> Iterator[tuple[int, ...]]:
    """All reflexive-transitive down-vectors on n labeled points.

    A vector is valid iff membership nests: j in down[i] implies
    down[j] subset of down[i].
    """
    masks_with = [[m for m in range(1 << n) if m >> i & 1] for i in range(n)]
    return choices(n, lambda i, chosen: [
        m for m in masks_with[i]
        if not any(m >> j & 1 and dj & ~m or dj >> i & 1 and m & ~dj
                   for j, dj in enumerate(chosen))])


def enumerate_preorders(n: int, up_to_iso: bool = True) -> Iterator[Preorder]:
    """All preorders on exactly n worlds named w0..w{n-1}.

    With ``up_to_iso`` only one representative per isomorphism class is
    produced (canonical representative, deterministic order).
    """
    names = tuple(f"w{i}" for i in range(n))
    if not up_to_iso:
        for down in _down_vectors(n):
            yield _from_down(names, down)
        return
    for down in _iso_representatives(n):
        yield _from_down(names, down)


@functools.lru_cache(maxsize=None)
def _iso_representatives(n: int) -> tuple[tuple[int, ...], ...]:
    """Sorted least down-vectors of the isomorphism classes on n points."""
    perms = list(itertools.permutations(range(n)))
    return tuple(sorted({min(permute_down(down, perm) for perm in perms)
                         for down in _down_vectors(n)}))


def _from_down(names: tuple[str, ...], down: tuple[int, ...]) -> Preorder:
    return Preorder(names, _order_pairs(names, down, (1 << len(down)) - 1))


def monotone_maps(p: Preorder) -> Iterator[dict[str, str]]:
    """All order-preserving self-maps, in deterministic order."""
    down, up = p.down, p.up

    def targets(i: int, chosen: list[int]) -> Iterator[int]:
        # j below i needs f(j) below f(i); i below j needs f(i) below f(j)
        mask = p.full
        for j, t in enumerate(chosen):
            if down[i] >> j & 1:
                mask &= up[t]
            if down[j] >> i & 1:
                mask &= down[t]
        return bits(mask)

    for fi in choices(len(p.worlds), targets):
        yield {w: p.worlds[t] for w, t in zip(p.worlds, fi)}


# ---------------------------------------------------------------------------
# JSON.  The readers check the shape of what they read, so a malformed
# document raises PreorderError instead of failing somewhere inside.

def json_key(data: Mapping, key: str, what: str) -> Any:
    """``data[key]``; a missing key names ``key`` and the document ``what``."""
    if key not in data:
        raise PreorderError(f"{what} JSON missing key {key!r}")
    return data[key]


def json_pairs(value: Any, what: str) -> list[tuple[str, str]]:
    """``value`` as a list of (world, world) pairs of strings."""
    if not isinstance(value, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(w, str) for w in p)
        for p in value
    ):
        raise PreorderError(f"{what} must be a list of [world, world] pairs")
    return [tuple(p) for p in value]


def preorder_from_json(data: Any, what: str) -> Preorder:
    """The ``worlds`` and ``order`` block of a JSON document named ``what``."""
    if not isinstance(data, Mapping):
        raise PreorderError(f"{what} JSON must be an object, not {type(data).__name__}")
    worlds = json_key(data, "worlds", what)
    if not isinstance(worlds, list) or not all(isinstance(w, str) for w in worlds):
        raise PreorderError(f"{what} JSON 'worlds' must be a list of strings")
    return Preorder(worlds, json_pairs(data.get("order", []), f"{what} JSON 'order'"))


def preorder_to_json(p: Preorder) -> dict:
    return {"worlds": list(p.worlds), "order": [list(pair) for pair in p.order_pairs()]}
