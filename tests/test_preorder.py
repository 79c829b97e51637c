import itertools
import random

import pytest

from dtlstar.preorder import (
    Preorder,
    PreorderError,
    enumerate_preorders,
    is_continuous_map,
    is_continuous_relation,
    monotone_maps,
    _down_vectors,
)
from dtlstar.quasimodel import quasimodel_from_json, quasimodel_of_model, quasimodel_to_json
from dtlstar.semantics import model_from_json, model_to_json, random_model
from dtlstar.states import state_from_json, state_of_model_point, state_to_json
from dtlstar.syntax import parse
from dtlstar.util import bits, choices


def chain():
    return Preorder(["a", "b"], [("b", "a")])


def cluster2():
    return Preorder(["x", "y"], [("x", "y"), ("y", "x")])


class TestDownset:
    def test_chain(self):
        p = chain()
        assert p.downset("a") == {"a", "b"}
        assert p.downset("b") == {"b"}

    def test_cluster(self):
        p = cluster2()
        assert p.downset("x") == {"x", "y"}

    def test_unknown_world(self):
        with pytest.raises(PreorderError):
            chain().downset("zzz")

    def test_reflexive_transitive_closure_applied(self):
        p = Preorder(["a", "b", "c"], [("c", "b"), ("b", "a")])
        assert p.le("c", "a")
        assert p.le("a", "a")


class TestClosure:
    def test_chain_examples(self):
        p = chain()
        assert p.closure(["b"]) == {"a", "b"}
        assert p.closure(["a"]) == {"a"}
        assert p.closure([]) == frozenset()

    def test_interior_duality(self):
        p = chain()
        assert p.interior(["a", "b"]) == {"a", "b"}
        assert p.interior(["a"]) == frozenset()

    def test_kuratowski_exhaustive_small(self):
        # closure laws on every preorder with at most 4 worlds
        for n in range(1, 5):
            for p in enumerate_preorders(n):
                full = p.full
                for a in range(1 << n):
                    ca = p.closure_mask(a)
                    assert ca & a == a  # contains its argument
                    assert p.closure_mask(ca) == ca  # idempotent
                    for b in range(1 << n):
                        assert p.closure_mask(a | b) == ca | p.closure_mask(b)
                assert p.closure_mask(0) == 0

    def test_open_iff_complement_closed_iff_down_closed(self):
        for n in range(1, 5):
            for p in enumerate_preorders(n):
                for a in range(1 << n):
                    is_open = p.is_open_mask(a)
                    comp = p.full ^ a
                    complement_closed = p.closure_mask(comp) == comp
                    down_closed = all(p.down[i] & ~a == 0 for i in bits(a))
                    assert is_open == complement_closed == down_closed


class TestContinuity:
    def test_identity_and_constant_maps(self):
        p = chain()
        assert is_continuous_map(p, {"a": "a", "b": "b"})
        assert is_continuous_map(p, {"a": "b", "b": "b"})

    def test_swap_on_chain_fails_with_witness(self):
        p = chain()
        # independent oracle: check all open preimages by enumeration
        f = {"a": "b", "b": "a"}
        fi = [p.index[f[w]] for w in p.worlds]
        open_preimages_ok = True
        for u in range(1 << 2):
            if not p.is_open_mask(u):
                continue
            pre = 0
            for i in range(2):
                if u >> fi[i] & 1:
                    pre |= 1 << i
            if not p.is_open_mask(pre):
                open_preimages_ok = False
        assert not open_preimages_ok
        v = is_continuous_map(p, f)
        assert not v
        assert v.witness == ("b", "a")

    def test_relation_of_monotone_graph_is_continuous(self):
        # exhaustive agreement between the two continuity notions on graphs
        for n in range(1, 5):
            for p in enumerate_preorders(n):
                for f in monotone_maps(p):
                    rel = [(w, f[w]) for w in p.worlds]
                    assert is_continuous_relation(p, p, rel)
                # one non-monotone map when any exists
                for combo in itertools.product(range(n), repeat=n):
                    fmap = {p.worlds[i]: p.worlds[combo[i]] for i in range(n)}
                    graph_ok = bool(is_continuous_relation(p, p, list(fmap.items())))
                    map_ok = bool(is_continuous_map(p, fmap))
                    assert graph_ok == map_ok

    def test_full_relation_continuous(self):
        p = chain()
        rel = [(w, v) for w in p.worlds for v in p.worlds]
        assert is_continuous_relation(p, p, rel)

    def test_partial_relation_fails(self):
        p = chain()
        v = is_continuous_relation(p, p, [("a", "a")])
        assert not v
        assert v.witness == ("b", "a", "a")


class TestEnumeration:
    def test_counts_up_to_iso(self):
        expected = {1: 1, 2: 3, 3: 9, 4: 33}
        for n, count in expected.items():
            assert sum(1 for _ in enumerate_preorders(n)) == count

    def test_labeled_counts(self):
        expected = {1: 1, 2: 4, 3: 29}
        for n, count in expected.items():
            assert sum(1 for _ in enumerate_preorders(n, up_to_iso=False)) == count

    def test_monotone_maps_on_chain(self):
        p = chain()
        maps = list(monotone_maps(p))
        assert len(maps) == 3
        assert {"a": "b", "b": "a"} not in maps

    def test_cluster_decomposition(self):
        p = Preorder(["a", "x", "y"], [("x", "y"), ("y", "x"), ("x", "a")])
        assert p.cluster("x") == {"x", "y"}
        assert p.cluster("a") == {"a"}


def labelled_preorders(max_worlds=4):
    for n in range(1, max_worlds + 1):
        yield from enumerate_preorders(n, up_to_iso=False)


def brute_norm(p):
    """Height and width from the definitions, on world names only."""
    clusters = {frozenset(v for v in p.worlds if p.le(v, w) and p.le(w, v)) for w in p.worlds}
    lt = {(c, d) for c in clusters for d in clusters
          if c != d and p.le(next(iter(c)), next(iter(d)))}
    height = max(
        sum(map(len, chain))
        for r in range(1, len(clusters) + 1)
        for chain in itertools.combinations(clusters, r)
        if all((a, b) in lt or (b, a) in lt for a, b in itertools.combinations(chain, 2))
    )
    width = max(
        sum(1 for c in clusters if (c, d) in lt
            and not any((c, e) in lt and (e, d) in lt for e in clusters))
        for d in clusters
    )
    return height, width, max(height, width)


class TestShapeTwins:
    """``norm``, ``order_pairs`` and ``quotient`` against the definitions, on
    every labelled preorder with at most four worlds."""

    def test_norm_matches_brute_force(self):
        for p in labelled_preorders():
            assert p.norm() == brute_norm(p), p.down

    def test_order_pairs_rebuild_the_preorder(self):
        for p in labelled_preorders():
            assert Preorder(p.worlds, p.order_pairs()).down == p.down

    def test_order_pairs_of_every_mask(self):
        for p in labelled_preorders():
            n = len(p)
            for mask in range(1 << n):
                inside = [i for i in range(n) if mask >> i & 1]
                expected = [(p.worlds[j], p.worlds[i]) for i in inside for j in inside
                            if j != i and p.le(p.worlds[j], p.worlds[i])]
                assert p.order_pairs(mask) == expected

    def test_quotient_lists_strictly_lower_clusters(self):
        for p in labelled_preorders():
            cms, below = p.quotient()
            assert cms == p.cluster_masks()
            for ci, c in enumerate(cms):
                i = next(bits(c))
                assert below[ci] == tuple(d for d, m in enumerate(cms)
                                          if m != c and p.down[i] & m)


class TestEnumerationTwins:
    """The backtracking enumerators against filtered products, in order."""

    def test_choices_is_the_filtered_product(self):
        assert list(choices(0, lambda i, chosen: [])) == [()]
        assert list(choices(2, lambda i, chosen: [])) == []
        assert list(choices(3, lambda i, chosen: range(3))) == \
            list(itertools.product(range(3), repeat=3))
        # strictly increasing: entry i depends on the entries before it
        assert list(choices(3, lambda i, chosen: range(chosen[-1] + 1 if chosen else 0, 5))) \
            == list(itertools.combinations(range(5), 3))

    def test_down_vectors(self):
        for n in range(1, 5):
            slow = [
                down for down in itertools.product(range(1 << n), repeat=n)
                if all(down[i] >> i & 1 for i in range(n))
                and all(down[j] & ~down[i] == 0
                        for i in range(n) for j in bits(down[i]))
            ]
            assert list(_down_vectors(n)) == slow

    def test_monotone_maps(self):
        for p in labelled_preorders():
            n = len(p)
            slow = [
                f for f in (dict(zip(p.worlds, (p.worlds[t] for t in fi)))
                            for fi in itertools.product(range(n), repeat=n))
                if is_continuous_map(p, f)
            ]
            assert list(monotone_maps(p)) == slow, p.down


class TestJsonBlocks:
    def test_round_trips(self):
        rng = random.Random(5)
        phi = (parse("<>p & X q"), parse("G p"))
        for _ in range(40):
            model = random_model(rng, 4, ["p", "q"])
            data = model_to_json(model)
            assert model_to_json(model_from_json(data)) == data
            st = state_of_model_point(model, phi, model.space.worlds[-1])
            again = state_from_json(state_to_json(st))
            assert again == st and state_to_json(again) == state_to_json(st)
            q = quasimodel_to_json(quasimodel_of_model(model, phi))
            assert quasimodel_to_json(quasimodel_from_json(q)) == q
