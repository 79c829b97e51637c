import itertools
import random
import time

import pytest

from dtlstar.preorder import Preorder, enumerate_preorders
from dtlstar.semantics import DynModel, enumerate_models, random_model
from dtlstar.states import (
    State,
    StateError,
    TypedPreorder,
    distinctly_typed,
    has_type_containing,
    is_phi_type,
    is_weak_type,
    norm,
    phi_types,
    root_restrictions,
    state_from_json,
    state_of_model_point,
    state_p,
    state_plus,
    state_subst,
    state_to_json,
    sub_dia_count,
    substates,
    t_contains,
    type_key,
    typed_preorder_of_model,
    validate_typing,
)
from dtlstar.statespace import Caps, enumerate_phi_states
from dtlstar.syntax import And, Hence, Neg, Next, Tangle, Var, parse, subformulas, sub_pm, variables

p, q = Var("p"), Var("q")


def chain_state(t_a, t_b):
    space = Preorder(["a", "b"], [("b", "a")])
    return State(TypedPreorder(space, {"a": t_a, "b": t_b}), "a")


class TestWeakTypes:
    def test_negation_clash(self):
        assert not is_weak_type([p, Neg(p)])
        assert not is_weak_type([p, Neg(Neg(Neg(p)))])

    def test_conjunction_split(self):
        assert not is_weak_type([parse("p & q"), p])
        assert is_weak_type([parse("p & q"), p, q])

    def test_negated_conjunction_split(self):
        assert not is_weak_type([parse("~(p & q)"), p, q])
        assert is_weak_type([parse("~(p & q)"), Neg(p)])

    def test_hence_body(self):
        assert not is_weak_type([parse("G p")])
        assert is_weak_type([parse("G p"), p])

    def test_phi_type_decides_subformulas(self):
        assert is_phi_type([parse("<>p"), p], [parse("<>p")])
        assert not is_phi_type([parse("<>p")], [parse("<>p")])

    def test_witness_is_least_failing_member(self):
        least = lambda fs: min(fs, key=lambda f: f.sort_key())
        members = [p, Neg(p), q, Neg(q), parse("G q")]
        assert is_weak_type(members).witness == least([p, Neg(p), q, Neg(q)])
        phi = [parse("X q & <>p")]
        assert is_phi_type([], phi).witness == least(subformulas(phi))

    def test_phi_types_for_variable(self):
        out = phi_types([p])
        assert sorted(sorted(map(str, t)) for t in out) == [["p"], ["~p"]]

    def test_phi_types_filter_weak_laws(self):
        out = phi_types([parse("p & q")])
        for t in out:
            if t_contains(t, parse("p & q")):
                assert t_contains(t, p) and t_contains(t, q)


def formulas_of_size(size, atoms):
    """Every formula with exactly ``size`` constructors over ``atoms``."""
    if size == 1:
        yield from atoms
        return
    for g in formulas_of_size(size - 1, atoms):
        yield from (Neg(g), Next(g), Hence(g), Tangle((g,)))
    for left in range(1, size - 1):
        for a in formulas_of_size(left, atoms):
            for b in formulas_of_size(size - 1 - left, atoms):
                yield from (And(a, b), Tangle((a, b)))


class TestHasTypeContaining:
    """The early-stopping search against the full type list, its slow twin."""

    def test_agrees_with_phi_types_exhaustively(self):
        count = 0
        for size in range(1, 6):
            for f in formulas_of_size(size, (p, q)):
                want = any(t_contains(t, f) for t in phi_types((f,)))
                assert has_type_containing(f) == want, str(f)
                count += 1
        assert count > 1000

    @pytest.mark.parametrize("text", ["G p & ~p", "~(p & q) & p & q", "<>{p,q} & ~<>{p,q}",
                                      "p & ~~~p", "G(p & q) & X r & ~q"])
    def test_contradictions(self, text):
        f = parse(text)
        assert not has_type_containing(f)
        assert not any(t_contains(t, f) for t in phi_types((f,)))

    @pytest.mark.parametrize("text", ["G p & ~X p", "<>{p, q} & []~q", "~G p & p & G(p -> X p)"])
    def test_propositionally_consistent(self, text):
        assert has_type_containing(parse(text))


class TestValidateTyping:
    def test_self_witness(self):
        space = Preorder(["w"], [])
        assert validate_typing(TypedPreorder(space, {"w": [p, parse("<>p")]}))

    def test_missing_witness(self):
        space = Preorder(["w"], [])
        v = validate_typing(TypedPreorder(space, {"w": [Neg(p), parse("<>p")]}))
        assert not v

    def test_chain_witness_and_failure(self):
        space = Preorder(["a", "b"], [("b", "a")])
        good = TypedPreorder(space, {"a": [parse("<>{p,q}")], "b": [p, q]})
        assert validate_typing(good)
        bad = TypedPreorder(space, {"a": [parse("<>{p,q}")], "b": [p, Neg(q)]})
        v = validate_typing(bad)
        assert not v and v.witness[0] == "a"

    def test_negated_tangle_refutation(self):
        space = Preorder(["w"], [])
        assert validate_typing(TypedPreorder(space, {"w": [parse("~<>{p}"), Neg(p)]}))
        assert not validate_typing(TypedPreorder(space, {"w": [parse("~<>{p}"), p]}))


class TestTypeOfWorld:
    def test_chain_example(self):
        space = Preorder(["a", "b"], [("b", "a")])
        m = DynModel(space, {"a": "a", "b": "b"}, {"p": ["b"]})
        phi = [parse("<>p")]
        tp = typed_preorder_of_model(m, phi)
        assert tp.type_of("a") == {parse("<>p"), Neg(p)}
        assert tp.type_of("b") == {parse("<>p"), p}

    def test_empty_phi(self):
        space = Preorder(["a"], [])
        m = DynModel(space, {"a": "a"}, {})
        assert typed_preorder_of_model(m, []).type_of("a") == frozenset()

    def test_bridge_always_validates(self):
        # induced typed preorders satisfy the tangle witness laws, exhaustively
        pool = [parse("<>p"), parse("<>{p, q}"), parse("~<>p & q")]
        for model in enumerate_models(3, ["p", "q"]):
            for f in pool:
                tp = typed_preorder_of_model(model, [f])
                assert validate_typing(tp)
        # and on every four-world model over one variable
        for model in enumerate_models(4, ["p"]):
            tp = typed_preorder_of_model(model, [parse("<>p & <>~p")])
            assert validate_typing(tp)

    def test_types_are_weak_and_phi_types(self):
        rng = random.Random(1)
        phi = [parse("<>{p, X q} & G p")]
        for _ in range(40):
            m = random_model(rng, 4, ["p", "q"])
            tp = typed_preorder_of_model(m, phi)
            for w in m.space.worlds:
                t = tp.type_of(w)
                assert is_weak_type(t)
                assert is_phi_type(t, phi)


class TestState:
    def test_rootedness_enforced(self):
        space = Preorder(["a", "b"], [])
        with pytest.raises(StateError):
            State(TypedPreorder(space, {"a": [p], "b": [q]}), "a")

    def test_cluster_dedup_enforced(self):
        space = Preorder(["x", "y"], [("x", "y"), ("y", "x")])
        with pytest.raises(StateError):
            State(TypedPreorder(space, {"x": [p], "y": [p]}), "x")

    def test_isomorphic_states_equal(self):
        s1 = chain_state([p], [q])
        space = Preorder(["u", "v"], [("v", "u")])
        s2 = State(TypedPreorder(space, {"u": [p], "v": [q]}), "u")
        assert s1 == s2
        assert hash(s1) == hash(s2)

    def test_root_type_distinguishes(self):
        space = Preorder(["x", "y"], [("x", "y"), ("y", "x")])
        s1 = State(TypedPreorder(space, {"x": [p], "y": [q]}), "x")
        s2 = State(TypedPreorder(space, {"x": [p], "y": [q]}), "y")
        assert s1 != s2

    def test_json_round_trip(self):
        s = chain_state([p, parse("<>p")], [q])
        again = state_from_json(state_to_json(s))
        assert again == s and state_to_json(again) == state_to_json(s)


def reference_key(st):
    """Least (type keys, down masks, root position) over every permutation of
    the worlds: the slow twin of the canonical key."""
    space = st.space
    n = len(space.worlds)
    best = None
    for flat in itertools.permutations(range(n)):
        pos = {old: new for new, old in enumerate(flat)}
        downs = [0] * n
        for old in range(n):
            downs[pos[old]] = sum(1 << pos[j] for j in range(n) if space.down[old] >> j & 1)
        cand = (tuple(type_key(st.types[i]) for i in flat), tuple(downs),
                pos[space.index[st.root]])
        best = cand if best is None else min(best, cand)
    return best


def relabelled(st, rng=None):
    """The same state with its worlds renamed so that they sort in reverse
    order, or in a random order drawn from ``rng`` (a preorder lists its
    worlds sorted by name, so renaming is what reorders them)."""
    worlds = list(reversed(st.space.worlds))
    if rng is not None:
        rng.shuffle(worlds)
    names = {w: f"x{k:02}" for k, w in enumerate(worlds)}
    space = Preorder(list(names.values()),
                     [(names[a], names[b]) for a, b in st.space.order_pairs()])
    types = {names[w]: st.type_of(w) for w in st.space.worlds}
    return State(TypedPreorder(space, types), names[st.root])


class TestCanonicalKey:
    @pytest.mark.parametrize("signature", ["p", "<>p", "X p"])
    def test_agrees_with_minimum_over_all_permutations(self, signature):
        phi = [parse(signature)]
        states, _, _ = enumerate_phi_states(phi, 0, Caps(max_worlds=3))
        pool = [r for st in states for r in root_restrictions(st)]
        pool += [relabelled(st) for st in pool]
        # the norm bound keeps [p] to one world, so add every labelled state
        # of up to three worlds typed over phi
        for n in (1, 2, 3):
            for space in enumerate_preorders(n, up_to_iso=False):
                for types in itertools.product(phi_types(phi), repeat=n):
                    for root in space.worlds:
                        try:
                            pool.append(State(TypedPreorder(space, types), root))
                        except StateError:
                            pass
        pairs = {(st.canonical_key(), reference_key(st)) for st in pool}
        # equal keys exactly when equal reference forms: the pairing is a bijection
        assert len({k for k, _ in pairs}) == len({r for _, r in pairs}) == len(pairs)
        assert len(states) < len(pairs) < len(pool)

    def test_same_type_chain(self):
        # ten worlds of one type: refinement splits the chain into single worlds,
        # where the nine below the root could take 9! orders
        names = [f"w{i}" for i in range(10)]
        space = Preorder(names, list(zip(names, names[1:])))
        st = State(TypedPreorder(space, [[p]] * 10), "w9")
        t0 = time.perf_counter()
        st.canonical_key()
        assert time.perf_counter() - t0 < 1.0
        assert st == relabelled(st)
        assert st != State(TypedPreorder(space, [[p]] * 9 + [[q]]), "w9")

    @pytest.mark.parametrize("order", [
        # three worlds each over a leaf of its own, and an eight-cycle of four
        # worlds over four leaves, all of one type: refinement splits neither
        # and no two worlds are twins, so every order of a colour class counts
        [(f"l{i}", f"m{i}") for i in range(3)] + [(f"m{i}", "r") for i in range(3)],
        [(f"l{i}", f"m{(i + d) % 4}") for i in range(4) for d in (0, 1)]
        + [(f"m{i}", "r") for i in range(4)],
    ], ids=["matched", "cycle"])
    def test_same_type_shapes_keyed_alike_under_any_labelling(self, order):
        worlds = sorted({w for pair in order for w in pair})
        st = State(TypedPreorder(Preorder(worlds, order), [[p]] * len(worlds)), "r")
        rng = random.Random(3)
        for _ in range(20):
            assert relabelled(st, rng).canonical_key() == st.canonical_key()

    def test_twelve_same_type_leaves(self):
        names = ["root"] + [f"l{i}" for i in range(12)]
        space = Preorder(names, [(w, "root") for w in names[1:]])
        st = State(TypedPreorder(space, [[p]] * 13), "root")
        t0 = time.perf_counter()
        st.canonical_key()
        assert time.perf_counter() - t0 < 1.0
        assert st == relabelled(st, random.Random(0))
        assert st != State(TypedPreorder(space, [[p]] * 12 + [[Neg(p)]]), "root")

    def test_same_type_worlds_told_apart_by_neighbours(self):
        # eight worlds typed {p}, each between the root and a leaf of its own
        # type: equal types and degrees, split only by the leaves' colours
        leaf_types = [[Neg(p)] + [Var(v) if i >> k & 1 else Neg(Var(v)) for k, v in enumerate("abc")]
                      for i in range(8)]
        names = ["root"] + [f"m{i}" for i in range(8)] + [f"l{i}" for i in range(8)]
        order = [(f"m{i}", "root") for i in range(8)] + [(f"l{i}", f"m{i}") for i in range(8)]
        space = Preorder(names, order)
        st = State(TypedPreorder(space, [[p]] * 9 + leaf_types), "root")
        t0 = time.perf_counter()
        st.canonical_key()
        assert time.perf_counter() - t0 < 1.0
        assert st == relabelled(st)
        swapped = leaf_types[:7] + [leaf_types[0]]
        assert st != State(TypedPreorder(space, [[p]] * 9 + swapped), "root")


class TestNorm:
    def test_single_world(self):
        space = Preorder(["w"], [])
        assert norm(State(TypedPreorder(space, {"w": [p]}), "w")) == (1, 0, 1)

    def test_chain(self):
        assert norm(chain_state([p], [q])) == (2, 1, 2)

    def test_two_leaves(self):
        space = Preorder(["a", "b", "c"], [("b", "a"), ("c", "a")])
        st = State(TypedPreorder(space, {"a": [p], "b": [q], "c": [p, q]}), "a")
        assert norm(st) == (2, 2, 2)

    def test_cluster_counts_toward_height(self):
        # height folds cluster size in, so norm bounds alone bound state size
        space = Preorder(["x", "y"], [("x", "y"), ("y", "x")])
        st = State(TypedPreorder(space, {"x": [p], "y": [q]}), "x")
        assert norm(st) == (2, 0, 2)

    def test_sub_dia_count(self):
        st = chain_state([parse("<>{p, q}"), parse("<>p")], [p])
        assert sub_dia_count(st) == 2


class TestSubstates:
    def test_single(self):
        space = Preorder(["w"], [])
        st = State(TypedPreorder(space, {"w": [p]}), "w")
        assert substates(st) == [st]

    def test_chain(self):
        st = chain_state([p], [q])
        subs = substates(st)
        assert len(subs) == 2
        assert {s.root for s in subs} == {"a", "b"}
        assert {len(s) for s in subs} == {1, 2}

    def test_cluster_keeps_whole_cluster(self):
        space = Preorder(["x", "y"], [("x", "y"), ("y", "x")])
        st = State(TypedPreorder(space, {"x": [p], "y": [q]}), "x")
        assert all(len(s) == 2 for s in substates(st))


class TestStateP:
    def test_single_type(self):
        space = Preorder(["w"], [])
        st = State(TypedPreorder(space, {"w": [p]}), "w")
        ps, mapping = state_p(st)
        assert len(mapping) == 1
        (name, t), = mapping.items()
        assert t == frozenset([p])
        assert ps.root_type() == frozenset([Var(name)])

    def test_two_types(self):
        st = chain_state([p], [q])
        ps, mapping = state_p(st)
        names = sorted(mapping)
        for w in ps.space.worlds:
            t = ps.type_of(w)
            positive = [f for f in t if isinstance(f, Var)]
            negative = [f for f in t if isinstance(f, Neg)]
            assert len(positive) == 1 and len(negative) == len(names) - 1

    def test_shape_preserved(self):
        st = chain_state([p], [q])
        ps, _ = state_p(st)
        assert len(ps) == len(st) and ps.root == st.root


class TestStatePlus:
    def space(self):
        return Preorder(["w"], [])

    def test_no_temporal_members_unchanged(self):
        st = State(TypedPreorder(self.space(), {"w": [p]}), "w")
        assert state_plus(st, [p]).root_type() == frozenset([p])

    def test_hence_from_signature(self):
        st = State(TypedPreorder(self.space(), {"w": [parse("G p"), p]}), "w")
        out = state_plus(st, [parse("G p")])
        assert t_contains(out.root_type(), parse("X G p"))

    def test_unrealized_eventuality_defers(self):
        st = State(TypedPreorder(self.space(), {"w": [parse("~G~p"), Neg(p)]}), "w")
        out = state_plus(st, [q])
        assert t_contains(out.root_type(), parse("X ~G~p"))

    def test_realized_eventuality_not_deferred(self):
        st = State(TypedPreorder(self.space(), {"w": [parse("~G~p"), p]}), "w")
        out = state_plus(st, [q])
        assert not t_contains(out.root_type(), parse("X ~G~p"))

    def test_type_range_variant(self):
        st = State(TypedPreorder(self.space(), {"w": [parse("G p"), p]}), "w")
        out = state_plus(st, [q], range_over_types=True)
        assert t_contains(out.root_type(), parse("X G p"))


class TestStateSubst:
    def test_identity(self):
        st = chain_state([p], [q])
        assert state_subst(st, {}) == st

    def test_inverse_of_hence_elimination(self):
        from dtlstar.syntax import q_transform

        f = parse("G p")
        out, inv = q_transform(f)  # out is a fresh variable for G p
        st = chain_state([out], [p])
        back = state_subst(st, inv)
        assert back.root_type() == frozenset([f])
        assert back.type_of("b") == frozenset([p])

    def test_collision_raises(self):
        space = Preorder(["x", "y"], [("x", "y"), ("y", "x")])
        st = State(TypedPreorder(space, {"x": [p], "y": [q]}), "x")
        with pytest.raises(StateError):
            state_subst(st, {"q": p})


class TestStateOfModelPoint:
    def test_merges_duplicates(self):
        space = Preorder(["x", "y"], [("x", "y"), ("y", "x")])
        m = DynModel(space, {"x": "x", "y": "y"}, {"p": ["x", "y"]})
        st = state_of_model_point(m, [p], "x")
        assert len(st) == 1 and st.root == "x"

    def test_distinct_types_survive(self):
        space = Preorder(["x", "y"], [("x", "y"), ("y", "x")])
        m = DynModel(space, {"x": "x", "y": "y"}, {"p": ["x"]})
        st = state_of_model_point(m, [p], "x")
        assert len(st) == 2

    def test_phi_typed_and_distinct(self):
        rng = random.Random(7)
        phi = [parse("<>p & X q")]
        for _ in range(30):
            m = random_model(rng, 4, ["p", "q"])
            x = rng.choice(m.space.worlds)
            st = state_of_model_point(m, phi, x)
            assert distinctly_typed(st)
            assert validate_typing(st.base)
            for t in st.types:
                assert is_phi_type(t, phi)
