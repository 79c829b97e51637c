import itertools
import random

from dtlstar.preorder import Preorder, enumerate_preorders
from dtlstar.semantics import DynModel, random_model
from dtlstar.simulation import (
    SimRelation,
    greatest_simulation,
    simulated_points_mask,
    simulates,
    simulates_in_model,
)
from dtlstar.states import (
    State,
    StateError,
    TypedPreorder,
    state_of_model_point,
    type_key,
)
from dtlstar.syntax import Neg, Var, parse
from dtlstar.util import bits

p, q = Var("p"), Var("q")


def brute_force_greatest(a: TypedPreorder, b: TypedPreorder) -> frozenset:
    """Union of all simulations, by enumerating every relation."""
    na, nb = len(a.space.worlds), len(b.space.worlds)
    cells = [(i, j) for i in range(na) for j in range(nb)]
    union: set = set()
    for pick in range(1 << len(cells)):
        rel = [cells[k] for k in range(len(cells)) if pick >> k & 1]
        if not all(type_key(a.types[i]) == type_key(b.types[j]) for i, j in rel):
            continue
        images = [0] * na
        for i, j in rel:
            images[i] |= 1 << j
        ok = True
        for i, j in rel:
            for i2 in bits(a.space.down[i]):
                if images[i2] & b.space.down[j] == 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            union.update(rel)
    return frozenset(
        (a.space.worlds[i], b.space.worlds[j]) for i, j in union
    )


class TestGreatestSimulation:
    def test_single_world_equal_types(self):
        space = Preorder(["w"], [])
        a = TypedPreorder(space, {"w": [p]})
        assert greatest_simulation(a, a).pairs == {("w", "w")}

    def test_chain_vs_single_empties_out(self):
        chain = Preorder(["a", "b"], [("b", "a")])
        a = TypedPreorder(chain, {"a": [q], "b": [p]})
        single = Preorder(["w"], [])
        b = TypedPreorder(single, {"w": [q]})
        # the root matches by type but its daughter has no target
        assert greatest_simulation(a, b).pairs == frozenset()

    def test_contains_identity(self):
        chain = Preorder(["a", "b"], [("b", "a")])
        a = TypedPreorder(chain, {"a": [p], "b": [q]})
        pairs = greatest_simulation(a, a).pairs
        assert {("a", "a"), ("b", "b")} <= pairs

    def test_agrees_with_brute_force(self):
        # exhaustively on small typed structures over two types
        types = [frozenset([p]), frozenset([Neg(p)])]
        structures = []
        for n in (1, 2, 3):
            for space in enumerate_preorders(n):
                for assign in itertools.product(range(2), repeat=n):
                    structures.append(TypedPreorder(
                        space, {w: types[assign[i]] for i, w in enumerate(space.worlds)}
                    ))
        rng = random.Random(0)
        sample = rng.sample(structures, 12)
        for a in sample:
            for b in rng.sample(structures, 6):
                rel = greatest_simulation(a, b)
                assert rel.pairs == brute_force_greatest(a, b)
                assert all(rel.related(w, v) == ((w, v) in rel.pairs)
                           for w in a.space.worlds for v in b.space.worlds)

    def test_greatest_is_itself_a_simulation(self):
        chain = Preorder(["a", "b"], [("b", "a")])
        a = TypedPreorder(chain, {"a": [p], "b": [Neg(p)]})
        cluster = Preorder(["x", "y"], [("x", "y"), ("y", "x")])
        b = TypedPreorder(cluster, {"x": [p], "y": [Neg(p)]})
        rel = greatest_simulation(a, b)
        for (w, v) in rel.pairs:
            assert type_key(a.type_of(w)) == type_key(b.type_of(v))
            for w2 in a.space.ids_of(a.space.down[a.space.index[w]]):
                assert any(
                    (w2, v2) in rel.pairs
                    for v2 in b.space.ids_of(b.space.down[b.space.index[v]])
                )


class TestSimulatesStates:
    def state(self, order_pairs, types, root, worlds=None):
        worlds = worlds or sorted(types)
        space = Preorder(worlds, order_pairs)
        return State(TypedPreorder(space, types), root)

    def test_reflexive(self):
        st = self.state([("b", "a")], {"a": [p], "b": [q]}, "a")
        assert simulates(st, st)

    def test_transitive_on_random_triples(self):
        rng = random.Random(2)
        pool = []
        types = [frozenset([p]), frozenset([Neg(p)]), frozenset([p, q])]
        for n in (1, 2):
            for space in enumerate_preorders(n):
                tops = [w for w in space.worlds if space.down[space.index[w]] == space.full]
                for root in tops:
                    for assign in itertools.product(range(3), repeat=n):
                        try:
                            pool.append(State(TypedPreorder(
                                space,
                                {w: types[assign[i]] for i, w in enumerate(space.worlds)},
                            ), root))
                        except StateError:
                            continue
        for _ in range(300):
            a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            if simulates(a, b) and simulates(b, c):
                assert simulates(a, c)

    def test_unmatched_daughter_blocks(self):
        tall = self.state([("b", "a")], {"a": [p], "b": [q]}, "a")
        short = self.state([], {"a": [p]}, "a", worlds=["a"])
        assert not simulates(tall, short)
        assert simulates(short, tall)


class TestSimulatesInModel:
    def test_single_point_examples(self):
        space = Preorder(["w"], [])
        st = State(TypedPreorder(space, {"w": [p]}), "w")
        yes = DynModel(space, {"w": "w"}, {"p": ["w"]})
        no = DynModel(space, {"w": "w"}, {"p": []})
        assert simulates_in_model(st, yes, "w")
        assert not simulates_in_model(st, no, "w")

    def test_identity_embedding_of_point_state(self):
        rng = random.Random(4)
        phi = [parse("<>p & q")]
        for _ in range(40):
            m = random_model(rng, 4, ["p", "q"])
            x = rng.choice(m.space.worlds)
            st = state_of_model_point(m, phi, x)
            assert simulates_in_model(st, m, x)

    def test_mask_matches_pointwise_verdicts(self):
        rng = random.Random(6)
        chain = Preorder(["a", "b"], [("b", "a")])
        st = State(TypedPreorder(chain, {"a": [p], "b": [Neg(p)]}), "a")
        for _ in range(30):
            m = random_model(rng, 4, ["p"])
            mask = simulated_points_mask(st, m)
            for i, w in enumerate(m.space.worlds):
                assert bool(mask >> i & 1) == bool(simulates_in_model(st, m, w))
