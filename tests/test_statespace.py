import dataclasses
import functools
import itertools
import random

import pytest

from dtlstar.preorder import Preorder, enumerate_preorders
from dtlstar.quasimodel import eventualities_of, is_sensible_pair, validate_quasimodel
from dtlstar.semantics import DynModel, enumerate_models, model_from_json, random_model
from dtlstar.simformula import check_propsub
from dtlstar.simulation import simulates
from dtlstar.statespace import (
    Caps,
    ConsistencyVerdict,
    EfficientPaths,
    ModelSearchOracle,
    ProofWitnessOracle,
    SpaceError,
    TrustingOracle,
    canonical_structure,
    efficient_paths,
    enumerate_phi_states,
    enumerate_states,
    is_small_successor,
    make_oracle,
    reachable,
    reduce_state,
    satisfy,
    temporal_successor,
    _SimMasks,
    _small_successors,
    _type_assignments,
    _walk,
)
from dtlstar.states import (
    State,
    TypedPreorder,
    norm,
    root_restrictions,
    state_of_model_point,
    t_contains,
    validate_typing,
)
from dtlstar.syntax import Neg, Var, formula_length, parse, to_text, variables

p, q = Var("p"), Var("q")


def single(typ):
    space = Preorder(["w"], [])
    return State(TypedPreorder(space, {"w": typ}), "w")


class TestEnumerateStates:
    def test_one_variable_signature(self):
        space = enumerate_states([p], 0, Caps(max_worlds=2))
        # norm bound 1 admits exactly the two one-world states; the cluster
        # rootings have height 2 and sit outside the base bound
        assert len(space.states) == 2
        sizes = sorted(len(s) for s in space.states)
        assert sizes == [1, 1]
        assert space.complete

    def test_empty_signature(self):
        space = enumerate_states([], 0, Caps(max_worlds=3))
        assert len(space.states) == 1
        assert len(space.states[0]) == 1

    def test_all_states_validate(self):
        from dtlstar.states import is_phi_type, validate_typing

        phi = [parse("<>p")]
        space = enumerate_states(phi, 0, Caps(max_worlds=3))
        assert space.states
        for st in space.states:
            assert validate_typing(st.base)
            for t in st.types:
                assert is_phi_type(t, phi)

    def test_cap_flags_truncation(self):
        space = enumerate_states([parse("<>{p, q}")], 0, Caps(max_worlds=2, max_states=5))
        assert not space.complete
        assert len(space.states) == 5

    def test_enumerated_states_distinctly_typed_with_bounded_clusters(self):
        from dtlstar.states import distinctly_typed
        from dtlstar.syntax import formula_length
        from dtlstar.util import bits as _bits

        phi = [parse("<>p")]
        space = enumerate_states(phi, 0, Caps(max_worlds=3))
        bound = 2 ** formula_length(phi)
        for st in space.states:
            assert distinctly_typed(st)
            for c in st.space.cluster_masks():
                assert len(list(_bits(c))) <= bound

    def test_substate_pairs_within_space(self):
        space = enumerate_states([p], 0, Caps(max_worlds=2))
        for sub, sup in space.substate_pairs:
            assert simulates(space.states[sub], space.states[sub])
            assert len(space.states[sub]) <= len(space.states[sup])

    def test_step_pairs_reverify(self):
        space = enumerate_states([parse("X p")], 0, Caps(max_worlds=2))
        assert space.step_pairs
        for i, j in space.step_pairs:
            v = temporal_successor(space.states[i], space.states[j])
            assert v
            for (w, u) in v.witness:
                assert is_sensible_pair(
                    space.states[i].type_of(w), space.states[j].type_of(u)
                )


class TestTypeAssignments:
    def test_matches_filtered_product(self):
        # every labelled shape of up to three worlds, with up to four types
        pool = [frozenset([Var(f"t{i}")]) for i in range(4)]
        for n in range(1, 4):
            for shape in enumerate_preorders(n, up_to_iso=False):
                for k in range(1, 5):
                    types = pool[:k]
                    slow = [a for a in itertools.product(types, repeat=n)
                            if all(a[i] != a[j] for i in range(n) for j in range(i)
                                   if shape.cluster_mask(i) >> j & 1)]
                    assert list(_type_assignments(shape, types)) == slow


class TestTemporalSuccessor:
    def test_sensible_self_pair(self):
        st = single([p])
        assert temporal_successor(st, st)

    def test_root_obligation_blocks(self):
        a = single([parse("X p"), p])
        b = single([Neg(p)])
        assert not temporal_successor(a, b)

    def test_small_bound_is_non_strict(self):
        # norm(v) equal to norm(w) plus the tangle count is still small
        a = single([p])
        chain_space = Preorder(["a", "b"], [("b", "a")])
        b = State(TypedPreorder(chain_space, {"a": [p], "b": [Neg(p)]}), "a")
        assert norm(b)[2] == norm(a)[2] + 1
        # one tangle subformula in the source makes the bound exactly tight
        a2 = single([parse("<>p"), p])
        assert is_small_successor(a2, b)
        assert not is_small_successor(a, b)

    def test_seriality_required(self):
        # source world below the root has no sensible partner
        chain_space = Preorder(["a", "b"], [("b", "a")])
        a = State(TypedPreorder(chain_space, {"a": [p], "b": [parse("X p"), p]}), "a")
        b = single([p])
        # b's only world cannot receive the lower world's next-obligation
        v = temporal_successor(a, State(TypedPreorder(Preorder(["w"], []), {"w": [Neg(p)]}), "w"))
        assert not v


class TestClusterSuccessorBudget:
    def test_cluster_eventuality_has_a_small_successor_witness(self):
        """Regression pin for the norm convention.

        A two-world cluster carrying an unrealized eventuality below its
        root needs a two-level successor once the eventuality's target
        becomes henceforth-true at the next model point.  Height counts
        cluster members, so that successor stays within the small budget;
        under a strict-chain height it would not, and the successor
        disjunction validity would be refuted by the model below.
        """
        phi = [parse("G p")]
        cluster_space = Preorder(["u", "v"], [("u", "v"), ("v", "u")])
        w = State(TypedPreorder(cluster_space, {
            "v": [parse("~p"), parse("~G p")],
            "u": [parse("p"), parse("~G p")],
        }), "v")
        assert norm(w)[2] == 2

        model = model_from_json({
            "worlds": ["w0", "w1", "w2", "w3"],
            "order": [["w1", "w0"], ["w0", "w1"], ["w0", "w2"], ["w1", "w2"],
                      ["w0", "w3"], ["w1", "w3"]],
            "f": {"w0": "w0", "w1": "w0", "w2": "w2", "w3": "w2"},
            "val": {"p": ["w1", "w2"]},
        })
        from dtlstar.simformula import sim_formula
        from dtlstar.simulation import simulates_in_model

        assert model.satisfies("w3", sim_formula(w))
        states, _, _ = enumerate_phi_states(phi, 0, Caps(max_worlds=3))
        small_succ = [v for v in states
                      if temporal_successor(w, v) and is_small_successor(w, v)]
        assert any(simulates_in_model(v, model, "w2") for v in small_succ)


class TestReduceState:
    def test_already_small(self):
        st = single([p])
        assert reduce_state(st, [p]) == st

    def test_reduces_tall_chain(self):
        # three-world chain with repeated types reduces within the bound
        space = Preorder(["a", "b", "c"], [("b", "a"), ("c", "b")])
        st = State(
            TypedPreorder(space, {"a": [p], "b": [Neg(p)], "c": [p]}), "a"
        )
        phi = [p]  # norm bound 1
        out = reduce_state(st, phi)
        assert out is not None
        assert norm(out)[2] <= 1
        assert simulates(out, st)

    def test_one_world_reduction(self):
        st = single([p])
        out = reduce_state(st, [p])
        assert out is not None and len(out) == 1
        assert out.root_type() == st.root_type()


RESTRICTION_SPACES = (("p", 2), ("X p", 2), ("G p & q", 2), ("<>p", 3))


@functools.lru_cache(maxsize=None)
def restriction_space(signature, max_worlds):
    return enumerate_states((parse(signature),), 0, Caps(max_worlds=max_worlds))


def restriction_states():
    for signature, max_worlds in RESTRICTION_SPACES:
        space = restriction_space(signature, max_worlds)
        for st in space.states:
            yield space, st


def combination_restrictions(st):
    """Root-holding restrictions by size, then by combination order."""
    ri = st.space.index[st.root]
    rest = [i for i in range(len(st)) if i != ri]
    for size in range(len(rest) + 1):
        for combo in itertools.combinations(rest, size):
            mask = 1 << ri
            for i in combo:
                mask |= 1 << i
            yield State(st.base.restrict(mask), st.root)


def slow_reduce_state(st, phi):
    """The slow twin of ``reduce_state``: the size and combination scan."""
    bound = max(1, formula_length(phi))
    if norm(st)[2] <= bound:
        return st
    for cand in combination_restrictions(st):
        if norm(cand)[2] <= bound and validate_typing(cand.base) and simulates(cand, st):
            return cand
    return None


def bitmask_simulated_variants(st):
    """Root-holding restrictions that the state simulates, in bitmask order."""
    ri = st.space.index[st.root]
    rest = [i for i in range(len(st)) if i != ri]
    out = []
    for pick in range(1 << len(rest)):
        mask = 1 << ri
        for b in range(len(rest)):
            if pick >> b & 1:
                mask |= 1 << rest[b]
        v = State(st.base.restrict(mask), st.root)
        if simulates(v, st):
            out.append(v)
    return out


def shape(st):
    return (st.space.worlds, st.root, st.types) if st is not None else None


class TestRootRestrictionTwins:
    """``reduce_state`` and item 2 of ``check_propsub`` search one family of
    root-holding restrictions; each is checked against its own scan."""

    def test_root_restrictions_order(self):
        for _, st in restriction_states():
            got = list(root_restrictions(st))
            assert len(got) == 1 << (len(st) - 1)
            index_sets = [tuple(st.space.index[w] for w in v.space.worlds) for v in got]
            assert len(set(index_sets)) == len(index_sets)
            assert all(st.space.index[st.root] in s for s in index_sets)
            assert index_sets == sorted(index_sets, key=lambda s: (len(s), s))
            assert [shape(v) for v in got] == [shape(v) for v in combination_restrictions(st)]

    def test_reduce_state_matches_scan(self):
        for space, st in restriction_states():
            for phi in (space.phi, ()):
                assert shape(reduce_state(st, phi)) == shape(slow_reduce_state(st, phi))

    def test_item2_checks_every_simulated_variant(self):
        for space, st in restriction_states():
            pool = list(enumerate_models(2, sorted(variables(space.phi))))
            rep = check_propsub(st, space.phi, pool, items=(2,)).items[2]
            variants = bitmask_simulated_variants(st)
            assert rep.ok and rep.checked == len(variants)


class TestEfficientPaths:
    def test_self_loop_only(self):
        space = enumerate_states([], 0, Caps(max_worlds=1))
        out = efficient_paths(0, space)
        assert out.paths == [(0,)]
        assert all(
            simulates(space.states[m1], space.states[path[m2]])
            for path, m1, m2 in ()
        )

    def test_repeat_always_pruned(self):
        space = enumerate_states([p], 0, Caps(max_worlds=2))
        out = efficient_paths(0, space)
        for path in out.paths:
            assert len(set(path)) == len(path)

    def test_prune_witnesses_verify(self):
        space = enumerate_states([p], 0, Caps(max_worlds=2))
        out = efficient_paths(0, space)
        assert out.prunes
        for path, m1, m2 in out.prunes:
            assert m1 < m2
            assert simulates(space.states[path[m1]], space.states[path[m2]])

    def test_termination_without_truncation(self):
        space = enumerate_states([parse("X p")], 0, Caps(max_worlds=2))
        out = efficient_paths(0, space)
        assert not out.truncated


class TestStartIndex:
    """Start states are indices into ``space.states``, and only those."""

    def space(self):
        return enumerate_states([p], 0, Caps(max_worlds=1))

    @pytest.mark.parametrize("start", [2, -1])
    def test_outside_refused(self, start):
        space = self.space()
        assert len(space.states) == 2
        match = f"start index {start} outside a space of 2 states"
        with pytest.raises(SpaceError, match=match):
            efficient_paths(start, space)
        with pytest.raises(SpaceError, match=match):
            reachable(start, space, TrustingOracle())

    def test_valid_index_unchanged(self):
        space = self.space()
        out = efficient_paths(1, space)
        assert out.paths == [(1, 0)]
        assert out.prunes == [((1, 0, 0), 1, 2), ((1, 0, 1), 0, 2), ((1, 1), 0, 1)]
        assert not out.truncated
        assert reachable(1, space, TrustingOracle()).reachable == {0, 1}


class TestOracles:
    def test_trusting(self):
        v = TrustingOracle().judge(single([p]))
        assert v.consistent

    def test_model_search_finds_witness(self):
        oracle = ModelSearchOracle(max_worlds=2)
        v = oracle.judge(single([p]))
        assert v.consistent
        model = model_from_json(v.witness["model"])
        from dtlstar.simformula import sim_formula

        assert model.satisfies(v.witness["point"], sim_formula(single([p])))

    def test_model_search_unknown_on_unsatisfiable_state(self):
        # a state whose typing laws hold but whose simulation formula has no
        # model: eventuality forever deferred is fine, but p & ~p is not
        # expressible as a state type, so force smallness of the search caps
        oracle = ModelSearchOracle(max_worlds=1, budget=3)
        st = single([parse("<>p"), Neg(p)])
        v = oracle.judge(st)
        assert v.status == "unknown"

    @pytest.mark.parametrize("worlds,budget", [(0, 10), (2, 0), (2, -5)])
    def test_model_search_refuses_invalid_caps(self, worlds, budget):
        with pytest.raises(SpaceError):
            ModelSearchOracle(max_worlds=worlds, budget=budget)
        with pytest.raises(SpaceError):
            satisfy(p, Caps(oracle_worlds=worlds, oracle_budget=budget))

    def test_proof_witness_oracle_unknown_without_proofs(self):
        v = ProofWitnessOracle([]).judge(single([p]))
        assert v.status == "unknown"

    def test_make_oracle(self):
        assert make_oracle("trusting").name == "trusting"
        assert make_oracle("model-search").name == "model-search"
        with pytest.raises(SpaceError):
            make_oracle("nope")


class TestReachable:
    def test_all_consistent_one_state(self):
        space = enumerate_states([], 0, Caps(max_worlds=1))
        out = reachable(0, space, TrustingOracle())
        assert out.reachable == {0}

    def test_inconsistent_cutoff(self):
        space = enumerate_states([p], 0, Caps(max_worlds=2))

        class Veto:
            name = "veto"

            def judge(self, st):
                from dtlstar.statespace import ConsistencyVerdict

                if len(st) == 1 and t_contains(st.root_type(), Neg(p)):
                    return ConsistencyVerdict("inconsistent", None, "vetoed")
                return ConsistencyVerdict("consistent", None, "ok")

        blocked = next(
            i for i, st in enumerate(space.states)
            if len(st) == 1 and t_contains(st.root_type(), Neg(p))
        )
        start = next(
            i for i, st in enumerate(space.states)
            if len(st) == 1 and t_contains(st.root_type(), p)
        )
        out = reachable(start, space, Veto())
        assert blocked not in out.reachable

    def test_subset_of_space(self):
        space = enumerate_states([parse("X p")], 0, Caps(max_worlds=2))
        out = reachable(0, space, TrustingOracle())
        assert out.reachable <= set(range(len(space.states)))


class TestCanonicalStructure:
    def test_trusting_gives_quasimodel_for_variable(self):
        space = enumerate_states([p], 0, Caps(max_worlds=2))
        result = canonical_structure([p], space, TrustingOracle())
        assert result.structure is not None
        assert result.regular, result.check_summary()
        assert validate_quasimodel(result.structure)

    def test_openness_violation_flagged(self):
        phi = [parse("<>p")]
        space = enumerate_states(phi, 0, Caps(max_worlds=2))

        class VetoSub:
            name = "veto-sub"

            def judge(self, st):
                from dtlstar.statespace import ConsistencyVerdict

                # veto the cluster states rooted at a negative-p type; each is
                # a substate of the consistently-kept other rooting
                if len(st) == 2 and t_contains(st.root_type(), Neg(p)):
                    return ConsistencyVerdict("inconsistent", None, "vetoed")
                return ConsistencyVerdict("consistent", None, "ok")

        result = canonical_structure(phi, space, VetoSub())
        assert result.openness
        assert all(e["kind"] == "violation" for e in result.openness)
        assert not result.regular

    def test_eventuality_check_on_temporal_signature(self):
        phi = [parse("F p")]
        space = enumerate_states(phi, 0, Caps(max_worlds=2))
        result = canonical_structure(phi, space, TrustingOracle())
        # the full space realizes every eventuality within reach
        assert not result.eventuality, result.eventuality


WALK_SIGNATURES = ["", "p", "X p", "F p", "G p & q"]


@functools.lru_cache(maxsize=None)
def walk_space(signature):
    phi = (parse(signature),) if signature else ()
    return phi, enumerate_states(phi, 0, Caps(max_worlds=2))


def slow_eventuality(space, oracle, caps):
    """The eventuality check as standalone reachability calls, one per state."""
    out = []
    for i, st in enumerate(space.states):
        evs = eventualities_of(st.root_type())
        if not evs or not oracle.judge(st).consistent:
            continue
        rho = reachable(i, space, oracle, caps).reachable
        for ev, target in evs:
            if not any(t_contains(space.states[j].root_type(), target) for j in rho):
                kind = "violation" if space.complete else "oracle-gap"
                out.append({"state": i, "eventuality": to_text(ev), "kind": kind})
    return out


def list_scan_walk(i0, succ, sim, steps, sink=None):
    """The slow twin of ``statespace._walk``: the same depth-first search,
    testing every path position in order through ``sim(old, new)``."""
    visited = set()
    budget = steps
    truncated = False

    def visit(path):
        nonlocal budget, truncated
        if budget <= 0:
            truncated = True
            return
        budget -= 1
        visited.add(path[-1])
        extended = False
        for nxt in succ.get(path[-1], ()):
            for m1, old in enumerate(path):
                if sim(old, nxt):
                    if sink is not None:
                        sink.prunes.append((tuple(path) + (nxt,), m1, len(path)))
                    break
            else:
                extended = True
                path.append(nxt)
                visit(path)
                path.pop()
        if not extended and sink is not None:
            sink.paths.append(tuple(path))

    visit([i0])
    return visited, truncated


class UnknownWherePHolds:
    name = "p-unknown"

    def judge(self, st):
        if t_contains(st.root_type(), p):
            return ConsistencyVerdict("unknown", None, "p at the root")
        return ConsistencyVerdict("consistent", None, "ok")


class TestWalkerTwins:
    """efficient_paths, reachable and the eventuality check share one walk;
    each is held to what the others report over every start."""

    @pytest.mark.parametrize("signature", WALK_SIGNATURES)
    def test_reachable_is_the_states_on_efficient_paths(self, signature):
        _, space = walk_space(signature)
        caps = Caps(path_steps=2000)
        for i in range(len(space.states)):
            paths = efficient_paths(i, space, caps)
            reach = reachable(i, space, TrustingOracle(), caps)
            on_paths = {j for path in paths.paths for j in path}
            assert reach.truncated == paths.truncated
            if paths.truncated:
                assert on_paths <= reach.reachable
            else:
                assert reach.reachable == on_paths

    @pytest.mark.parametrize("signature", WALK_SIGNATURES)
    def test_truncation_agrees_at_every_small_step_cap(self, signature):
        _, space = walk_space(signature)
        for steps in range(1, 31):
            caps = Caps(path_steps=steps)
            for i in range(len(space.states)):
                assert (efficient_paths(i, space, caps).truncated
                        == reachable(i, space, TrustingOracle(), caps).truncated)

    # the empty type has no simulation formula for the model search to use
    @pytest.mark.parametrize("oracle,signature", [
        (oracle, signature) for oracle in ("trusting", "model-search", "p-unknown")
        for signature in WALK_SIGNATURES if signature or oracle != "model-search"])
    def test_eventuality_check_matches_standalone_reachability(self, oracle, signature):
        phi, space = walk_space(signature)
        caps = Caps(path_steps=2000)
        make = {"trusting": TrustingOracle,
                "model-search": lambda: ModelSearchOracle(max_worlds=1, budget=50),
                "p-unknown": UnknownWherePHolds}[oracle]
        result = canonical_structure(phi, space, make(), caps)
        assert result.eventuality == slow_eventuality(space, make(), caps)

    @pytest.mark.parametrize("make", [lambda: ModelSearchOracle(max_worlds=1, budget=50),
                                      UnknownWherePHolds], ids=["model-search", "p-unknown"])
    def test_partial_oracles_leave_states_unknown(self, make):
        # keeps the partial-oracle cases above away from the all-consistent one
        _, space = walk_space("F p")
        oracle = make()
        statuses = {oracle.judge(st).status for st in space.states}
        assert statuses == {"consistent", "unknown"}

    def test_unknown_states_leave_eventualities_unrealized(self):
        # F p states that lack p reach p only through the unknown states
        phi, space = walk_space("F p")
        result = canonical_structure(phi, space, UnknownWherePHolds(), Caps(path_steps=2000))
        assert result.eventuality

    @pytest.mark.parametrize("signature", WALK_SIGNATURES)
    def test_prune_witness_is_the_first_simulating_state(self, signature):
        _, space = walk_space(signature)
        sim = functools.cache(lambda a, b: bool(simulates(space.states[a], space.states[b])))
        for i in range(len(space.states)):
            for path, m1, m2 in efficient_paths(i, space, Caps(path_steps=2000)).prunes:
                assert m1 < m2 == len(path) - 1
                assert sim(path[m1], path[m2])
                assert not any(sim(path[k], path[m2]) for k in range(m1))


class TestBitsetWalker:
    """The bitset walker against its list-scan twin, over every start."""

    @pytest.mark.parametrize("signature", WALK_SIGNATURES)
    def test_walkers_agree_at_every_step_cap(self, signature):
        _, space = walk_space(signature)
        states = space.states
        succ = _small_successors(space, range(len(states)))
        sim = functools.cache(lambda a, b: bool(simulates(states[a], states[b])))
        simulators = [sum(1 << k for k in range(len(states)) if sim(k, j))
                      for j in range(len(states))]
        for steps in [*range(1, 31), 2000]:
            for i in range(len(states)):
                want = EfficientPaths([], [], False)
                _, want.truncated = list_scan_walk(i, succ, sim, steps, want)
                got = efficient_paths(i, space, Caps(path_steps=steps))
                assert got == want
                masks = _SimMasks(states)
                assert _walk(i, succ, masks, steps) == list_scan_walk(i, succ, sim, steps)
                # the walk tests every path state against its successor, so
                # each such pair must be decided, and decided right
                for path in got.paths + [path for path, _, _ in got.prunes]:
                    before = 0
                    for k, j in zip(path, path[1:]):
                        before |= 1 << k
                        assert masks.decided[j] & before == before
                assert masks.yes == [m & d for m, d in zip(simulators, masks.decided)]


class TestCaps:
    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Caps)])
    def test_every_cap_below_one_is_refused(self, name, value):
        with pytest.raises(SpaceError, match=rf"\(got {value}\)$"):
            Caps(**{name: value})

    def test_oracle_caps_keep_their_messages(self):
        with pytest.raises(SpaceError, match=r"^oracle world cap must be at least 1 \(got 0\)$"):
            Caps(oracle_worlds=0)
        with pytest.raises(SpaceError,
                           match=r"^oracle model budget must be at least 1 \(got -1\)$"):
            Caps(oracle_budget=-1)

    def test_caps_of_one_are_accepted(self):
        ones = Caps(**{f.name: 1 for f in dataclasses.fields(Caps)})
        assert ones.path_steps == ones.max_states == 1


class TestSatisfy:
    def test_variable(self):
        r = satisfy(p)
        assert r.verdict == "satisfiable"
        assert r.witness_model is not None
        m = model_from_json(r.witness_model["model"])
        assert m.satisfies(r.witness_model["point"], p)

    def test_contradiction(self):
        r = satisfy(parse("p & ~p"))
        assert r.verdict == "no-witness-found"
        assert r.info["reason"] == "no type contains the formula"

    def test_deferred_eventuality(self):
        f = parse("F p & ~p")
        r = satisfy(f)
        assert r.verdict == "satisfiable"
        m = model_from_json(r.witness_model["model"])
        assert m.satisfies(r.witness_model["point"], f)
        assert r.quasimodel is not None and r.lasso is not None

    def test_quasimodel_witness_reverifies(self):
        from dtlstar.quasimodel import Path, is_realizing, quasimodel_from_json

        f = parse("F p & ~p & <>q")
        r = satisfy(f)
        assert r.verdict == "satisfiable"
        q_ = quasimodel_from_json(r.quasimodel)
        assert validate_quasimodel(q_)
        lasso = Path(tuple(r.lasso["worlds"]), r.lasso["loop"])
        assert is_realizing(q_, lasso)
        # the witness state carries the formula at its root
        ws = r.witness_state
        assert to_text(f) in ws["types"][ws["root"]]

    def test_trusting_pipeline(self):
        r = satisfy(p, oracle="trusting")
        assert r.verdict == "satisfiable"
        assert r.witness_model is None and r.quasimodel is not None

    def test_unsatisfiable_with_types_reports_no_witness(self):
        # G p & F ~p admits types but no model; stay honest
        f = parse("G p & ~G~~p")
        r = satisfy(f, Caps(oracle_worlds=2, oracle_budget=2000))
        assert r.verdict == "no-witness-found"
        assert "reason" in r.info
