import itertools
import random

import pytest

from dtlstar.preorder import Preorder, enumerate_preorders
from dtlstar.semantics import DynModel, enumerate_models, enumerate_static_models
from dtlstar.simformula import check_propsub, raw_sim_formula, sim_formula
from dtlstar.simulation import simulated_points_mask
from dtlstar.states import (
    State,
    StateError,
    TypedPreorder,
    state_p,
    substates,
)
from dtlstar.statespace import Caps, enumerate_phi_states, is_small_successor, temporal_successor
from dtlstar.syntax import Neg, Next, Tangle, Var, conj, parse, substitute, variables
from dtlstar.util import bits

p, q = Var("p"), Var("q")


def single(typ):
    space = Preorder(["w"], [])
    return State(TypedPreorder(space, {"w": typ}), "w")


def chain(t_a, t_b):
    space = Preorder(["a", "b"], [("b", "a")])
    return State(TypedPreorder(space, {"a": t_a, "b": t_b}), "a")


def cluster(t_x, t_y):
    space = Preorder(["x", "y"], [("x", "y"), ("y", "x")])
    return State(TypedPreorder(space, {"x": t_x, "y": t_y}), "x")


def assert_defines_simulability(st, models):
    f = sim_formula(st)
    for m in models:
        assert m.eval_mask(f) == simulated_points_mask(st, m), (
            f"extension mismatch for {st!r} on {m!r}"
        )


class TestSimFormula:
    def test_single_world_equivalent_to_its_type(self):
        st = single([p])
        f = sim_formula(st)
        for m in enumerate_static_models(3, ["p"]):
            assert m.eval_mask(f) == m.eval_mask(p)

    def test_chain_entails_diamond_of_daughter(self):
        st = chain([Neg(p)], [p])
        f = sim_formula(st)
        for m in enumerate_static_models(3, ["p"]):
            ext = m.eval_mask(f)
            assert ext & ~m.eval_mask(parse("<>p")) == 0
            assert ext & ~m.eval_mask(parse("~p")) == 0
        assert_defines_simulability(st, list(enumerate_static_models(3, ["p"])))

    def test_cluster_forces_tangling(self):
        st = cluster([p], [Neg(p)])
        models = list(enumerate_static_models(4, ["p"]))
        assert_defines_simulability(st, models)
        f = sim_formula(st)
        tangle = parse("<>{p, ~p}")
        for m in models:
            assert m.eval_mask(f) & ~m.eval_mask(tangle) == 0

    def test_requires_distinct_typing(self):
        st = chain([p], [q])  # {p} vs {q} never conflict
        with pytest.raises(StateError):
            sim_formula(st)

    def test_requires_nonempty_types(self):
        st = single([])
        with pytest.raises(StateError):
            sim_formula(st)

    def test_factorization_is_syntactic(self):
        for st in (
            single([p]),
            chain([p], [Neg(p)]),
            cluster([p, q], [p, Neg(q)]),
            chain([p, q], [Neg(p), Neg(q)]),
        ):
            pst, mapping = state_p(st)
            sigma = {name: conj(t) for name, t in mapping.items()}
            assert sim_formula(st) == substitute(sim_formula(pst), sigma)

    def test_formula_uses_only_state_variables(self):
        st = cluster([p], [Neg(p)])
        assert variables(sim_formula(st)) <= {"p"}

    def test_no_temporal_operators_for_static_types(self):
        from dtlstar.syntax import Hence, Next as NextNode, subformulas

        st = chain([p], [Neg(p)])
        subs = subformulas([sim_formula(st)])
        assert not any(isinstance(f, (Hence, NextNode)) for f in subs)

    def test_monotone_under_state_simulation(self):
        # if v embeds into w then anything simulated by w is simulated by v
        from dtlstar.simulation import simulates

        w = cluster([p], [Neg(p)])
        v = single([p])
        assert simulates(v, w)
        fw, fv = sim_formula(w), sim_formula(v)
        for m in enumerate_static_models(3, ["p"]):
            assert m.eval_mask(fw) & ~m.eval_mask(fv) == 0


def small_phi_pool(phi, max_worlds):
    caps = Caps(max_worlds=max_worlds)
    states, complete, _ = enumerate_phi_states(phi, 0, caps)
    return states


class TestCheckPropsub:
    def models(self):
        return list(enumerate_models(3, ["p"]))

    def test_item1_single_state(self):
        st = single([p])
        rep = check_propsub(st, [p], self.models(), items=(1,))
        assert rep.ok and rep.items[1].checked == 1

    def test_item3_reduces_to_reflexivity(self):
        st = single([p])
        rep = check_propsub(st, [p], self.models(), items=(3,))
        assert rep.ok

    def test_item4_exhaustive_small(self):
        phi = [parse("<>p")]
        i0 = small_phi_pool(phi, 3)
        st = next(s for s in i0 if len(s) == 1)
        rep = check_propsub(st, phi, self.models(), i0_states=i0, items=(4,))
        assert rep.ok, rep.items[4].countermodel

    def test_item5_with_successors(self):
        phi = [parse("X p")]
        pool = self.models()
        i0 = small_phi_pool(phi, 3)
        st = next(s for s in i0 if len(s) == 1)
        succs = [v for v in i0 if temporal_successor(st, v) and is_small_successor(st, v)]
        rep = check_propsub(st, phi, pool, successor_states=succs, items=(5,))
        assert rep.ok, rep.items[5].countermodel

    def test_items_2_requires_nothing_extra(self):
        st = cluster([p], [Neg(p)])
        rep = check_propsub(st, [p], self.models(), items=(2,))
        assert rep.ok and rep.items[2].checked >= 1

    def test_missing_inputs_raise(self):
        st = single([p])
        with pytest.raises(ValueError):
            check_propsub(st, [p], self.models(), items=(4,))
        with pytest.raises(ValueError):
            check_propsub(st, [p], self.models(), items=(5,))

    def test_countermodel_reported_for_wrong_claim(self):
        # item 4 with a deliberately truncated state list must fail honestly
        phi = [p]
        rep = check_propsub(single([p]), phi, self.models(), i0_states=[], items=(4,))
        assert not rep.ok
        assert rep.items[4].countermodel is not None


class TestCountermodelRecords:
    """``checked`` and the full countermodel record on failing inputs."""

    two_worlds_below = {
        "f": {"w0": "w0", "w1": "w0"}, "order": [["w0", "w1"]],
        "val": {"p": ["w0"]}, "worlds": ["w0", "w1"],
    }
    two_worlds_apart = {
        "f": {"w0": "w0", "w1": "w0"}, "order": [],
        "val": {"p": ["w1"]}, "worlds": ["w0", "w1"],
    }

    def models(self):
        return list(enumerate_models(3, ["p"]))

    def dia_p(self):
        phi = [parse("<>p")]
        i0 = small_phi_pool(phi, 3)
        return phi, i0, i0[0]

    def next_p(self):
        phi = [parse("X p")]
        i0 = small_phi_pool(phi, 3)
        st = next(s for s in i0 if len(s) == 1)
        return phi, i0, st

    def test_item4_without_states(self):
        phi, _, st = self.dia_p()
        rep = check_propsub(st, phi, self.models(), i0_states=[], items=(4,)).items[4]
        assert rep.checked == 1
        assert rep.countermodel == {
            "model": {"f": {"w0": "w0"}, "order": [], "val": {"p": ["w0"]}, "worlds": ["w0"]},
            "world": "w0", "antecedent": "p", "consequent": None,
        }

    def test_item4_truncated_states(self):
        phi, i0, st = self.dia_p()
        dia, not_p = parse("<>p"), Neg(p)
        cut = [s for s in i0 if not (dia in s.root_type() and not_p in s.root_type())]
        rep = check_propsub(st, phi, self.models(), i0_states=cut, items=(4,)).items[4]
        assert rep.checked == 2
        assert rep.countermodel == {
            "model": self.two_worlds_below, "world": "w1",
            "antecedent": "~p", "consequent": "(lazy disjunction over 3 terms)",
        }

    def test_item5_without_successors(self):
        phi, _, st = self.next_p()
        rep = check_propsub(st, phi, self.models(), successor_states=[], items=(5,)).items[5]
        assert rep.checked == 1
        assert rep.countermodel == {
            "model": self.two_worlds_apart, "world": "w1",
            "antecedent": "p & ~X p & <>(p & ~X p)", "consequent": None,
        }

    def test_item5_wrong_successors(self):
        phi, i0, st = self.next_p()
        wrong = [v for v in i0
                 if not (temporal_successor(st, v) and is_small_successor(st, v))][:2]
        rep = check_propsub(st, phi, self.models(), successor_states=wrong, items=(5,)).items[5]
        assert rep.checked == 1
        assert rep.countermodel == {
            "model": self.two_worlds_apart, "world": "w1",
            "antecedent": "p & ~X p & <>(p & ~X p)",
            "consequent": "(lazy disjunction over 2 terms under next)",
        }

    def test_items_1_to_3_checked(self):
        _, _, st = self.dia_p()
        for state, counts in ((cluster([p], [Neg(p)]), (1, 2, 2)), (st, (2, 1, 1))):
            rep = check_propsub(state, [p], self.models(), items=(1, 2, 3))
            assert [rep.items[k].checked for k in (1, 2, 3)] == list(counts)
            assert [rep.items[k].countermodel for k in (1, 2, 3)] == [None] * 3


class TestMemo:
    def test_memos_are_bounded(self):
        assert sim_formula.cache_info().maxsize is not None
        assert raw_sim_formula.cache_info().maxsize is not None

    def test_isomorphic_states_share_a_formula(self):
        a = chain([Neg(p)], [p])
        space = Preorder(["u", "v"], [("u", "v")])
        b = State(TypedPreorder(space, {"u": [p], "v": [Neg(p)]}), "v")
        assert a == b and a.space.worlds != b.space.worlds
        assert sim_formula(b) is sim_formula(a)
        assert raw_sim_formula(b) is raw_sim_formula(a)
