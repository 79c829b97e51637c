import random

import pytest

from dtlstar.preorder import Preorder
from dtlstar.quasimodel import (
    Path,
    Quasimodel,
    QuasimodelError,
    eventualities_of,
    extend_path_below,
    is_realizing,
    is_sensible_pair,
    orbit_lasso,
    path_below,
    quasimodel_from_json,
    quasimodel_of_model,
    quasimodel_to_json,
    realizing_lasso,
    validate_path,
    validate_quasimodel,
)
from dtlstar.semantics import DynModel, random_model
from dtlstar.states import TypedPreorder
from dtlstar.syntax import Neg, Var, parse

p, q = Var("p"), Var("q")


class TestSensiblePairs:
    def test_next_transfers(self):
        assert is_sensible_pair([parse("X p")], [p])
        v = is_sensible_pair([parse("X p")], [Neg(p)])
        assert not v and "next" in v.reason

    def test_witness_is_least_failing_member(self):
        v = is_sensible_pair(frozenset([parse("X q"), parse("X p"), parse("G p")]),
                             frozenset([Neg(p), Neg(q)]))
        assert v.witness == min([parse("X p"), parse("X q"), parse("G p")],
                                key=lambda f: f.sort_key())

    def test_negated_next_transfers(self):
        assert is_sensible_pair([parse("~X p")], [Neg(p)])
        assert not is_sensible_pair([parse("~X p")], [p])

    def test_hence_persists(self):
        assert is_sensible_pair([parse("G p"), p], [parse("G p"), p])
        assert not is_sensible_pair([parse("G p"), p], [p])

    def test_eventuality_realized_or_deferred(self):
        assert is_sensible_pair([parse("F p"), p], [q])
        assert is_sensible_pair([parse("F p"), Neg(p)], [parse("F p")])
        v = is_sensible_pair([parse("F p"), Neg(p)], [Neg(p)])
        assert not v

    def test_eventualities_extraction(self):
        t = frozenset([parse("F p"), parse("~G q"), parse("G p"), p])
        evs = eventualities_of(t)
        assert {str(target) for _, target in evs} == {"p", "~q"}


def chain_model():
    space = Preorder(["a", "b"], [("b", "a")])
    return DynModel(space, {"a": "a", "b": "b"}, {"p": ["b"]})


class TestValidateQuasimodel:
    def test_model_bridge_is_valid(self):
        q_ = quasimodel_of_model(chain_model(), [parse("<>p")])
        assert validate_quasimodel(q_)

    def test_unrealizable_eventuality(self):
        space = Preorder(["w"], [])
        q_ = Quasimodel(
            TypedPreorder(space, {"w": [parse("~G~p"), Neg(p)]}), [("w", "w")]
        )
        v = validate_quasimodel(q_)
        assert not v and "eventuality" in v.reason

    def test_seriality_required(self):
        space = Preorder(["w"], [])
        q_ = Quasimodel(TypedPreorder(space, {"w": [p]}), [])
        v = validate_quasimodel(q_)
        assert not v and "serial" in v.reason

    def test_continuity_required(self):
        space = Preorder(["a", "b"], [("b", "a")])
        # a steps but its lower world b cannot follow anywhere below the target
        q_ = Quasimodel(
            TypedPreorder(space, {"a": [p], "b": [p]}), [("a", "b"), ("b", "a")]
        )
        v = validate_quasimodel(q_)
        assert not v

    def test_sensibility_of_every_pair(self):
        space = Preorder(["a", "b"], [])
        q_ = Quasimodel(
            TypedPreorder(space, {"a": [parse("X p")], "b": [Neg(p)]}),
            [("a", "b"), ("b", "b")],
        )
        v = validate_quasimodel(q_)
        assert not v and "sensible" in v.reason

    def test_empty_signature_trivially_valid(self):
        q_ = quasimodel_of_model(chain_model(), [])
        assert all(t == frozenset() for t in q_.base.types)
        assert validate_quasimodel(q_)

    def test_two_cycle_realizes_eventuality(self):
        space = Preorder(["a", "b"], [])
        m = DynModel(space, {"a": "b", "b": "a"}, {"p": ["b"]})
        q_ = quasimodel_of_model(m, [parse("F p")])
        assert validate_quasimodel(q_)

    def test_bridge_on_random_models(self):
        rng = random.Random(12)
        pool = [parse("<>p"), parse("F p & <>q"), parse("G p"), parse("X X q")]
        for _ in range(60):
            m = random_model(rng, 4, ["p", "q"])
            f = rng.choice(pool)
            assert validate_quasimodel(quasimodel_of_model(m, [f]))


class TestPaths:
    def test_path_validation(self):
        q_ = quasimodel_of_model(chain_model(), [parse("<>p")])
        assert validate_path(q_, Path(("a", "a"), None))
        assert not validate_path(q_, Path(("a", "b"), None))

    def test_lasso_closure_checked(self):
        space = Preorder(["a", "b"], [])
        m = DynModel(space, {"a": "b", "b": "a"}, {})
        q_ = quasimodel_of_model(m, [])
        assert validate_path(q_, Path(("a", "b"), 0))
        assert not validate_path(q_, Path(("a", "b"), 1))

    def test_at_unrolls_lasso(self):
        pth = Path(("a", "b", "c"), 1)
        assert [pth.at(i) for i in range(6)] == ["a", "b", "c", "b", "c", "b"]

    def test_shift(self):
        pth = Path(("a", "b", "c"), 1)
        assert pth.shift().worlds == ("b", "c") and pth.shift().loop == 0
        rot = Path(("a", "b"), 0).shift()
        assert rot.worlds == ("b", "a") and rot.loop == 0

    def test_path_below_predicate(self):
        q_ = quasimodel_of_model(chain_model(), [parse("<>p")])
        low = Path(("b", "b"), 0)
        high = Path(("a", "a"), 0)
        assert path_below(q_, low, high, 5)
        assert not path_below(q_, high, low, 1)


class TestExtendPathBelow:
    def test_identity_start(self):
        q_ = quasimodel_of_model(chain_model(), [parse("<>p")])
        pth = Path(("a", "a", "a"), None)
        out = extend_path_below(q_, pth, "a")
        assert len(out.worlds) == 3

    def test_monotone_orbit_stays_below(self):
        rng = random.Random(21)
        for _ in range(60):
            m = random_model(rng, 4, ["p"])
            q_ = quasimodel_of_model(m, [parse("<>p")])
            x = rng.choice(m.space.worlds)
            pth = orbit_lasso(m, x)
            finite = Path(tuple(pth.at(i) for i in range(5)), None)
            below = sorted(m.space.downset(x))
            v0 = rng.choice(below)
            out = extend_path_below(q_, finite, v0, 8)
            assert len(out.worlds) == 8
            for i in range(5):
                assert q_.space.le(out.worlds[i], finite.worlds[i])

    def test_rejects_bad_start(self):
        q_ = quasimodel_of_model(chain_model(), [parse("<>p")])
        with pytest.raises(QuasimodelError):
            extend_path_below(q_, Path(("b",), None), "a")


class TestRealizingLasso:
    def test_no_eventualities_any_cycle(self):
        q_ = quasimodel_of_model(chain_model(), [parse("<>p")])
        lasso = realizing_lasso(q_, "a")
        assert is_realizing(q_, lasso)

    def test_eventuality_two_steps_away(self):
        space = Preorder(["a", "b", "c"], [])
        m = DynModel(space, {"a": "b", "b": "c", "c": "c"}, {"p": ["c"]})
        q_ = quasimodel_of_model(m, [parse("F p")])
        lasso = realizing_lasso(q_, "a")
        assert is_realizing(q_, lasso)
        assert "c" in lasso.worlds

    def test_orbit_lasso_realizing_on_random_models(self):
        rng = random.Random(31)
        pool = [parse("F p"), parse("F(p & q)"), parse("<>p & F q")]
        for _ in range(60):
            m = random_model(rng, 4, ["p", "q"])
            f = rng.choice(pool)
            q_ = quasimodel_of_model(m, [f])
            x = rng.choice(m.space.worlds)
            assert is_realizing(q_, orbit_lasso(m, x))

    def test_search_matches_on_random_models(self):
        rng = random.Random(41)
        for _ in range(40):
            m = random_model(rng, 4, ["p"])
            q_ = quasimodel_of_model(m, [parse("F p")])
            x = rng.choice(m.space.worlds)
            lasso = realizing_lasso(q_, x)
            assert lasso.worlds[0] == x
            assert is_realizing(q_, lasso)

    def test_finite_paths_not_certified(self):
        q_ = quasimodel_of_model(chain_model(), [])
        assert not is_realizing(q_, Path(("a", "a"), None))

    def test_shift_preserves_realizing(self):
        rng = random.Random(51)
        for _ in range(40):
            m = random_model(rng, 4, ["p"])
            q_ = quasimodel_of_model(m, [parse("F p & <>p")])
            lasso = orbit_lasso(m, rng.choice(m.space.worlds))
            assert is_realizing(q_, lasso)
            shifted = lasso
            for _ in range(3):
                shifted = shifted.shift()
                assert is_realizing(q_, shifted)


class TestJson:
    def test_round_trip(self):
        q_ = quasimodel_of_model(chain_model(), [parse("F p")])
        data = quasimodel_to_json(q_)
        again = quasimodel_from_json(data)
        assert quasimodel_to_json(again) == data
        assert validate_quasimodel(again)
