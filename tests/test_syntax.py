import pytest
from hypothesis import given, settings, strategies as st

from dtlstar.syntax import (
    And,
    Formula,
    Hence,
    Neg,
    Next,
    ParseError,
    Tangle,
    Var,
    box,
    conj,
    diamond,
    eventually,
    formula_length,
    implies,
    negated,
    parse,
    postorder,
    q_transform,
    sub_pm,
    subformulas,
    substitute,
    to_text,
    variables,
)

p, q, r = Var("p"), Var("q"), Var("r")


class TestParse:
    def test_negated_conjunction(self):
        assert parse("~(p & q)") == Neg(And(p, q))

    def test_singleton_tangle_equals_plain_diamond(self):
        assert parse("<>{p}") == Tangle((p,))
        assert parse("<>{p}") == parse("<>p")

    def test_box_expands_through_tangle(self):
        assert parse("[]p") == Neg(Tangle((Neg(p),)))

    def test_eventually_expands(self):
        assert parse("F p") == Neg(Hence(Neg(p)))

    def test_empty_tangle_accepted(self):
        f = parse("<>{}")
        assert isinstance(f, Tangle) and f.members == ()

    def test_tangle_members_collapse_and_sort(self):
        assert parse("<>{q, p, p}") == parse("<>{p, q}")

    def test_precedence(self):
        assert parse("p & q | r") == parse("(p & q) | r")
        assert parse("p -> q -> r") == parse("p -> (q -> r)")
        assert parse("~p & q") == And(Neg(p), q)
        assert parse("X p & q") == And(Next(p), q)

    def test_keywords_not_identifiers(self):
        with pytest.raises(ParseError):
            parse("X")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as e:
            parse("p & & q")
        assert e.value.position == 4

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse("(p & q")


class TestSubformulas:
    def test_next(self):
        assert subformulas([Next(p)]) == {Next(p), p}

    def test_tangle_members_are_subformulas(self):
        f = parse("<>{p, ~q}")
        assert subformulas([f]) == {f, p, Neg(q), q}

    def test_hence(self):
        assert subformulas([Hence(p)]) == {Hence(p), p}

    def test_idempotent(self):
        fs = subformulas([parse("<>{p,q} & X ~r")])
        assert subformulas(fs) == fs

    def test_length_counts_distinct_subterms(self):
        assert formula_length(parse("<>{p, q} & p")) == 4


class TestSubPm:
    def test_variable(self):
        assert sub_pm([p]) == {p, Neg(p)}

    def test_double_negation_membership(self):
        assert sub_pm([Neg(Neg(p))]) == sub_pm([p])

    def test_next_closure(self):
        assert sub_pm([Next(p)]) == {Next(p), Neg(Next(p)), p, Neg(p)}


class TestSubstitute:
    def test_identity(self):
        assert substitute(p, {}) == p

    def test_axiom_instance_shape(self):
        base = implies(diamond(diamond(p)), diamond(p))
        inst = substitute(base, {"p": And(q, r)})
        assert inst == implies(diamond(diamond(And(q, r))), diamond(And(q, r)))

    def test_tangle_set_collapse(self):
        # independent check first: both sides agree on every small model
        from dtlstar.semantics import enumerate_models

        lhs = substitute(parse("<>{p, q}"), {"p": q})
        rhs = parse("<>{q}")
        for model in enumerate_models(3, ["p", "q"]):
            assert model.eval_mask(lhs) == model.eval_mask(rhs)
        assert lhs == rhs
        assert isinstance(lhs, Tangle) and len(lhs.members) == 1


class TestQTransform:
    def test_simple(self):
        out, inv = q_transform(Hence(p))
        assert isinstance(out, Var)
        assert inv[out.name] == Hence(p)

    def test_shared_bodies_share_variables(self):
        f = parse("<>{G p, X G p}")
        out, inv = q_transform(f)
        assert len(inv) == 1
        (name, body), = inv.items()
        assert body == Hence(p)
        assert out == Tangle((Var(name), Next(Var(name))))

    def test_outermost_only(self):
        out, inv = q_transform(Hence(Hence(p)))
        assert isinstance(out, Var)
        assert inv[out.name] == Hence(Hence(p))

    def test_inverse_recovers(self):
        f = parse("G(p & X q) & ~G p & <>{G q}")
        out, inv = q_transform(f)
        assert substitute(out, inv) == f

    def test_fresh_names_avoid_used(self):
        f = And(Var("q0"), Hence(p))
        out, inv = q_transform(f)
        assert "q0" not in inv


def formulas(max_depth=6):
    names = st.sampled_from(["p", "q", "r"])
    return st.recursive(
        names.map(Var),
        lambda sub: st.one_of(
            sub.map(Neg),
            st.tuples(sub, sub).map(lambda t: And(*t)),
            sub.map(Next),
            sub.map(Hence),
            st.lists(sub, min_size=0, max_size=3).map(Tangle),
        ),
        max_leaves=2 ** max_depth,
    )


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(formulas())
    def test_parse_print_parse_is_identity(self, f):
        assert parse(to_text(f)) == f

    @settings(max_examples=150, deadline=None)
    @given(formulas())
    def test_q_transform_inverse(self, f):
        out, inv = q_transform(f)
        assert substitute(out, inv) == f

    @settings(max_examples=150, deadline=None)
    @given(formulas())
    def test_sub_idempotent(self, f):
        fs = subformulas([f])
        assert subformulas(fs) == fs


def children(f):
    """A node's immediate subformulas, one case per connective."""
    if isinstance(f, Var):
        return ()
    if isinstance(f, (Neg, Next, Hence)):
        return (f.sub,)
    if isinstance(f, And):
        return (f.left, f.right)
    return f.members


def slow_postorder(f):
    out, done = [], set()

    def visit(g):
        if g in done:
            return
        for k in children(g):
            visit(k)
        done.add(g)
        out.append(g)

    visit(f)
    return out


class TestKids:
    """``kids``, ``rebuild`` and ``postorder`` against a case per connective."""

    @settings(max_examples=50, deadline=None)
    @given(formulas())
    def test_kids_rebuild_and_postorder(self, f):
        for g in subformulas(f):
            assert g.kids == children(g)
            assert g.rebuild(g.kids) == g
        order = postorder(f)
        assert order == slow_postorder(f)
        at = {g: i for i, g in enumerate(order)}
        assert all(at[k] < at[g] for g in order for k in g.kids)


class TestHelpers:
    def test_negated_strips_one_level(self):
        assert negated(Neg(p)) == p
        assert negated(p) == Neg(p)

    def test_conj_is_deterministic_and_injective_on_sets(self):
        assert conj({p, q}) == conj({q, p})
        assert conj({p}) == p
        with pytest.raises(ValueError):
            conj(set())

    def test_variables(self):
        assert variables(parse("<>{p, X q} & G r")) == {"p", "q", "r"}

    def test_derived_builders_round_trip_through_parser(self):
        assert parse("p | q") == Neg(And(Neg(p), Neg(q)))
        assert parse("p <-> q") == And(implies(p, q), implies(q, p))
        assert box(p) == parse("[]p")
        assert eventually(p) == parse("F p")
