"""Sparse multivariate polynomials: substitutions, evaluation, degree."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from qreflect.exactq import DomainError, LaurentQ
from qreflect.multipoly import MultiPolyQ, VARS3, VARS4, shift_sum, variables
from qreflect.qfamily import q_polynomial

from conftest import qc, reference_q10

X, Y, Z, W = variables(VARS4)

exponent_vectors = st.tuples(*(st.integers(min_value=0, max_value=3),) * 4)
exponent_vectors3 = st.tuples(*(st.integers(min_value=0, max_value=2),) * 3)
small_laurents = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-5, max_value=5),
    max_size=3,
).map(LaurentQ)
polys4 = st.dictionaries(exponent_vectors, small_laurents, max_size=4).map(
    lambda terms: MultiPolyQ(VARS4, terms)
)
polys3 = st.dictionaries(exponent_vectors3, small_laurents, max_size=4).map(
    lambda terms: MultiPolyQ(VARS3, terms)
)


def one_shift(var, k):
    """The shift vector of shift_multi that moves one variable: var -> q^k var."""
    ks = [0, 0, 0, 0]
    ks[var] = k
    return ks


class TestShiftSubstitute:
    def test_single_term(self):
        p = X * Y
        assert p.shift_multi(one_shift(0, -4)) == qc(-4) * X * Y

    def test_constant_unchanged(self):
        one = MultiPolyQ.one(VARS4)
        assert one.shift_multi(one_shift(2, 10)) == one

    def test_printed_polynomial(self):
        shifted = reference_q10().shift_multi(one_shift(1, 2))
        want = qc(4) * W * X * Y**2 * Z - W - qc(2) * X * Y + 1
        assert shifted == want

    @given(polys4, st.integers(min_value=0, max_value=3), st.integers(-5, 5))
    @settings(max_examples=50)
    def test_roundtrip(self, p, var, k):
        assert p.shift_multi(one_shift(var, k)).shift_multi(one_shift(var, -k)) == p


class TestEvaluate:
    def test_printed_polynomial_at_q_powers(self):
        value = reference_q10().evaluate_at_q_powers((4, 6, 0, 0))
        assert value == LaurentQ({16: 1, 10: -1})

    def test_all_ones_point(self):
        assert reference_q10().evaluate_at_q_powers((0, 0, 0, 0)).is_zero

    def test_constant(self):
        assert MultiPolyQ.one(VARS4).evaluate_at_q_powers((5, 1, 2, 3)) == 1

    @given(polys4, polys4)
    @settings(max_examples=50)
    def test_homomorphism(self, p, r):
        point = (3, -1, 2, 0)
        sum_eval = (p + r).evaluate_at_q_powers(point)
        assert sum_eval == p.evaluate_at_q_powers(point) + r.evaluate_at_q_powers(point)
        prod_eval = (p * r).evaluate_at_q_powers(point)
        assert prod_eval == p.evaluate_at_q_powers(point) * r.evaluate_at_q_powers(point)


class TestDegreeRange:
    def test_printed_families(self):
        assert q_polynomial(1, 0).q_degree_range() == (0, 0)
        assert q_polynomial(2, 0).q_degree_range() == (0, 6)
        # The constant-in-q group of Q_{1,1} is nonzero (it carries the
        # low-q limit), so the range starts at 0.
        assert q_polynomial(1, 1).q_degree_range() == (0, 10)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            MultiPolyQ.zero(VARS4).q_degree_range()


class TestRendering:
    def test_printed_text(self):
        assert str(reference_q10()) == "w*x*y^2*z - w - x*y + 1"
        assert str(MultiPolyQ.zero(VARS3)) == "0"

    def test_json_roundtrip(self):
        p = reference_q10() * qc(2) - X**3
        assert MultiPolyQ.from_json(p.to_json()) == p

    def test_json_term_order_ascending(self):
        data = reference_q10().to_json()
        exps = [tuple(t["exp"]) for t in data["terms"]]
        assert exps == sorted(exps)


class TestPartialEval:
    def test_collapses_variable(self):
        p = reference_q10()
        got = p.partial_eval_q_power(1, 0).partial_eval_q_power(2, 0)
        assert got == W * X - W - X + 1

    def test_q_power_substitution(self):
        got = (X * Y).partial_eval_q_power(0, 4)
        assert got == qc(4) * Y


# -- shift_sum against a plain-dict reference ------------------------------------------


def ref_poly(p):
    """p as {(exponents, q-exponent): integer coefficient}."""
    return {(e, qe): c for e, coeff in p.items() for qe, c in coeff.items()}


def ref_shift_sum(terms):
    out = {}
    for coeff, poly, shifts in terms:
        for (ea, qa), ca in ref_poly(coeff).items():
            for (eb, qb), cb in ref_poly(poly).items():
                e = tuple(x + y for x, y in zip(ea, eb))
                key = (e, qa + qb + sum(k * x for k, x in zip(shifts, eb)))
                out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


def shift_sum_terms(polys, arity):
    shifts = st.tuples(*(st.integers(-4, 4),) * arity)
    return st.lists(st.tuples(polys, polys, shifts), max_size=5)


class TestShiftSum:
    @pytest.mark.parametrize(
        "names, terms_strategy",
        [(VARS3, shift_sum_terms(polys3, 3)), (VARS4, shift_sum_terms(polys4, 4))],
        ids=["3-variable", "4-variable"],
    )
    @settings(max_examples=80)
    @given(data=st.data())
    def test_against_reference(self, names, terms_strategy, data):
        terms = data.draw(terms_strategy)
        # Each term followed by its negation cancels to zero mid-sum; the
        # terms drawn after it can bring the same monomials back.
        cancel = data.draw(st.lists(st.booleans(), max_size=len(terms)))
        negated = [(-coeff, poly, shifts) for (coeff, poly, shifts), n in zip(terms, cancel) if n]
        seq = terms + negated + terms[: len(terms) // 2]
        got = shift_sum(names, seq)
        assert got.names == names
        assert ref_poly(got) == ref_shift_sum(seq)
        assert all(not c.is_zero for _, c in got.items())

    def test_all_cancelling_is_zero(self):
        p = reference_q10()
        terms = [(X - 1, p, (0, 2, 0, 0)), (1 - X, p, (0, 2, 0, 0))]
        assert shift_sum(VARS4, terms) == MultiPolyQ.zero(VARS4)
        assert shift_sum(VARS4, []) == MultiPolyQ.zero(VARS4)
        zero = MultiPolyQ.zero(VARS4)
        assert shift_sum(VARS4, [(X, zero, (1, 0, 0, 0)), (zero, p, (0, 0, 0, 0))]).is_zero

    def test_matches_a_sum_of_shifted_products(self):
        p, r = reference_q10(), q_polynomial(1, 1)
        terms = [(X * qc(2), p, (0, -2, 0, 0)), (W - 1, r, (4, 0, 0, -2)), (Y, p, (0, 0, 0, 0))]
        want = sum((c * poly.shift_multi(s) for c, poly, s in terms), MultiPolyQ.zero(VARS4))
        assert shift_sum(VARS4, terms) == want

    def test_variable_mismatch_rejected(self):
        x3 = variables(VARS3)[0]
        with pytest.raises(DomainError):
            shift_sum(VARS4, [(x3, x3, (0, 0, 0))])


class TestIntegerExponents:
    @pytest.mark.parametrize("exps", [(1.5,), (1.0,), (0.5,)])
    def test_float_exponent_rejected(self, exps):
        # A float exponent is a TypeError, never truncated to an integer.
        with pytest.raises(TypeError):
            MultiPolyQ(("x",), {exps: LaurentQ.one()})

    @pytest.mark.parametrize("coeff", [3, 1.5, "1", None])
    def test_coefficient_must_be_laurent(self, coeff):
        with pytest.raises(TypeError, match="not a LaurentQ"):
            MultiPolyQ(VARS4, {(1, 0, 0, 0): coeff})

    def test_subtraction_from_a_float_is_a_type_error(self):
        # The reflected operation declines, so Python names both operand types.
        with pytest.raises(TypeError, match="for -: 'float' and 'MultiPolyQ'"):
            1.5 - X
        assert 2 - X == -X + 2
