"""Sparse multivariate polynomials: substitutions, evaluation, degree."""

from __future__ import annotations

from operator import add, mul

import pytest
from hypothesis import given, settings, strategies as st

from qreflect import memo, qfamily, tensorops, threedk, threedr
from qreflect.exactq import DomainError, LaurentQ, PackedColumn, accumulate
from qreflect.multipoly import MultiPolyQ, VARS3, VARS4, shift_sum, variables
from qreflect.qfamily import q_polynomial, q_polynomial_alt_route
from qreflect.threedk import k_block_states, k_element, verify_e_all
from qreflect.threedr import p_polynomial, r_block_states, r_element

from conftest import (
    assert_packed_invariants,
    assert_true_column,
    qc,
    reference_evaluate,
    reference_q10,
)

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


# -- the packed kernel against the term-by-term products --------------------------------
#
# MultiPolyQ.__mul__ and shift_sum go through exactq.apply_columns.  The
# references multiply every pair of terms as two LaurentQ values and sum the
# products with accumulate, one add at a time.


def accumulated_product(a, b):
    """a * b term by term: one LaurentQ product and one accumulate add per pair."""
    out = accumulate(
        (tuple(map(add, ea, eb)), ca * cb) for ea, ca in a.items() for eb, cb in b.items()
    )
    return MultiPolyQ(a.names, out, _trusted=True)


def accumulated_shift_sum(names, terms):
    """shift_sum term by term, over coeff * poly.shift_multi(shifts)."""
    out = accumulate(
        (tuple(map(add, ea, eb)), ca * cb)
        for coeff, poly, shifts in terms
        for ea, ca in coeff.items()
        for eb, cb in poly.shift_multi(shifts).items()
    )
    return MultiPolyQ(names, out, _trusted=True)


def assert_canonical(poly):
    """Every coefficient nonzero, in canonical form and with valid bounds."""
    for _, value in poly.items():
        assert value
        assert_packed_invariants(value)


_EDGE_BITS = (15, 16, 31, 32, 40, 63, 100, 200)
digit_values = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([s * (2**k - 1) for k in _EDGE_BITS for s in (1, -1)]),
    st.integers(-(2**200), 2**200),
)


@st.composite
def wide_coefficients(draw):
    """A nonzero LaurentQ at stride 1, or at stride 2 with either parity of lo.

    Stride-2 values of both parities make one output collect products
    whose lo differ by an odd amount, which forces the stride-1 redo.
    """
    exps = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        parity = draw(st.integers(0, 1))
        exps = sorted({2 * e + parity for e in exps})
    return LaurentQ({e: draw(digit_values.filter(bool)) for e in exps})


def wide_polys(names):
    """Polynomials with few exponents, so that products collide and cancel."""
    exps = st.tuples(*(st.integers(0, 2),) * len(names))
    return st.dictionaries(exps, wide_coefficients(), max_size=5).map(
        lambda terms: MultiPolyQ(names, terms)
    )


@st.composite
def shift_groups(draw, names):
    """(coeff, poly, shifts) groups; one poly can serve several groups."""
    pool = draw(st.lists(wide_polys(names), min_size=1, max_size=3))
    shifts = st.tuples(*(st.integers(-3, 3),) * len(names))
    groups = draw(
        st.lists(st.tuples(wide_polys(names), st.sampled_from(pool), shifts), max_size=6)
    )
    # A group and its negation cancel; the groups after them can bring the
    # same monomials back.
    cancel = draw(st.lists(st.booleans(), max_size=len(groups)))
    negated = [(-coeff, poly, s) for (coeff, poly, s), n in zip(groups, cancel) if n]
    return groups + negated + groups[: len(groups) // 2]


ARITIES = pytest.mark.parametrize("names", [VARS3, VARS4], ids=["3-variable", "4-variable"])


class TestPackedKernel:
    @ARITIES
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_product_against_reference(self, names, data):
        a = data.draw(wide_polys(names))
        b = data.draw(wide_polys(names))
        want = accumulated_product(a, b)
        for got in (a * b, b * a):
            assert got == want
            assert sorted(got.monomial_exponents()) == sorted(want.monomial_exponents())
            assert_canonical(got)
        for poly in (a, b):
            if poly._column is not None:
                assert_true_column(poly._column)

    @ARITIES
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_shift_sum_against_reference(self, names, data):
        groups = data.draw(shift_groups(names))
        got = shift_sum(names, groups)
        assert got == accumulated_shift_sum(names, groups)
        assert_canonical(got)

    @ARITIES
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_difference_of_squares_cancels(self, names, data):
        # (u - v)(u + v): the cross terms u*v and v*u cancel inside one call.
        u = data.draw(wide_polys(names))
        v = data.draw(wide_polys(names))
        got = (u - v) * (u + v)
        assert got == accumulated_product(u - v, u + v)
        assert got == accumulated_product(u, u) - accumulated_product(v, v)
        assert_canonical(got)

    def test_cancelled_low_slot_is_stripped(self):
        # (1 + X)((1 + q^2) X - 1): the X coefficient is (1 + q^2) - 1 = q^2.
        x = variables(VARS3)[0]
        got = (1 + x) * (LaurentQ({0: 1, 2: 1}) * x - 1)
        assert got.coeff((1, 0, 0)) == LaurentQ.monomial(2)
        assert got == accumulated_product(1 + x, LaurentQ({0: 1, 2: 1}) * x - 1)
        assert_canonical(got)

    def test_parity_clash_is_redone_at_stride_1(self):
        # X (q Y) and Y X land on X*Y with lo 1 and 0, at stride 2.
        x, y, _ = variables(VARS3)
        a, b = x + y, LaurentQ.monomial(1) * y + x
        got = a * b
        assert got.coeff((1, 1, 0)) == LaurentQ({0: 1, 1: 1})
        assert got == accumulated_product(a, b)
        assert_canonical(got)

    def test_sums_at_the_slot_boundary(self):
        # Four products of 16-bit and 15-bit digits on each output: each
        # fits 31 bits, their sum needs 33.
        x, y, _ = variables(VARS3)
        c = LaurentQ({0: 2**16 - 1, 2: 2**16 - 1})
        p = MultiPolyQ.constant(VARS3, LaurentQ.integer(2**15 - 1))
        one = MultiPolyQ.one(VARS3)
        groups = [(m * c, p, (0, 0, 0)) for m in (one, one, one, one, x, x, y, y)]
        got = shift_sum(VARS3, groups)
        assert got == accumulated_shift_sum(VARS3, groups)
        assert_canonical(got)

    def test_one_poly_at_several_shifts(self):
        p = q_polynomial(1, 1)
        groups = [
            (X, p, (1, 0, 0, 0)),
            (Y - 1, p, (0, 0, 0, 0)),
            (X, p, (0, 2, -2, 0)),
            (W, p, (1, 0, 0, 0)),
        ]
        assert shift_sum(VARS4, groups) == accumulated_shift_sum(VARS4, groups)
        # The shifts moved copies of the column, not the memoized Q_{1,1}.
        assert p == q_polynomial_alt_route(1, 1)

    @pytest.mark.parametrize(
        "coeff_names, poly_names", [(VARS4, VARS3), (VARS3, VARS4), (VARS3, VARS3)]
    )
    def test_variable_mismatch_rejected(self, coeff_names, poly_names):
        with pytest.raises(DomainError):
            shift_sum(VARS4, [(variables(coeff_names)[0], variables(poly_names)[1], (0,) * 4)])

    def test_recursions_keep_narrow_slots(self):
        # Each step's bounds grow by the sums of its products; a column holds
        # its entries' true norms, and a call whose records reach the width
        # tightens copies of its coefficients before it widens, so Q and P
        # stay at the slot width of their digits.
        q = q_polynomial_alt_route(4, 4)
        assert {c._w for _, c in q.items()} == {32}
        assert {c._w for _, c in p_polynomial(16).items()} == {32}


class TestColumnsBuiltOnce:
    def test_warm_verify_e_builds_one_column_per_polynomial(self, monkeypatch):
        # A polynomial builds its column on first use and keeps it: a warm
        # verify_e pass builds at most one column per distinct polynomial
        # it multiplies by, although it uses some of them several times.
        verify_e_all(1, 1)
        builds, used = [], []
        init, as_column = PackedColumn.__init__, MultiPolyQ._as_column

        def counted_init(self, pairs):
            builds.append(self)
            init(self, pairs)

        def recorded(poly):
            used.append(poly)
            return as_column(poly)

        monkeypatch.setattr(PackedColumn, "__init__", counted_init)
        monkeypatch.setattr(MultiPolyQ, "_as_column", recorded)
        assert verify_e_all(1, 1).passed
        distinct = len({id(poly) for poly in used})
        assert len(used) > distinct
        assert len(builds) <= distinct


# -- evaluation at q-powers from the kept column ----------------------------------------


def assert_evaluates(poly, point):
    """evaluate_at_q_powers equals the term-by-term reference, in canonical form."""
    got = poly.evaluate_at_q_powers(point)
    assert got == reference_evaluate(poly, point)
    assert_packed_invariants(got)
    return got


def points(names):
    """Points with odd, negative and zero coordinates."""
    return st.tuples(*(st.integers(-5, 5),) * len(names))


@st.composite
def evaluation_cases(draw, names):
    """(poly, point) over wide coefficients at stride 1 and 2.  Now and then
    the polynomial gains a negated copy of itself, its exponents moved by a
    vector and its coefficients shifted back, so that its value at the point
    cancels to zero; a zero move makes it the zero polynomial."""
    poly = draw(wide_polys(names))
    point = draw(points(names))
    if draw(st.booleans()):
        move = draw(st.tuples(*(st.integers(0, 2),) * len(names)))
        back = -sum(map(mul, point, move))
        twin = {tuple(map(add, e, move)): -c.shifted(back) for e, c in poly.items()}
        poly = poly + MultiPolyQ(names, twin)
    return poly, point


class TestEvaluateFromColumn:
    @ARITIES
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_against_reference(self, names, data):
        poly, point = data.draw(evaluation_cases(names))
        assert_evaluates(poly, point)
        # The kept state serves a second point and the first one again.
        other = data.draw(points(names))
        assert_evaluates(poly, other)
        assert_evaluates(poly, point)

    @ARITIES
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_evaluated_multiplied_evaluated(self, names, data):
        # A product shares its larger factor's column; evaluating the
        # factors before and after it, and the product, agree.
        a, b = data.draw(wide_polys(names)), data.draw(wide_polys(names))
        point = data.draw(points(names))
        first = [assert_evaluates(poly, point) for poly in (a, b)]
        product = a * b
        assert assert_evaluates(product, point) == first[0] * first[1]
        assert [assert_evaluates(poly, point) for poly in (a, b)] == first
        if a._column is not None:
            assert_true_column(a._column)

    @pytest.mark.parametrize("bits", [31, 63])
    @pytest.mark.parametrize("point", [(0, 0, 0, 0), (1, 0, 0, 0), (-1, 2, 0, 0)])
    def test_sum_wider_than_the_column(self, bits, point):
        # Each entry fits the column's slots, but the sum's bound, three
        # times 2^bits - 1, needs the next width, so the column is
        # re-packed there: at stride 2, or at stride 1 when an odd
        # coordinate splits the parities.
        c = LaurentQ({0: 2**bits - 1, 2: -(2**bits - 1)})
        poly = MultiPolyQ(VARS4, {(0, 0, 0, 0): c, (1, 0, 0, 0): c, (0, 1, 0, 0): c.shifted(-point[1])})
        column = poly._as_column()
        got = assert_evaluates(poly, point)
        assert got._w > column.w
        assert poly._as_column() is column

    def test_zero_polynomial(self):
        assert MultiPolyQ.zero(VARS4).evaluate_at_q_powers((1, -2, 3, 0)).is_zero
        assert MultiPolyQ.zero(VARS4)._evaluation is None

    @pytest.mark.parametrize("point", [(2.0, 0, 0, 0), (0.5, 0, 0, 0)])
    def test_float_coordinate_is_a_type_error(self, point):
        # A float never reaches a shift, truncated or not.
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            q_polynomial(1, 0).evaluate_at_q_powers(point)

    @pytest.mark.parametrize("point", [(1, 2, 3), (1, 2, 3, 4, 5)])
    def test_wrong_arity_is_a_domain_error(self, point):
        with pytest.raises(DomainError, match="wrong arity"):
            q_polynomial(1, 0).evaluate_at_q_powers(point)


class TestEvaluationState:
    def test_state_lives_on_the_polynomial(self):
        # The evaluation state is a slot of the evaluated polynomial: no
        # memo table is added, and clearing the tables drops it with the
        # polynomials, so a rebuild gives the same elements.
        names = sorted(memo.tables())
        keys = [out + inp for out in k_block_states(3, 4) for inp in k_block_states(3, 4)]
        r_keys = [out + inp for out in r_block_states(3, 2) for inp in r_block_states(3, 2)]
        before = [k_element(*key) for key in keys] + [r_element(*key) for key in r_keys]
        assert all(before)
        assert q_polynomial(1, 1)._evaluation is not None
        assert sorted(memo.tables()) == names
        for module in (qfamily, threedr, threedk, tensorops):
            module.clear_caches()
        assert q_polynomial(1, 1)._evaluation is None
        after = [k_element(*key) for key in keys] + [r_element(*key) for key in r_keys]
        assert after == before
        assert sorted(memo.tables()) == names

    def test_warm_reflection_builds_no_element(self, monkeypatch):
        state = (0, 2, 0, 1, 2, 0, 2, 0, 1)
        assert tensorops.verify_reflection(state).passed
        calls = []

        def counted(fn):
            def wrapped(*args, **kw):
                calls.append(fn)
                return fn(*args, **kw)
            return wrapped

        monkeypatch.setattr(tensorops, "k_element", counted(tensorops.k_element))
        monkeypatch.setattr(tensorops, "r_element", counted(tensorops.r_element))
        monkeypatch.setattr(MultiPolyQ, "evaluate_at_q_powers", counted(MultiPolyQ.evaluate_at_q_powers))
        assert tensorops.verify_reflection(state).passed
        assert calls == []


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
