"""Exact arithmetic: Laurent polynomials, q-Pochhammer symbols, series."""

from __future__ import annotations

import functools
import sys

import pytest
from hypothesis import given, settings, strategies as st

import qreflect
from qreflect import exactq
from qreflect.exactq import (
    DomainError,
    ExactDivisionError,
    LaurentQ,
    accumulate,
    euler_product,
    gaussian_binomial,
    q_pochhammer,
    qq_pochhammer,
    qq_pochhammer_tail,
)

from conftest import assert_packed_invariants, frac_add, frac_equals, frac_mul

laurents = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(LaurentQ)


def L(pairs):
    return LaurentQ(dict(pairs))


class TestLaurentQ:
    def test_zero_is_empty(self):
        assert LaurentQ({0: 0, 3: 0}).is_zero
        assert (L({2: 1}) - L({2: 1})).is_zero

    def test_basic_arithmetic(self):
        a = L({0: 1, 2: -1})
        b = L({2: 1, 4: -1})
        assert a * b == L({2: 1, 4: -2, 6: 1})
        assert a + b == L({0: 1, 4: -1})
        assert a - a == LaurentQ.zero()
        assert a * 0 == LaurentQ.zero()
        assert (1 - LaurentQ.monomial(2)) == a

    def test_pow(self):
        a = 1 - LaurentQ.monomial(2)
        assert a**0 == LaurentQ.one()
        assert a**3 == a * a * a

    @given(laurents, laurents, laurents)
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(laurents, laurents)
    @settings(max_examples=60)
    def test_exact_division_roundtrip(self, a, b):
        if b.is_zero:
            return
        assert (a * b).exact_div(b) == a

    def test_exact_division_remainder(self):
        with pytest.raises(ExactDivisionError):
            (1 + LaurentQ.monomial(1)).exact_div(1 - LaurentQ.monomial(1))

    def test_rendering(self):
        p = L({6: -1, 8: -1, 10: -1, 22: 1})
        assert str(p) == "-q^6 - q^8 - q^10 + q^22"
        assert str(LaurentQ.zero()) == "0"
        assert str(L({0: 3, 1: -2, -2: 1})) == "q^-2 + 3 - 2*q"

    def test_json_roundtrip(self):
        p = L({-3: 12345678901234567890, 4: -7})
        assert LaurentQ.from_json(p.to_json()) == p

    @pytest.mark.parametrize("terms", [{0: 2.7}, {0: 0.5}, {0: 0.0}, {1.5: 1}, {2.0: 1}])
    def test_constructor_rejects_non_integers(self, terms):
        # A float is a TypeError, never truncated to an integer.
        with pytest.raises(TypeError):
            LaurentQ(terms)

    @pytest.mark.parametrize(
        "pairs", [[[0, 2.7]], [[0, 3]], [[0, 2.0]], [[0.5, "1"]], [[1.0, "1"]]]
    )
    def test_from_json_takes_only_what_to_json_writes(self, pairs):
        # Integer exponents and decimal-string coefficients; anything else is
        # a TypeError, never a truncated value.
        with pytest.raises(TypeError):
            LaurentQ.from_json({"q": pairs})

    def test_subtraction_from_a_float_is_a_type_error(self):
        with pytest.raises(TypeError):
            1.5 - LaurentQ.one()
        assert 2 - LaurentQ.one() == 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda: LaurentQ.integer(2.5),
            lambda: LaurentQ.monomial(0, 1.5),
            lambda: LaurentQ.monomial(0.5),
            lambda: LaurentQ.monomial(2, "3"),
        ],
        ids=["integer-float", "monomial-float-coeff", "monomial-float-exp", "monomial-str"],
    )
    def test_constructors_reject_non_integers(self, build):
        with pytest.raises(TypeError):
            build()



# -- differential test: packed LaurentQ against a dict reference -----------------
#
# The reference keeps a Laurent polynomial as {exponent: nonzero coefficient}
# and does schoolbook arithmetic on it, with nothing packed and no bounds.


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def ref_exact_div(num, den):
    """Long division from the top; None when the division is not exact."""
    num = dict(num)
    quot = {}
    d_lo, d_hi = min(den), max(den)
    while num:
        top = max(num)
        if top - d_hi < min(num) - d_lo:
            return None
        qc, rem = divmod(num[top], den[d_hi])
        if rem:
            return None
        quot[top - d_hi] = qc
        num = ref_add(num, {e + top - d_hi: -qc * c for e, c in den.items()})
    return quot


def ref_str(a):
    if not a:
        return "0"
    pieces = []
    for e in sorted(a):
        c = a[e]
        if e == 0:
            body = str(abs(c))
        else:
            mono = "q" if e == 1 else f"q^{e}"
            body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(pieces)


_EDGES = [v + d for v in (2**15, 2**31, 2**62, 2**63, 2**127) for d in (-1, 0, 1)]
wide_coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.sampled_from(_EDGES + [-v for v in _EDGES]),
    st.integers(min_value=-(2**300), max_value=2**300),
)
ref_polys = st.dictionaries(
    st.integers(min_value=-40, max_value=40), wide_coeffs, max_size=12
).map(lambda d: {e: c for e, c in d.items() if c})


def check_matches(value, ref):
    """Every read-out of a packed value agrees with the reference dict."""
    assert_packed_invariants(value)
    assert dict(value.items()) == ref
    assert [e for e, _ in value.items()] == sorted(ref)
    assert len(value) == len(ref)
    assert value.is_zero == (not ref)
    assert str(value) == ref_str(ref)
    assert value.to_json() == {"q": [[e, str(ref[e])] for e in sorted(ref)]}
    assert LaurentQ.from_json(value.to_json()) == value
    if ref:
        assert (value.min_exp(), value.max_exp()) == (min(ref), max(ref))
        probe = range(min(ref) - 2, max(ref) + 3)
    else:
        probe = range(-2, 3)
    assert [value.coeff(e) for e in probe] == [ref.get(e, 0) for e in probe]


def widened(value):
    """The same value at stride 1, in slots wider than any 300-bit coefficient needs."""
    big = LaurentQ({e: 2**400 for e in range(-3, 4)})
    return (value + big) - big


# Even polynomials; shifted by k, every exponent has the parity of k.
even_polys = ref_polys.map(lambda d: {2 * (e // 2): c for e, c in d.items()})


def shift_ref(a, k):
    """The reference polynomial a times q^k."""
    return {e + k: c for e, c in a.items()}


def held_at_stride_1(value):
    """The same value held at stride 1.

    Adding a monomial of the other parity forces stride 1; subtracting it
    leaves the value there.
    """
    odd = LaurentQ.monomial(value.min_exp() + 1 if value else 1)
    return (value + odd) - odd


class TestPackedAgainstReference:
    @given(ref_polys)
    @settings(max_examples=150)
    def test_construction(self, a):
        check_matches(LaurentQ(a), a)

    @given(ref_polys, ref_polys)
    @settings(max_examples=150)
    def test_add_sub_mul(self, a, b):
        pa, pb = LaurentQ(a), LaurentQ(b)
        check_matches(pa + pb, ref_add(a, b))
        check_matches(pa - pb, ref_add(a, {e: -c for e, c in b.items()}))
        check_matches(pa * pb, ref_mul(a, b))
        check_matches(-pa, {e: -c for e, c in a.items()})

    @given(ref_polys, st.integers(min_value=-(2**130), max_value=2**130))
    @settings(max_examples=100)
    def test_integer_operands(self, a, k):
        pa = LaurentQ(a)
        ka = {0: k} if k else {}
        check_matches(pa * k, ref_mul(a, ka))
        check_matches(k * pa, ref_mul(a, ka))
        check_matches(pa + k, ref_add(a, ka))
        check_matches(k - pa, ref_add(ka, {e: -c for e, c in a.items()}))

    def test_small_int_operand_needs_no_decode(self, monkeypatch):
        # An int is a one-slot value, which serves at any width above its
        # bound: a product or sum with a multi-slot value decodes nothing.
        calls = []
        tight = LaurentQ._tight

        def counted(value):
            calls.append(value)
            return tight(value)

        monkeypatch.setattr(LaurentQ, "_tight", counted)
        for a in ({0: 5, 1: -3, 4: 7}, {0: 5, 2: -3, 4: 7},
                  {0: 2**40, 1: 3}, {0: 2**40, 2: -3, 6: 1}):
            x = LaurentQ(a)
            for k in (-1, 2, 3, 1000):
                ka = {0: k}
                check_matches(x * k, ref_mul(a, ka))
                check_matches(k * x, ref_mul(a, ka))
                check_matches(x + k, ref_add(a, ka))
        assert calls == []

    @given(
        st.dictionaries(st.integers(-40, 40), wide_coeffs, max_size=4),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=60)
    def test_pow(self, a, n):
        a = {e: c for e, c in a.items() if c}
        want = {0: 1}
        for _ in range(n):
            want = ref_mul(want, a)
        check_matches(LaurentQ(a) ** n, want)

    @given(ref_polys, st.integers(min_value=-40, max_value=40))
    @settings(max_examples=60)
    def test_shifted(self, a, k):
        check_matches(LaurentQ(a).shifted(k), {e + k: c for e, c in a.items()})

    @given(ref_polys, ref_polys, ref_polys)
    @settings(max_examples=100)
    def test_exact_div(self, a, b, r):
        if not b:
            return
        num = ref_add(ref_mul(a, b), r)
        want = ref_exact_div(num, b) if num else {}
        pn, pb = LaurentQ(num), LaurentQ(b)
        if want is None:
            with pytest.raises(ExactDivisionError):
                pn.exact_div(pb)
        else:
            check_matches(pn.exact_div(pb), want)

    @pytest.mark.parametrize(
        "num, den, k",
        [
            # The quotient int has more bits than two 32-bit slots hold.
            ({0: 406971029, 1: 502194308, 2: 1076616277}, {0: 3, 1: 1},
             2**62 + 12345678901234567),
            # Two slots, but a 31-bit digit: Q D could carry, so it is no proof.
            ({0: 2**29, 1: 3 * 2**29 + 4, 2: 1}, {0: 3, 1: 1}, 2**32 + 3 * 2**29),
            # Two slots whose balanced digits do not exist: the top one is 2^31.
            ({0: 1, 1: 2**31 - 1, 2: 2**31 - 1}, {0: -1, 1: 1}, 2**63 - 1),
        ],
        ids=["wide-quotient", "carry-unproved", "top-digit-overflows"],
    )
    def test_zero_remainder_without_quotient(self, num, den, k):
        # N's digits are the balanced 32-bit digits of D(2^32) k, so the
        # packed ints divide at w = 32, but D does not divide N.
        assert ref_exact_div(num, den) is None
        num, den = L(num), L(den)
        assert num._w == den._w == 32
        assert num._p == den._p * k
        with pytest.raises(ExactDivisionError):
            num.exact_div(den)

    @pytest.mark.parametrize("d1, attempts", [(2**31 - 1, 1), (2**31 + 1, 2)])
    def test_quotient_proof_at_its_boundary(self, monkeypatch, d1, attempts):
        # Q = 1 - q and D = a + b q with ||D||_1 = a + b = d1: N = Q D has
        # 31-bit digits, so both divide at 32-bit slots, and the proof
        # ||Q||_inf ||D||_1 < 2^31 holds just below its boundary.  Just above
        # it fails, and the quotient comes from the second width.
        a = d1 // 2
        b = d1 - a
        num, den = L({0: a, 1: b - a, 2: -b}), L({0: a, 1: b})
        assert num._w == den._w == 32
        widths = []
        shared = exactq._shared

        def recorded(*args):
            out = shared(*args)
            widths.append(out[1])
            return out

        monkeypatch.setattr(exactq, "_shared", recorded)
        check_matches(num.exact_div(den), {0: 1, 1: -1})
        assert widths[0] == 32 and len(widths) == attempts

    def test_quotient_wider_than_its_operands(self, monkeypatch):
        # [40 over 20]_{q^2} has 31-bit coefficients, over operand bounds of
        # at most 11 bits: the product check fails at the operands' 32-bit
        # width and the quotient is found at the second width.
        num = qq_pochhammer(2, 40)
        den = qq_pochhammer(2, 20) * qq_pochhammer(2, 20)
        widths = []
        shared = exactq._shared

        def recorded(*args):
            out = shared(*args)
            widths.append(out[1])
            return out

        monkeypatch.setattr(exactq, "_shared", recorded)
        got = num.exact_div(den)
        assert widths[0] == 32 and len(widths) == 2
        want = ref_exact_div(dict(num.items()), dict(den.items()))
        check_matches(got, want)
        assert max(abs(c) for c in want.values()).bit_length() == 31
        assert got == gaussian_binomial(40, 20, 2)

    @given(ref_polys, st.dictionaries(st.integers(-40, 40), wide_coeffs, max_size=6))
    @settings(max_examples=100)
    def test_end_slots_cancel(self, a, extra):
        # b cancels a's lowest and highest terms, so the sum loses both end slots.
        b = dict(extra)
        for e in (min(a, default=0), max(a, default=0)):
            b[e] = -a.get(e, 0)
        b = {e: c for e, c in b.items() if c}
        check_matches(LaurentQ(a) + LaurentQ(b), ref_add(a, b))
        check_matches(LaurentQ(a) - LaurentQ(a), {})

    @given(ref_polys)
    @settings(max_examples=100)
    def test_equality_across_widths(self, a):
        narrow, wide = LaurentQ(a), widened(LaurentQ(a))
        assert wide._w > narrow._w or not a
        check_matches(wide, a)
        assert wide == narrow and narrow == wide
        assert hash(wide) == hash(narrow)
        assert wide * narrow == narrow * narrow
        assert wide + narrow == narrow * 2
        if a:
            assert wide != narrow.shifted(1)
            assert wide != narrow + 1

    @given(st.lists(st.tuples(ref_polys, st.integers(-40, 40)), max_size=6))
    @settings(max_examples=100)
    def test_sum_shifted(self, parts):
        want = {}
        for a, k in parts:
            want = ref_add(want, {e + k: c for e, c in a.items()})
        check_matches(LaurentQ.sum_shifted((LaurentQ(a), k) for a, k in parts), want)

    def test_bounds_cover_carries(self):
        # Each product or sum fits the slot before the carries pile up; 15-bit
        # digits share a 32-bit slot, whose product only the log term spills.
        for a in ({i: 2**31 - 1 for i in range(16)}, {i: 2**15 - 1 for i in range(16)},
                  {2 * i: 2**15 - 1 for i in range(16)}):
            check_matches(LaurentQ(a) * LaurentQ(a), ref_mul(a, a))
        top = {0: 2**62 - 1, 1: -(2**62 - 1)}
        want = {e: 4 * c for e, c in top.items()}
        check_matches(LaurentQ.sum_shifted([(LaurentQ(top), 0)] * 4), want)

    def test_bound_overflow_widens(self):
        # 2^62 fits a 64-bit slot; its square and a sum of three copies do not.
        a = LaurentQ({0: 2**62, 3: -(2**62)})
        check_matches(a * a, {0: 2**124, 3: -(2**125), 6: 2**124})
        check_matches(a + a + a, {0: 3 * 2**62, 3: -3 * 2**62})
        # The product's ||.||_inf bound is min(2^63 2^62, 2^62 2^63) = 2^125,
        # a 126-bit magnitude, and slot widths are multiples of 32: the
        # narrowest that holds it is 128.
        assert (a * a)._w == 128

    def test_product_bound_takes_the_smaller_side(self):
        # ||ab||_inf <= min(||a||_1 ||b||_inf, ||a||_inf ||b||_1): 2^10 unit
        # digits times the one-slot 2^61 have the bound min(2^71, 2^61) and
        # fit 64-bit slots, where the other side would need 96.
        a = {2 * i: 1 for i in range(2**10)}
        want = {e: 2**61 for e in a}
        for got in (LaurentQ(a) * 2**61, LaurentQ.integer(2**61) * LaurentQ(a)):
            check_matches(got, want)
            assert got._w == 64

    # -- the stride: values in q^eta Z[q^2] are packed at stride 2 ----------------

    @given(even_polys, even_polys, st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=150)
    def test_parity_homogeneous(self, a, b, ka, kb):
        a, b = shift_ref(a, ka), shift_ref(b, kb)
        pa, pb = LaurentQ(a), LaurentQ(b)
        assert pa._s == 2 and pb._s == 2
        check_matches(pa, a)
        check_matches(pa * pb, ref_mul(a, b))
        assert (pa * pb)._s == 2
        total = pa + pb
        check_matches(total, ref_add(a, b))
        check_matches(pa - pb, ref_add(a, {e: -c for e, c in b.items()}))
        if (ka - kb) % 2 == 0:
            assert total._s == 2
        check_matches(pa.shifted(ka) * pb, ref_mul(shift_ref(a, ka), b))

    @given(even_polys, even_polys, st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=150)
    def test_mixed_parity_sums(self, a, b, ka, kb):
        # Both operands stride 2, their lo of opposite parity: the sum is
        # re-packed at stride 1, and taking b back out leaves a at stride 1.
        a, b = shift_ref(a, 2 * ka), shift_ref(b, 2 * kb + 1)
        pa, pb = LaurentQ(a), LaurentQ(b)
        total = pa + pb
        check_matches(total, ref_add(a, b))
        check_matches(pb + pa, ref_add(a, b))
        back = total - pb
        check_matches(back, a)
        assert back == pa and hash(back) == hash(pa)
        check_matches(back + pa, ref_add(a, a))
        check_matches(back * pb, ref_mul(a, b))
        check_matches(pa * total, ref_mul(a, ref_add(a, b)))
        want = ref_add(shift_ref(a, 3), shift_ref(b, -2))
        check_matches(LaurentQ.sum_shifted([(pa, 3), (pb, -2)]), want)
        want = ref_add(shift_ref(a, 3), ref_add(ref_add(a, b), shift_ref(b, -3)))
        check_matches(LaurentQ.sum_shifted([(pa, 3), (total, 0), (pb, -3)]), want)

    @given(
        ref_polys,
        even_polys,
        st.integers(-40, 40),
        wide_coeffs.filter(bool),
        st.integers(-1, 1),
    )
    @settings(max_examples=150)
    def test_one_slot_operands(self, a, b, e, c, kb):
        # A monomial (stride 2) and a one-slot value left at stride 1 by a
        # cancelled sum, against values of stride 1 and stride 2.
        b = shift_ref(b, kb)
        mono = LaurentQ.monomial(e, c)
        left = LaurentQ({e: c, e + 1: 1}) - LaurentQ.monomial(e + 1)
        assert mono._s == 2 and left._s == 1
        check_matches(left, {e: c})
        assert left == mono and hash(left) == hash(mono)
        m = {e: c}
        for one in (mono, left):
            for poly, ref in ((LaurentQ(a), a), (LaurentQ(b), b)):
                check_matches(one * poly, ref_mul(m, ref))
                check_matches(poly * one, ref_mul(m, ref))
                check_matches(one + poly, ref_add(m, ref))
                check_matches(poly - one, ref_add(ref, {e: -c}))
                check_matches((poly * one).exact_div(one), ref)
                if ref:
                    check_matches((poly * one).exact_div(poly), m)
                product = one * poly * one
                check_matches(product, ref_mul(ref_mul(m, ref), m))
                total = LaurentQ.sum_shifted([(one, 1), (poly, 0), (one, -1)])
                check_matches(total, ref_add(ref_add({e + 1: c}, ref), {e - 1: c}))

    @given(even_polys, even_polys, even_polys, st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=150)
    def test_exact_div_at_stride_2(self, a, b, r, ka, kb):
        # Quotient, divisor and remainder parity-homogeneous, so numerator
        # and divisor are both stride 2: exact and inexact divisions.
        if not b:
            return
        a, b = shift_ref(a, ka), shift_ref(b, kb)
        r = shift_ref(r, ka + kb)
        for num in (ref_mul(a, b), ref_add(ref_mul(a, b), r)):
            want = ref_exact_div(num, b) if num else {}
            pn, pb = LaurentQ(num), LaurentQ(b)
            assert pn._s == 2 and pb._s == 2
            if want is None:
                with pytest.raises(ExactDivisionError):
                    pn.exact_div(pb)
            else:
                got = pn.exact_div(pb)
                check_matches(got, want)
                assert got._s == 2

    @given(ref_polys, even_polys, st.integers(-3, 3), st.integers(0, 3), st.integers(-45, 45))
    @settings(max_examples=150)
    def test_in_parity_class(self, a, b, k, eta, floor):
        # Against a scan of the reference exponents: a mostly at stride 1, b
        # at stride 2, both also held at stride 1 (b then with zero
        # odd-offset digits), and zero.
        def scan(ref, lowest):
            return all(e >= lowest and (e - eta) % 2 == 0 for e in ref)

        b = shift_ref(b, k)
        for ref in (a, b, {}):
            value = LaurentQ(ref)
            for held in (value, held_at_stride_1(value)):
                assert held.in_parity_class(eta, floor) == scan(ref, floor)
                assert held.in_parity_class(eta) == scan(ref, 0)

    def test_in_parity_class_after_odd_digits_cancel(self):
        # (q + q^2) - q leaves one slot at stride 1, the others several.
        for terms, odd in (({1: 1, 2: 1}, 1), ({0: 1, 1: 1, 4: 1}, 1), ({-2: 1, -1: 2, 0: 1}, -1)):
            value = LaurentQ(terms) - LaurentQ.monomial(odd, terms[odd])
            assert value._s == 1
            assert value.in_parity_class(0, floor=value.min_exp())
            assert not value.in_parity_class(1, floor=value.min_exp())
            assert not value.in_parity_class(0, floor=value.min_exp() + 1)

    @given(even_polys, st.integers(0, 1))
    @settings(max_examples=100)
    def test_equality_across_width_and_stride(self, a, parity):
        a = shift_ref(a, parity)
        narrow = LaurentQ(a)
        big = LaurentQ({2 * e + parity: 2**400 for e in range(-3, 4)})
        held = [narrow, held_at_stride_1(narrow), (narrow + big) - big, widened(narrow)]
        if a:
            assert [v._s for v in held] == [2, 1, 2, 1]
            assert held[2]._w > narrow._w and held[3]._w > narrow._w
        for v in held:
            check_matches(v, a)
            assert hash(v) == hash(narrow)
            for u in held:
                assert u == v
            if a:
                assert v != narrow.shifted(1) and v != narrow.shifted(2)
                assert v != narrow + 1 and v != narrow + LaurentQ.monomial(narrow.max_exp() + 1)


# -- accumulate against a dict reference --------------------------------------------
#
# Keys come from a small range so that they collide; negated copies of some
# pairs cancel keys mid-sum, and the pairs after them can bring those keys back.

keyed_polys = st.lists(st.tuples(st.integers(0, 3), ref_polys), max_size=8)


def ref_accumulate(pairs):
    out = {}
    for key, value in pairs:
        out[key] = ref_add(out.get(key, {}), value)
    return {key: value for key, value in out.items() if value}


class TestAccumulate:
    @given(keyed_polys, st.lists(st.booleans(), max_size=8), keyed_polys)
    @settings(max_examples=150)
    def test_against_reference(self, pairs, negate, later):
        cancels = [(k, {e: -c for e, c in v.items()}) for (k, v), n in zip(pairs, negate) if n]
        seq = pairs + cancels + later
        got = accumulate((key, LaurentQ(value)) for key, value in seq)
        want = ref_accumulate(seq)
        assert set(got) == set(want)
        for key, value in got.items():
            check_matches(value, want[key])

    def test_cancel_then_reappear(self):
        a, b = L({0: 1, 2: -3}), L({5: 7})
        got = accumulate([("k", a), ("j", b), ("k", -a), ("k", b), ("j", b)])
        assert got == {"k": b, "j": b * 2}

    def test_all_cancelling_and_zero_inputs(self):
        a = L({-1: 2**70, 1: 5})
        zero = LaurentQ.zero()
        assert accumulate([(0, a), (1, zero), (0, -a)]) == {}
        assert accumulate([(0, zero), (0, zero)]) == {}
        assert accumulate([]) == {}
        assert accumulate([(0, zero), (0, a), (1, zero)]) == {0: a}


class TestPochhammer:
    def test_empty_product(self):
        assert q_pochhammer((1, 2), 2, 0) == LaurentQ.one()

    def test_two_factors(self):
        # (q^2; q^2)_2 = (1-q^2)(1-q^4) = 1 - q^2 - q^4 + q^6
        want = L({0: 1, 2: -1, 4: -1, 6: 1})
        assert q_pochhammer((1, 2), 2, 2) == want
        assert qq_pochhammer(2, 2) == want

    def test_single_negative_exponent_factor(self):
        assert q_pochhammer((1, -1), 4, 1) == L({0: 1, -1: -1})

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            q_pochhammer((1, 2), 2, -1)
        with pytest.raises(DomainError):
            qq_pochhammer(4, -1)

    def test_base_domains(self):
        # qq_pochhammer takes any base; q_pochhammer a positive even one.
        assert qq_pochhammer(3, 2) == L({0: 1, 3: -1, 6: -1, 9: 1})
        with pytest.raises(DomainError):
            q_pochhammer((1, 3), 3, 1)

    def test_tail(self):
        for base in (2, 4):
            for hi in range(7):
                for lo in range(hi + 1):
                    tail = qq_pochhammer_tail(base, lo, hi)
                    assert tail * qq_pochhammer(base, lo) == qq_pochhammer(base, hi)
        for lo, hi in ((-1, 3), (3, 2)):
            with pytest.raises(DomainError):
                qq_pochhammer_tail(2, lo, hi)

    def test_length_not_bounded_by_recursion_limit(self):
        # Each product is one loop over its factors.  No other test uses n
        # or n + 1, so every cache is cold for them.
        depth = 0
        frame = sys._getframe()
        while frame:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        n = depth + 150
        sys.setrecursionlimit(depth + 100)
        try:
            product = qq_pochhammer(2, n)
            binomial = gaussian_binomial(n + 1, 0, 2)
        finally:
            sys.setrecursionlimit(limit)
        # (q^2;q^2)_n = 1 - q^2 - q^4 + ... + (-1)^n q^(n(n+1)).
        assert [product.coeff(e) for e in range(5)] == [1, 0, -1, 0, -1]
        assert product.max_exp() == n * (n + 1)
        assert product.coeff(n * (n + 1)) == (-1) ** n
        assert binomial == LaurentQ.one()

    def test_long_product_repacks_rarely(self, monkeypatch):
        # Each factor is one packed difference, so the bound grows one bit
        # per factor and the product is decoded for a re-pack only when it
        # outgrows its slots: 56 decodes for 300 factors.
        calls = []
        tight = LaurentQ._tight

        def counted(value):
            calls.append(value)
            return tight(value)

        monkeypatch.setattr(LaurentQ, "_tight", counted)
        # Past the cache, so the product is built from its first factor.
        product = exactq._pochhammer.__wrapped__(1, 2, 2, 300)
        assert len(calls) <= 75
        assert product == qq_pochhammer(2, 300)
        assert product.max_exp() == 300 * 301

    @given(
        st.integers(min_value=-4, max_value=4),
        st.sampled_from([1, -1]),
        st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=40)
    def test_recurrence(self, a_exp, sign, n):
        a = (sign, a_exp)
        shorter = q_pochhammer(a, 2, n)
        factor = 1 - LaurentQ.monomial(a_exp + 2 * n, sign)
        assert q_pochhammer(a, 2, n + 1) == shorter * factor


class TestGaussianBinomial:
    def test_pascal_recurrence(self):
        for n in range(1, 8):
            for k in range(n + 1):
                want = gaussian_binomial(n - 1, k - 1, 2) + gaussian_binomial(
                    n - 1, k, 2
                ).shifted(2 * k)
                assert gaussian_binomial(n, k, 2) == want

    def test_out_of_range_zero(self):
        assert gaussian_binomial(3, 5, 2).is_zero
        assert gaussian_binomial(3, -1, 2).is_zero


def reference_euler_product(factors, order):
    """u^0..u^order of a product of Euler factors as (num, den) pairs: each
    factor solved from its functional equation, then multiplied by the plain
    Cauchy convolution."""
    one, zero = (LaurentQ.one(), LaurentQ.one()), (LaurentQ.zero(), LaurentQ.one())
    out = [one] + [zero] * order
    for (sign, a_exp), invert in factors:
        # (a u; q^2)_oo = (1 - a u) (a q^2 u; q^2)_oo, and its reciprocal
        # satisfies (1 - a u) g(u) = g(q^2 u); read off u^k on both sides.
        series = [one]
        for k in range(1, order + 1):
            if invert:
                step = LaurentQ.monomial(a_exp, sign)
            else:
                step = LaurentQ.monomial(a_exp + 2 * k - 2, -sign)
            series.append(frac_mul(series[-1], (step, 1 - LaurentQ.monomial(2 * k))))
        out = [
            functools.reduce(
                frac_add, (frac_mul(out[i], series[k - i]) for i in range(k + 1))
            )
            for k in range(order + 1)
        ]
    return out


euler_factors = st.tuples(
    st.tuples(st.sampled_from([1, -1]), st.integers(min_value=-4, max_value=4)),
    st.booleans(),
)


class TestEulerSeries:
    def test_order_zero(self):
        assert euler_product([((1, 3), False)], 0) == [LaurentQ.one()]

    def test_first_coefficient(self):
        # (-u; q^2)_oo has u-coefficient 1/(1-q^2): numerator 1 over (q^2;q^2)_1.
        assert euler_product([((-1, 0), False)], 1)[1] == LaurentQ.one()

    def test_closed_form(self):
        # Solving the recurrence by hand: n_k = (-a)^k q^{k(k-1)}.
        sign, a_exp = -1, 4
        nums = euler_product([((sign, a_exp), False)], 6)
        for k in range(7):
            assert nums[k] == LaurentQ.monomial(k * a_exp + k * (k - 1), (-sign) ** k)

    def test_inverse_closed_form(self):
        sign, a_exp = 1, -2
        nums = euler_product([((sign, a_exp), True)], 5)
        for k in range(6):
            assert nums[k] == LaurentQ.monomial(k * a_exp, sign**k)

    @pytest.mark.parametrize("a", [(-1, 0), (1, 2), (-1, 3), (1, -2)])
    def test_product_with_inverse_is_one(self, a):
        order = 7
        nums = euler_product([(a, False), (a, True)], order)
        assert nums == [LaurentQ.one()] + [LaurentQ.zero()] * order

    def test_denominator_clears(self):
        # Euler: (-u; q^2)_oo = sum q^{k(k-1)} u^k / (q^2;q^2)_k, so
        # (q^2;q^2)_k clears each u^k coefficient to a single monomial.
        nums = euler_product([((-1, 0), False)], 12)
        assert nums == [LaurentQ.monomial(k * (k - 1)) for k in range(13)]

    @given(st.lists(euler_factors, min_size=2, max_size=3), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_against_reference(self, factors, order):
        nums = euler_product(factors, order)
        want = reference_euler_product(factors, order)
        for k in range(order + 1):
            assert frac_equals((nums[k], qq_pochhammer(2, k)), want[k]), k

    def test_bad_sign_rejected(self):
        with pytest.raises(DomainError):
            euler_product([((2, 0), False)], 3)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            euler_product([((1, 0), False)], -1)


def test_package_exports_resolve():
    for name in qreflect.__all__:
        assert hasattr(qreflect, name), name
