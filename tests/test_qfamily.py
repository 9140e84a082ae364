"""The Q family: recursions, closed form, coefficients, properties."""

from __future__ import annotations

import pytest

import qreflect.qfamily as qfamily
from qreflect.exactq import DomainError, ExactDivisionError, LaurentQ, qq_pochhammer
from qreflect.multipoly import MultiPolyQ, VARS4
from qreflect.qfamily import (
    check_route_agreement,
    check_specializations,
    check_support_and_ring,
    closed_form_q,
    coeff_a,
    coeff_c,
    conjecture_report,
    in_support,
    phi_bc,
    phi_k,
    phi_q,
    psi_rs,
    q_polynomial,
    q_polynomial_alt_route,
    q_polynomial_dual,
    support_set,
)
from qreflect.report import VerificationError

from conftest import frac_add, frac_equals, frac_mul, frac_symbol, reference_q


class TestExponentLedger:
    def test_phi_bc(self):
        assert phi_bc(0, 0) == 0
        assert phi_bc(1, 0) == 0
        assert phi_bc(0, 1) == 2
        assert phi_bc(1, 1) == 10
        assert phi_bc(2, 0) == 6

    def test_phi_k_symmetry(self):
        key = (3, 1, 0, 2, 1, 3, 0, 0)
        assert phi_k(*key) == phi_k(*key[4:], *key[:4])
        assert phi_k(3, 1, 0, 2, 1, 3, 0, 0) == -4

    def test_psi(self):
        assert psi_rs(0, 0) == 0
        assert psi_rs(1, 2) == 6


class TestRecursion:
    @pytest.mark.parametrize("bc", [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)])
    def test_printed_polynomials(self, bc):
        assert q_polynomial(*bc) == reference_q(*bc)

    def test_negative_index_is_zero(self):
        assert q_polynomial(-1, 2).is_zero
        assert q_polynomial(0, -1).is_zero

    @pytest.mark.parametrize("bc", [(2, 1), (1, 2), (3, 0), (0, 3), (2, 2)])
    def test_route_compatibility(self, bc):
        assert q_polynomial_alt_route(*bc) == q_polynomial(*bc)

    @pytest.mark.parametrize("bc", [(0, 0), (1, 0), (1, 1), (2, 1)])
    def test_dual_route(self, bc):
        dual = q_polynomial_dual(*bc)
        assert dual == q_polynomial(*bc).transform_q_inverse(phi_bc(*bc))

    def test_dual_examples(self):
        assert q_polynomial_dual(0, 0) == MultiPolyQ.one(VARS4)
        # Q_{1,0} is q-free and phi_{1,0} = 0, so the dual equals it.
        assert q_polynomial_dual(1, 0) == reference_q(1, 0)


class TestSupport:
    def test_origin(self):
        assert support_set(0, 0) == [(0, 0, 0, 0)]

    def test_contains_printed_monomials(self):
        quads = support_set(1, 0)
        assert (1, 2, 1, 1) in quads
        assert (0, 0, 0, 0) in quads

    @pytest.mark.parametrize("b", range(4))
    @pytest.mark.parametrize("c", range(4))
    def test_monomials_within_support(self, b, c):
        allowed = set(support_set(b, c))
        assert q_polynomial(b, c).monomial_exponents() <= allowed

    def test_bounds(self):
        for b, c in ((2, 1), (0, 3)):
            for r, s, t, u in support_set(b, c):
                assert 2 * r >= s and r <= b + c
                assert t <= u <= b + 2 * c


class TestClosedForm:
    def test_base_case(self):
        assert closed_form_q(0, 0) == MultiPolyQ.one(VARS4)

    @pytest.mark.parametrize("bc", [(1, 0), (0, 1), (2, 0), (1, 1), (2, 1)])
    def test_matches_recursion(self, bc):
        assert closed_form_q(*bc) == q_polynomial(*bc)


class TestCoefficientC:
    def test_origin(self):
        assert coeff_c(0, 0, 0, 0, 0, 0) == LaurentQ.one()

    def test_outside_support_is_zero(self):
        assert coeff_c(1, 0, 0, 0, 1, 0).is_zero

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_c_zero_special_case(self, b):
        # C^{b,0} = [b over u, b+2t-s-u, 2r-s]_{q^2} [u over t, u-t, s-r-t]_{q^4}
        for r, s, t, u in support_set(b, 0):
            want = frac_mul(
                frac_symbol([b], [u, b + 2 * t - s - u, 2 * r - s], 2),
                frac_symbol([u], [t, u - t, s - r - t], 4),
            )
            assert frac_equals(coeff_c(b, 0, r, s, t, u), want)

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_b_zero_special_case(self, c):
        # C^{0,c} = [2r over s, 2t-s-u, 2r-s]_{q^2} [c over r, u-t, c-r+s-t]_{q^4}
        for r, s, t, u in support_set(0, c):
            want = frac_mul(
                frac_symbol([2 * r], [s, 2 * t - s - u, 2 * r - s], 2),
                frac_symbol([c], [r, u - t, c - r + s - t], 4),
            )
            assert frac_equals(coeff_c(0, c, r, s, t, u), want)

    def test_matches_xi_sum(self):
        # The one-division sum agrees with the naive sum of Xi symbols, in
        # which a negative lower index makes a term zero.
        for b, c in ((1, 1), (2, 1), (1, 2)):
            for quad in support_set(b, c):
                r, s, t, u = quad
                total = (LaurentQ.zero(), LaurentQ.one())
                for alpha in range(u - t + 1):
                    for beta in range(t + 1):
                        for gamma in range(s + 1):
                            xi = frac_mul(
                                frac_symbol(
                                    [b - s + t - alpha, 2 * r - s + beta],
                                    [
                                        alpha,
                                        beta,
                                        gamma,
                                        u - t - alpha,
                                        t - beta,
                                        b - s - alpha + beta,
                                        s - beta - gamma,
                                    ],
                                    2,
                                ),
                                frac_symbol(
                                    [c + s - r - beta, c + gamma], [c - r + gamma], 4
                                ),
                            )
                            phi = (
                                alpha * (alpha + 1 + 2 * t)
                                + beta * (beta - 1 - 2 * alpha + 2 * b - 4 * r)
                                + gamma * (gamma - 1 - 4 * r)
                            )
                            sign = -1 if (beta + gamma) % 2 else 1
                            term = (xi[0] * LaurentQ.monomial(phi, sign), xi[1])
                            total = frac_add(total, term)
                prefactor = (
                    qq_pochhammer(2, b) * qq_pochhammer(2, u - t),
                    qq_pochhammer(2, b + 2 * t - s - u)
                    * qq_pochhammer(2, 2 * r - s)
                    * qq_pochhammer(4, r)
                    * qq_pochhammer(4, u - t)
                    * qq_pochhammer(4, c - r + s - t),
                )
                sign_s = -1 if s % 2 else 1
                num, den = frac_mul(prefactor, total)
                want = (num * LaurentQ.monomial(psi_rs(r, s), sign_s), den)
                assert frac_equals(coeff_c(b, c, r, s, t, u), want), quad


class TestCoefficientA:
    def test_base(self):
        assert coeff_a(0, 0, 0, 0, 0, 0) == LaurentQ.one()

    def test_c_family_closed_form(self):
        # A^{0,c}_{r,s,t,u} = (q^2)_t (q^2)_{2r} / (q^4)_r on the support set;
        # in particular A^{0,c}_{r,0,0,0} = (q^2)_{2r}/(q^4)_r for c >= r.
        for c in range(4):
            for r, s, t, u in support_set(0, c):
                assert coeff_a(0, c, r, s, t, u) * qq_pochhammer(
                    4, r
                ) == qq_pochhammer(2, t) * qq_pochhammer(2, 2 * r)

    def test_b_reduction_identity(self):
        # A^{b,c}_{r,s,0,0} = A^{b-1,c}_{r,s,0,0} for b > s.
        checked = 0
        for b in range(1, 5):
            for c in range(5 - b):
                for r, s, t, u in support_set(b, c):
                    if t == 0 and u == 0 and b > s:
                        assert coeff_a(b, c, r, s, 0, 0) == coeff_a(b - 1, c, r, s, 0, 0)
                        checked += 1
        assert checked > 10

    def test_u_reduction_identity(self):
        # A^{b,c}_{r,s,t,u} = A^{b,c}_{r,s,t,u-1} + q^{2u} A^{b-1,c}_{r,s,t,u-1}
        # for t < u (values outside the support set are zero).
        checked = 0
        for b in range(1, 4):
            for c in range(4 - b):
                for r, s, t, u in support_set(b, c):
                    if t < u:
                        lhs = coeff_a(b, c, r, s, t, u)
                        rhs = coeff_a(b, c, r, s, t, u - 1) + coeff_a(
                            b - 1, c, r, s, t, u - 1
                        ) * LaurentQ.monomial(2 * u)
                        assert lhs == rhs
                        checked += 1
        assert checked > 10

    def test_diagonal_reduction_identity(self):
        # A^{b,c}_{r,s,t,t} = q^{2(b-s+t)}(1-q^{2s}) A^{b,c}_{r,s-1,t-1,t-1}
        #                   + (1-q^{2(b-s+t)}) A^{b,c}_{r,s,t-1,t-1}
        # inside min(b-s+t, c+s-r-t, 2r-s) >= 0 with t >= 1.
        checked = 0
        for b in range(4):
            for c in range(4 - b):
                for r, s, t, u in support_set(b, c):
                    if u != t or t < 1 or min(b - s + t, c + s - r - t) < 0:
                        continue
                    first = LaurentQ.zero()
                    if s >= 1:
                        first = coeff_a(b, c, r, s - 1, t - 1, t - 1) * (
                            1 - LaurentQ.monomial(2 * s)
                        ).shifted(2 * (b - s + t))
                    second = coeff_a(b, c, r, s, t - 1, t - 1) * (
                        1 - LaurentQ.monomial(2 * (b - s + t))
                    )
                    assert coeff_a(b, c, r, s, t, t) == first + second
                    checked += 1
        assert checked > 10


class TestProperties:
    @pytest.mark.parametrize("bc", [(1, 0), (0, 0), (2, 1)])
    def test_specializations(self, bc):
        rep = check_specializations(*bc)
        assert rep.passed, rep.summary()

    def test_specialization_example_by_hand(self):
        # Q_{1,0}(x,1,1,w) = (x-1)(w-1) = xw - x - w + 1.
        got = (
            q_polynomial(1, 0)
            .partial_eval_q_power(1, 0)
            .partial_eval_q_power(2, 0)
        )
        assert str(got) == "w*x - w - x + 1"

    @pytest.mark.parametrize("bc", [(1, 1), (3, 0), (0, 3), (2, 1)])
    def test_support_and_ring(self, bc):
        rep = check_support_and_ring(*bc)
        assert rep.passed, rep.summary()

    @pytest.mark.parametrize(
        "extra, check",
        [(1, "in Z[q^2]"), (-2, "in Z[q^2]"), (12, "below q^10")],
        ids=["odd", "negative", "above-degree"],
    )
    def test_support_and_ring_negative_control(self, monkeypatch, extra, check):
        # The constant coefficient of Q_(1,1) is q^10; phi_(1,1) = 10.
        corrupted = q_polynomial(1, 1) + LaurentQ.monomial(extra)
        monkeypatch.setitem(qfamily._Q_CACHE, (1, 1), corrupted)
        rep = check_support_and_ring(1, 1)
        assert not rep.passed
        assert rep.first_failure.location == f"(1,1) coefficient of (0, 0, 0, 0) {check}"

    def test_cold_recursion_negative_control(self, monkeypatch):
        # A c-step whose result has an odd coefficient must raise as it is
        # built, and the bad entry must not be stored.
        step = qfamily._rec_c_step
        monkeypatch.setattr(
            qfamily, "_rec_c_step", lambda *args: step(*args) + LaurentQ.monomial(1)
        )
        qfamily.clear_caches()
        try:
            with pytest.raises(VerificationError, match=r"Q_\(0,1\)"):
                q_polynomial(0, 1)
            assert (0, 1) not in qfamily._Q_CACHE
        finally:
            qfamily.clear_caches()

    @pytest.mark.parametrize("bc", [(1, 1), (2, 1), (1, 2)])
    def test_route_agreement(self, bc):
        rep = check_route_agreement(*bc)
        assert rep.passed, rep.summary()

    def test_degree_is_phi(self):
        for b in range(4):
            for c in range(4 - b):
                if (b, c) == (0, 0):
                    continue
                assert q_polynomial(b, c).q_degree_range()[1] == phi_bc(b, c)

    def test_phi_q_at_origin_quad(self):
        assert phi_q(1, 0, 0, 0, 0, 0) == 0


class TestConjecture:
    def test_reported_not_fatal(self):
        rep = conjecture_report(2)
        assert rep.checked > 0
        # The report carries a verdict either way; on this range it holds.
        assert rep.passed

    @staticmethod
    def _corrupt(monkeypatch, bad):
        # coeff_c with the value at C^{1,1}_(1,1,1,1) replaced by bad().
        original = qfamily.coeff_c

        def patched(*args):
            if args == (1, 1, 1, 1, 1, 1):
                return bad()
            return original(*args)

        monkeypatch.setattr(qfamily, "coeff_c", patched)

    def test_not_laurent_is_counterexample(self, monkeypatch):
        def bad():
            raise ExactDivisionError("nonzero remainder in exact division")

        self._corrupt(monkeypatch, bad)
        rep = conjecture_report(2)
        assert not rep.passed
        assert rep.first_failure.location == (
            "C^{1,1}_(1, 1, 1, 1) not a Laurent polynomial"
        )

    def test_constant_term_two_is_counterexample(self, monkeypatch):
        self._corrupt(monkeypatch, lambda: LaurentQ({0: 2, 2: 1}))
        rep = conjecture_report(2)
        assert not rep.passed
        assert rep.first_failure.location == "C^{1,1}_(1, 1, 1, 1)"
        assert rep.first_failure.lhs == "2 + q^2"

    def test_domain_error_propagates(self, monkeypatch):
        def bad():
            raise DomainError("a fault, not a counterexample")

        self._corrupt(monkeypatch, bad)
        with pytest.raises(DomainError, match="a fault"):
            conjecture_report(2)
