"""3D R: P polynomials, difference equations, element routes, series."""

from __future__ import annotations

import pytest

from qreflect.exactq import DomainError, LaurentQ
from qreflect.multipoly import MultiPolyQ, VARS3, variables
import qreflect.threedr as threedr
from qreflect.threedr import (
    hypergeometric_p,
    p_polynomial,
    p_ring_report,
    r_block_states,
    r_element,
    r_weights,
    swap_xz,
    verify_generating_series,
    verify_mirror_pairs,
    verify_p_relations,
)
from qreflect.tensorops import R_OPERATOR, verify_blocks

from conftest import assert_zeroed_key_caught

X, Y, Z = variables(VARS3)


@pytest.fixture
def perturbed_u1(monkeypatch):
    """threedr.euler_product with 1 - q^2 added to its u^1 numerator: a
    wrong but exactly divisible numerator, so the series route still
    returns a Laurent polynomial."""
    euler_product = threedr.euler_product

    def corrupted(factors, order):
        nums = euler_product(factors, order)
        if order >= 1:
            nums[1] = nums[1] + (1 - LaurentQ.monomial(2))
        return nums

    monkeypatch.setattr(threedr, "euler_product", corrupted)


class TestPPolynomial:
    def test_base(self):
        assert p_polynomial(0) == MultiPolyQ.one(VARS3)
        assert p_polynomial(-1).is_zero

    def test_first_step(self):
        # One step of the recursion from P_0 = 1.
        assert p_polynomial(1) == (1 - X) * (1 - Z) + X * Z * (Y - 1)

    @pytest.mark.parametrize("b", range(4))
    def test_relations(self, b):
        rep = verify_p_relations(b)
        assert rep.passed, rep.summary()

    @pytest.mark.parametrize("b", range(7))
    def test_symmetry(self, b):
        pb = p_polynomial(b)
        assert swap_xz(pb) == pb

    @pytest.mark.parametrize("b", range(7))
    def test_ring_membership(self, b):
        rep = p_ring_report(b)
        assert rep.passed, rep.summary()

    @pytest.mark.parametrize("extra", [1, -6], ids=["odd", "below-floor"])
    def test_ring_negative_control(self, monkeypatch, extra):
        # P_2 lies in q^(-4) Z[q^2]: an odd exponent or one below -4 in its
        # constant coefficient must fail.
        corrupted = p_polynomial(2) + LaurentQ.monomial(extra)
        monkeypatch.setitem(threedr._P_CACHE, 2, corrupted)
        rep = p_ring_report(2)
        assert not rep.passed
        want = "P_2 coefficient of (0, 0, 0) in q^(-2b(b-1)) Z[q^2]"
        assert rep.first_failure.location == want

    def test_corrupted_p_fails_with_equation_id(self):
        # Alter one coefficient of P_3 in the cache; some relation at b=2
        # or b=3 must then fail, and the report names the equation.
        p_polynomial(4)
        original = threedr._P_CACHE[3]
        exps = next(iter(original.monomial_exponents()))
        corrupted = original + MultiPolyQ.monomial(
            VARS3, exps, LaurentQ.monomial(2)
        )
        threedr._P_CACHE[3] = corrupted
        try:
            reports = [verify_p_relations(2), verify_p_relations(3)]
            assert any(not rep.passed for rep in reports)
            failing = next(rep for rep in reports if not rep.passed)
            assert "relation" in failing.first_failure.location
        finally:
            threedr._P_CACHE[3] = original

    def test_perturbed_relation_fails(self, monkeypatch):
        # Negative control: one changed coefficient of relation 42.
        original = threedr.p_relation_terms

        def perturbed(name, b):
            terms = original(name, b)
            if name == "42":
                (coeff, db, shifts), *rest = terms
                terms = [(coeff + 1, db, shifts), *rest]
            return terms

        monkeypatch.setattr(threedr, "p_relation_terms", perturbed)
        rep = verify_p_relations(2)
        assert not rep.passed
        assert rep.first_failure.location == "relation 42 at b=2"

    def test_mirror_pairs(self):
        rep = verify_mirror_pairs()
        assert rep.passed, rep.summary()


class TestHypergeometric:
    def test_base(self):
        assert hypergeometric_p(0) == MultiPolyQ.one(VARS3)

    def test_two_term_series(self):
        assert hypergeometric_p(1) == (1 - Z) * (1 - X) + X * Z * (Y - 1)

    @pytest.mark.parametrize("b", range(2, 6))
    def test_matches_recursion(self, b):
        assert hypergeometric_p(b) == p_polynomial(b)


class TestRElement:
    def test_normalization(self):
        assert r_element(0, 0, 0, 0, 0, 0) == LaurentQ.one()

    def test_unit_element(self):
        assert r_element(1, 0, 1, 0, 1, 0) == LaurentQ.one()

    def test_two_term_block(self):
        assert r_element(0, 1, 0, 1, 0, 1) == 1 - LaurentQ.monomial(2)

    def test_weight_violation(self):
        assert r_element(2, 0, 1, 0, 1, 0).is_zero
        assert r_element(0, 0, 0, -1, 1, 0).is_zero

    def test_doublesum_route_directly(self):
        # (lambda, mu) = (0,1) and (1,0) give 1 - q^2 at this key.
        assert r_element(0, 1, 0, 1, 0, 1, route="doublesum") == 1 - LaurentQ.monomial(2)

    @pytest.mark.parametrize("key", [(0, 0, 0, 0, 0, 0), (1, 1, 2, 0, 2, 1), (2, 1, 0, 1, 2, 0)])
    def test_all_routes_agree(self, key):
        r_element(*key, route="all")

    def test_route_agreement_sweep(self):
        rep = verify_blocks(R_OPERATOR, 3, 3)
        assert rep.passed, rep.summary()

    def test_route_sweep_negative_control(self, monkeypatch):
        # [1 over 1]_{q^2} made 2 corrupts the double-sum route only.
        gaussian_binomial = threedr.gaussian_binomial

        def corrupted(n, k, base_exp):
            return gaussian_binomial(n, k, base_exp) + ((n, k) == (1, 1))

        monkeypatch.setattr(threedr, "gaussian_binomial", corrupted)
        rep = verify_blocks(R_OPERATOR, 2, 2)
        assert not rep.passed
        key = (0, 1, 0, 0, 1, 0)
        assert rep.first_failure.location == f"route doublesum disagrees with poly at {key}"

    def test_series_route_negative_control(self, perturbed_u1):
        rep = verify_blocks(R_OPERATOR, 2, 2)
        assert not rep.passed
        key = (0, 1, 0, 0, 1, 0)
        assert rep.first_failure.location == f"route series disagrees with poly at {key}"

    def test_unknown_route_off_block(self):
        with pytest.raises(DomainError, match="unknown route 'bogus'"):
            r_element(2, 0, 1, 0, 1, 0, route="bogus")

    def test_involution(self):
        # R^2 = 1 and the transpose symmetry on every block with m <= 3, n <= 4.
        rep = verify_blocks(R_OPERATOR, 3, 4)
        assert rep.passed, rep.summary()

    def test_involution_negative_control(self, monkeypatch):
        assert_zeroed_key_caught(
            monkeypatch,
            R_OPERATOR,
            (1, 0, 1, 0, 1, 0),
            "R transpose at (0, 1, 0, 1, 0, 1)",
            "R^2 on (0, 1, 0), first difference at |0,1,0>",
        )

    def test_block_shape(self):
        states = r_block_states(2, 3)
        assert states == [(0, 2, 1), (1, 1, 2), (2, 0, 3)]
        assert {r_weights(*state) for state in states} == {(2, 3)}


class TestGeneratingSeries:
    def test_order_zero(self):
        rep = verify_generating_series(2, 1, 0, 0)
        assert rep.passed and rep.checked == 1

    @pytest.mark.parametrize("point", [(0, 0, 0), (1, 2, 1), (2, 0, 2)])
    def test_small_orders(self, point):
        rep = verify_generating_series(*point, 4)
        assert rep.passed, rep.summary()

    def test_negative_control(self, perturbed_u1):
        rep = verify_generating_series(1, 1, 1, 3)
        assert not rep.passed
        assert rep.first_failure.location == "u^1 coefficient at (1,1,1)"
