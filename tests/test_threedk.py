"""3D K: element routes, transpose symmetry, E equations, parity."""

from __future__ import annotations

import pytest

import qreflect.threedk as threedk
from qreflect.exactq import DomainError, LaurentQ, qq_pochhammer
from qreflect.multipoly import VARS4, q_power
from qreflect.report import VerificationError
from qreflect.tensorops import K_OPERATOR, verify_blocks
from qreflect.threedk import (
    e_residual,
    k_block_states,
    k_element,
    k_norm,
    k_weights,
    verify_bridge_recursion,
    verify_e,
    verify_e_all,
)


class TestKElement:
    def test_normalization(self):
        assert k_element(0, 0, 0, 0, 0, 0, 0, 0) == LaurentQ.one()

    def test_weight_violation(self):
        assert k_element(1, 0, 0, 0, 0, 0, 0, 0).is_zero
        assert k_weights(1, 0, 0, 0) != k_weights(0, 0, 0, 0)

    def test_printed_block(self, printed_k):
        for inp, want in printed_k.items():
            assert k_element(3, 1, 0, 2, *inp) == want

    def test_printed_block_is_exhaustive(self, printed_k):
        # The six printed inputs are the whole (4,3) weight block, and the
        # element vanishes for any input off that block.
        assert k_block_states(4, 3) == sorted(printed_k)
        for inp in ((4, 0, 0, 0), (1, 3, 0, 1), (0, 0, 0, 3), (2, 1, 1, 1)):
            assert k_element(3, 1, 0, 2, *inp).is_zero

    def test_unknown_route_off_block(self):
        with pytest.raises(DomainError, match="unknown route 'bogus'"):
            k_element(1, 0, 0, 0, 0, 0, 0, 0, route="bogus")

    def test_dual_route_matches(self, printed_k):
        for inp, want in printed_k.items():
            assert k_element(3, 1, 0, 2, *inp, route="dual") == want
            assert k_element(3, 1, 0, 2, *inp, route="both") == want

    def test_route_agreement_sweep(self):
        rep = verify_blocks(K_OPERATOR, 2, 4)
        assert rep.passed, rep.summary()

    def test_route_sweep_negative_control(self, monkeypatch):
        # Q_(1,0) times q^2 corrupts the primary route wherever the output
        # has (b,c) = (1,0); the dual route reads Q at the input's (j,k).
        q_polynomial = threedk.q_polynomial

        def corrupted(b, c):
            poly = q_polynomial(b, c)
            return poly * q_power(VARS4, 2) if (b, c) == (1, 0) else poly

        monkeypatch.setattr(threedk, "q_polynomial", corrupted)
        rep = verify_blocks(K_OPERATOR, 1, 2)
        assert not rep.passed
        key = (0, 1, 0, 0, 1, 0, 0, 1)
        assert rep.first_failure.location == f"route dual disagrees with primary at {key}"

    def test_parity_check_negative_control(self):
        key = (0, 1, 0, 1, 1, 0, 0, 2)
        value = k_element(*key)
        assert threedk._check_element(value, key) is value
        with pytest.raises(VerificationError, match=r"\(0, 1, 0, 1, 1, 0, 0, 2\)"):
            threedk._check_element(value.shifted(1), key)

    def test_denominator_is_one_cached_product_per_bc(self):
        for b, c in ((0, 0), (2, 1), (3, 3)):
            den = threedk._k_denominator(b, c)
            assert den == qq_pochhammer(2, b) * qq_pochhammer(4, c)
            assert threedk._k_denominator(b, c) is den

    def test_parity_and_polynomiality(self):
        for m in range(4):
            for n in range(5):
                for out in k_block_states(m, n):
                    for inp in k_block_states(m, n):
                        value = k_element(*out, *inp)
                        if value.is_zero:
                            continue
                        a, b, c, d = out
                        i, j, k, l = inp
                        eta = (b * d + j * l) % 2
                        assert all(
                            e >= 0 and e % 2 == eta for e, _ in value.items()
                        ), (out, inp)

    def test_odd_parity_example(self):
        value = k_element(0, 1, 0, 1, 1, 0, 0, 2)
        assert value == LaurentQ({1: 1, 3: 1, 5: -1, 7: -1})


class TestTranspose:
    @staticmethod
    def symmetric(out, inp):
        """K^{out}_{inp} k_norm(out) = K^{inp}_{out} k_norm(inp)."""
        return k_element(*out, *inp) * k_norm(*out) == k_element(*inp, *out) * k_norm(*inp)

    def test_printed_pair(self):
        assert self.symmetric((3, 1, 0, 2), (1, 3, 0, 0))

    @pytest.mark.parametrize("block", [(4, 3), (4, 5)])
    def test_block_scan(self, block):
        # verify_blocks(K, 4, 5) sweeps both blocks, and every block below them.
        rep = verify_blocks(K_OPERATOR, *block)
        assert rep.passed, rep.summary()


class TestEEquations:
    def test_e24_base_case(self):
        # (wyz-1) Q00 + (1-w) Q00 - w(z-1) Q00 - w(y-1)z Q00 cancels exactly.
        assert e_residual("E24", 0, 0).is_zero

    def test_all_relations_at_1_1(self):
        rep = verify_e_all(1, 1)
        assert rep.passed, rep.summary()

    def test_boundary_zero_convention(self):
        # At b=0 the terms referencing Q_{-1,c} carry the prefactor
        # q^{2b}-1 = 0, so the zero convention keeps E35 valid.
        rep = verify_e("E35", 0, 1)
        assert rep.passed, rep.summary()

    def test_unknown_relation_is_a_domain_error(self):
        with pytest.raises(DomainError, match="unknown relation 'E99'"):
            verify_e("E99", 1, 0)

    def test_perturbed_relation_fails(self, monkeypatch):
        # Negative control: one changed coefficient of E22.
        original = threedk.e_relation_terms

        def perturbed(name, b, c):
            (coeff, offset, shifts), *rest = original(name, b, c)
            return [(coeff + 1, offset, shifts), *rest]

        monkeypatch.setattr(threedk, "e_relation_terms", perturbed)
        rep = verify_e("E22", 1, 1)
        assert not rep.passed
        assert rep.first_failure.location.startswith("E22 at (1,1): surviving monomial")

    @pytest.mark.parametrize("name", ["E22", "E33", "E44", "E54"])
    def test_spot_checks_at_2_2(self, name):
        rep = verify_e(name, 2, 2)
        assert rep.passed, rep.summary()


class TestBridgeRecursion:
    @pytest.mark.parametrize(
        "key",
        [
            (3, 1, 0, 2, 1, 3, 0, 0),
            (2, 1, 1, 1, 1, 2, 1, 0),
            (1, 1, 1, 0, 0, 2, 1, 0),
            (0, 2, 0, 1, 1, 1, 0, 2),
            (2, 0, 1, 3, 1, 2, 0, 3),
        ],
    )
    def test_sampled_keys(self, key):
        rep = verify_bridge_recursion(*key)
        assert rep.passed, rep.summary()
