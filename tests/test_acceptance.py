"""Acceptance gate: one test per criterion, exact comparisons throughout.

Every check is an exact identity over Z[q, q^-1] (tolerance zero); the
stated runtime budgets are asserted with wide margins.  Each test prints
one pass/fail line; a print is only reached after its assertions hold.
"""

from __future__ import annotations

import time

from qreflect import qfamily, tensorops, threedk, threedr
from qreflect.cli import golden_report

from conftest import reference_k_values, reference_q

GRID_POINTS = (
    (0, 0, 0), (0, 1, 2), (0, 2, 1),
    (1, 0, 1), (1, 1, 1), (1, 2, 0),
    (2, 0, 2), (2, 1, 1), (2, 2, 2),
)


def _done(num: int, desc: str, t0: float, budget: float) -> None:
    elapsed = time.time() - t0
    print(f"criterion {num:2d}: PASS ({elapsed:6.2f}s / budget {budget:.0f}s) {desc}")
    assert elapsed < budget


def test_criterion_01_golden_q_polynomials():
    t0 = time.time()
    for bc in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1)):
        assert qfamily.q_polynomial(*bc) == reference_q(*bc), bc
    _done(1, "printed Q_{0,0}..Q_{1,1} reproduced exactly", t0, 1.0)


def test_criterion_02_golden_k_block_and_quotients():
    t0 = time.time()
    reference = reference_k_values()
    block = threedk.k_block_states(4, 3)
    assert block == sorted(reference)
    for inp in block:
        assert threedk.k_element(3, 1, 0, 2, *inp) == reference[inp]
    for inp in ((4, 0, 0, 0), (0, 0, 0, 3), (2, 1, 1, 1), (3, 1, 0, 1)):
        assert threedk.k_element(3, 1, 0, 2, *inp).is_zero
    rep = golden_report()
    assert rep.passed, rep.summary()
    _done(2, "six K^{3,1,0,2} values, block zeros, 8 quotient identities", t0, 5.0)


def test_criterion_03_k_route_agreement():
    t0 = time.time()
    rep = tensorops.verify_blocks(tensorops.K_OPERATOR, 3, 5)
    assert rep.passed, rep.summary()
    assert rep.checked >= 300
    _done(3, f"primary = dual, K^2 = 1, transpose: {rep.checked} checks (m<=3, n<=5)", t0, 120.0)


def test_criterion_04_closed_form_and_dual():
    t0 = time.time()
    for b in range(6):
        for c in range(6 - b):
            qp = qfamily.q_polynomial(b, c)
            assert qfamily.closed_form_q(b, c) == qp, (b, c)
            dual = qfamily.q_polynomial_dual(b, c)
            assert dual == qp.transform_q_inverse(qfamily.phi_bc(b, c)), (b, c)
    _done(4, "closed form = recursion = transformed dual, b+c <= 5", t0, 600.0)


def test_criterion_05_family_properties():
    t0 = time.time()
    checked = 0
    for b in range(6):
        for c in range(6 - b):
            rep = qfamily.check_support_and_ring(b, c)
            assert rep.passed, rep.summary()
            rep = qfamily.check_specializations(b, c)
            assert rep.passed, rep.summary()
            checked += rep.checked
    _done(5, "support, degree, limits, specializations, b+c <= 5", t0, 600.0)


def test_criterion_06_e_identities():
    t0 = time.time()
    rep = threedk.verify_e_all(3, 3)
    assert rep.passed, rep.summary()
    assert rep.checked == 14 * 16
    _done(6, "all fourteen E identities vanish for b,c <= 3", t0, 300.0)


def test_criterion_07_operator_intertwiners():
    t0 = time.time()
    rep = tensorops.verify_intertwiners_all(2)
    assert rep.passed, rep.summary()
    assert rep.checked == 15 * 81
    _done(7, "15 generator relations on all 4-fold states, occ <= 2", t0, 300.0)


def test_criterion_08_r_suite():
    t0 = time.time()
    for b in range(6):
        rep = threedr.verify_p_relations(b)
        assert rep.passed, rep.summary()
    for b in range(7):
        pb = threedr.p_polynomial(b)
        assert threedr.swap_xz(pb) == pb, b
        assert threedr.p_ring_report(b).passed
    for b in range(6):
        threedr.hypergeometric_p(b)  # raises on mismatch with the recursion
    for point in GRID_POINTS:
        rep = threedr.verify_generating_series(*point, 6)
        assert rep.passed, rep.summary()
    rep = tensorops.verify_blocks(tensorops.R_OPERATOR, 4, 4)
    assert rep.passed, rep.summary()
    _done(8, "relations b<=5, symmetry b<=6, 2phi1, series u^6 x9, R blocks", t0, 600.0)


def test_criterion_09_tetrahedron():
    t0 = time.time()
    states = tensorops.states_up_to(6, 1)
    assert len(states) == 64
    for occ in states:
        rep = tensorops.verify_tetrahedron(occ)
        assert rep.passed, rep.summary()
    _done(9, "tetrahedron equation on all 64 unit-occupation states", t0, 300.0)


def test_criterion_10_reflection_with_negative_control():
    t0 = time.time()
    states = tensorops.states_up_to(9, 1)
    assert len(states) == 512
    for occ in states:
        rep = tensorops.verify_reflection(occ)
        assert rep.passed, rep.summary()
    corrupted = tensorops.zeroed_key(threedk.k_element, (1, 0, 0, 1, 0, 1, 0, 0))
    failures = [
        occ
        for occ in states
        if sum(occ) <= 1 and not tensorops.verify_reflection(occ, k_fn=corrupted).passed
    ]
    assert failures, "corrupted element must break the reflection equation"
    _done(
        10,
        f"reflection on all {len(states)} unit-occupation states; corrupted element "
        f"fails on {len(failures)} inputs",
        t0,
        1800.0,
    )


def test_criterion_11_conjecture_report():
    t0 = time.time()
    rep = qfamily.conjecture_report(4)
    assert rep.checked > 500  # emitted over the full b+c <= 4 support range
    status = "holds" if rep.passed else f"counterexample: {rep.first_failure}"
    elapsed = time.time() - t0
    print(
        f"criterion 11: REPORT ({elapsed:6.2f}s) conjecture status on "
        f"b+c <= 4: {status} ({rep.checked} coefficients)"
    )
