"""Shared reference data: hand-built polynomials and element values.

Everything here is transcribed independently of the package's own
computation routes (built from explicit factored products), so equality
tests against these are genuine cross-checks.  assert_zeroed_key_caught
is the one negative control of the block sweep, shared by R and K,
assert_packed_invariants the one check of a packed value's form and
bounds, assert_true_column that of a packed column's norms, and
reference_evaluate the term-by-term evaluation at q-powers.
"""

from __future__ import annotations

import pytest

from qreflect import memo, tensorops
from qreflect.exactq import LaurentQ, _norms, _unpack, _width_for, qq_pochhammer
from qreflect.multipoly import MultiPolyQ, VARS4, q_power, variables

X, Y, Z, W = variables(VARS4)


def qc(exp: int, coeff: int = 1) -> MultiPolyQ:
    return q_power(VARS4, exp, coeff)


def laurent(pairs: dict[int, int]) -> LaurentQ:
    return LaurentQ(pairs)


def assert_packed_invariants(value: LaurentQ) -> None:
    """Canonical form and valid norm bounds: the lowest digit is nonzero,
    the true ||.||_1 <= the carried one, and the true ||.||_inf <= the
    carried one < 2^(w-1), with equality when _exact.  Zero is the packed
    int 0."""
    if not value._p:
        return
    sizes = [abs(c) for c in value._digits()]
    assert sizes[0] != 0
    assert sum(sizes) <= value._n1
    assert max(sizes) <= value._ni < 2 ** (value._w - 1)
    if value._exact:
        assert (sum(sizes), max(sizes)) == (value._n1, value._ni)


def assert_true_column(col) -> None:
    """A packed column's norms are its entries' true norms, and its slot
    width is the narrowest above them."""
    assert [(n1, ni) for n1, ni in zip(col.n1s, col.nis)] == [
        _norms(_unpack(p, col.w)) for p in col.ps
    ]
    assert col.w == _width_for(max(col.nis, default=0))


def reference_evaluate(poly: MultiPolyQ, point) -> LaurentQ:
    """poly with variable v at q^point[v], term by term: a LaurentQ sum of
    coeff * q^(point . exps) that never reads the polynomial's column."""
    total = LaurentQ.zero()
    for exps, coeff in poly.items():
        total = total + coeff.shifted(sum(k * e for k, e in zip(point, exps)))
    return total


# Fractions as unreduced (num, den) pairs of LaurentQ, for references that
# must not divide: equal when cross-multiplied.


def frac_symbol(uppers, lowers, base_exp: int) -> tuple[LaurentQ, LaurentQ]:
    """prod (q^B;q^B)_r / prod (q^B;q^B)_s; zero if a lower index is negative."""
    if min(lowers, default=0) < 0:
        return LaurentQ.zero(), LaurentQ.one()
    num = den = LaurentQ.one()
    for r in uppers:
        num = num * qq_pochhammer(base_exp, r)
    for s in lowers:
        den = den * qq_pochhammer(base_exp, s)
    return num, den


def frac_add(a, b):
    return a[0] * b[1] + b[0] * a[1], a[1] * b[1]


def frac_mul(a, b):
    return a[0] * b[0], a[1] * b[1]


def frac_equals(value, frac) -> bool:
    """value (a LaurentQ or a pair) equals the pair frac."""
    if isinstance(value, LaurentQ):
        value = (value, LaurentQ.one())
    return value[0] * frac[1] == frac[0] * value[1]


def reference_q10() -> MultiPolyQ:
    return W * X * Y**2 * Z - W - X * Y + 1


def reference_q01() -> MultiPolyQ:
    return qc(2) * (W * X * Y * Z - W * Z - X + 1) - W * Z * reference_q10()


def reference_q20() -> MultiPolyQ:
    return (
        qc(6) * (W - 1) * (X * Y - 1)
        + qc(4) * (-(W**2) * X * Y**2 * Z + W**2 + W * X * Y - W + X * Y**2 - X * Y)
        - qc(2) * X * Y**2 * (W * X * Y * Z - W * Z - X + 1)
        + W * X * Y**2 * Z * reference_q10()
    )


def reference_q11() -> MultiPolyQ:
    return (
        qc(10) * (W - 1) * (X - 1)
        - qc(8) * (W - 1) * W * Z * (X * Y - 1)
        + qc(6)
        * (
            -(W**2) * X * Y * Z
            + W**2 * Z
            - W * X**2 * Y**2 * Z
            + 2 * W * X * Y * Z
            - W * Z
            + X**2 * Y
            - X * Y
        )
        + qc(4)
        * W
        * Z
        * (
            W**2 * X * Y**2 * Z
            - W**2
            + W * X**2 * Y**3 * Z
            - W * X * Y**2 * Z
            - W * X * Y
            + W
            - X**2 * Y**2
            + X * Y
        )
        + qc(2) * W * X * Y**2 * Z * (W * X * Y * Z - W * Z - X + 1)
        - W**2 * X * Y**2 * Z**2 * reference_q10()
    )


def reference_q(b: int, c: int) -> MultiPolyQ:
    builders = {
        (0, 0): lambda: MultiPolyQ.one(VARS4),
        (1, 0): reference_q10,
        (0, 1): reference_q01,
        (2, 0): reference_q20,
        (1, 1): reference_q11,
    }
    return builders[(b, c)]()


def reference_k_values() -> dict[tuple[int, int, int, int], LaurentQ]:
    """The six nonzero elements with out-index (3,1,0,2), factored forms."""
    f = laurent({0: 1, 1: -1, 2: 1}) * laurent({0: 1, 1: 1, 2: 1})
    s = laurent({0: 1, 2: -1, 4: 1, 6: -1, 8: 1, 10: -1, 14: -1})
    two = 1 + LaurentQ.monomial(2)
    return {
        (1, 3, 0, 0): -(f.shifted(6)),
        (2, 1, 1, 0): -(f.shifted(10)),
        (2, 2, 0, 1): two * s,
        (3, 0, 1, 1): (two * s).shifted(6),
        (3, 1, 0, 2): laurent({0: 1, 2: 1, 14: -1, 16: -1, 18: -1}).shifted(6),
        (4, 0, 0, 3): (f * (1 - LaurentQ.monomial(16))).shifted(14),
    }


@pytest.fixture(scope="session")
def printed_q():
    return {
        bc: reference_q(*bc) for bc in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1))
    }


@pytest.fixture(scope="session")
def printed_k():
    return reference_k_values()


def assert_zeroed_key_caught(monkeypatch, op, key, transpose_at, square_at):
    """tensorops.verify_blocks(op, 3, 5) with op's element zeroed at key on
    every route, through the name tensorops looks op's elements up by.

    Route agreement, which runs before both checks in each block, passes on
    the zeroed key; the transpose check fails first, at transpose_at, and
    with it blinded by a zero norm, op^2 = 1 fails first at square_at.
    Neither corrupted sweep adds or replaces a column of R_local or K_local.
    """
    name = {"R": "r_element", "K": "k_element"}[op.name]
    inp = key[len(key) // 2 :]
    positions = tuple(range(len(inp)))
    tensorops.apply_local(op, tensorops.SparseVector.unit(op.signature, inp), positions)

    def columns():
        return {table: dict(memo.tables()[table]) for table in ("R_local", "K_local")}

    before = columns()
    monkeypatch.setattr(tensorops, name, tensorops.zeroed_key(getattr(tensorops, name), key))
    rep = tensorops.verify_blocks(op, 3, 5)
    assert rep.first_failure.location == transpose_at, rep.summary()
    blind = op._replace(norm=lambda *state: LaurentQ.zero())
    rep = tensorops.verify_blocks(blind, 3, 5)
    assert rep.first_failure.location == square_at, rep.summary()
    assert columns() == before
