"""The 3D R: polynomials P_b(x,y,z) and matrix elements via three routes.

P_0 = 1 and P_{b+1}(x,y,z) = (1-z) P_b(x,y,q^{-2}z)
                             - q^{-2b} x (1 - q^{-2b} y z) P_b(x,y,z)
is the fixed computation route: difference equation 45 solved for
P_{b+1}, so p_polynomial sums that equation's own terms in P_b
(p_relation_terms("45", b)).  Thirteen further q-difference equations
(and the x<->z symmetry) hold for every b and are checked as exact
polynomial identities.  Matrix elements

    R^{a,b,c}_{i,j,k} = delta^{a+b}_{i+j} delta^{b+c}_{j+k}
                        q^{(a-j)(c-j)} P_b(q^{2i},q^{2j},q^{2k}) / (q^2;q^2)_b

can also be produced from a terminating q-hypergeometric sum, from a
double sum over lambda + mu = b of Gaussian binomials, and from the
numerator over (q^2;q^2)_b of the u^b coefficient of a four-factor Euler
product (exactq.euler_product); all routes agree exactly
(route="all" cross-checks one key by report.cross_check).  The only cache
of R elements is the column table of tensorops.apply_local.  The two
deltas are r_weights(a,b,c) = r_weights(i,j,k); r_block_states lists one
such block, and tensorops' R operator conserves it.  On each block R is
an involution, symmetric up to its normalisation r_norm:
R^{abc}_{ijk} r_norm(a,b,c) = R^{ijk}_{abc} r_norm(i,j,k); both, and the
route agreement, are checked block by block by tensorops.verify_blocks.
"""

from __future__ import annotations

from . import memo
from .exactq import (
    DomainError,
    LaurentQ,
    euler_product,
    gaussian_binomial,
    q_pochhammer,
    qq_pochhammer,
)
from .multipoly import MultiPolyQ, VARS3, q_power, shift_sum, variables
from .report import VerificationError, VerificationReport, cross_check

_ZERO3 = MultiPolyQ.zero(VARS3)
_ONE3 = MultiPolyQ.one(VARS3)
_X, _Y, _Z = variables(VARS3)

_P_CACHE: dict[int, MultiPolyQ] = memo.table("P")


def _q3(exp: int, coeff: int = 1) -> MultiPolyQ:
    return q_power(VARS3, exp, coeff)


def p_polynomial(b: int) -> MultiPolyQ:
    """P_b(x,y,z), memoized; the zero polynomial for b < 0.  P_0 = 1 is put in
    the table first, and entries above the longest held run P_0..P_n are filled
    upwards by equation 45 (module docstring)."""
    if b < 0:
        return _ZERO3
    if b in _P_CACHE:
        return _P_CACHE[b]
    _P_CACHE.setdefault(0, _ONE3)
    start = 0
    while start + 1 in _P_CACHE:
        start += 1
    for n in range(start, b):
        # Equation 45 at n, less its one term in P_{n+1} (coefficient -1).
        terms = [(c, _P_CACHE[n], shift) for c, db, shift in p_relation_terms("45", n) if db == 0]
        _P_CACHE[n + 1] = shift_sum(VARS3, terms)
    return _P_CACHE[b]


def swap_xz(p: MultiPolyQ) -> MultiPolyQ:
    """Interchange the first and third variables."""
    return MultiPolyQ(
        p.names, {(e[2], e[1], e[0]): c for e, c in p.items()}, _trusted=True
    )


# -- the fourteen difference equations ----------------------------------------
#
# Each relation is a list of (coefficient polynomial, b-offset, q-shift of
# (x,y,z)) triples whose weighted sum of shifted P polynomials vanishes.

P_RELATION_IDS = (
    "42", "43", "44", "45", "46", "47", "48",
    "49", "50", "51", "52", "53", "BS", "p22",
)

MIRROR_PAIRS = (("42", "43"), ("44", "45"), ("49", "50"), ("51", "52"))

PTerm = tuple[MultiPolyQ, int, tuple[int, int, int]]


def p_relation_terms(name: str, b: int) -> list[PTerm]:
    x, y, z = _X, _Y, _Z
    if name == "42":
        return [
            (_ONE3, 0, (2, 0, 0)),
            (-_ONE3, 0, (0, 0, 0)),
            (-x * _q3(2 - 2 * b) * (1 - _q3(2 * b)) * (1 - y * z * _q3(2 - 2 * b)), -1, (0, 0, 0)),
        ]
    if name == "43":
        return [
            (_ONE3, 0, (0, 0, 2)),
            (-_ONE3, 0, (0, 0, 0)),
            (-z * _q3(2 - 2 * b) * (1 - _q3(2 * b)) * (1 - x * y * _q3(2 - 2 * b)), -1, (0, 0, 0)),
        ]
    if name == "44":
        return [
            ((1 - x), 0, (-2, 0, 0)),
            (-z * _q3(-2 * b) * (1 - x * y * _q3(-2 * b)), 0, (0, 0, 0)),
            (-_ONE3, 1, (0, 0, 0)),
        ]
    if name == "45":
        return [
            ((1 - z), 0, (0, 0, -2)),
            (-x * _q3(-2 * b) * (1 - y * z * _q3(-2 * b)), 0, (0, 0, 0)),
            (-_ONE3, 1, (0, 0, 0)),
        ]
    if name == "46":
        return [
            (_ONE3, 0, (0, 2, 0)),
            (-_ONE3, 0, (0, 0, 0)),
            (x * y * z * _q3(4 - 4 * b) * (1 - _q3(2 * b)), -1, (0, 0, 0)),
        ]
    if name == "47":
        return [
            (y, 1, (0, 0, 0)),
            ((1 - y), 0, (0, -2, 0)),
            (-(1 - x * y * _q3(-2 * b)) * (1 - y * z * _q3(-2 * b)), 0, (0, 0, 0)),
        ]
    if name == "48":
        return [
            ((y - _q3(2 * b)), 0, (0, 0, 0)),
            ((1 - y), 0, (2, -2, 2)),
            (
                -(1 - _q3(2 * b)) * (1 - x * y * _q3(2 - 2 * b)) * (1 - y * z * _q3(2 - 2 * b)),
                -1,
                (0, 0, 0),
            ),
        ]
    if name == "49":
        return [
            (_ONE3, 0, (0, 0, 0)),
            (-z * _q3(-2 * b), 0, (2, 0, 0)),
            (-(1 - z), 0, (0, 2, -2)),
        ]
    if name == "50":
        return [
            (_ONE3, 0, (0, 0, 0)),
            (-x * _q3(-2 * b), 0, (0, 0, 2)),
            (-(1 - x), 0, (-2, 2, 0)),
        ]
    if name == "51":
        return [
            (x * (1 - y) * _q3(-2 * b), 0, (0, -2, 2)),
            ((1 - x), 0, (-2, 0, 0)),
            (-(1 - x * y * _q3(-2 * b)), 0, (0, 0, 0)),
        ]
    if name == "52":
        return [
            (z * (1 - y) * _q3(-2 * b), 0, (2, -2, 0)),
            ((1 - z), 0, (0, 0, -2)),
            (-(1 - y * z * _q3(-2 * b)), 0, (0, 0, 0)),
        ]
    if name == "53":
        return [
            ((1 - _q3(2 * b)), -1, (0, 0, 0)),
            (-_ONE3, 0, (2, 0, 2)),
            (_q3(2 * b), 0, (0, 2, 0)),
        ]
    if name == "BS":
        return [
            (x * z * (1 - y) * _q3(-2 * b), 0, (0, -2, 0)),
            (-(1 - x) * (1 - z), 0, (-2, 0, -2)),
            (_ONE3, 1, (0, 0, 0)),
        ]
    if name == "p22":
        return [
            (_ONE3, 1, (0, 0, 0)),
            (-(1 - x) * (1 - z), 0, (-2, 2, -2)),
            (-x * z * _q3(-4 * b) * (y - _q3(2 * b)), 0, (0, 0, 0)),
        ]
    raise DomainError(f"unknown relation {name!r}")


def p_relation_residual(name: str, b: int) -> MultiPolyQ:
    terms = p_relation_terms(name, b)
    return shift_sum(VARS3, ((k, p_polynomial(b + db), s) for k, db, s in terms))


def verify_p_relations(b: int) -> VerificationReport:
    """All fourteen difference equations plus the x<->z symmetry, at one b."""
    rep = VerificationReport(f"P relations, b={b}")
    for name in P_RELATION_IDS:
        residual = p_relation_residual(name, b)
        rep.record(residual.is_zero, f"relation {name} at b={b}", str(residual), "0")
    pb = p_polynomial(b)
    rep.record(swap_xz(pb) == pb, f"P_{b}(x,y,z) = P_{b}(z,y,x)")
    return rep


def verify_mirror_pairs() -> VerificationReport:
    """The four mirror pairs map into each other under x<->z, structurally.

    A term (coeff, db, (sx,sy,sz)) maps to (coeff with x,z swapped, db,
    (sz,sy,sx)); the image term multiset must equal the partner's.
    """
    rep = VerificationReport("mirror pairs under x<->z")
    for b in range(4):
        for left, right in MIRROR_PAIRS:
            def canon(terms):
                return sorted(
                    (db, shifts, str(coeff)) for coeff, db, shifts in terms
                )
            image = [
                (swap_xz(coeff), db, (s[2], s[1], s[0]))
                for coeff, db, s in p_relation_terms(left, b)
            ]
            rep.record(
                canon(image) == canon(p_relation_terms(right, b)),
                f"{left} <-> {right} at b={b}",
            )
    return rep


def p_ring_report(b: int) -> VerificationReport:
    """q^{2b(b-1)} P_b has coefficients in Z[q^2]."""
    rep = VerificationReport(f"P_{b} ring membership")
    floor = -2 * b * (b - 1)
    for exps, coeff in p_polynomial(b).items():
        ok = coeff.in_parity_class(0, floor)
        rep.record(ok, f"P_{b} coefficient of {exps} in q^(-2b(b-1)) Z[q^2]")
    return rep


def hypergeometric_p(b: int) -> MultiPolyQ:
    """P_b from the terminating q-hypergeometric sum; checked vs the recursion.

    P_b = sum_{n=0}^{b} [(q^{-2b};q^2)_n / (q^2;q^2)_n] (q^{2-2b}yz; q^2)_n
          (q^{2n+2-2b}z; q^2)_{b-n} q^{2n} x^n.
    """
    if b < 0:
        raise DomainError("hypergeometric_p needs b >= 0")
    x, y, z = _X, _Y, _Z
    total = _ZERO3
    for n in range(b + 1):
        scalar = q_pochhammer((1, -2 * b), 2, n).exact_div(qq_pochhammer(2, n))
        term = MultiPolyQ.monomial(VARS3, (n, 0, 0), scalar.shifted(2 * n))
        for m in range(n):
            term = term * (1 - y * z * _q3(2 - 2 * b + 2 * m))
        for m in range(b - n):
            term = term * (1 - z * _q3(2 * n + 2 - 2 * b + 2 * m))
        total = total + term
    if total != p_polynomial(b):
        raise VerificationError(f"hypergeometric route mismatch at b={b}")
    return total


# -- matrix elements ------------------------------------------------------------

R_ROUTES = ("poly", "doublesum", "series")


def r_element(
    a: int, b: int, c: int, i: int, j: int, k: int, route: str = "poly"
) -> LaurentQ:
    """R^{a,b,c}_{i,j,k}; zero off the weight block a+b = i+j, b+c = j+k."""
    if route not in (*R_ROUTES, "all"):
        raise DomainError(f"unknown route {route!r}")
    if min(a, b, c, i, j, k) < 0 or r_weights(a, b, c) != r_weights(i, j, k):
        return LaurentQ.zero()
    if route == "poly":
        value = p_polynomial(b).evaluate_at_q_powers((2 * i, 2 * j, 2 * k))
        return value.shifted((a - j) * (c - j)).exact_div(qq_pochhammer(2, b))
    if route == "doublesum":
        total = LaurentQ.zero()
        for lam in range(b + 1):
            mu = b - lam
            g2 = gaussian_binomial(i, mu, 2)
            if g2.is_zero:
                continue
            g1 = gaussian_binomial(lam + a, lam, 2)
            exp = i * k + b + lam * (c - a) + mu * (mu - i - k - 1)
            sign = -1 if lam % 2 else 1
            total = total + (g1 * g2).shifted(exp) * sign
        return total
    if route == "series":
        factors = [((-1, 2 + a + c), False), ((-1, -i - k), False),
                   ((-1, a - c), True), ((-1, c - a), True)]
        num = euler_product(factors, b)[b]
        return num.shifted(i * k + b).exact_div(qq_pochhammer(2, b))
    return cross_check(r_element, (a, b, c, i, j, k), R_ROUTES)


def r_weights(a: int, b: int, c: int) -> tuple[int, int]:
    """The weight block (a+b, b+c) of a local state; R conserves it."""
    return a + b, b + c


def r_block_states(m: int, n: int) -> list[tuple[int, int, int]]:
    """The weight block {(a,b,c) >= 0 : r_weights(a,b,c) = (m,n)}, sorted."""
    if m < 0 or n < 0:
        raise DomainError(f"weight block ({m},{n}) needs m, n >= 0")
    return sorted((m - bb, bb, n - bb) for bb in range(min(m, n) + 1))


def r_norm(a: int, b: int, c: int) -> LaurentQ:
    """R's normalisation of |a,b,c>: (q^2;q^2)_a (q^2;q^2)_b (q^2;q^2)_c."""
    return qq_pochhammer(2, a) * qq_pochhammer(2, b) * qq_pochhammer(2, c)


def verify_generating_series(i: int, j: int, k: int, order: int) -> VerificationReport:
    """Series identity sum_b q^{b(b-1)} u^b P_b(x, q^{2b-2}y, z)/(q^2)_b =
    (-xyzu;q^2)oo (-u;q^2)oo / ((-xu;q^2)oo (-zu;q^2)oo) at q-power points,
    checked on the numerators of each u^b coefficient over (q^2;q^2)_b.
    """
    rep = VerificationReport(f"generating series at ({i},{j},{k}) to order {order}")
    factors = [((-1, 2 * (i + j + k)), False), ((-1, 0), False),
               ((-1, 2 * i), True), ((-1, 2 * k), True)]
    for b, want in enumerate(euler_product(factors, order)):
        value = p_polynomial(b).evaluate_at_q_powers((2 * i, 2 * j + 2 * b - 2, 2 * k))
        got = value.shifted(b * (b - 1))
        rep.record(got == want, f"u^{b} coefficient at ({i},{j},{k})", str(got), str(want))
    return rep


clear_caches = memo.clear


def p_cache_snapshot() -> dict[int, MultiPolyQ]:
    return dict(_P_CACHE)
