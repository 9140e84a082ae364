"""The four-variable polynomial family Q_{b,c}(x,y,z,w).

Q_{0,0} = 1, and two recursions lower the indices: one reduces b (five
shifted copies of Q_{b-1,c}) and one reduces c (five shifted copies of
Q_{b,c-1}).  The fixed computation route is c-reduction first, then
b-reduction; the opposite route and a dual recursion in p = 1/q exist as
independent cross-checks.  A closed form expresses Q_{b,c} as a sum over
a finite support set of monomials x^r y^s z^t w^u whose coefficients C
come from a triple sum of q-factorial symbols.  Each C is a LaurentQ: the
sum is taken over one common denominator and divided once, and the
assembled polynomial is compared against the recursive route.

By convention Q_{b,c} = 0 whenever b < 0 or c < 0; every difference
equation then holds uniformly because the offending prefactors vanish at
the boundary.
"""

from __future__ import annotations

from . import memo
from .exactq import (
    DomainError,
    ExactDivisionError,
    LaurentQ,
    qq_pochhammer,
    qq_pochhammer_tail,
)
from .multipoly import MultiPolyQ, VARS4, q_power, shift_sum, variables
from .report import VerificationError, VerificationReport

_ZERO4 = MultiPolyQ.zero(VARS4)
_ONE4 = MultiPolyQ.one(VARS4)

_Q_CACHE: dict[tuple[int, int], MultiPolyQ] = memo.table("Q")
_Q_DUAL_CACHE: dict[tuple[int, int], MultiPolyQ] = memo.table("Q_dual")


# -- exponent bookkeeping ------------------------------------------------------


def phi_bc(b: int, c: int) -> int:
    """Exact q-degree of Q_{b,c}: 3b(b-1) + 2c(3c-2) + 8bc."""
    return 3 * b * (b - 1) + 2 * c * (3 * c - 2) + 8 * b * c


def phi_k(a: int, b: int, c: int, d: int, i: int, j: int, k: int, l: int) -> int:
    """(a-k)(d-j) + (b-l)(c-i) - 2(b-j)(c-k); symmetric under out/in exchange."""
    return (a - k) * (d - j) + (b - l) * (c - i) - 2 * (b - j) * (c - k)


def psi_rs(r: int, s: int) -> int:
    """s(4r - s + 1)."""
    return s * (4 * r - s + 1)


def phi_q(b: int, c: int, r: int, s: int, t: int, u: int) -> int:
    return (
        (s - 2 * t + u) ** 2
        + 2 * r * (r + 2 * t + 1)
        - (2 * b - 1) * (s + u)
        - 4 * c * (r + t)
    )


def phi_c_exp(alpha: int, beta: int, gamma: int, b: int, r: int, t: int) -> int:
    return (
        alpha * (alpha + 1 + 2 * t)
        + beta * (beta - 1 - 2 * alpha + 2 * b - 4 * r)
        + gamma * (gamma - 1 - 4 * r)
    )


# -- support set ---------------------------------------------------------------


def in_support(b: int, c: int, quad: tuple[int, int, int, int]) -> bool:
    r, s, t, u = quad
    if min(r, s, t, u) < 0:
        return False
    return min(u - t, 2 * r - s, b - s + 2 * t - u, c - r + s - t) >= 0


def support_set(b: int, c: int) -> list[tuple[int, int, int, int]]:
    """All (r,s,t,u) with min(u-t, 2r-s, b-s+2t-u, c-r+s-t) >= 0, sorted."""
    if b < 0 or c < 0:
        raise DomainError("support_set needs b, c >= 0")
    # The box r <= b+c, u <= b+2c follows from in_support's inequalities.
    return sorted(
        (r, s, t, u)
        for r in range(b + c + 1)
        for s in range(2 * r + 1)
        for u in range(b + 2 * c + 1)
        for t in range(u + 1)
        if in_support(b, c, (r, s, t, u))
    )


# -- the recursions ------------------------------------------------------------

_X, _Y, _Z, _W = variables(VARS4)


def _q4(exp: int, coeff: int = 1) -> MultiPolyQ:
    return q_power(VARS4, exp, coeff)


def _rec_b_step(prev: MultiPolyQ, b: int, c: int) -> MultiPolyQ:
    """Q_{b,c} from prev = Q_{b-1,c} (requires b >= 1)."""
    x, y, z, w = _X, _Y, _Z, _W
    terms = (
        (w * y * (z - 1) * _q4(4 * b + 8 * c - 4), (0, 0, -4, 0)),
        (w * x * (y - 1) * y * z * _q4(4 * b + 4 * c - 4), (0, -2, 0, 0)),
        ((w - 1) * (y - 1) * _q4(6 * b + 8 * c - 6), (0, -2, 0, -2)),
        (w * (x - 1) * y * (z - 1) * _q4(4 * b + 8 * c - 4), (-4, 2, -4, 0)),
        ((w - 1) * (x - 1) * y * _q4(6 * b + 8 * c - 6), (-4, 0, 0, -2)),
    )
    return shift_sum(VARS4, ((coeff, prev, shifts) for coeff, shifts in terms))


def _rec_c_step(prev: MultiPolyQ, b: int, c: int) -> MultiPolyQ:
    """Q_{b,c} from prev = Q_{b,c-1} (requires c >= 1)."""
    x, y, z, w = _X, _Y, _Z, _W
    g = _q4(2 * (b + 2 * c)) - w * y * z * _q4(2)
    terms = (
        (-(w * w) * y * (z - 1) * z * _q4(4 * b + 8 * c - 8), (0, 0, -4, 0)),
        (w * x * (y - 1) * z * _q4(4 * b + 4 * c - 6) * g, (0, -2, 0, 0)),
        (-(w - 1) * w * (y - 1) * z * _q4(6 * b + 8 * c - 8), (0, -2, 0, -2)),
        (w * (x - 1) * (z - 1) * _q4(4 * b + 8 * c - 10) * g, (-4, 2, -4, 0)),
        ((w - 1) * (x - 1) * _q4(6 * b + 8 * c - 10) * g, (-4, 0, 0, -2)),
    )
    return shift_sum(VARS4, ((coeff, prev, shifts) for coeff, shifts in terms))


def _assert_even_nonneg(p: MultiPolyQ, b: int, c: int) -> None:
    for exps, coeff in p.items():
        if not coeff.in_parity_class(0):
            raise VerificationError(
                f"Q_({b},{c}) has a coefficient outside Z[q^2] ({coeff} at {exps})"
            )


def _walk(table: dict, b: int, c: int, b_step, c_step, check=None) -> MultiPolyQ:
    """Entry (b, c) of a memo table filled from (0,0) = 1 by reducing c first.

    The walk fills (1..b, 0) by b_step, then (b, 1..c) by c_step, and
    passes each new entry to check.
    """
    cached = table.get((b, c))
    if cached is not None:
        return cached
    table.setdefault((0, 0), _ONE4)
    walk = [((bb, 0), (bb - 1, 0), b_step) for bb in range(1, b + 1)]
    walk += [((b, cc), (b, cc - 1), c_step) for cc in range(1, c + 1)]
    for key, prev, step in walk:
        if key not in table:
            poly = step(table[prev], *key)
            if check is not None:
                check(poly, *key)
            table[key] = poly
    return table[(b, c)]


def q_polynomial(b: int, c: int) -> MultiPolyQ:
    """Q_{b,c} by memoized recursion (c-reduction first, then b-reduction)."""
    if b < 0 or c < 0:
        return _ZERO4
    return _walk(_Q_CACHE, b, c, _rec_b_step, _rec_c_step, _assert_even_nonneg)


def q_polynomial_alt_route(b: int, c: int) -> MultiPolyQ:
    """Q_{b,c} by the opposite route (b-reduction first); verification only."""
    if b < 0 or c < 0:
        return _ZERO4
    poly = _ONE4
    for cc in range(1, c + 1):
        poly = _rec_c_step(poly, 0, cc)
    for bb in range(1, b + 1):
        poly = _rec_b_step(poly, bb, c)
    return poly


# -- dual recursion in p = 1/q ---------------------------------------------------


def _rec_b_step_dual(prev: MultiPolyQ, b: int, c: int) -> MultiPolyQ:
    x, y, z, w = _X, _Y, _Z, _W
    terms = (
        (w * y * (z - 1) * _q4(2 * b - 2), (0, 0, 4, 0)),
        (w * x * (y - 1) * y * z * _q4(2 * b + 4 * c - 2), (0, 2, 0, 0)),
        ((w - 1) * (y - 1), (0, 2, 0, 2)),
        (w * (x - 1) * y * (z - 1) * _q4(2 * b - 2), (4, -2, 4, 0)),
        ((w - 1) * (x - 1) * y, (4, 0, 0, 2)),
    )
    return shift_sum(VARS4, ((coeff, prev, shifts) for coeff, shifts in terms))


def _rec_c_step_dual(prev: MultiPolyQ, b: int, c: int) -> MultiPolyQ:
    x, y, z, w = _X, _Y, _Z, _W
    h = w * y * z * _q4(2 * (b + 2 * c)) - _q4(2)
    terms = (
        (-(w * w) * y * (z - 1) * z * _q4(4 * b + 4 * c - 2), (0, 0, 4, 0)),
        (-w * x * (y - 1) * z * _q4(2 * b + 4 * c - 6) * h, (0, 2, 0, 0)),
        (-(w - 1) * w * (y - 1) * z * _q4(2 * b + 4 * c - 2), (0, 2, 0, 2)),
        (-w * (x - 1) * (z - 1) * _q4(2 * b - 2) * h, (4, -2, 4, 0)),
        (
            (w - 1) * (x - 1) * (1 - w * y * z * _q4(2 * (b + 2 * c - 1))),
            (4, 0, 0, 2),
        ),
    )
    return shift_sum(VARS4, ((coeff, prev, shifts) for coeff, shifts in terms))


def q_polynomial_dual(b: int, c: int) -> MultiPolyQ:
    """The dual polynomial in p: p^{phi_bc} * Q_{b,c} with q -> 1/p.

    Computed by the dual recursions and asserted against the transform of
    q_polynomial; a mismatch raises VerificationError naming (b, c).
    """
    if b < 0 or c < 0:
        return _ZERO4
    poly = _walk(_Q_DUAL_CACHE, b, c, _rec_b_step_dual, _rec_c_step_dual)
    expected = q_polynomial(b, c).transform_q_inverse(phi_bc(b, c))
    if poly != expected:
        raise VerificationError(f"dual recursion mismatch at (b,c)=({b},{c})")
    return poly


# -- closed form -----------------------------------------------------------------


def coeff_c(b: int, c: int, r: int, s: int, t: int, u: int) -> LaurentQ:
    """The coefficient C^{b,c}_{r,s,t,u} of the closed form.

    C is (-1)^s q^{psi_rs} times a prefactor ratio of q-Pochhammer symbols
    times the triple sum of (-1)^{beta+gamma} q^{phi_C} Xi over the nonzero
    (alpha, beta, gamma).  Terms with a negative lower index are zero by the
    support rule, so the enumeration covers exactly alpha <= u-t, beta <= t
    with b-s-alpha+beta >= 0, and (r-c)+ <= gamma <= s-beta; on the support
    set every upper index is then nonnegative.  The terms are put over one
    common denominator (per-slot maxima of the lower-index Pochhammers),
    summed as one packed sum and divided once, so ExactDivisionError means
    that C is not a Laurent polynomial.  Zero (by the boundary convention)
    for nonnegative quads outside the support set.
    """
    if min(b, c) < 0 or min(r, s, t, u) < 0:
        raise DomainError("coeff_c needs nonnegative arguments")
    if not in_support(b, c, (r, s, t, u)):
        return LaurentQ.zero()
    triples = [
        (alpha, beta, gamma)
        for alpha in range(u - t + 1)
        for beta in range(t + 1)
        if b - s - alpha + beta >= 0
        for gamma in range(max(0, r - c), s - beta + 1)
    ]
    lowers2 = [
        (alpha, beta, gamma, u - t - alpha, t - beta, b - s - alpha + beta, s - beta - gamma)
        for alpha, beta, gamma in triples
    ]
    lowers4 = [c - r + gamma for _, _, gamma in triples]
    max2 = [max(col) for col in zip(*lowers2)]
    max4 = max(lowers4, default=0)
    terms = []
    for (alpha, beta, gamma), d2, d4 in zip(triples, lowers2, lowers4):
        num = (
            qq_pochhammer(2, b - s + t - alpha)
            * qq_pochhammer(2, 2 * r - s + beta)
            * qq_pochhammer(4, c + s - r - beta)
            * qq_pochhammer(4, c + gamma)
        )
        for lo, hi in zip(d2, max2):
            num = num * qq_pochhammer_tail(2, lo, hi)
        num = num * qq_pochhammer_tail(4, d4, max4)
        if (beta + gamma) % 2:
            num = -num
        terms.append((num, phi_c_exp(alpha, beta, gamma, b, r, t)))
    num = LaurentQ.sum_shifted(terms) * qq_pochhammer(2, b) * qq_pochhammer(2, u - t)
    den = (
        qq_pochhammer(2, b + 2 * t - s - u)
        * qq_pochhammer(2, 2 * r - s)
        * qq_pochhammer(4, r)
        * qq_pochhammer(4, u - t)
        * qq_pochhammer(4, c - r + s - t)
        * qq_pochhammer(4, max4)
    )
    for m in max2:
        den = den * qq_pochhammer(2, m)
    num = num.shifted(psi_rs(r, s))
    return (-num if s % 2 else num).exact_div(den)


def coeff_a(b: int, c: int, r: int, s: int, t: int, u: int) -> LaurentQ:
    """C^{b,c}_{r,s,t,u} divided by its factorization prefactor symbols.

    The prefactor is [b over s, t, b-s+2t-u, 2r-s]_{q^2} [c over u-t,
    c-r+s-t]_{q^4}, whose lower indices are nonnegative on the support set.
    Raises ExactDivisionError where A is not a Laurent polynomial; it is one
    on every support quad with b+c <= 4.
    """
    cval = coeff_c(b, c, r, s, t, u)
    if cval.is_zero:
        return cval
    lowers = (
        qq_pochhammer(2, s)
        * qq_pochhammer(2, t)
        * qq_pochhammer(2, b - s + 2 * t - u)
        * qq_pochhammer(2, 2 * r - s)
        * qq_pochhammer(4, u - t)
        * qq_pochhammer(4, c - r + s - t)
    )
    return (cval * lowers).exact_div(qq_pochhammer(2, b) * qq_pochhammer(4, c))


def closed_form_q(b: int, c: int) -> MultiPolyQ:
    """Q_{b,c} assembled from the closed form; must match the recursion."""
    if b < 0 or c < 0:
        return _ZERO4
    phi = phi_bc(b, c)
    terms: dict[tuple[int, int, int, int], LaurentQ] = {}
    for quad in support_set(b, c):
        r, s, t, u = quad
        coeff = coeff_c(b, c, r, s, t, u).shifted(
            phi + phi_q(b, c, r, s, t, u) - psi_rs(r, s)
        )
        terms[quad] = -coeff if (r + u) % 2 else coeff
    poly = MultiPolyQ(VARS4, terms)
    if poly != q_polynomial(b, c):
        raise VerificationError(f"closed form mismatch at (b,c)=({b},{c})")
    return poly


# -- property checks --------------------------------------------------------------


def _limit_low(b: int, c: int) -> MultiPolyQ:
    """(-1)^c (x y^2)^{b+c-1} (z w)^{b+2c-1} Q_{1,0}; needs (b,c) != (0,0)."""
    sign = -1 if c % 2 else 1
    e1 = b + c - 1
    e2 = b + 2 * c - 1
    mono = MultiPolyQ.monomial(
        VARS4, (e1, 2 * e1, e2, e2), LaurentQ.integer(sign)
    )
    return mono * q_polynomial(1, 0)


def _limit_high(b: int, c: int) -> MultiPolyQ:
    """Top q-coefficient: 1 - x y^d(c) - w z^d(b) + x w y^.. z^.. with deltas."""
    x, y, z, w = _X, _Y, _Z, _W
    dc = 1 if c == 0 else 0
    db = 1 if b == 0 else 0
    ey = dc + (1 if b + c == 1 else 0)
    ez = db + (1 if (b == 1 and c == 0) else 0)
    return 1 - x * y**dc - w * z**db + x * w * y**ey * z**ez


def _pochhammer_poly(
    var: MultiPolyQ, count: int, base_exp: int
) -> MultiPolyQ:
    """prod_{j=0..count-1} (var - q^{base_exp * j})."""
    out = _ONE4
    for j in range(count):
        out = out * (var - q_power(VARS4, base_exp * j))
    return out


def check_specializations(b: int, c: int) -> VerificationReport:
    """The two q-limit identities and the three specializations at 1s."""
    rep = VerificationReport(f"specializations({b},{c})")
    qp = q_polynomial(b, c)
    sign = -1 if c % 2 else 1
    if (b, c) != (0, 0):
        lo, hi = qp.q_degree_range()
        rep.record(lo == 0, f"({b},{c}) min q-exponent", str(lo), "0")
        rep.record(
            hi == phi_bc(b, c), f"({b},{c}) max q-exponent", str(hi), str(phi_bc(b, c))
        )
        low = qp.q_coefficient_poly(0)
        rep.record(
            low == _limit_low(b, c), f"({b},{c}) q->0 limit", str(low), ""
        )
        high = qp.q_coefficient_poly(phi_bc(b, c))
        rep.record(
            high == _limit_high(b, c), f"({b},{c}) q->inf limit", str(high), ""
        )
    x, y, z, w = _X, _Y, _Z, _W
    # Q(x,1,1,w) = (-1)^c prod (x - q^{4j}) * prod (w - q^{2j})
    got = qp.partial_eval_q_power(1, 0).partial_eval_q_power(2, 0)
    want = (
        _pochhammer_poly(x, b + c, 4) * _pochhammer_poly(w, b + 2 * c, 2) * sign
    )
    rep.record(got == want, f"({b},{c}) specialization y=z=1", str(got), str(want))
    # Q(x,y,1,1) = (-1)^c x^{b+c} y^b prod (y - q^{2j})
    got = qp.partial_eval_q_power(2, 0).partial_eval_q_power(3, 0)
    want = (
        MultiPolyQ.monomial(VARS4, (b + c, b, 0, 0), LaurentQ.integer(sign))
        * _pochhammer_poly(y, b + 2 * c, 2)
    )
    rep.record(got == want, f"({b},{c}) specialization z=w=1", str(got), str(want))
    # Q(1,1,z,w) = (-1)^c w^{b+2c} z^c prod (z - q^{4j})
    got = qp.partial_eval_q_power(0, 0).partial_eval_q_power(1, 0)
    want = (
        MultiPolyQ.monomial(VARS4, (0, 0, c, b + 2 * c), LaurentQ.integer(sign))
        * _pochhammer_poly(z, b + c, 4)
    )
    rep.record(got == want, f"({b},{c}) specialization x=y=1", str(got), str(want))
    return rep


def check_support_and_ring(b: int, c: int) -> VerificationReport:
    """Monomial support within the support set; coefficients in Z[q^2]."""
    rep = VerificationReport(f"support({b},{c})")
    qp = q_polynomial(b, c)
    allowed = set(support_set(b, c))
    for exps, coeff in qp.items():
        rep.record(exps in allowed, f"({b},{c}) monomial {exps} in support set")
        rep.record(coeff.in_parity_class(0), f"({b},{c}) coefficient of {exps} in Z[q^2]")
    top = phi_bc(b, c)
    for exps, coeff in qp.items():
        rep.record(coeff.max_exp() <= top, f"({b},{c}) coefficient of {exps} below q^{top}")
    return rep


def check_route_agreement(b: int, c: int) -> VerificationReport:
    """Recursion, opposite-order recursion, dual route, closed form all agree."""
    rep = VerificationReport(f"routes({b},{c})")
    qp = q_polynomial(b, c)
    rep.record(
        q_polynomial_alt_route(b, c) == qp, f"({b},{c}) opposite recursion order"
    )
    rep.attempt(q_polynomial_dual, b, c)
    rep.attempt(closed_form_q, b, c)
    return rep


def conjecture_report(max_bc: int) -> VerificationReport:
    """Status of the open conjecture: C^{b,c} in Z[q^2] with constant term 1.

    Reported, never asserted fatally: a quad whose C is not a Laurent
    polynomial (coeff_c raises ExactDivisionError), lies outside Z[q^2] or
    has another constant term goes into the report as a counterexample.
    Any other exception is a fault, not a counterexample, and propagates.
    """
    rep = VerificationReport(f"conjecture C in Z[q^2], C(0)=1, b+c<={max_bc}")
    for b in range(max_bc + 1):
        for c in range(max_bc + 1 - b):
            for quad in support_set(b, c):
                loc = f"C^{{{b},{c}}}_{quad}"
                try:
                    cval = coeff_c(b, c, *quad)
                except ExactDivisionError:
                    rep.record(False, f"{loc} not a Laurent polynomial")
                    continue
                ok = cval.in_parity_class(0) and cval.coeff(0) == 1
                rep.record(ok, loc, str(cval), "element of Z[q^2] with C(0)=1")
    if rep.passed:
        rep.notes.append("conjecture holds on the tested range")
    return rep


def verify_properties(max_bc: int) -> VerificationReport:
    """Support, ring membership, degree, limits, specializations, routes."""
    rep = VerificationReport(f"Q-family properties, b+c <= {max_bc}")
    for b in range(max_bc + 1):
        for c in range(max_bc + 1 - b):
            rep.absorb(check_support_and_ring(b, c))
            rep.absorb(check_specializations(b, c))
            rep.absorb(check_route_agreement(b, c))
    return rep


# -- cache plumbing ----------------------------------------------------------------


def cache_snapshot() -> dict[tuple[int, int], MultiPolyQ]:
    return dict(_Q_CACHE)


def cache_install(entries: dict[tuple[int, int], MultiPolyQ]) -> None:
    _Q_CACHE.update(entries)


clear_caches = memo.clear
