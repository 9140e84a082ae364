"""Matrix elements of the 3D K and the difference equations behind them.

A key (a,b,c,d; i,j,k,l) is nonzero only on the weight block
a+b+c = i+j+k and b+2c+d = j+2k+l, that is k_weights(a,b,c,d) =
k_weights(i,j,k,l); k_block_states lists one such block, and tensorops'
K operator conserves it.  Two routes produce the element:

  primary: q^{phi_K - phi_{b,c}} Q_{b,c}(q^{4i},q^{2j},q^{4k},q^{2l})
           / ((q^2;q^2)_b (q^4;q^4)_c)
  dual:    q^{phi_K - phi_{j,k}} [l over b,d]_{q^2} [i over a,c]_{q^4}
           Q_{j,k}(q^{4a},q^{2b},q^{4c},q^{2d})

Both reduce by exact division to a polynomial in q lying in
q^eta Z[q^2] with eta = bd + jl mod 2; mismatches of any kind raise
(route="both" cross-checks one key by report.cross_check).  The primary
route's denominator is one cached product per (b, c).  Beside the two
routes, k_column builds a whole column of K, the entries of one input,
by the element-level bridge recursion (verify_bridge_recursion): an entry with d >= 1 is one packed sum
of at most six shifted entries of block (m, n-1) and one exact division
by 1 - q^{2d}, so only the d = 0 row evaluates Q.  The only cache of K
elements is the column table of tensorops.apply_local (K_local), which
k_column fills.  On each block K is an involution, symmetric up to its
normalisation k_norm:

  K^{abcd}_{ijkl} (q^2)_b (q^2)_d (q^4)_a (q^4)_c
    = K^{ijkl}_{abcd} (q^2)_j (q^2)_l (q^4)_i (q^4)_k;

both, the route agreement and k_column's columns are checked block by
block by tensorops.verify_blocks.

The module also verifies the fourteen difference equations E22..E55 that
characterize the Q family (each one the image of a generator
intertwining relation) and the element-level recursion bridging the two
levels.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache

from . import memo
from .exactq import (
    DomainError,
    ExactDivisionError,
    LaurentQ,
    PackedColumn,
    qq_pochhammer,
    qq_pochhammer_tail,
)
from .multipoly import MultiPolyQ, VARS4, shift_sum, variables
from .qfamily import _q4, phi_bc, phi_k, q_polynomial
from .report import VerificationError, VerificationReport, cross_check

_X, _Y, _Z, _W = variables(VARS4)

K_ROUTES = ("primary", "dual")


def _check_element(value: LaurentQ, key: tuple[int, ...]) -> LaurentQ:
    a, b, c, d, i, j, k, l = key
    if not value.in_parity_class(b * d + j * l):
        raise VerificationError(
            f"element {key} violates the q^eta Z[q^2] property (value {value})"
        )
    return value


def k_element(
    a: int, b: int, c: int, d: int, i: int, j: int, k: int, l: int,
    route: str = "primary",
) -> LaurentQ:
    """K^{a,b,c,d}_{i,j,k,l}; zero off the weight block or at negative indices."""
    if route not in (*K_ROUTES, "both"):
        raise DomainError(f"unknown route {route!r}")
    key = (a, b, c, d, i, j, k, l)
    if min(key) < 0 or k_weights(a, b, c, d) != k_weights(i, j, k, l):
        return LaurentQ.zero()
    if route == "primary":
        value = q_polynomial(b, c).evaluate_at_q_powers((4 * i, 2 * j, 4 * k, 2 * l))
        num = value.shifted(phi_k(*key) - phi_bc(b, c))
        return _check_element(num.exact_div(_k_denominator(b, c)), key)
    if route == "dual":
        value = q_polynomial(j, k).evaluate_at_q_powers((4 * a, 2 * b, 4 * c, 2 * d))
        num = value.shifted(phi_k(*key) - phi_bc(j, k))
        num = num * qq_pochhammer(2, l) * qq_pochhammer(4, i)
        return _check_element(num.exact_div(k_norm(a, b, c, d)), key)
    return cross_check(k_element, key, K_ROUTES)


@lru_cache(maxsize=None)
def _k_denominator(b: int, c: int) -> LaurentQ:
    """The primary route's denominator (q^2;q^2)_b (q^4;q^4)_c."""
    return qq_pochhammer(2, b) * qq_pochhammer(4, c)


def k_column(
    inp: tuple[int, int, int, int],
    table: dict,
    element: Callable[..., LaurentQ],
) -> PackedColumn:
    """K's packed column at input inp = (i,j,k,l), built by the bridge recursion.

    The entry at an output (a,b,c,d) with d = 0 is element(a,b,c,0,i,j,k,l).
    One with d >= 1 is, by the bridge recursion (verify_bridge_recursion)
    solved for K^{a,b,c,d}_{i,j,k,l},

      q^{-b-2c} [ q^{2k+l}(1-q^{2j}) K^{a,b,c,d-1}_{i+1,j-1,k,l}
                + q^{2i+l}(1-q^{4k}) K^{a,b,c,d-1}_{i,j+1,k-1,l}
                + q^{2i+j}(1-q^{2l}) K^{a,b,c,d-1}_{i,j,k,l-1} ] / (1 - q^{2d}),

    one LaurentQ.sum_shifted of at most six shifted entries of the
    predecessor columns (block (m, n-1); a term whose factor is 1 - q^0
    is left out, so no predecessor has a negative index), one exact_div
    and _check_element.  table maps inputs to their columns: inp's is
    built into it, after every predecessor it lacks, each the same way,
    from an explicit work list, so a chain of any depth builds without
    recursion.  A numerator that 1 - q^{2d} does not divide raises
    VerificationError naming its key.
    """
    work = [inp]
    while work:
        top = work[-1]
        if top in table:
            work.pop()
            continue
        terms = _bridge_terms(*top)
        missing = [pred for pred, _, _ in terms if pred not in table]
        if missing:
            work += missing
            continue
        terms = [(table[pred].values(), shift, gap) for pred, shift, gap in terms]
        pairs = []
        for out in k_block_states(*k_weights(*top)):
            a, b, c, d = out
            if not d:
                pairs.append((out, element(*out, *top)))
                continue
            key, prev, base = (*out, *top), (a, b, c, d - 1), -b - 2 * c
            summands = []
            for values, shift, gap in terms:
                value = values.get(prev)
                if value is not None:
                    summands += [(value, base + shift), (-value, base + shift + gap)]
            try:
                value = LaurentQ.sum_shifted(summands).exact_div(qq_pochhammer_tail(2, d - 1, d))
            except ExactDivisionError:
                raise VerificationError(
                    f"bridge numerator of {key} is not divisible by 1 - q^{2 * d}"
                ) from None
            pairs.append((out, _check_element(value, key)))
        table[top] = PackedColumn(pairs)
        work.pop()
    return table[inp]


def _bridge_terms(i: int, j: int, k: int, l: int) -> list[tuple[tuple[int, ...], int, int]]:
    """(predecessor input, q-shift, gap) of each bridge term of input (i,j,k,l):
    the term is q^shift (1 - q^gap) times the predecessor's entry, and
    those with gap 0 are left out."""
    terms = []
    if j:
        terms.append(((i + 1, j - 1, k, l), 2 * k + l, 2 * j))
    if k:
        terms.append(((i, j + 1, k - 1, l), 2 * i + l, 4 * k))
    if l:
        terms.append(((i, j, k, l - 1), 2 * i + j, 2 * l))
    return terms


def k_norm(a: int, b: int, c: int, d: int) -> LaurentQ:
    """K's normalisation of |a,b,c,d>: (q^2;q^2)_b (q^2;q^2)_d (q^4;q^4)_a (q^4;q^4)_c."""
    p = qq_pochhammer
    return p(2, b) * p(2, d) * p(4, a) * p(4, c)


def k_weights(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """The weight block (a+b+c, b+2c+d) of a local state; K conserves it."""
    return a + b + c, b + 2 * c + d


def k_block_states(m: int, n: int) -> list[tuple[int, int, int, int]]:
    """The weight block {(a,b,c,d) >= 0 : k_weights(a,b,c,d) = (m,n)}, sorted."""
    if m < 0 or n < 0:
        raise DomainError(f"weight block ({m},{n}) needs m, n >= 0")
    states = []
    for c in range(min(m, n // 2) + 1):
        for b in range(min(m - c, n - 2 * c) + 1):
            states.append((m - b - c, b, c, n - b - 2 * c))
    return sorted(states)


# -- the difference equations E22..E55 -------------------------------------------
#
# Each relation is a list of (coefficient polynomial, (b,c)-offset, q-shift
# of (x,y,z,w)) whose weighted sum of shifted Q polynomials vanishes; Q at
# a negative index is the zero polynomial.

E_RELATION_IDS = (
    "E22", "E23", "E24",
    "E32", "E33", "E34", "E35",
    "E42", "E43", "E44", "E45",
    "E53", "E54", "E55",
)

ETerm = tuple[MultiPolyQ, tuple[int, int], tuple[int, int, int, int]]


def e_relation_terms(name: str, b: int, c: int) -> list[ETerm]:
    x, y, z, w = _X, _Y, _Z, _W
    one = MultiPolyQ.one(VARS4)
    if name == "E22":
        return [
            (y * _q4(-2 * (4 * b + 6 * c + 1)), (0, 1), (0, 0, 0, 0)),
            ((w * y * z - _q4(2 * b + 4 * c + 2)) * _q4(-2 * (4 * b + 6 * c + 1)), (1, 0), (0, 0, 0, 0)),
            ((w - 1) * (y - 1), (0, 0), (0, -2, 0, -2)),
            (w * y * (z - 1) * _q4(-2 * b), (0, 0), (0, 0, -4, 0)),
        ]
    if name == "E23":
        return [
            (-_q4(-2 * (4 * b + 6 * c + 1)) * one, (0, 1), (0, 0, 0, 0)),
            (-w * z * _q4(-2 * (4 * b + 6 * c + 1)), (1, 0), (0, 0, 0, 0)),
            (w * x * (y - 1) * z * _q4(-2 * (b + 2 * c)), (0, 0), (0, -2, 0, 0)),
            ((w - 1) * (x - 1), (0, 0), (-4, 0, 0, -2)),
            (w * (x - 1) * (z - 1) * _q4(-2 * b), (0, 0), (-4, 2, -4, 0)),
        ]
    if name == "E24":
        return [
            (w * y * z * _q4(-2 * (b + 2 * c)) - 1, (0, 0), (0, 0, 0, 0)),
            ((1 - w), (0, 0), (0, 0, 0, -2)),
            (-w * (z - 1) * _q4(-2 * b), (0, 0), (0, 2, -4, 0)),
            (-w * (y - 1) * z * _q4(-2 * (b + 2 * c)), (0, 0), (4, -2, 0, 0)),
        ]
    if name == "E32":
        big = _q4(4 * (b + c)) - x * y * y * z
        return [
            (_q4(-6 * b - 8 * c) * (_q4(2 * (b + 2 * c)) - w * y * z) * big, (0, 0), (0, 0, 0, 0)),
            (-y * (_q4(2 * b) - 1) * _q4(-8 * (b + c)) * big, (-1, 1), (0, 0, 0, 0)),
            (-y * z * _q4(-8 * (b + c)), (1, 0), (0, 0, 0, 0)),
            ((y - 1), (0, 0), (0, -2, 0, 0)),
            (y * (z - 1) * _q4(-2 * b), (0, 0), (0, 0, -4, 2)),
        ]
    if name == "E33":
        big = _q4(4 * (b + c)) - x * y * y * z
        return [
            (w * z * _q4(-6 * b - 8 * c) * big, (0, 0), (0, 0, 0, 0)),
            ((_q4(2 * b) - 1) * _q4(-8 * (b + c)) * big, (-1, 1), (0, 0, 0, 0)),
            (z * _q4(-8 * (b + c)), (1, 0), (0, 0, 0, 0)),
            ((x - 1), (0, 0), (-4, 0, 0, 0)),
            (x * (y - 1) * z * _q4(-2 * (b + 2 * c)), (0, 0), (0, -2, 0, 2)),
            ((x - 1) * (z - 1) * _q4(-2 * b), (0, 0), (-4, 2, -4, 2)),
        ]
    if name == "E34":
        return [
            (y * z * _q4(-2 * (b + 2 * c)) - 1, (0, 0), (0, 0, 0, 0)),
            (
                z * (_q4(4 * c) - 1) * _q4(-2 * (b + 2 * c + 1))
                * (_q4(2 * (b + 2 * c)) - w * y * z * _q4(2)),
                (1, -1),
                (0, 0, 0, 0),
            ),
            (
                (_q4(2 * b) - 1) * _q4(-2 * b)
                * (_q4(2 * (b + 2 * c - 1)) - w * y * z)
                * (_q4(4 * (b + c - 1)) - x * y * y * z),
                (-1, 0),
                (0, 0, 0, 0),
            ),
            (-(z - 1) * _q4(-2 * b), (0, 0), (0, 2, -4, 2)),
            (-(y - 1) * z * _q4(-2 * (b + 2 * c)), (0, 0), (4, -2, 0, 2)),
        ]
    if name == "E35":
        return [
            (-w * z * (_q4(4 * c) - 1), (1, -1), (0, 0, 0, 0)),
            (-one, (0, 0), (0, 0, 0, 2)),
            (
                -w * (_q4(2 * b) - 1) * _q4(4 * c) * (_q4(4 * (b + c - 1)) - x * y * y * z),
                (-1, 0),
                (0, 0, 0, 0),
            ),
            (one, (0, 0), (0, 0, 0, 0)),
        ]
    if name == "E42":
        return [
            (x * y * y * (_q4(2 * b) - 1), (-1, 1), (0, 0, 0, 0)),
            (x * y * _q4(2 * b) * (w * y * z - _q4(2 * (b + 2 * c))), (0, 0), (0, 0, 0, 0)),
            (-(w - 1) * _q4(6 * b + 8 * c), (0, 0), (0, 0, 0, -2)),
            (-one, (1, 0), (0, 0, 0, 0)),
        ]
    if name == "E43":
        return [
            (x * y * y * (1 - _q4(2 * b)), (-1, 1), (0, 0, 0, 0)),
            (w * x * y * _q4(2 * b) * (_q4(2 * (b + 2 * c)) - y * z), (0, 0), (0, 0, 0, 0)),
            (-(w - 1) * x * (y - 1) * _q4(6 * b + 4 * c), (0, 0), (0, -2, 4, -2)),
            (-(w - 1) * (x - 1) * _q4(6 * b + 8 * c), (0, 0), (-4, 2, 0, -2)),
            (one, (1, 0), (0, 0, 0, 0)),
        ]
    if name == "E44":
        return [
            ((_q4(4 * c) - 1) * (_q4(2 * (b + 2 * c - 1)) - w * y * z), (1, -1), (0, 0, 0, 0)),
            (-w * y * _q4(-2 * b), (0, 0), (4, 0, 0, 0)),
            (
                x * y * y * (_q4(2 * b) - 1) * _q4(4 * c)
                * (w * y * z - _q4(2 * (b + 2 * c - 1))),
                (-1, 0),
                (0, 0, 0, 0),
            ),
            ((w - 1) * _q4(4 * c), (0, 0), (0, 2, 0, -2)),
            ((w - 1) * (y - 1), (0, 0), (4, -2, 4, -2)),
            (y, (0, 0), (0, 0, 0, 0)),
        ]
    if name == "E45":
        return [
            (w * x * y * y * z * (_q4(2 * b) - 1) * _q4(4 * c), (-1, 0), (0, 0, 0, 0)),
            (-w * z * (_q4(4 * c) - 1), (1, -1), (0, 0, 0, 0)),
            (-w * _q4(-2 * b), (0, 0), (0, 2, 0, 0)),
            ((w - 1), (0, 0), (0, 0, 4, -2)),
            (one, (0, 0), (0, 0, 0, 0)),
        ]
    if name == "E53":
        return [
            (-x * y * _q4(-2 * (b + 2 * c)), (0, 0), (0, 0, 0, 2)),
            ((x - 1), (0, 0), (-4, 2, 0, 0)),
            (x * (y - 1) * _q4(-4 * c), (0, 0), (0, -2, 4, 0)),
            (one, (0, 0), (0, 0, 0, 0)),
        ]
    if name == "E54":
        return [
            (y * (_q4(2 * b) - 1), (-1, 0), (0, 0, 0, 0)),
            (
                _q4(2 * b) * (_q4(4 * c) - 1) * (_q4(2 * (b + 2 * c - 2)) - w * y * z),
                (0, -1),
                (0, 0, 0, 0),
            ),
            (-_q4(-4 * b - 4 * c + 6) * one, (0, 0), (0, 2, 0, 0)),
            (y * _q4(-6 * b - 8 * c + 6), (0, 0), (4, 0, 0, 2)),
            (-(y - 1) * _q4(-4 * b - 8 * c + 6), (0, 0), (4, -2, 4, 0)),
        ]
    if name == "E55":
        return [
            (-w * z * _q4(2 * b) * (_q4(4 * c) - 1), (0, -1), (0, 0, 0, 0)),
            ((_q4(2 * b) - 1), (-1, 0), (0, 0, 0, 0)),
            (-_q4(-4 * b - 8 * c + 6) * one, (0, 0), (0, 0, 4, 0)),
            (_q4(-6 * b - 8 * c + 6) * one, (0, 0), (0, 2, 0, 2)),
        ]
    raise DomainError(f"unknown relation {name!r}")


def e_residual(name: str, b: int, c: int) -> MultiPolyQ:
    terms = e_relation_terms(name, b, c)
    return shift_sum(VARS4, ((k, q_polynomial(b + db, c + dc), s) for k, (db, dc), s in terms))


def verify_e(name: str, b: int, c: int) -> VerificationReport:
    """One difference equation at one (b, c), as an exact polynomial identity."""
    rep = VerificationReport(f"{name} at (b,c)=({b},{c})")
    residual = e_residual(name, b, c)
    if residual.is_zero:
        rep.count()
    else:
        exps = min(residual.monomial_exponents())
        rep.record(
            False,
            f"{name} at ({b},{c}): surviving monomial {exps}",
            str(residual.coeff(exps)),
            "0",
        )
    return rep


def verify_e_all(max_b: int, max_c: int) -> VerificationReport:
    rep = VerificationReport(f"E relations for b<={max_b}, c<={max_c}")
    for name in E_RELATION_IDS:
        for b in range(max_b + 1):
            for c in range(max_c + 1):
                rep.absorb(verify_e(name, b, c))
    return rep


def verify_bridge_recursion(
    a: int, b: int, c: int, d: int, i: int, j: int, k: int, l: int
) -> VerificationReport:
    """Element-level recursion bridging operator relations and E equations:

    q^{b+2c}(1-q^{2d+2}) K^{a,b,c,d+1}_{i,j,k,l}
      = q^{2k+l}(1-q^{2j}) K^{a,b,c,d}_{i+1,j-1,k,l}
      + q^{2i+l}(1-q^{4k}) K^{a,b,c,d}_{i,j+1,k-1,l}
      + q^{2i+j}(1-q^{2l}) K^{a,b,c,d}_{i,j,k,l-1}.
    """
    rep = VerificationReport(f"element recursion at {(a, b, c, d, i, j, k, l)}")
    lhs = (
        k_element(a, b, c, d + 1, i, j, k, l).shifted(b + 2 * c)
        * (1 - LaurentQ.monomial(2 * d + 2))
    )
    rhs = (
        k_element(a, b, c, d, i + 1, j - 1, k, l).shifted(2 * k + l)
        * (1 - LaurentQ.monomial(2 * j))
        + k_element(a, b, c, d, i, j + 1, k - 1, l).shifted(2 * i + l)
        * (1 - LaurentQ.monomial(4 * k))
        + k_element(a, b, c, d, i, j, k, l - 1).shifted(2 * i + j)
        * (1 - LaurentQ.monomial(2 * l))
    )
    rep.record(lhs == rhs, f"bridge at {(a, b, c, d, i, j, k, l)}", str(lhs), str(rhs))
    return rep


clear_caches = memo.clear
