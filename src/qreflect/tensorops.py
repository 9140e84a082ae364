"""Typed Fock tensor products and the operator-level equation verifiers.

Basis states are tuples of occupation numbers, one per tensor factor, and
each factor carries a deformation type: Q1 (oscillators a+, a-, k acting
with powers of q) or Q2 (A+, A-, K acting with powers of q^2).  K acts
only on a (Q2,Q1,Q2,Q1) quartet of factors and R only on a (Q1,Q1,Q1)
triple.

Applying R or K to a basis vector is exactly finite: the weight deltas
confine the output to a single finite block, so there is no truncation
parameter anywhere and every verification below is an exact identity of
sparse vectors with Laurent polynomial coefficients.

The nine-space signature used by the reflection-equation verifier,
(Q2,Q1,Q2,Q1,Q1,Q1,Q2,Q1,Q1), is the unique assignment making all three
K placements {1234, 1678, 3579} type (Q2,Q1,Q2,Q1) and all four R
placements {456, 489, 269, 258} type (Q1,Q1,Q1) simultaneously: the K
placements force 1,3,7 -> Q2 and 2,4,6,8,5,9 by overlap, and every R
placement lands on the Q1 positions so determined.
"""

from __future__ import annotations

import random
from enum import Enum
from itertools import combinations, product
from typing import Callable, Iterable, Sequence

from .exactq import DomainError, LaurentQ
from .report import VerificationReport
from .threedk import k_element
from .threedr import r_element


class SpaceType(Enum):
    Q1 = 1
    Q2 = 2


Q1 = SpaceType.Q1
Q2 = SpaceType.Q2

K_SIGNATURE = (Q2, Q1, Q2, Q1)
R_SIGNATURE = (Q1, Q1, Q1)
TETRAHEDRON_SIGNATURE = (Q1,) * 6
REFLECTION_SIGNATURE = (Q2, Q1, Q2, Q1, Q1, Q1, Q2, Q1, Q1)

# Generator names and the space type each one requires.
_GENERATOR_TYPES = {
    "a+": Q1, "a-": Q1, "k": Q1,
    "A+": Q2, "A-": Q2, "K": Q2,
    "1": None,
}


class SparseVector:
    """Finite linear combination of basis states over one signature."""

    __slots__ = ("signature", "terms")

    def __init__(
        self,
        signature: tuple[SpaceType, ...],
        terms: dict[tuple[int, ...], LaurentQ] | None = None,
    ):
        self.signature = signature
        self.terms: dict[tuple[int, ...], LaurentQ] = {}
        if terms:
            for occ, coeff in terms.items():
                if not coeff.is_zero:
                    self.terms[tuple(occ)] = coeff

    @staticmethod
    def unit(signature: tuple[SpaceType, ...], occ: Sequence[int]) -> SparseVector:
        return SparseVector(signature, {tuple(occ): LaurentQ.one()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self.signature == other.signature and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: SparseVector) -> SparseVector:
        if self.signature != other.signature:
            raise DomainError("adding vectors over different signatures")
        out = dict(self.terms)
        for occ, coeff in other.terms.items():
            s = out.get(occ)
            s = coeff if s is None else s + coeff
            if s.is_zero:
                out.pop(occ, None)
            else:
                out[occ] = s
        result = SparseVector(self.signature)
        result.terms = out
        return result

    def __sub__(self, other: SparseVector) -> SparseVector:
        return self + other.scaled(LaurentQ.integer(-1))

    def scaled(self, scalar: LaurentQ) -> SparseVector:
        result = SparseVector(self.signature)
        if not scalar.is_zero:
            result.terms = {occ: coeff * scalar for occ, coeff in self.terms.items()}
        return result

    def first_difference(
        self, other: SparseVector
    ) -> tuple[tuple[int, ...], LaurentQ, LaurentQ] | None:
        keys = set(self.terms) | set(other.terms)
        zero = LaurentQ.zero()
        for occ in sorted(keys):
            a = self.terms.get(occ, zero)
            b = other.terms.get(occ, zero)
            if a != b:
                return (occ, a, b)
        return None

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"({coeff})*|{','.join(map(str, occ))}>"
            for occ, coeff in sorted(self.terms.items())
        )


# -- generator actions -----------------------------------------------------------


def _generator_action(gen: str, m: int, space: SpaceType) -> tuple[int, LaurentQ] | None:
    """(new occupation, coefficient) of gen acting on |m>, or None if it kills it."""
    step = 1 if space is Q1 else 2
    if gen == "1":
        return (m, LaurentQ.one())
    if gen in ("k", "K"):
        return (m, LaurentQ.monomial(step * m))
    if gen in ("a+", "A+"):
        return (m + 1, LaurentQ.one())
    # a-|0> = 0 via the vanishing coefficient (1 - q^0).
    coeff = 1 - LaurentQ.monomial(2 * step * m)
    if coeff.is_zero:
        return None
    return (m - 1, coeff)


def apply_generator(gen: str, vec: SparseVector, pos: int) -> SparseVector:
    """Apply one q-oscillator generator at one tensor position; exact."""
    required = _GENERATOR_TYPES.get(gen)
    if required is None and gen != "1":
        raise DomainError(f"unknown generator {gen!r}")
    space = vec.signature[pos]
    if required is not None and space is not required:
        raise DomainError(f"generator {gen!r} cannot act on a {space.name} factor")
    out = SparseVector(vec.signature)
    terms = out.terms
    for occ, coeff in vec.terms.items():
        action = _generator_action(gen, occ[pos], space)
        if action is None:
            continue
        new_m, factor = action
        new_occ = occ[:pos] + (new_m,) + occ[pos + 1 :]
        contrib = coeff * factor
        s = terms.get(new_occ)
        s = contrib if s is None else s + contrib
        if s.is_zero:
            terms.pop(new_occ, None)
        else:
            terms[new_occ] = s
    return out


def apply_word(gens: Sequence[str], vec: SparseVector, positions: Sequence[int]) -> SparseVector:
    """Apply a tensor product of generators at the given positions."""
    for gen, pos in zip(gens, positions):
        if gen != "1":
            vec = apply_generator(gen, vec, pos)
    return vec


# -- R and K application -----------------------------------------------------------

RLocal = Callable[[int, int, int, int, int, int], LaurentQ]
KLocal = Callable[..., LaurentQ]

_R_LOCAL_CACHE: dict[tuple[int, int, int], tuple] = {}
_K_LOCAL_CACHE: dict[tuple[int, int, int, int], tuple] = {}


def _r_local(i: int, j: int, k: int, element: RLocal | None) -> tuple:
    """Nonzero (output occupations, coefficient) pairs of R on |i,j,k>."""
    if element is None:
        cached = _R_LOCAL_CACHE.get((i, j, k))
        if cached is not None:
            return cached
        fn = r_element
    else:
        fn = element
    m, n = i + j, j + k
    outs = []
    for bb in range(min(m, n) + 1):
        out = (m - bb, bb, n - bb)
        value = fn(*out, i, j, k)
        if not value.is_zero:
            outs.append((out, value))
    result = tuple(outs)
    if element is None:
        _R_LOCAL_CACHE[(i, j, k)] = result
    return result


def _k_local(i: int, j: int, k: int, l: int, element: KLocal | None) -> tuple:
    """Nonzero (output occupations, coefficient) pairs of K on |i,j,k,l>."""
    if element is None:
        cached = _K_LOCAL_CACHE.get((i, j, k, l))
        if cached is not None:
            return cached
        fn = k_element
    else:
        fn = element
    m, n = i + j + k, j + 2 * k + l
    outs = []
    for c in range(min(m, n // 2) + 1):
        for b in range(min(m - c, n - 2 * c) + 1):
            out = (m - b - c, b, c, n - b - 2 * c)
            value = fn(*out, i, j, k, l)
            if not value.is_zero:
                outs.append((out, value))
    result = tuple(outs)
    if element is None:
        _K_LOCAL_CACHE[(i, j, k, l)] = result
    return result


def _check_positions(
    vec: SparseVector, positions: Sequence[int], wanted: tuple[SpaceType, ...]
) -> None:
    got = tuple(vec.signature[p] for p in positions)
    if got != wanted:
        raise DomainError(
            f"signature at positions {tuple(positions)} is "
            f"{tuple(s.name for s in got)}, need {tuple(s.name for s in wanted)}"
        )


def apply_R(
    vec: SparseVector, positions: Sequence[int], element: RLocal | None = None
) -> SparseVector:
    """Apply R at three Q1 positions; finite by weight conservation."""
    _check_positions(vec, positions, R_SIGNATURE)
    p0, p1, p2 = positions
    out = SparseVector(vec.signature)
    terms = out.terms
    for occ, coeff in vec.terms.items():
        for local, value in _r_local(occ[p0], occ[p1], occ[p2], element):
            new_occ = list(occ)
            new_occ[p0], new_occ[p1], new_occ[p2] = local
            new_occ = tuple(new_occ)
            contrib = coeff * value
            s = terms.get(new_occ)
            s = contrib if s is None else s + contrib
            if s.is_zero:
                terms.pop(new_occ, None)
            else:
                terms[new_occ] = s
    return out


def apply_K(
    vec: SparseVector, positions: Sequence[int], element: KLocal | None = None
) -> SparseVector:
    """Apply K at a (Q2,Q1,Q2,Q1) quartet of positions; exactly finite."""
    _check_positions(vec, positions, K_SIGNATURE)
    p0, p1, p2, p3 = positions
    out = SparseVector(vec.signature)
    terms = out.terms
    for occ, coeff in vec.terms.items():
        for local, value in _k_local(occ[p0], occ[p1], occ[p2], occ[p3], element):
            new_occ = list(occ)
            new_occ[p0], new_occ[p1], new_occ[p2], new_occ[p3] = local
            new_occ = tuple(new_occ)
            contrib = coeff * value
            s = terms.get(new_occ)
            s = contrib if s is None else s + contrib
            if s.is_zero:
                terms.pop(new_occ, None)
            else:
                terms[new_occ] = s
    return out


def zeroed_key(fn: Callable[..., LaurentQ], key: tuple[int, ...]) -> Callable[..., LaurentQ]:
    """Wrap an element function, forcing one key to zero (negative control)."""

    def corrupted(*args: int) -> LaurentQ:
        if tuple(args) == key:
            return LaurentQ.zero()
        return fn(*args)

    return corrupted


# -- generator intertwining relations for K ------------------------------------------
#
# Each relation <ij> states (sum of scalar * generator words) K
#                        = K (sum of scalar * generator words),
# with words given per tensor slot 1..4; commutators are encoded by using
# the same word list on both sides.

_Q1_ = LaurentQ.one()
_MQ1 = LaurentQ.monomial(1, -1)   # -q
_MQ2 = LaurentQ.monomial(2, -1)   # -q^2

KTerm = tuple[LaurentQ, tuple[str, str, str, str]]

INTERTWINER_RELATIONS: dict[str, tuple[tuple[KTerm, ...], tuple[KTerm, ...]]] = {
    "22": (
        ((_Q1_, ("1", "a-", "1", "a-")), (_MQ1, ("1", "k", "A-", "k"))),
        ((_Q1_, ("1", "a-", "1", "a-")), (_MQ1, ("1", "k", "A-", "k"))),
    ),
    "23": (
        ((_Q1_, ("1", "a-", "1", "k")), (_Q1_, ("1", "k", "A-", "a+"))),
        (
            (_Q1_, ("A-", "a+", "A-", "k")),
            (_Q1_, ("A-", "k", "1", "a-")),
            (_MQ2, ("K", "a-", "K", "k")),
        ),
    ),
    "24": (
        ((_Q1_, ("1", "k", "K", "a-")),),
        (
            (_Q1_, ("A+", "a-", "K", "k")),
            (_Q1_, ("K", "a+", "A-", "k")),
            (_Q1_, ("K", "k", "1", "a-")),
        ),
    ),
    "25": (
        ((_Q1_, ("1", "k", "K", "k")),),
        ((_Q1_, ("1", "k", "K", "k")),),
    ),
    "32": (
        (
            (_Q1_, ("A-", "a+", "A-", "k")),
            (_Q1_, ("A-", "k", "1", "a-")),
            (_MQ2, ("K", "a-", "K", "k")),
        ),
        ((_Q1_, ("1", "a-", "1", "k")), (_Q1_, ("1", "k", "A-", "a+"))),
    ),
    "33": (
        (
            (_Q1_, ("A-", "a+", "A-", "a+")),
            (_MQ1, ("A-", "k", "1", "k")),
            (_MQ2, ("K", "a-", "K", "a+")),
        ),
        (
            (_Q1_, ("A-", "a+", "A-", "a+")),
            (_MQ1, ("A-", "k", "1", "k")),
            (_MQ2, ("K", "a-", "K", "a+")),
        ),
    ),
    "34": (
        (
            (_Q1_, ("A-", "a+", "K", "a-")),
            (_Q1_, ("K", "a-", "A+", "a-")),
            (_MQ1, ("K", "k", "1", "k")),
        ),
        (
            (_Q1_, ("A+", "a-", "K", "a+")),
            (_Q1_, ("K", "a+", "A-", "a+")),
            (_MQ1, ("K", "k", "1", "k")),
        ),
    ),
    "35": (
        (
            (_Q1_, ("A-", "a+", "K", "k")),
            (_Q1_, ("K", "a-", "A+", "k")),
            (_Q1_, ("K", "k", "1", "a+")),
        ),
        ((_Q1_, ("1", "k", "K", "a+")),),
    ),
    "42": (
        (
            (_Q1_, ("A+", "a-", "K", "k")),
            (_Q1_, ("K", "a+", "A-", "k")),
            (_Q1_, ("K", "k", "1", "a-")),
        ),
        ((_Q1_, ("1", "k", "K", "a-")),),
    ),
    "43": (
        (
            (_Q1_, ("A+", "a-", "K", "a+")),
            (_Q1_, ("K", "a+", "A-", "a+")),
            (_MQ1, ("K", "k", "1", "k")),
        ),
        (
            (_Q1_, ("A-", "a+", "K", "a-")),
            (_Q1_, ("K", "a-", "A+", "a-")),
            (_MQ1, ("K", "k", "1", "k")),
        ),
    ),
    "44": (
        (
            (_Q1_, ("A+", "a-", "A+", "a-")),
            (_MQ1, ("A+", "k", "1", "k")),
            (_MQ2, ("K", "a+", "K", "a-")),
        ),
        (
            (_Q1_, ("A+", "a-", "A+", "a-")),
            (_MQ1, ("A+", "k", "1", "k")),
            (_MQ2, ("K", "a+", "K", "a-")),
        ),
    ),
    "45": (
        (
            (_Q1_, ("A+", "a-", "A+", "k")),
            (_Q1_, ("A+", "k", "1", "a+")),
            (_MQ2, ("K", "a+", "K", "k")),
        ),
        ((_Q1_, ("1", "a+", "1", "k")), (_Q1_, ("1", "k", "A+", "a-"))),
    ),
    "53": (
        ((_Q1_, ("1", "k", "K", "a+")),),
        (
            (_Q1_, ("A-", "a+", "K", "k")),
            (_Q1_, ("K", "a-", "A+", "k")),
            (_Q1_, ("K", "k", "1", "a+")),
        ),
    ),
    "54": (
        ((_Q1_, ("1", "a+", "1", "k")), (_Q1_, ("1", "k", "A+", "a-"))),
        (
            (_Q1_, ("A+", "a-", "A+", "k")),
            (_Q1_, ("A+", "k", "1", "a+")),
            (_MQ2, ("K", "a+", "K", "k")),
        ),
    ),
    "55": (
        ((_Q1_, ("1", "a+", "1", "a+")), (_MQ1, ("1", "k", "A+", "k"))),
        ((_Q1_, ("1", "a+", "1", "a+")), (_MQ1, ("1", "k", "A+", "k"))),
    ),
}

RELATION_ALIASES = {"52": "25"}


def verify_intertwiner(relation: str, occupations: Sequence[int]) -> VerificationReport:
    """One generator relation <ij> applied to one 4-fold basis state."""
    relation = RELATION_ALIASES.get(relation, relation)
    if relation not in INTERTWINER_RELATIONS:
        raise DomainError(f"unknown relation {relation!r}")
    lhs_terms, rhs_terms = INTERTWINER_RELATIONS[relation]
    vec = SparseVector.unit(K_SIGNATURE, occupations)
    positions = (0, 1, 2, 3)
    kvec = apply_K(vec, positions)
    lhs = SparseVector(K_SIGNATURE)
    for scalar, gens in lhs_terms:
        lhs = lhs + apply_word(gens, kvec, positions).scaled(scalar)
    rhs = SparseVector(K_SIGNATURE)
    for scalar, gens in rhs_terms:
        rhs = rhs + apply_K(apply_word(gens, vec, positions), positions).scaled(scalar)
    rep = VerificationReport(f"<{relation}> on {tuple(occupations)}")
    diff = lhs.first_difference(rhs)
    rep.record(
        diff is None,
        f"<{relation}> on {tuple(occupations)}"
        + (f", first difference at |{','.join(map(str, diff[0]))}>" if diff else ""),
        str(diff[1]) if diff else "",
        str(diff[2]) if diff else "",
    )
    return rep


def verify_intertwiners_all(max_occ: int) -> VerificationReport:
    rep = VerificationReport(f"all intertwiner relations, occupations <= {max_occ}")
    for occ in states_up_to(4, max_occ):
        for relation in INTERTWINER_RELATIONS:
            rep.absorb(verify_intertwiner(relation, occ))
    return rep


# -- the two 3D equations ---------------------------------------------------------

# Operator words, leftmost factor written first; application runs right to left.
TETRAHEDRON_LHS = ((2, 4, 5), (1, 3, 5), (0, 3, 4), (0, 1, 2))
TETRAHEDRON_RHS = ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5))

REFLECTION_LHS = (
    ("R", (3, 4, 5)),
    ("R", (3, 7, 8)),
    ("K", (2, 4, 6, 8)),
    ("R", (1, 5, 8)),
    ("R", (1, 4, 7)),
    ("K", (0, 5, 6, 7)),
    ("K", (0, 1, 2, 3)),
)
REFLECTION_RHS = tuple(reversed(REFLECTION_LHS))


def _apply_r_word(
    word: Iterable[tuple[int, int, int]],
    vec: SparseVector,
    element: RLocal | None,
) -> SparseVector:
    for positions in reversed(tuple(word)):
        vec = apply_R(vec, positions, element)
    return vec


def verify_tetrahedron(
    occupations: Sequence[int], element: RLocal | None = None
) -> VerificationReport:
    """Both fourfold R compositions agree on one 6-fold basis state."""
    vec = SparseVector.unit(TETRAHEDRON_SIGNATURE, occupations)
    lhs = _apply_r_word(TETRAHEDRON_LHS, vec, element)
    rhs = _apply_r_word(TETRAHEDRON_RHS, vec, element)
    rep = VerificationReport(f"tetrahedron on {tuple(occupations)}")
    diff = lhs.first_difference(rhs)
    rep.record(
        diff is None,
        f"tetrahedron on {tuple(occupations)}"
        + (f", first difference at |{','.join(map(str, diff[0]))}>" if diff else ""),
        str(diff[1]) if diff else "",
        str(diff[2]) if diff else "",
    )
    return rep


def _apply_mixed_word(
    word: Iterable[tuple[str, tuple[int, ...]]],
    vec: SparseVector,
    r_fn: RLocal | None,
    k_fn: KLocal | None,
) -> SparseVector:
    for kind, positions in reversed(tuple(word)):
        if kind == "R":
            vec = apply_R(vec, positions, r_fn)
        else:
            vec = apply_K(vec, positions, k_fn)
    return vec


def verify_reflection(
    occupations: Sequence[int],
    r_fn: RLocal | None = None,
    k_fn: KLocal | None = None,
) -> VerificationReport:
    """Both sevenfold compositions agree on one 9-fold basis state."""
    vec = SparseVector.unit(REFLECTION_SIGNATURE, occupations)
    lhs = _apply_mixed_word(REFLECTION_LHS, vec, r_fn, k_fn)
    rhs = _apply_mixed_word(REFLECTION_RHS, vec, r_fn, k_fn)
    rep = VerificationReport(f"reflection on {tuple(occupations)}")
    diff = lhs.first_difference(rhs)
    rep.record(
        diff is None,
        f"reflection on {tuple(occupations)}"
        + (f", first difference at |{','.join(map(str, diff[0]))}>" if diff else ""),
        str(diff[1]) if diff else "",
        str(diff[2]) if diff else "",
    )
    return rep


# -- input families ----------------------------------------------------------------


def states_up_to(arity: int, max_occ: int) -> list[tuple[int, ...]]:
    """All occupation tuples with every entry <= max_occ, lexicographic."""
    return sorted(product(range(max_occ + 1), repeat=arity))


def unit_states(arity: int, max_units: int) -> list[tuple[int, ...]]:
    """All 0/1 tuples with at most max_units ones, lexicographic."""
    out = []
    for count in range(max_units + 1):
        for ones in combinations(range(arity), count):
            occ = [0] * arity
            for p in ones:
                occ[p] = 1
            out.append(tuple(occ))
    return sorted(out)


def sample_unit_states(arity: int, count: int, seed: int) -> list[tuple[int, ...]]:
    """Seeded sample of 0/1 occupation tuples (occupations <= 1)."""
    rng = random.Random(seed)
    return [tuple(rng.randint(0, 1) for _ in range(arity)) for _ in range(count)]


def oscillator_relations_report(max_m: int) -> VerificationReport:
    """a+a- = 1 - k^2, a-a+ = 1 - q^2 k^2 termwise, and the q^2 analogues."""
    rep = VerificationReport(f"oscillator relations, m <= {max_m}")
    for space, (lower, raise_) in ((Q1, ("a-", "a+")), (Q2, ("A-", "A+"))):
        step = 2 if space is Q1 else 4
        for m in range(max_m + 1):
            vec = SparseVector.unit((space,), (m,))
            down_up = apply_generator(raise_, apply_generator(lower, vec, 0), 0)
            want = vec.scaled(1 - LaurentQ.monomial(step * m))
            rep.record(
                down_up == want, f"{raise_}{lower}|{m}> ({space.name})"
            )
            up_down = apply_generator(lower, apply_generator(raise_, vec, 0), 0)
            want = vec.scaled(1 - LaurentQ.monomial(step * (m + 1)))
            rep.record(
                up_down == want, f"{lower}{raise_}|{m}> ({space.name})"
            )
    return rep


def weight_conservation_report(max_occ: int) -> VerificationReport:
    """apply_R and apply_K outputs satisfy the weight deltas termwise."""
    rep = VerificationReport(f"weight conservation, occupations <= {max_occ}")
    for occ in states_up_to(3, max_occ):
        i, j, k = occ
        out = apply_R(SparseVector.unit(R_SIGNATURE, occ), (0, 1, 2))
        for (a, b, c), _ in out.terms.items():
            rep.record(
                a + b == i + j and b + c == j + k,
                f"R weight on {occ} -> {(a, b, c)}",
            )
    for occ in states_up_to(4, max_occ):
        i, j, k, l = occ
        out = apply_K(SparseVector.unit(K_SIGNATURE, occ), (0, 1, 2, 3))
        for (a, b, c, d), _ in out.terms.items():
            rep.record(
                a + b + c == i + j + k and b + 2 * c + d == j + 2 * k + l,
                f"K weight on {occ} -> {(a, b, c, d)}",
            )
    return rep


def clear_caches() -> None:
    _R_LOCAL_CACHE.clear()
    _K_LOCAL_CACHE.clear()
