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

R and K are two LocalOperators (name, factor types, conserved weights,
weight block enumerator, element function, memo table) applied by one
engine, apply_local.  The weights and blocks are threedr's r_weights and
r_block_states and threedk's k_weights and k_block_states, the one place
each weight block is written.  The memo table holds the nonzero column of
each local input seen, packed (exactq.PackedColumn), and is the only cache
of R and K elements; it sits in the package's one registry (memo), whose
single clear is every module's clear_caches.  apply_local supplies the
output keys and exactq.apply_columns does the arithmetic: one int multiply
and one shift-add per matrix element, and one LaurentQ per output.  One
sweep, verify_route_agreement, checks either operator's element routes
against each other block by block, through the one cross-check,
report.cross_check.  Vector sums, generator actions and the intertwiner
combinations collect their terms through exactq.accumulate, and operator
applications through exactq.apply_columns; both drop the cancelled ones.
All three equation verifiers report through compare_words, which names the
first basis state where the two sides differ.

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
from itertools import chain, combinations, product
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from . import memo
from .exactq import DomainError, LaurentQ, PackedColumn, accumulate, apply_columns
from .report import VerificationReport
from .threedk import k_block_states, k_element, k_weights
from .threedr import r_block_states, r_element, r_weights


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
    """Finite linear combination of basis states over one signature.

    Built from (basis state, coefficient) pairs by exactq.accumulate: the
    coefficients of equal states are added and cancelled states dropped.
    """

    __slots__ = ("signature", "terms")

    def __init__(
        self,
        signature: tuple[SpaceType, ...],
        pairs: Iterable[tuple[tuple[int, ...], LaurentQ]] = (),
    ):
        self.signature = signature
        self.terms: dict[tuple[int, ...], LaurentQ] = accumulate(pairs)

    @classmethod
    def summed(
        cls, signature: tuple[SpaceType, ...], terms: dict[tuple[int, ...], LaurentQ]
    ) -> SparseVector:
        """Wrap terms that are already summed, every coefficient nonzero."""
        vec = object.__new__(cls)
        vec.signature = signature
        vec.terms = terms
        return vec

    @staticmethod
    def unit(signature: tuple[SpaceType, ...], occ: Sequence[int]) -> SparseVector:
        return SparseVector(signature, [(tuple(occ), LaurentQ.one())])

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
        return SparseVector(self.signature, chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: SparseVector) -> SparseVector:
        return self + other.scaled(LaurentQ.integer(-1))

    def scaled(self, scalar: LaurentQ) -> SparseVector:
        terms = self.terms.items() if scalar else ()
        return SparseVector(self.signature, ((occ, c * scalar) for occ, c in terms))

    def first_difference(
        self, other: SparseVector
    ) -> tuple[tuple[int, ...], LaurentQ, LaurentQ] | None:
        if self.terms == other.terms:
            return None
        zero = LaurentQ.zero()
        for occ in sorted(set(self.terms) | set(other.terms)):
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


def _generator_action(gen: str, m: int, space: SpaceType) -> tuple[tuple[int, LaurentQ], ...]:
    """The (new occupation, coefficient) of gen acting on |m>; none if it kills it."""
    step = 1 if space is Q1 else 2
    if gen == "1":
        return ((m, LaurentQ.one()),)
    if gen in ("k", "K"):
        return ((m, LaurentQ.monomial(step * m)),)
    if gen in ("a+", "A+"):
        return ((m + 1, LaurentQ.one()),)
    # a-|0> = 0 via the vanishing coefficient (1 - q^0).
    coeff = 1 - LaurentQ.monomial(2 * step * m)
    if coeff.is_zero:
        return ()
    return ((m - 1, coeff),)


def apply_generator(gen: str, vec: SparseVector, pos: int) -> SparseVector:
    """Apply one q-oscillator generator at one tensor position; exact."""
    required = _GENERATOR_TYPES.get(gen)
    if required is None and gen != "1":
        raise DomainError(f"unknown generator {gen!r}")
    space = vec.signature[pos]
    if required is not None and space is not required:
        raise DomainError(f"generator {gen!r} cannot act on a {space.name} factor")
    pairs = (
        (occ[:pos] + (new_m,) + occ[pos + 1 :], coeff * factor)
        for occ, coeff in vec.terms.items()
        for new_m, factor in _generator_action(gen, occ[pos], space)
    )
    return SparseVector(vec.signature, pairs)


def apply_word(gens: Sequence[str], vec: SparseVector, positions: Sequence[int]) -> SparseVector:
    """Apply a tensor product of generators at the given positions."""
    for gen, pos in zip(gens, positions):
        if gen != "1":
            vec = apply_generator(gen, vec, pos)
    return vec


# -- R and K application -----------------------------------------------------------

# A matrix element function: element(*out, *inp).
ElementFn = Callable[..., LaurentQ]


class LocalOperator(NamedTuple):
    """An operator on a few tensor factors, finite on each weight block.

    weights maps local occupations to the block they lie in, states lists
    that block, element(*out, *inp, route=...) is one matrix element and
    table holds the packed column (exactq.PackedColumn: the nonzero
    entries, their width, stride, bound, slot count and ceil(log2 |block|))
    of each local input seen so far.
    """

    name: str
    signature: tuple[SpaceType, ...]
    weights: Callable[..., tuple[int, int]]
    states: Callable[[int, int], list[tuple[int, ...]]]
    element: ElementFn
    table: dict


# The element functions are looked up at call time, so that a function
# patched into this module's namespace is the one that runs.
R_OPERATOR = LocalOperator(
    "R",
    R_SIGNATURE,
    r_weights,
    r_block_states,
    lambda *key, **kw: r_element(*key, **kw),
    memo.table("R_local"),
)
K_OPERATOR = LocalOperator(
    "K",
    K_SIGNATURE,
    k_weights,
    k_block_states,
    lambda *key, **kw: k_element(*key, **kw),
    memo.table("K_local"),
)


def apply_local(
    op: LocalOperator,
    vec: SparseVector,
    positions: Sequence[int],
    element: ElementFn | None = None,
) -> SparseVector:
    """Apply op at the given positions; exactly finite by weight conservation.

    An element function given here replaces op.element (a negative control
    passes a corrupted one); its columns are memoized for this call only,
    so a corrupted column never reaches op.table.
    """
    gather = itemgetter(*positions)
    got = gather(vec.signature)
    if got != op.signature:
        raise DomainError(
            f"signature at positions {tuple(positions)} is "
            f"{tuple(s.name for s in got)}, need {tuple(s.name for s in op.signature)}"
        )
    # occ + local lists the whole state, then the new local occupations;
    # scatter picks each position's entry from it.
    size = len(vec.signature)
    slots = list(range(size))
    for offset, p in enumerate(positions, size):
        slots[p] = offset
    scatter = itemgetter(*slots)
    table, element = (op.table, op.element) if element is None else ({}, element)
    terms = []
    for occ, coeff in vec.terms.items():
        inp = gather(occ)
        column = table.get(inp)
        if column is None:
            block = op.states(*op.weights(*inp))
            pairs = [(o, element(*o, *inp)) for o in block]
            column = table[inp] = PackedColumn(pairs, len(block))
        terms.append((coeff, column, occ, column.los))

    def keys(occ, outs):
        return map(scatter, map(occ.__add__, outs))

    return SparseVector.summed(vec.signature, apply_columns(terms, keys))


def apply_R(
    vec: SparseVector, positions: Sequence[int], element: ElementFn | None = None
) -> SparseVector:
    """Apply R at three Q1 positions; finite by weight conservation."""
    return apply_local(R_OPERATOR, vec, positions, element)


def apply_K(
    vec: SparseVector, positions: Sequence[int], element: ElementFn | None = None
) -> SparseVector:
    """Apply K at a (Q2,Q1,Q2,Q1) quartet of positions; exactly finite."""
    return apply_local(K_OPERATOR, vec, positions, element)


def verify_route_agreement(
    op: LocalOperator, route: str, max_m: int, max_n: int
) -> VerificationReport:
    """op.element's cross-checking route passes on every key of every block
    with m <= max_m, n <= max_n ("all" for R, "both" for K)."""
    rep = VerificationReport(f"{op.name} route agreement, m<={max_m}, n<={max_n}")
    for m in range(max_m + 1):
        for n in range(max_n + 1):
            states = op.states(m, n)
            for out in states:
                for inp in states:
                    rep.attempt(op.element, *out, *inp, route=route)
    return rep


def zeroed_key(fn: ElementFn, key: tuple[int, ...]) -> ElementFn:
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
# with words given per tensor slot 1..4.  The five commutators have the
# same word list on both sides, and each remaining <ji> is <ij> with its
# two sides exchanged.

_Q1_ = LaurentQ.one()
_MQ1 = LaurentQ.monomial(1, -1)   # -q
_MQ2 = LaurentQ.monomial(2, -1)   # -q^2

KTerm = tuple[LaurentQ, tuple[str, str, str, str]]

_COMMUTATORS: dict[str, tuple[KTerm, ...]] = {
    "22": ((_Q1_, ("1", "a-", "1", "a-")), (_MQ1, ("1", "k", "A-", "k"))),
    "25": ((_Q1_, ("1", "k", "K", "k")),),
    "33": (
        (_Q1_, ("A-", "a+", "A-", "a+")),
        (_MQ1, ("A-", "k", "1", "k")),
        (_MQ2, ("K", "a-", "K", "a+")),
    ),
    "44": (
        (_Q1_, ("A+", "a-", "A+", "a-")),
        (_MQ1, ("A+", "k", "1", "k")),
        (_MQ2, ("K", "a+", "K", "a-")),
    ),
    "55": ((_Q1_, ("1", "a+", "1", "a+")), (_MQ1, ("1", "k", "A+", "k"))),
}

_EXCHANGES: dict[str, tuple[tuple[KTerm, ...], tuple[KTerm, ...]]] = {
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
    "45": (
        (
            (_Q1_, ("A+", "a-", "A+", "k")),
            (_Q1_, ("A+", "k", "1", "a+")),
            (_MQ2, ("K", "a+", "K", "k")),
        ),
        ((_Q1_, ("1", "a+", "1", "k")), (_Q1_, ("1", "k", "A+", "a-"))),
    ),
}

INTERTWINER_RELATIONS: dict[str, tuple[tuple[KTerm, ...], tuple[KTerm, ...]]] = dict(
    sorted(
        [(name, (terms, terms)) for name, terms in _COMMUTATORS.items()]
        + list(_EXCHANGES.items())
        + [(name[::-1], (rhs, lhs)) for name, (lhs, rhs) in _EXCHANGES.items()]
    )
)

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
    lhs = [(scalar, apply_word(gens, kvec, positions)) for scalar, gens in lhs_terms]
    rhs = [
        (scalar, apply_K(apply_word(gens, vec, positions), positions))
        for scalar, gens in rhs_terms
    ]
    return compare_words(
        f"<{relation}> on {tuple(occupations)}", _combination(lhs), _combination(rhs)
    )


def _combination(terms: list[tuple[LaurentQ, SparseVector]]) -> SparseVector:
    """The sum of scalar * vector over (scalar, vector) pairs on K's quartet."""
    return SparseVector(
        K_SIGNATURE,
        ((occ, c * scalar) for scalar, vec in terms for occ, c in vec.terms.items()),
    )


def verify_intertwiners_all(max_occ: int) -> VerificationReport:
    rep = VerificationReport(f"all intertwiner relations, occupations <= {max_occ}")
    for occ in states_up_to(4, max_occ):
        for relation in INTERTWINER_RELATIONS:
            rep.absorb(verify_intertwiner(relation, occ))
    return rep


# -- the two 3D equations ---------------------------------------------------------

# Operator words, leftmost factor written first; application runs right to left.
TETRAHEDRON_LHS = (
    ("R", (2, 4, 5)),
    ("R", (1, 3, 5)),
    ("R", (0, 3, 4)),
    ("R", (0, 1, 2)),
)
TETRAHEDRON_RHS = tuple(reversed(TETRAHEDRON_LHS))

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


def _apply_operator_word(
    word: Sequence[tuple[str, tuple[int, ...]]],
    vec: SparseVector,
    r_fn: ElementFn | None,
    k_fn: ElementFn | None,
) -> SparseVector:
    """Apply ("R" or "K", positions) factors to vec, the rightmost first."""
    for kind, positions in reversed(word):
        if kind == "R":
            vec = apply_R(vec, positions, r_fn)
        else:
            vec = apply_K(vec, positions, k_fn)
    return vec


def compare_words(name: str, lhs: SparseVector, rhs: SparseVector) -> VerificationReport:
    """One check that lhs = rhs, reporting the first basis state where they differ."""
    rep = VerificationReport(name)
    diff = lhs.first_difference(rhs)
    if diff is None:
        rep.record(True, name)
    else:
        occ, left, right = diff
        where = f"{name}, first difference at |{','.join(map(str, occ))}>"
        rep.record(False, where, str(left), str(right))
    return rep


def verify_tetrahedron(
    occupations: Sequence[int], element: ElementFn | None = None
) -> VerificationReport:
    """Both fourfold R compositions agree on one 6-fold basis state."""
    vec = SparseVector.unit(TETRAHEDRON_SIGNATURE, occupations)
    lhs = _apply_operator_word(TETRAHEDRON_LHS, vec, element, None)
    rhs = _apply_operator_word(TETRAHEDRON_RHS, vec, element, None)
    return compare_words(f"tetrahedron on {tuple(occupations)}", lhs, rhs)


def verify_reflection(
    occupations: Sequence[int], k_fn: ElementFn | None = None
) -> VerificationReport:
    """Both sevenfold compositions agree on one 9-fold basis state."""
    vec = SparseVector.unit(REFLECTION_SIGNATURE, occupations)
    lhs = _apply_operator_word(REFLECTION_LHS, vec, None, k_fn)
    rhs = _apply_operator_word(REFLECTION_RHS, vec, None, k_fn)
    return compare_words(f"reflection on {tuple(occupations)}", lhs, rhs)


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
    """R and K outputs stay in their input's weight block, termwise."""
    rep = VerificationReport(f"weight conservation, occupations <= {max_occ}")
    for op in (R_OPERATOR, K_OPERATOR):
        positions = tuple(range(len(op.signature)))
        for occ in states_up_to(len(positions), max_occ):
            out = apply_local(op, SparseVector.unit(op.signature, occ), positions)
            for local in out.terms:
                rep.record(
                    op.weights(*local) == op.weights(*occ),
                    f"{op.name} weight on {occ} -> {local}",
                )
    return rep


clear_caches = memo.clear
