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

A vector holds its basis states as ints (SparseVector).  With a field
width of w bits, site p's occupation sits in bits [w(n-1-p), w(n-p)) of
the code of an n-site state, site 0 in the most significant field, so the
codes of one width order as the occupation tuples do.  The width is a
proven bound, never a fixed number: a vector built from tuples starts at
the bit length of its largest occupation, and a factor's outputs lie in
its input's weight block (m, n), where no occupation exceeds max(m, n).
apply_local checks every column of a call against the width and first
widens all codes to the largest field a column needs, so no field ever
carries into the next.  The two equation verifiers start from the width of
that bound carried through both words (_word_unit), and no factor then
widens.  A vector's coefficients are the packed records of
exactq.apply_columns (lo, packed int and norm bounds at one slot width
and stride for the whole vector), so the factors of a word, and the sums
of vectors, pass them on as they are.  Decoding to tuples, and building
LaurentQ values, happens only at the edges: the terms view, str, and the
one basis state (and its two coefficients) first_difference reports.
first_difference and == compare records by (lo, packed int) when both
vectors share width and stride.

R, K and the six q-oscillator generators (GENERATORS, one site each) are
LocalOperators (name, factor types, block map, block enumerator, element
function, memo table) applied by one engine, apply_local.  R's and K's
blocks are threedr's r_weights and r_block_states and threedk's k_weights
and k_block_states, the one place each weight block is written; a
generator's block is the one state it maps its input to.  The memo table
holds the nonzero column of each local input seen, packed
(exactq.PackedColumn), and is the only cache of an operator's elements; it
sits in the package's one registry (memo), whose single clear is every
module's clear_caches.  A second registered table per operator, its
index, maps each layout (field width and the shifts of op's sites) and
local input code to that column, its outputs' codes and its exponents, so
a local input is decoded and looked up, and its out codes built, once per
layout.  apply_local clears op's fields of each input code once (base), so
an output's code is base plus its out code, and exactq.apply_columns does
the arithmetic: one int multiply, one shift-add and one int key per matrix
element, and one record per output.  One sweep, verify_blocks, checks R or
K block by block: its weights, its element routes against each other
(through the one cross-check, report.cross_check), its transpose symmetry
up to the operator's norm, and op^2 = 1.  Operator applications,
generators included, and sums of scaled vectors (combination: every +, -,
scaled and each side of an intertwiner relation) are each one
exactq.apply_columns call, which drops the cancelled terms; a scalar is a
one-entry column there.  Positions are checked once on every call
(_sites).  All three equation verifiers report through compare_words,
which names the first basis state where the two sides differ.

The nine-space signature used by the reflection-equation verifier,
(Q2,Q1,Q2,Q1,Q1,Q1,Q2,Q1,Q1), is the unique assignment making all three
K placements {1234, 1678, 3579} type (Q2,Q1,Q2,Q1) and all four R
placements {456, 489, 269, 258} type (Q1,Q1,Q1) simultaneously: the K
placements force 1,3,7 -> Q2 and 2,4,6,8,5,9 by overlap, and every R
placement lands on the Q1 positions so determined.
"""

from __future__ import annotations

from enum import Enum
from collections.abc import Mapping
from itertools import combinations, product
from operator import index, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import memo
from .exactq import (
    DomainError,
    LaurentQ,
    PackedColumn,
    _repack,
    accumulate,
    apply_columns,
    from_record,
    to_records,
)
from .report import VerificationError, VerificationReport
from .threedk import k_block_states, k_element, k_norm, k_weights
from .threedr import r_block_states, r_element, r_norm, r_weights


class SpaceType(Enum):
    Q1 = 1
    Q2 = 2


Q1 = SpaceType.Q1
Q2 = SpaceType.Q2

K_SIGNATURE = (Q2, Q1, Q2, Q1)
R_SIGNATURE = (Q1, Q1, Q1)
TETRAHEDRON_SIGNATURE = (Q1,) * 6
REFLECTION_SIGNATURE = (Q2, Q1, Q2, Q1, Q1, Q1, Q2, Q1, Q1)

class SparseVector:
    """Finite linear combination of basis states over one signature.

    Held as one dict from int-coded basis states to the packed records of
    their nonzero coefficients, with the field width of the code (see the
    module docstring) and the slot width w and stride s of every record.
    A record is [lo, packed int, ||.||_1 bound, ||.||_inf bound]
    (exactq.to_records), as exactq.apply_columns returns it, so a word's
    factors pass their coefficients on without building a LaurentQ, and so
    do +, - and scaled (one combination call each).  terms is a view keyed
    by occupation tuples that decodes its keys and builds a LaurentQ per
    value read.  Built from (basis state, coefficient) pairs by
    exactq.accumulate: the coefficients of equal states are added and
    cancelled states dropped.
    """

    __slots__ = ("signature", "_codes", "_width", "_w", "_s")

    def __init__(
        self,
        signature: tuple[SpaceType, ...],
        pairs: Iterable[tuple[tuple[int, ...], LaurentQ]] = (),
    ):
        # index() rejects a float or other non-integer occupation.
        terms = accumulate((tuple(map(index, occ)), c) for occ, c in pairs)
        width = 0
        for occ in terms:
            if len(occ) != len(signature) or min(occ, default=0) < 0:
                raise DomainError(
                    f"basis state {occ} is not {len(signature)} nonnegative occupations"
                )
            width = max(width, max(occ, default=0).bit_length())
        recs, self._w, self._s = to_records(list(terms.values()))
        self.signature, self._width = signature, width
        self._codes = {_encode(occ, width): rec for occ, rec in zip(terms, recs)}

    @classmethod
    def _coded(
        cls,
        signature: tuple[SpaceType, ...],
        codes: dict[int, list[int]],
        width: int,
        w: int,
        s: int,
    ) -> SparseVector:
        """Wrap summed coded records at slot width w and stride s, every one
        nonzero, every field < 2^width."""
        vec = object.__new__(cls)
        vec.signature, vec._codes, vec._width, vec._w, vec._s = signature, codes, width, w, s
        return vec

    @staticmethod
    def unit(signature: tuple[SpaceType, ...], occ: Sequence[int]) -> SparseVector:
        return SparseVector(signature, [(tuple(occ), LaurentQ.one())])

    @property
    def terms(self) -> Mapping[tuple[int, ...], LaurentQ]:
        return _Terms(self)

    @property
    def is_zero(self) -> bool:
        return not self._codes

    def _value(self, rec: list[int]) -> LaurentQ:
        return from_record(rec, self._w, self._s)

    def _differing(self, other: SparseVector) -> tuple[list[int], dict, dict, int]:
        """The codes where the two vectors differ, both vectors' codes and their field width.

        Records at one slot width and stride are equal values exactly when
        their (lo, packed int) are equal; at two, the values are built and
        compared.  Vectors over different signatures are a DomainError.
        """
        if self.signature != other.signature:
            raise DomainError("comparing vectors over different signatures")
        size, width = len(self.signature), max(self._width, other._width)
        mine = _widened(self._codes, size, self._width, width)
        theirs = _widened(other._codes, size, other._width, width)
        if (self._w, self._s) == (other._w, other._s):
            left = right = itemgetter(0, 1)
        else:
            left, right = self._value, other._value
        get = theirs.get
        diff, missing = [], 0
        for code, rec in mine.items():
            twin = get(code)
            if twin is None:
                missing += 1
                diff.append(code)
            elif left(rec) != right(twin):
                diff.append(code)
        if len(theirs) > len(mine) - missing:
            diff += theirs.keys() - mine.keys()
        return diff, mine, theirs, width

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self.signature == other.signature and not self._differing(other)[0]

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: SparseVector) -> SparseVector:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return combination([(LaurentQ.one(), self), (LaurentQ.one(), other)])

    def __sub__(self, other: SparseVector) -> SparseVector:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return combination([(LaurentQ.one(), self), (LaurentQ.integer(-1), other)])

    def scaled(self, scalar: LaurentQ) -> SparseVector:
        return combination([(scalar, self)])

    def first_difference(
        self, other: SparseVector
    ) -> tuple[tuple[int, ...], LaurentQ, LaurentQ] | None:
        """The smallest basis state where the two differ, and both coefficients.

        Codes order as their occupation tuples do, so the smallest differing
        code is the first differing state; only that one is decoded, and only
        its two coefficients become LaurentQ values.
        """
        diff, mine, theirs, width = self._differing(other)
        if not diff:
            return None
        code = min(diff)
        zero = LaurentQ.zero()
        left, right = mine.get(code), theirs.get(code)
        return (
            _decoder(len(self.signature), width)(code),
            zero if left is None else self._value(left),
            zero if right is None else other._value(right),
        )

    def __str__(self) -> str:
        if not self._codes:
            return "0"
        decode = _decoder(len(self.signature), self._width)
        return " + ".join(
            f"({self._value(rec)})*|{','.join(map(str, decode(code)))}>"
            for code, rec in sorted(self._codes.items())
        )


def combination(terms: Sequence[tuple[LaurentQ, SparseVector]]) -> SparseVector:
    """The sum of scalar * vector over (scalar, vector) pairs of one signature.

    One exactq.apply_columns call: each scalar is a one-entry PackedColumn
    at local code 0, and each record one term keyed by its code, at the
    widest field width, the widest slot width and the joint stride (so no
    coefficient becomes a LaurentQ).  An empty list, or vectors over two
    signatures, are a DomainError.
    """
    if not terms:
        raise DomainError("a combination of no vectors")
    signature = terms[0][1].signature
    if any([vec.signature != signature for _, vec in terms]):
        raise DomainError("adding vectors over different signatures")
    width = max([vec._width for _, vec in terms])
    w, s = max([vec._w for _, vec in terms]), min([vec._s for _, vec in terms])
    kernel = []
    for scalar, vec in terms:
        column = PackedColumn([(0, scalar)])
        hit, w0, s0 = (column, (0,), column.los), vec._w, vec._s
        for code, rec in _widened(vec._codes, len(signature), vec._width, width).items():
            if (w0, s0) != (w, s):
                rec = [rec[0], _repack(rec[1], w0, s0, w, s), *rec[2:]]
            kernel.append((rec, code.__add__, hit))
    out, w, s = apply_columns(kernel, map, w, s)
    return SparseVector._coded(signature, out, width, w, s)


class _Terms(Mapping):
    """A vector's terms keyed by occupation tuples, decoding its codes."""

    __slots__ = ("_vec",)

    def __init__(self, vec: SparseVector):
        self._vec = vec

    def __len__(self) -> int:
        return len(self._vec._codes)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        vec = self._vec
        return map(_decoder(len(vec.signature), vec._width), vec._codes)

    def __getitem__(self, occ: tuple[int, ...]) -> LaurentQ:
        vec = self._vec
        if (
            isinstance(occ, tuple)
            and len(occ) == len(vec.signature)
            and all(0 <= m < 1 << vec._width for m in occ)
        ):
            code = _encode(occ, vec._width)
            if code in vec._codes:
                return vec._value(vec._codes[code])
        raise KeyError(occ)


def _encode(occ: tuple[int, ...], width: int) -> int:
    """The code of a basis state: occupation p in field p, site 0 the most significant."""
    code = 0
    for m in occ:
        code = code << width | m
    return code


def _decoder(size: int, width: int) -> Callable[[int], tuple[int, ...]]:
    """The inverse of _encode for size sites at one field width."""
    return _fields(_shifts(size, width, range(size)), (1 << width) - 1)


def _shifts(size: int, width: int, positions: Iterable[int]) -> tuple[int, ...]:
    """The lowest bit of each position's field in the code of a size-site state."""
    return tuple([width * (size - 1 - p) for p in positions])


def _sites(positions: Sequence[int], size: int, count: int) -> tuple[int, ...]:
    """positions as count distinct sites in range(size), each read through
    operator.index and not a bool; DomainError if they are not."""
    try:
        given = tuple(positions)
        sites = tuple(map(index, given))
    except TypeError:
        given = sites = ()
    if (len(sites) != count or len(set(sites)) != count or min(sites) < 0 or max(sites) >= size
            or bool in map(type, given)):
        raise DomainError(f"need {count} distinct positions in range({size}), got {positions!r}")
    return sites


def _widened(codes: dict, size: int, width: int, new: int) -> dict:
    """codes re-encoded at fields of new >= width bits, in the same order."""
    if new == width:
        return codes
    decode = _decoder(size, width)
    return {_encode(decode(code), new): c for code, c in codes.items()}


# -- local operators: R, K and the generators ------------------------------------------

# A matrix element function: element(*out, *inp).
ElementFn = Callable[..., LaurentQ]


class LocalOperator(NamedTuple):
    """An operator on a few tensor factors, finite on each block.

    weights(*inp) names the block that op maps the local occupations inp
    into: for R and K the input's own weight block, since they conserve
    it, and for a generator the one state it maps inp to.  states(*block)
    lists that block, element(*out, *inp, route=...) is one matrix
    element, table holds the packed column (exactq.PackedColumn: the
    nonzero entries, their width, stride and true norms) of each local
    input seen so far, and index maps each layout (field width and the
    shifts of op's sites) to a dict from a local code seen at that layout
    to its column, the column's out codes there and its los.  route and
    norm serve verify_blocks, which sweeps R and K only: route is the
    element route that cross-checks all the others, and norm(*s) the
    normalisation N with op[out,inp] N(out) = op[inp,out] N(inp).  A
    generator has route "" and norm None.
    """

    name: str
    signature: tuple[SpaceType, ...]
    weights: Callable[..., tuple[int, ...]]
    states: Callable[..., list[tuple[int, ...]]]
    element: ElementFn
    route: str
    norm: Callable[..., LaurentQ] | None
    table: dict
    index: dict


# The element functions are looked up at call time, so that a function
# patched into this module's namespace is the one that runs.
R_OPERATOR = LocalOperator(
    "R",
    R_SIGNATURE,
    r_weights,
    r_block_states,
    lambda *key, **kw: r_element(*key, **kw),
    "all",
    r_norm,
    memo.table("R_local"),
    memo.table("R_index"),
)
K_OPERATOR = LocalOperator(
    "K",
    K_SIGNATURE,
    k_weights,
    k_block_states,
    lambda *key, **kw: k_element(*key, **kw),
    "both",
    k_norm,
    memo.table("K_local"),
    memo.table("K_index"),
)


def _generator(name: str, space: SpaceType, delta: int, coeff: Callable[[int], LaurentQ]):
    """The q-oscillator generator |m> -> coeff(m) |m + delta> on one site of type space."""
    return LocalOperator(
        name, (space,), lambda m: (m + delta,), lambda n: [(n,)] if n >= 0 else [],
        lambda out, m: coeff(m), "", None,
        memo.table(f"gen_{name}_local"), memo.table(f"gen_{name}_index"),
    )


# a+, a-, k on Q1 (step 1) and A+, A-, K on Q2 (step 2): a-|m> has the
# coefficient 1 - q^(2 step m), and a-|0> an empty column.
GENERATORS = {op.name: op for op in (
    _generator("a+", Q1, 1, lambda m: LaurentQ.one()),
    _generator("a-", Q1, -1, lambda m: 1 - LaurentQ.monomial(2 * m)),
    _generator("k", Q1, 0, LaurentQ.monomial),
    _generator("A+", Q2, 1, lambda m: LaurentQ.one()),
    _generator("A-", Q2, -1, lambda m: 1 - LaurentQ.monomial(4 * m)),
    _generator("K", Q2, 0, lambda m: LaurentQ.monomial(2 * m)),
)}


def apply_local(
    op: LocalOperator,
    vec: SparseVector,
    positions: Sequence[int],
    element: ElementFn | None = None,
) -> SparseVector:
    """Apply op at the given positions; exactly finite, as each input's column is one block.

    An element function given here replaces op.element (a negative control
    passes a corrupted one); its columns and their index are kept for this
    call only, so a corrupted column never reaches op.table or op.index.
    When a column has an output occupation too large for the vector's
    fields, every code is first widened to the largest field the call's
    columns need.  The vector's records go to exactq.apply_columns as they
    are, and its output records make the result: no LaurentQ is built.
    """
    size, sig = len(vec.signature), vec.signature
    positions = _sites(positions, size, len(op.signature))
    # itemgetter of one position returns the bare element, not a tuple.
    got = itemgetter(*positions)(sig) if len(positions) > 1 else (sig[positions[0]],)
    if got != op.signature:
        raise DomainError(
            f"signature at positions {tuple(positions)} is "
            f"{tuple(s.name for s in got)}, need {tuple(s.name for s in op.signature)}"
        )
    if element is None:
        table, index, element = op.table, op.index, op.element
    else:
        table, index = {}, {}
    codes, width = vec._codes, vec._width
    terms, need = _coded_terms(op, table, index, element, codes, size, width, positions)
    if need > width:
        codes, width = _widened(codes, size, width, need), need
        terms, need = _coded_terms(op, table, index, element, codes, size, width, positions)
        if need > width:
            raise VerificationError(
                f"{op.name} at {tuple(positions)} needs {need}-bit fields after widening to {width}"
            )
    # A term's prefix is its base's int add, so its keys are map(prefix, outs).
    out, w, s = apply_columns(terms, map, vec._w, vec._s)
    return SparseVector._coded(vec.signature, out, width, w, s)


def _coded_terms(op, table, index, element, codes, size, width, positions):
    """(apply_columns terms of op at positions on coded states, field width needed).

    A term is (record, base.__add__, hit): base is its state's code with
    op's fields cleared, an output's code is base plus its out code, and
    the hit is (column, out codes, column.los) of its local code.  index
    keeps the hit of each local code per layout (field width, op's field
    shifts), so a local code is decoded, looked up in table and given its
    out codes once per layout, when every output occupation fits the
    width.  A column that does not fit raises the width needed above
    width, and the terms are then not usable.
    """
    field = (1 << width) - 1
    shifts = _shifts(size, width, positions)
    local = sum([field << s for s in shifts])
    layout = (width, *shifts)
    hits = index.setdefault(layout, {})
    fields = _fields(shifts, field)
    need = width
    terms = []
    append = terms.append
    for code, rec in codes.items():
        lc = code & local
        hit = hits.get(lc)
        if hit is None:
            inp = fields(lc)
            column = table.get(inp)
            if column is None:
                block = op.states(*op.weights(*inp))
                column = table[inp] = PackedColumn([(o, element(*o, *inp)) for o in block])
            top = max(map(max, column.outs), default=0).bit_length()
            if top > width:
                # Not usable: the width needed is above width, and no hit is kept.
                need = max(need, top)
                hit = (column, (), column.los)
            else:
                outs = tuple([sum([m << s for m, s in zip(out, shifts)]) for out in column.outs])
                hit = hits[lc] = (column, outs, column.los)
        append((rec, (code ^ lc).__add__, hit))
    return terms, need


def _fields(shifts: tuple[int, ...], field: int) -> Callable[[int], tuple[int, ...]]:
    """The function from a code to its fields at shifts."""
    return lambda x: tuple([x >> s & field for s in shifts])


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


def apply_generator(gen: str, vec: SparseVector, pos: int) -> SparseVector:
    """Apply one q-oscillator generator (GENERATORS, or "1") at one tensor position; exact.

    apply_local checks a generator's position and factor type; "1" checks its position."""
    op = GENERATORS.get(gen)
    if op is not None:
        return apply_local(op, vec, (pos,))
    if gen != "1":
        raise DomainError(f"unknown generator {gen!r}")
    _sites((pos,), len(vec.signature), 1)
    return vec


def apply_word(gens: Sequence[str], vec: SparseVector, positions: Sequence[int]) -> SparseVector:
    """Apply a tensor product of generators at the given positions, one each."""
    if len(gens) != len(positions):
        raise DomainError(f"{len(gens)} generators at {len(positions)} positions")
    for gen, pos in zip(gens, positions):
        vec = apply_generator(gen, vec, pos)
    return vec


def zeroed_key(fn: ElementFn, key: tuple[int, ...]) -> ElementFn:
    """Wrap an element function, forcing one key to zero on every route
    (negative control)."""

    def corrupted(*args: int, **kw) -> LaurentQ:
        if tuple(args) == key:
            return LaurentQ.zero()
        return fn(*args, **kw)

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
    lhs = combination([(scalar, apply_word(gens, kvec, positions)) for scalar, gens in lhs_terms])
    rhs = combination([
        (scalar, apply_K(apply_word(gens, vec, positions), positions))
        for scalar, gens in rhs_terms
    ])
    return compare_words(f"<{relation}> on {tuple(occupations)}", lhs, rhs)


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


def verify_blocks(op: LocalOperator, max_m: int, max_n: int) -> VerificationReport:
    """op's identities on each weight block (m, n), m <= max_m, n <= max_n, in order:
    each state op.states lists has op.weights (m, n); each key's element routes
    agree (op.route, through report.cross_check); op[out,inp] N(out) =
    op[inp,out] N(inp) for out < inp, with N = op.norm; and op^2 = 1 on each
    unit vector.  op^2 is applied with the route check's values (zero where
    it failed) through apply_local's element override (zero off the block, as
    op is), so the sweep neither reads nor fills op.table: no bad column
    fools or outlives it.
    """
    rep = VerificationReport(f"{op.name} blocks, m<={max_m}, n<={max_n}")
    positions, zero = tuple(range(len(op.signature))), LaurentQ.zero()
    for m, n in product(range(max_m + 1), range(max_n + 1)):
        states = op.states(m, n)
        for s in states:
            got, where = op.weights(*s), f"{op.name} lists {s} in block ({m},{n})"
            rep.record(got == (m, n), where, str(got), str((m, n)))
        values = {
            (*out, *inp): rep.attempt(op.element, *out, *inp, route=op.route) or zero
            for out, inp in product(states, states)
        }
        for out, inp in combinations(states, 2):
            lhs = values[(*out, *inp)] * op.norm(*out)
            rhs = values[(*inp, *out)] * op.norm(*inp)
            rep.record(lhs == rhs, f"{op.name} transpose at {(*out, *inp)}", str(lhs), str(rhs))
        element = lambda *key: values.get(key, zero)
        for inp in states:
            unit = SparseVector.unit(op.signature, inp)
            twice = apply_local(op, apply_local(op, unit, positions, element), positions, element)
            rep.absorb(compare_words(f"{op.name}^2 on {inp}", twice, unit))
    return rep


def _word_unit(signature, occupations: Sequence[int], *words) -> SparseVector:
    """The unit vector of occupations, coded wide enough for every factor of the words.

    A factor's outputs lie in its input's weight block (m, n), whose
    occupations are at most max(m, n), and the weights grow with the
    occupations; so a bound per site, carried through a word factor by
    factor, bounds every occupation the word reaches.  No factor then
    widens the vector, and the words' results share one field width.
    """
    vec = SparseVector.unit(signature, occupations)
    width = vec._width
    for word in words:
        bound = list(map(index, occupations))
        for kind, positions in reversed(word):
            weights = (R_OPERATOR if kind == "R" else K_OPERATOR).weights
            top = max(weights(*[bound[p] for p in positions]))
            for p in positions:
                bound[p] = top
        width = max(width, max(bound).bit_length())
    codes = _widened(vec._codes, len(signature), vec._width, width)
    return SparseVector._coded(signature, codes, width, vec._w, vec._s)


def verify_tetrahedron(
    occupations: Sequence[int], element: ElementFn | None = None
) -> VerificationReport:
    """Both fourfold R compositions agree on one 6-fold basis state."""
    vec = _word_unit(TETRAHEDRON_SIGNATURE, occupations, TETRAHEDRON_LHS, TETRAHEDRON_RHS)
    lhs = _apply_operator_word(TETRAHEDRON_LHS, vec, element, None)
    rhs = _apply_operator_word(TETRAHEDRON_RHS, vec, element, None)
    return compare_words(f"tetrahedron on {tuple(occupations)}", lhs, rhs)


def verify_reflection(
    occupations: Sequence[int], k_fn: ElementFn | None = None
) -> VerificationReport:
    """Both sevenfold compositions agree on one 9-fold basis state."""
    vec = _word_unit(REFLECTION_SIGNATURE, occupations, REFLECTION_LHS, REFLECTION_RHS)
    lhs = _apply_operator_word(REFLECTION_LHS, vec, None, k_fn)
    rhs = _apply_operator_word(REFLECTION_RHS, vec, None, k_fn)
    return compare_words(f"reflection on {tuple(occupations)}", lhs, rhs)


# -- input families ----------------------------------------------------------------


def states_up_to(arity: int, max_occ: int) -> list[tuple[int, ...]]:
    """All occupation tuples with every entry <= max_occ, lexicographic."""
    return sorted(product(range(max_occ + 1), repeat=arity))


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


clear_caches = memo.clear
