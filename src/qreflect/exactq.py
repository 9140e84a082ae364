"""Exact arithmetic over Z[q, q^-1] and friends.

A Laurent polynomial c_0 q^lo + c_1 q^(lo+s) + ... + c_t q^(lo+ts) is held
in Kronecker-packed form: the minimum exponent lo, a stride s in {1, 2}
and one Python int

    p = c_0 + c_1 2^w + c_2 2^(2w) + ... + c_t 2^(tw),

the polynomial in q^s evaluated at q^s = 2^w with signed digits c_i.  The
slot width w is a multiple of 32, and every value carries a proven bound b
on the bit length of its coefficients.  Decoding p back into digits is
unique as long as every |c_i| < 2^(w-1), which the invariant b <= w - 1
guarantees.  The bounds follow the arithmetic:

  * a product's coefficients are sums of at most m = min(slot counts)
    products of two digits, so its bound is b_a + b_b + ceil(log2 m);
  * a sum of n values has bound max(bounds) + ceil(log2 n), so a sum of
    two has max(b_a, b_b) + 1.

One rule (_shared) brings the operands of a sum or product to one width
and stride: their packed ints serve as they are when the result's bound
stays below the width and each operand fits it; otherwise the operands
are decoded, their bounds tightened to the true coefficient sizes, and
re-encoded at the narrowest width that holds the result.  With the bound
in place a product is one bigint multiply and a sum one shift and add per
term, and no carry ever crosses a slot boundary.  An int operand is a
one-slot value like any other.  The form is canonical for its width and
stride: the lowest digit c_0 is nonzero, and the zero polynomial is p == 0.

The stride is there because the R and K matrix elements lie in q^eta Z[q^2],
and so does every coefficient the operator words build from them: at
stride 2 no slot holds a zero forced by parity, so products and divisions
touch half the digits.  A value is encoded at stride 2 whenever its
odd-offset coefficients vanish.  A one-slot value (a monomial or an
integer) is the same packed int at either stride and at any width above
its bound, so it combines with any value as it is.  A product of two
stride-2 values is stride 2 with the two lo summed; a sum stays stride 2
when the two lo share one parity; any other mix is re-packed at stride 1.

Exact division of two stride-2 values divides their stride-2 digits, and
loses nothing by it: if N = n(q^2) q^a and D = d(q^2) q^b, a quotient in
Z[q, q^-1] is q^(a-b) n(q^2) / d(q^2) = q^(a-b) g(q^2) with n = g d.  Like
the other operations it is one bigint operation, a divmod of the packed
ints, and a bound check proves its quotient (LaurentQ.exact_div).

All arithmetic is exact: coefficients are arbitrary precision integers and
nothing in this package ever rounds (D. Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic Comput.
2009).

On top of LaurentQ the module provides

  * q-Pochhammer products (z; q^B)_n, (q^B; q^B)_n and its tails
    (q^B; q^B)_hi / (q^B; q^B)_lo, all three one cached loop of packed
    differences over the factors, so n is not limited by recursion,
  * euler_product     -- a product of Euler factors (a*u; q^2)_inf^{+-1}
                         to a fixed order in u, as the numerators of its
                         u^k coefficients over (q^2;q^2)_k,
  * accumulate        -- the sparse sum of (key, LaurentQ) pairs.  It only
                         adds: sums without products (polynomial and
                         vector sums, scalar multiples) go through it,
  * apply_columns     -- the sparse sum of coefficient times packed column
                         (PackedColumn: an operator column, or a
                         polynomial's terms): one int multiply and one
                         shift-add per product at one slot width for the
                         whole call, the narrowest that holds its output
                         bound, and one LaurentQ per output.  Every
                         sum of products goes through it: R and K
                         application, polynomial products and shift sums.
                         With accumulate, it is one of the two places
                         where cancelled terms are dropped.

Values and PackedColumns are immutable after construction, except that
decoding one for a re-pack lowers its bound (_b, or a column's b) in place
to the true coefficient size, and a column's keyed cache gains entries.
Any bound written there is valid and no keyed entry is ever rewritten, so
values and tables of columns (the R and K element caches) are safe to
share between threads.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from operator import index
from typing import Callable, Hashable, Iterable, Iterator


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


class DomainError(ValueError):
    """Raised when an operation is evaluated outside its stated domain."""


# -- the packed encoding ---------------------------------------------------------


def _width_for(bits: int) -> int:
    """The narrowest slot width (a multiple of 32) holding bits-bit digits."""
    return 32 * (bits // 32 + 1)


@lru_cache(maxsize=1024)
def _offset(n: int, w: int) -> int:
    """sum_{i<n} 2^(w-1) 2^(wi): adding it makes every signed digit nonnegative."""
    return int.from_bytes((bytes(w // 8 - 1) + b"\x80") * n, "little")


# struct packs and unpacks 32- and 64-bit slots, the common widths, several
# times faster than the byte loop, which covers every width.
_STRUCT_CODES = {32: "i", 64: "q"}


def _pack(digits: list[int], w: int) -> int:
    """The packed int of signed digits, each of absolute value below 2^(w-1)."""
    n = len(digits)
    code = _STRUCT_CODES.get(w)
    if code:
        raw = struct.pack(f"<{n}{code}", *digits)
    else:
        raw = b"".join(c.to_bytes(w // 8, "little", signed=True) for c in digits)
    h = _offset(n, w)
    return (int.from_bytes(raw, "little") ^ h) - h


def _unpack(p: int, w: int) -> list[int]:
    """Signed digits of a nonzero packed int, lowest first, up to the top one.

    With every |c_i| < 2^(w-1), |p| has between t*w and t*w + w - 1 bits
    for top slot t, so the slot count is p.bit_length() // w + 1.
    """
    n = p.bit_length() // w + 1
    h = _offset(n, w)
    k = w // 8
    raw = ((p + h) ^ h).to_bytes(n * k, "little")
    code = _STRUCT_CODES.get(w)
    if code:
        return list(struct.unpack(f"<{n}{code}", raw))
    return [
        int.from_bytes(raw[i : i + k], "little", signed=True) for i in range(0, n * k, k)
    ]


def _max_bits(digits: list[int]) -> int:
    return max(max(digits), -min(digits)).bit_length()


def _one_slot(v: LaurentQ) -> bool:
    """A nonzero value with one slot: the same packed int at either stride."""
    return v._p.bit_length() < v._w


def _fits(v: LaurentQ, w: int, s: int) -> bool:
    """v's packed int serves as it is at width w and stride s.

    A multi-slot value needs its own width and stride.  A one-slot value's
    packed int is its one digit, which serves at either stride and at any
    width above its bound.
    """
    return (v._w == w and v._s == s) or (_one_slot(v) and v._b < w)


def _joint_stride(values: Iterable[LaurentQ], los: Iterable[int] = ()) -> int:
    """The stride that nonzero values can share.

    2 when every multi-slot value has stride 2 and the exponents los,
    where a sum places the values, share one parity; otherwise 1.
    """
    if len({lo & 1 for lo in los}) > 1:
        return 1
    for v in values:
        if v._s == 1 and not _one_slot(v):
            return 1
    return 2


def _restride(digits: list[int], s: int, t: int) -> list[int]:
    """Digits read at stride s laid out at stride t, where t == s or t == 1.

    Stride-2 digits spread to stride 1 with a zero between neighbours.
    """
    if s == t or len(digits) < 2:
        return digits
    spread = [0] * (2 * len(digits) - 1)
    spread[::2] = digits
    return spread


def _shared(
    values: list[LaurentQ], extra: int, combine=max, los: Iterable[int] = ()
) -> tuple[list[int], int, int, int]:
    """Nonzero values at one width and stride, with the bound of their result.

    The stride is the joint stride of the values placed at the exponents
    los.  The result's bound is combine(bounds) + extra: max for a sum,
    sum for a product.  When it is below the widest width and every value
    fits there, the packed ints serve as they are; otherwise each value is
    decoded, its bound tightened, and all are re-packed at the narrowest
    width that holds the result's bound.  Returns (packed ints, width,
    stride, result bound).
    """
    s = _joint_stride(values, los)
    w = max([v._w for v in values])
    b = combine([v._b for v in values]) + extra
    if b < w and all([_fits(v, w, s) for v in values]):
        return [v._p for v in values], w, s, b
    tight = [v._tight() for v in values]
    b = combine(bits for _, bits in tight) + extra
    w = _width_for(b)
    ps = [_pack(_restride(d, v._s, s), w) for v, (d, _) in zip(values, tight)]
    return ps, w, s, b


_new = object.__new__


def _make(lo: int, p: int, w: int, b: int, s: int) -> LaurentQ:
    """A LaurentQ from packed fields that already satisfy the invariants."""
    x = _new(LaurentQ)
    x._lo = lo
    x._p = p
    x._w = w
    x._b = b
    x._s = s
    return x


def _encode(digits: list[int], s: int = 1) -> tuple[int, int, int, int]:
    """(p, w, b, s) at the narrowest width for stride-s digits with nonzero ends.

    Stride-1 digits whose odd-offset digits all vanish are packed at stride 2.
    """
    if s == 1 and not any(digits[1::2]):
        digits, s = digits[::2], 2
    b = _max_bits(digits)
    w = _width_for(b)
    return _pack(digits, w), w, b, s


def _strip_low(lo: int, p: int, w: int, b: int, s: int) -> LaurentQ:
    """Canonical form of a packed sum whose lowest slots may have cancelled."""
    if not p:
        return _ZERO
    tz = (p & -p).bit_length() - 1
    if tz >= w:
        k = tz // w
        p >>= w * k
        lo += k * s
    return _make(lo, p, w, b, s)


class LaurentQ:
    """Laurent polynomial in q with integer coefficients, Kronecker-packed.

    The value is sum_i c_i q^(_lo + _s*i) for the signed digits c_i of _p.
    Fields: _lo the minimum exponent, _s the stride (1 or 2), _p the packed
    digits, _w the slot width (a multiple of 32) and _b a bound with every
    |coefficient| < 2^_b and _b < _w.  A value whose odd-offset digits all
    vanish is built at stride 2; a one-slot value (a monomial or an integer)
    combines as it is with either stride and any width above its bound.

    Every operation returns a new value; only _b is ever lowered in place,
    by _tight.  Equal values may be held at different widths and strides;
    equality and hashing look through both.
    """

    __slots__ = ("_lo", "_p", "_w", "_b", "_s")

    def __init__(self, terms: dict[int, int] | None = None):
        # index() rejects a float or other non-integer instead of truncating it.
        pairs = [(index(e), index(c)) for e, c in (terms or {}).items()]
        terms = {e: c for e, c in pairs if c}
        if not terms:
            self._lo, self._p, self._w, self._b, self._s = 0, 0, 32, 0, 2
            return
        lo = min(terms)
        digits = [0] * (max(terms) - lo + 1)
        for e, c in terms.items():
            digits[e - lo] = c
        self._lo = lo
        self._p, self._w, self._b, self._s = _encode(digits)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> LaurentQ:
        return _ZERO

    @staticmethod
    def one() -> LaurentQ:
        return _ONE

    @staticmethod
    def monomial(exp: int, coeff: int = 1) -> LaurentQ:
        # index() rejects a float or other non-integer instead of truncating it.
        exp, coeff = index(exp), index(coeff)
        if coeff == 0:
            return _ZERO
        b = coeff.bit_length()
        return _make(exp, coeff, _width_for(b), b, 2)

    @staticmethod
    def integer(n: int) -> LaurentQ:
        return LaurentQ.monomial(0, n)

    @staticmethod
    def sum_shifted(terms: Iterable[tuple[LaurentQ, int]]) -> LaurentQ:
        """The sum of c * q^k over the (c, k) pairs, as one packed sum.

        The package's one packed sum: every LaurentQ addition is one.  A sum
        of n values has bound max(bounds) + ceil(log2 n), and each value
        lands at its exponent with one shift and one add.
        """
        values, los = [], []
        for c, k in terms:
            if c._p:
                values.append(c)
                los.append(c._lo + k)
        if not values:
            return _ZERO
        ps, w, s, b = _shared(values, (len(values) - 1).bit_length(), max, los)
        base = min(los)
        packed = sum([p << (w * ((lo - base) // s)) for lo, p in zip(los, ps)])
        return _strip_low(base, packed, w, b, s)

    # -- predicates and access ---------------------------------------------

    def _digits(self) -> list[int]:
        """Coefficients of q^lo, q^(lo+s) .. q^max_exp, zeros included; empty for zero."""
        return _unpack(self._p, self._w) if self._p else []

    def _digits1(self) -> list[int]:
        """Coefficients of q^lo, q^(lo+1), .. q^max_exp: the digits at stride 1."""
        return _restride(self._digits(), self._s, 1)

    def _tight(self) -> tuple[list[int], int]:
        """(digits, true bit bound), decoded once for re-encoding.

        The true bound is also kept in _b: lowering a bound changes no
        value, and later operations on this value then skip the decode.
        """
        digits = self._digits()
        self._b = _max_bits(digits)
        return digits, self._b

    @property
    def is_zero(self) -> bool:
        return not self._p

    def __bool__(self) -> bool:
        return bool(self._p)

    def __len__(self) -> int:
        digits = self._digits()
        return len(digits) - digits.count(0)

    def coeff(self, exp: int) -> int:
        i, odd = divmod(exp - self._lo, self._s)
        p = self._p
        if i < 0 or odd or not p:
            return 0
        w = self._w
        if i:
            # Rounding the shift absorbs the borrow of the lower signed digits.
            p = (p + (1 << (w * i - 1))) >> (w * i)
        c = p & ((1 << w) - 1)
        return c - (1 << w) if c >> (w - 1) else c

    def items(self) -> Iterator[tuple[int, int]]:
        """(exponent, coefficient) pairs of the nonzero terms, ascending."""
        lo, s = self._lo, self._s
        return iter([(lo + s * i, c) for i, c in enumerate(self._digits()) if c])

    def min_exp(self) -> int:
        if not self._p:
            raise DomainError("zero polynomial has no minimal exponent")
        return self._lo

    def max_exp(self) -> int:
        if not self._p:
            raise DomainError("zero polynomial has no maximal exponent")
        return self._lo + self._s * (self._p.bit_length() // self._w)

    def in_parity_class(self, eta: int, floor: int = 0) -> bool:
        """Whether the value lies in q^eta Z[q^2] with every exponent >= floor.

        True for zero.  The lowest exponent is _lo, and every exponent of a
        stride-2 or one-slot value has its parity, so only a multi-slot
        stride-1 value is decoded, to see that its odd-offset digits vanish.
        """
        if not self._p:
            return True
        if self._lo < floor or (self._lo - eta) % 2:
            return False
        return self._s == 2 or _one_slot(self) or not any(self._digits()[1::2])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentQ.integer(other)
        if not isinstance(other, LaurentQ):
            return NotImplemented
        if self._w == other._w and self._s == other._s:
            return self._p == other._p and self._lo == other._lo
        return self._lo == other._lo and self._digits1() == other._digits1()

    def __hash__(self) -> int:
        return hash((self._lo, *self._digits1()))

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self) -> LaurentQ:
        return _make(self._lo, -self._p, self._w, self._b, self._s)

    def __add__(self, other: LaurentQ | int) -> LaurentQ:
        """The two-term sum_shifted."""
        if isinstance(other, int):
            other = LaurentQ.integer(other)
        elif not isinstance(other, LaurentQ):
            return NotImplemented
        return LaurentQ.sum_shifted(((self, 0), (other, 0)))

    __radd__ = __add__

    def __sub__(self, other: LaurentQ | int) -> LaurentQ:
        if isinstance(other, int):
            other = LaurentQ.integer(other)
        if not isinstance(other, LaurentQ):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> LaurentQ:
        if not isinstance(other, int):
            return NotImplemented
        return LaurentQ.integer(other) - self

    def __mul__(self, other: LaurentQ | int) -> LaurentQ:
        if isinstance(other, int):
            other = LaurentQ.integer(other)
        elif not isinstance(other, LaurentQ):
            return NotImplemented
        pa, pb = self._p, other._p
        if not pa or not pb:
            return _ZERO
        w, s = self._w, self._s
        # min(slot counts) - 1, so that its bit length is ceil(log2 min).
        short = min(pa.bit_length(), pb.bit_length()) // w
        b = self._b + other._b + short.bit_length()
        if b >= w or other._w != w or other._s != s:
            short = min(pa.bit_length() // w, pb.bit_length() // other._w)
            (pa, pb), w, s, b = _shared([self, other], short.bit_length(), sum)
        # The lowest digit is a product of two nonzero digits: canonical.
        return _make(self._lo + other._lo, pa * pb, w, b, s)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentQ:
        if n < 0:
            raise DomainError("negative powers of a general Laurent polynomial")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def shifted(self, k: int) -> LaurentQ:
        """Multiply by q^k."""
        if k == 0 or not self._p:
            return self
        return _make(self._lo + k, self._p, self._w, self._b, self._s)

    def exact_div(self, den: LaurentQ) -> LaurentQ:
        """N / D in Z[q, q^-1] for N = self, D = den; raises if not exact.

        N, D are polynomials in q^s (joint stride s) of n_N, n_D slots, and
        span = n_N - n_D.  One divmod of the packed ints at the operands'
        width w, and if need be at one wider w, is exact because
          * a nonzero remainder proves there is no quotient: evaluation at 2^w
            is a ring homomorphism, so N = Q D gives N(2^w) = Q(2^w) D(2^w);
          * a zero remainder is proved by a bound check: if the quotient int
            has span + 1 balanced digits (two bits spare at the top), whose
            bound + b_D + ceil(log2 n_D) < w, Q D has no carries: Q D = N;
          * the retry is complete: its w holds span + b_N + ceil(log2 n_N),
            Mignotte's bound on a factor of N (von zur Gathen and Gerhard,
            Modern Computer Algebra, 6.6), plus that margin.
        """
        if not den._p:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self._p:
            return _ZERO
        s = _joint_stride((self, den))
        nspan = (self.max_exp() - self._lo) // s
        dspan = (den.max_exp() - den._lo) // s
        span, fan = nspan - dspan, dspan.bit_length()
        for extra, combine in ((0, max), (span + nspan.bit_length() + fan, sum)):
            (pn, pd), w, s, _ = _shared([self, den], extra, combine)
            quot, rem = divmod(pn, pd)
            if rem:
                raise ExactDivisionError("nonzero remainder in exact division")
            if span * w <= quot.bit_length() <= (span + 1) * w - 2:
                digits = _unpack(quot, w)
                if _max_bits(digits) + den._b + fan < w:
                    # Q D = N: both end digits of Q are nonzero.
                    return _make(self._lo - den._lo, *_encode(digits, s))
        raise ExactDivisionError("no quotient in Z[q, q^-1]")

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._p:
            return "0"
        pieces = []
        for e, c in self.items():
            if e == 0:
                body = str(abs(c))
            else:
                mono = "q" if e == 1 else f"q^{e}"
                body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            if not pieces:
                pieces.append(f"-{body}" if c < 0 else body)
            else:
                pieces.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentQ({self})"

    def to_json(self) -> dict:
        return {"q": [[e, str(c)] for e, c in self.items()]}

    @staticmethod
    def from_json(data: dict) -> LaurentQ:
        """Inverse of to_json: integer exponents and decimal-string coefficients."""
        if not all(isinstance(c, str) for _, c in data["q"]):
            raise TypeError("LaurentQ coefficients must be decimal strings")
        return LaurentQ({e: int(c) for e, c in data["q"]})


_ZERO = LaurentQ()
_ONE = LaurentQ.monomial(0)


def accumulate(pairs: Iterable[tuple[Hashable, LaurentQ]]) -> dict:
    """The sparse sum of (key, value) pairs: the values of equal keys added.

    Sums of products go through apply_columns instead.  With it, one of
    the two places where the package drops cancelled terms: once, at the
    end, and in place, so that no surviving (tuple) key is hashed again.
    """
    out: dict = {}
    get = out.get
    for key, value in pairs:
        s = get(key)
        out[key] = value if s is None else s + value
    for key in [key for key, value in out.items() if not value._p]:
        del out[key]
    return out


# -- packed operator columns ----------------------------------------------------


class PackedColumn:
    """The nonzero entries of one column, packed at one width and stride.

    Entry j is q^los[j] times the packed int ps[j], at output outs[j].
    Every entry has slot width w and stride s; b bounds the bit length of
    every entry's coefficients, slots is the largest slot count, and
    log_block is ceil(log2 |block|) for the weight block of an operator
    column's input, or None for a column with no weight block (a
    polynomial's terms).  Only b changes after construction, lowered by
    _tight; a call at another width or stride re-packs the entries for
    itself (_at) and leaves the column as it is.  keyed is the caller's
    cache of keys derived from outs, one entry per key layout: this module
    never reads it, and an entry, once written, is not changed.
    """

    __slots__ = ("outs", "los", "ps", "w", "s", "b", "slots", "log_block", "keyed")

    def __init__(
        self, pairs: Iterable[tuple[Hashable, LaurentQ]], block_size: int | None = None
    ):
        pairs = [(out, v) for out, v in pairs if v._p]
        values = [v for _, v in pairs]
        self.outs = tuple(out for out, _ in pairs)
        self.los = tuple(v._lo for v in values)
        self.log_block = None if block_size is None else (block_size - 1).bit_length()
        ps, w, s, b = _shared(values, 0) if values else ([], 32, 2, 0)
        self.ps = tuple(ps)
        self.w, self.s, self.b = w, s, b
        self.slots = max((p.bit_length() // w + 1 for p in ps), default=1)
        self.keyed: dict = {}

    def _tight(self) -> None:
        """Lower b to the entries' true coefficient size (one decode of each entry)."""
        self.b = max((_max_bits(_unpack(p, self.w)) for p in self.ps), default=0)

    def _at(self, w: int, s: int) -> tuple[int, ...]:
        """The entries' packed ints re-packed at width w and stride s, for one call."""
        return tuple(_pack(_restride(_unpack(p, self.w), self.s, s), w) for p in self.ps)


def apply_columns(
    terms: list[tuple[LaurentQ, PackedColumn, Hashable, tuple[int, ...]]],
    keys: Callable[[Hashable, tuple], Iterable[Hashable]],
) -> dict:
    """The sparse sum of coeff * column over (coeff, column, prefix, los) terms.

    Entry j of a term is q^los[j] times the packed int column.ps[j]: los is
    column.los, or other exponents for the same packed ints (a polynomial
    shifted by q-powers of its variables).  It lands at the j-th key of
    keys(prefix, column.outs), and the keys of one term are distinct.
    Every product is one int multiply and every sum one shift-add, at one
    slot width w and stride s for the whole call; each output becomes one
    LaurentQ at the end, and cancelled outputs are dropped.  This is the
    package's one packed multiply-accumulate: R and K application,
    polynomial products and shift sums all come here.

    The width: the pair bound of a term is b_coeff + b_column +
    ceil(log2 min(slot counts)), as for one product.  An output collects at
    most one product per term, and for an operator column at most one from
    each input of its weight block with the same untouched sites, so its
    bound is its largest pair bound plus ceil(log2 count) <= pair bound +
    min(log_block, ceil(log2 len(terms))).  A term for which that sum would
    reach 32 bits first has its coefficient's bound tightened (one decode),
    then its column's (one decode per entry).  The call then runs at the
    narrowest width that holds the largest such sum, whatever the widths
    of its columns; a coefficient or column at another width is re-packed
    for the call, and no column is changed.  Tightening the column keeps a
    chain of polynomial steps, whose output bounds grow by the fan-in at
    every step, at the width its digits need.

    The stride is 2 unless a column or a multi-slot coefficient has stride
    1.  Two stride-2 contributions to one output whose lo differ by an odd
    amount do not share slots; the call is then redone at stride 1.
    """
    s = 2
    for c, col, _, _ in terms:
        if col.s == 1 or (c._s == 1 and c._p.bit_length() >= c._w):
            s = 1
            break
    out = _column_sum(terms, keys, s)
    if out is None:
        out = _column_sum(terms, keys, 1)
    return out


def _column_sum(terms, keys, s: int) -> dict | None:
    """apply_columns at stride s; None on a parity clash at s == 2."""
    # ceil(log2 len(terms)): an output collects at most one product per term.
    fan = (len(terms) - 1).bit_length()
    bounds = []
    top = 0
    for c, col, _, _ in terms:
        # min(slot counts) - 1, so that its bit length is ceil(log2 min).
        short = min(c._p.bit_length() // c._w, col.slots - 1).bit_length()
        b = c._b + col.b + short
        log_fan = col.log_block
        if log_fan is None or log_fan > fan:
            log_fan = fan
        if b + log_fan >= 32:
            c._tight()
            b = c._b + col.b + short
            if b + log_fan >= 32:
                col._tight()
                b = c._b + col.b + short
        bounds.append(b)
        if b + log_fan > top:
            top = b + log_fan
    w = _width_for(top)
    # Each output's record: [lo, packed sum, largest pair bound, terms summed].
    acc: dict = {}
    get = acc.get
    # s - 1 masks an odd exponent gap at stride 2 and shifts a gap to slots.
    odd = s - 1
    for (c, col, prefix, los), pb in zip(terms, bounds):
        lc = c._lo
        if c._w == w and (c._s == s or c._p.bit_length() < w):
            pc = c._p
        else:
            pc = _pack(_restride(c._digits(), c._s, s), w)
        ps = col.ps if col.w == w and col.s == s else col._at(w, s)
        for k, lv, pv in zip(keys(prefix, col.outs), los, ps):
            rec = get(k)
            if rec is None:
                acc[k] = [lc + lv, pc * pv, pb, 1]
                continue
            d = lc + lv - rec[0]
            if d & odd:
                return None
            if d >= 0:
                rec[1] += pc * pv << w * (d >> odd)
            else:
                rec[1] = pc * pv + (rec[1] << w * (-d >> odd))
                rec[0] += d
            if pb > rec[2]:
                rec[2] = pb
            rec[3] += 1
    out = {}
    low = (1 << w) - 1
    for k, (lo, p, b, n) in acc.items():
        b += (n - 1).bit_length()
        if p & low:
            # The lowest slot is nonzero: canonical as it stands (_make inlined).
            x = out[k] = _new(LaurentQ)
            x._lo, x._p, x._w, x._b, x._s = lo, p, w, b, s
        elif p:
            out[k] = _strip_low(lo, p, w, b, s)
    return out


# -- q-Pochhammer machinery ---------------------------------------------------


@lru_cache(maxsize=None)
def _pochhammer(sign: int, a_exp: int, base_exp: int, n: int) -> LaurentQ:
    """prod_{j=0..n-1} (1 - sign q^{a_exp + B*j}) for B = base_exp, n >= 0.

    The one q-Pochhammer product, a loop over its factors: the public
    functions below check their domains and come here.  A factor is one
    packed difference, which adds one bit to the bound.
    """
    out = _ONE
    for j in range(n):
        term = -out if sign > 0 else out
        out = LaurentQ.sum_shifted(((out, 0), (term, a_exp + base_exp * j)))
    return out


def qq_pochhammer(base_exp: int, n: int) -> LaurentQ:
    """(q^B; q^B)_n = prod_{j=1..n} (1 - q^{B*j}) for B = base_exp."""
    if n < 0:
        raise DomainError("qq_pochhammer needs n >= 0")
    return _pochhammer(1, base_exp, base_exp, n)


def qq_pochhammer_tail(base_exp: int, lo: int, hi: int) -> LaurentQ:
    """(q^B; q^B)_hi / (q^B; q^B)_lo = prod_{j=lo+1..hi} (1 - q^{B*j})."""
    if not 0 <= lo <= hi:
        raise DomainError("qq_pochhammer_tail needs 0 <= lo <= hi")
    return _pochhammer(1, base_exp * (lo + 1), base_exp, hi - lo)


def q_pochhammer(a: tuple[int, int], base_exp: int, n: int) -> LaurentQ:
    """(a; q^B)_n = prod_{j=0..n-1} (1 - a q^{B*j}) for a = sign*q^exp.

    a is given as (sign, q-exponent) with sign +1 or -1; n must be
    nonnegative (callers filter their domains first).
    """
    sign, a_exp = a
    if sign not in (1, -1):
        raise DomainError("monomial sign must be +1 or -1")
    if base_exp <= 0 or base_exp % 2:
        raise DomainError("base exponent must be a positive even integer")
    if n < 0:
        raise DomainError("q_pochhammer needs n >= 0")
    return _pochhammer(sign, a_exp, base_exp, n)


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, base_exp: int) -> LaurentQ:
    """Gaussian binomial (q^B)_n / ((q^B)_k (q^B)_{n-k}); zero if k outside 0..n."""
    if n < 0:
        raise DomainError("gaussian_binomial needs n >= 0")
    if k < 0 or k > n:
        return _ZERO
    num = qq_pochhammer(base_exp, n)
    den = qq_pochhammer(base_exp, k) * qq_pochhammer(base_exp, n - k)
    return num.exact_div(den)


# -- Euler products in u ------------------------------------------------------


def euler_product(
    factors: Iterable[tuple[tuple[int, int], bool]], order: int
) -> list[LaurentQ]:
    """Numerators n_0..n_order of prod (a*u; q^2)_inf^{+-1} = sum n_k u^k / (q^2;q^2)_k.

    Each factor is ((sign, q-exponent), invert) for a = sign*q^exp, and
    invert takes the reciprocal.  One factor solves f(u) = (1 - a*u) f(q^2 u)
    coefficient by coefficient: n_k = -a q^{2k-2} n_{k-1}, or n_k = a n_{k-1}
    for the reciprocal.  As n_i/(q^2)_i * m_j/(q^2)_j =
    n_i m_j [i+j over i]_{q^2} / (q^2)_{i+j}, a product convolves the
    numerators with q^2-binomial weights and never divides.
    """
    if order < 0:
        raise DomainError("series order must be >= 0")
    out = [_ONE] + [_ZERO] * order
    for (sign, a_exp), invert in factors:
        if sign not in (1, -1):
            raise DomainError("monomial sign must be +1 or -1")
        nums = [_ONE]
        for k in range(1, order + 1):
            if invert:
                nums.append(nums[-1] * LaurentQ.monomial(a_exp, sign))
            else:
                nums.append(nums[-1] * LaurentQ.monomial(a_exp + 2 * (k - 1), -sign))
        prod = []
        for k in range(order + 1):
            num = _ZERO
            for i in range(k + 1):
                if out[i].is_zero:
                    continue
                num = num + out[i] * nums[k - i] * gaussian_binomial(k, i, 2)
            prod.append(num)
        out = prod
    return out
