"""Exact arithmetic over Z[q, q^-1] and friends.

A Laurent polynomial c_0 q^lo + c_1 q^(lo+s) + ... + c_t q^(lo+ts) is held
in Kronecker-packed form: the minimum exponent lo, a stride s in {1, 2}
and one Python int

    p = c_0 + c_1 2^w + c_2 2^(2w) + ... + c_t 2^(tw),

the polynomial in q^s evaluated at q^s = 2^w with signed digits c_i.  The
slot width w is a multiple of 32, and decoding p is unique as long as
every |c_i| < 2^(w-1).  Every value carries two proven magnitude bounds,
held as ints: n1 >= ||c||_1 = sum |c_i| and ni >= ||c||_inf = max |c_i|,
with ni < 2^(w-1).  One rule bounds every packed operation:

  * a product has ||ab||_1 <= ||a||_1 ||b||_1 and
    ||ab||_inf <= min(||a||_1 ||b||_inf, ||a||_inf ||b||_1);
  * a sum adds both norms;
  * a value, or a call of the kernel below, runs at the narrowest width
    above its ||.||_inf bound (_width_for).

So a product is one bigint multiply and a sum one shift and add per term,
and no carry ever crosses a slot boundary.  A value is decoded to its true
norms (_tight) only when a carried bound reaches the width: one routine
(_shared) brings the operands of a sum, product or division to one width
and stride, as they are or, when the result's bound reaches the widest
operand width, tightened and re-packed at the width of that bound.  An
int operand is a one-slot value like any other.  The form is canonical for
its width and stride: the lowest digit c_0 is nonzero, and zero is p == 0.

The stride is there because the R and K matrix elements lie in q^eta Z[q^2],
and so does every coefficient the operator words build from them: at
stride 2 no slot holds a zero forced by parity, so products and divisions
touch half the digits.  A value is encoded at stride 2 whenever its
odd-offset coefficients vanish.  A one-slot value (a monomial or an
integer) is the same packed int at either stride and at any width above
its bound, so it combines with any value as it is.  A product of two
stride-2 values is stride 2 with the two lo summed; a sum stays stride 2
when the two lo share one parity; any other mix is re-packed at stride 1.
Exact division of two stride-2 values divides their stride-2 digits and
loses nothing by it: if N = n(q^2) q^a and D = d(q^2) q^b, a quotient is
q^(a-b) g(q^2) with n = g d.  It is one divmod of the packed ints, and
the same norms prove its quotient (LaurentQ.exact_div).

All arithmetic is exact: coefficients are arbitrary precision integers and
nothing in this package ever rounds (D. Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic Comput.
2009).

On top of LaurentQ the module provides
  * q-Pochhammer products (z; q^B)_n, (q^B; q^B)_n and its tails
    (q^B; q^B)_hi / (q^B; q^B)_lo, all three one cached loop of packed
    differences over the factors, so n is not limited by recursion;
  * euler_product, a product of Euler factors (a*u; q^2)_inf^{+-1} to a
    fixed order in u, as the numerators of its u^k coefficients over
    (q^2;q^2)_k;
  * accumulate, the sparse sum of (key, LaurentQ) pairs.  It only adds,
    and serves sums that start from values: polynomial sums, partial
    evaluation and vectors built from (state, value) pairs;
  * apply_columns, the sparse sum of coefficient times packed column
    (PackedColumn: an operator column, or a polynomial's terms), one int
    multiply and one shift-add per product at one slot width for the whole
    call.  Every sum of products goes through it: R and K application,
    polynomial products and shift sums, and sums of scaled vectors.  Its
    coefficients and outputs are records [lo, p, n1, ni], the fields of a
    value as plain ints at one width and stride for a whole operand
    (to_records); a LaurentQ is built from one only where a value is
    needed (from_record), so the factors of an operator word pass records
    from call to call.
Those two are where cancelled terms are dropped.  A norm pair is ||.||_1
first everywhere: in a value, a record and a column.  Records and
PackedColumns never change: a column is built once at its true norms, and
a redone call tightens copies of its coefficient records.  Only
LaurentQ._tight lowers a bound in place, so values, records and columns are
safe to share between threads.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from math import isqrt
from operator import index
from typing import Callable, Hashable, Iterable, Iterator


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


class DomainError(ValueError):
    """Raised when an operation is evaluated outside its stated domain."""


# -- the packed encoding ---------------------------------------------------------


def _width_for(bound: int) -> int:
    """The narrowest slot width (a multiple of 32) holding digits of absolute value <= bound."""
    return 32 * (bound.bit_length() // 32 + 1)


@lru_cache(maxsize=1024)
def _short_offset(n: int, w: int) -> int:
    return int.from_bytes((bytes(w // 8 - 1) + b"\x80") * n, "little")


def _offset(n: int, w: int) -> int:
    """sum_{i<n} 2^(w-1) 2^(wi): adding it makes every signed digit nonnegative.

    Only offsets of up to 2^14 bits are cached, so the cache holds 2 MB at most.
    """
    return (_short_offset if n * w <= 1 << 14 else _short_offset.__wrapped__)(n, w)


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


def _norms(digits: list[int]) -> tuple[int, int]:
    """(||.||_1, ||.||_inf) of nonempty digits."""
    sizes = list(map(abs, digits))
    return sum(sizes), max(sizes)


def _one_slot(v: LaurentQ) -> bool:
    """A nonzero value with one slot: the same packed int at either stride."""
    return v._p.bit_length() < v._w


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


def _sum_norms(values: list[LaurentQ]) -> tuple[int, int]:
    return sum([v._n1 for v in values]), sum([v._ni for v in values])


def _product_norms(values: list[LaurentQ]) -> tuple[int, int]:
    a, b = values
    return a._n1 * b._n1, min(a._n1 * b._ni, a._ni * b._n1)


def _widest(values: list[LaurentQ]) -> tuple[int, int]:
    """No result of its own: every value fits the width of the widest one."""
    return 0, max([v._ni for v in values])


def _shared(
    values: list[LaurentQ],
    norms: Callable[[list[LaurentQ]], tuple[int, int]],
    los: Iterable[int] = (),
) -> tuple[list[int], int, int, int, int]:
    """Nonzero values at one width and stride, with the norm bounds of their result.

    The stride is the joint stride of the values placed at the exponents
    los, and norms(values) bounds the result from the values' bounds.
    When its ||.||_inf bound fits the widest width and every value fits
    there (a multi-slot value at its own width and stride, a one-slot value
    at any width above its bound), the packed ints serve as they are;
    otherwise each value is tightened and all are re-packed at the width of
    the result's bound, which holds each value too.  Returns (packed ints,
    width, stride, ||.||_1 bound, ||.||_inf bound).
    """
    s = _joint_stride(values, los)
    w = max([v._w for v in values])
    n1, ni = norms(values)
    if ni.bit_length() < w and all(
        [(v._w == w and v._s == s) or (_one_slot(v) and v._ni.bit_length() < w) for v in values]
    ):
        return [v._p for v in values], w, s, n1, ni
    digits = [v._tight() for v in values]
    n1, ni = norms(values)
    w = _width_for(ni)
    ps = [_pack(_restride(d, v._s, s), w) for v, d in zip(values, digits)]
    return ps, w, s, n1, ni


_new = object.__new__


def _make(lo: int, p: int, w: int, n1: int, ni: int, s: int, exact: bool = False) -> LaurentQ:
    """A LaurentQ from packed fields that already satisfy the invariants."""
    x = _new(LaurentQ)
    x._lo, x._p, x._w, x._n1, x._ni, x._s, x._exact = lo, p, w, n1, ni, s, exact
    return x


def _encode(digits: list[int], s: int = 1) -> tuple[int, int, int, int, int]:
    """(p, w, n1, ni, s) at the narrowest width for stride-s digits with nonzero ends.

    Stride-1 digits whose odd-offset digits all vanish are packed at stride 2.
    """
    if s == 1 and not any(digits[1::2]):
        digits, s = digits[::2], 2
    n1, ni = _norms(digits)
    w = _width_for(ni)
    return _pack(digits, w), w, n1, ni, s


def _strip_low(lo: int, p: int, w: int, n1: int, ni: int, s: int) -> LaurentQ:
    """Canonical form of a packed sum whose lowest slots may have cancelled."""
    if not p:
        return _ZERO
    tz = (p & -p).bit_length() - 1
    if tz >= w:
        k = tz // w
        p >>= w * k
        lo += k * s
    return _make(lo, p, w, n1, ni, s)


class LaurentQ:
    """Laurent polynomial in q with integer coefficients, Kronecker-packed.

    The value is sum_i c_i q^(_lo + _s*i) for the signed digits c_i of _p.
    Fields: _lo the minimum exponent, _s the stride (1 or 2), _p the packed
    digits, _w the slot width (a multiple of 32), and the norm bounds
    _n1 >= sum |c_i| and _ni >= max |c_i|, with _ni < 2^(_w - 1); _exact
    says they are the true norms (a value built from its digits, or
    decoded).  A value whose odd-offset digits all vanish is built at
    stride 2; a one-slot value (a monomial or an integer) combines as it is
    with either stride and any width above its bound.

    Every operation returns a new value; only the norm bounds are ever
    lowered in place, by _tight.  Equal values may be held at different
    widths and strides; equality and hashing look through both.
    """

    __slots__ = ("_lo", "_p", "_w", "_n1", "_ni", "_s", "_exact")

    def __init__(self, terms: dict[int, int] | None = None):
        # index() rejects a float or other non-integer instead of truncating it.
        pairs = [(index(e), index(c)) for e, c in (terms or {}).items()]
        terms = {e: c for e, c in pairs if c}
        if not terms:
            self._lo, self._p, self._w, self._n1, self._ni, self._s, self._exact = 0, 0, 32, 0, 0, 2, True
            return
        lo = min(terms)
        digits = [0] * (max(terms) - lo + 1)
        for e, c in terms.items():
            digits[e - lo] = c
        self._lo, self._exact = lo, True
        self._p, self._w, self._n1, self._ni, self._s = _encode(digits)

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
        size = abs(coeff)
        return _make(exp, coeff, _width_for(size), size, size, 2, True)

    @staticmethod
    def integer(n: int) -> LaurentQ:
        return LaurentQ.monomial(0, n)

    @staticmethod
    def sum_shifted(terms: Iterable[tuple[LaurentQ, int]]) -> LaurentQ:
        """The sum of c * q^k over the (c, k) pairs, as one packed sum.

        The packed sum of values: every LaurentQ addition is one.  The
        norms of the values add, and each value lands at its exponent with
        one shift and one add.  MultiPolyQ.evaluate_at_q_powers sums the
        entries of a polynomial's kept column the same way, without
        building a value per term.
        """
        values, los = [], []
        for c, k in terms:
            if c._p:
                values.append(c)
                los.append(c._lo + k)
        if not values:
            return _ZERO
        ps, w, s, n1, ni = _shared(values, _sum_norms, los)
        base = min(los)
        packed = sum([p << (w * ((lo - base) // s)) for lo, p in zip(los, ps)])
        return _strip_low(base, packed, w, n1, ni, s)

    # -- predicates and access ---------------------------------------------

    def _digits(self) -> list[int]:
        """Coefficients of q^lo, q^(lo+s) .. q^max_exp, zeros included; empty for zero."""
        return _unpack(self._p, self._w) if self._p else []

    def _digits1(self) -> list[int]:
        """Coefficients of q^lo, q^(lo+1), .. q^max_exp: the digits at stride 1."""
        return _restride(self._digits(), self._s, 1)

    def _tight(self) -> list[int]:
        """The digits, decoded for a re-pack; the norm bounds become the true norms.

        Lowering a bound changes no value, and later operations on this
        value then decode less often.
        """
        digits = self._digits()
        self._n1, self._ni = _norms(digits)
        self._exact = True
        return digits

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
        return _make(self._lo, -self._p, self._w, self._n1, self._ni, self._s, self._exact)

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
        n1, ni = _product_norms((self, other))
        if ni.bit_length() >= w or other._w != w or other._s != s:
            (pa, pb), w, s, n1, ni = _shared([self, other], _product_norms)
        # The lowest digit is a product of two nonzero digits: canonical.
        return _make(self._lo + other._lo, pa * pb, w, n1, ni, s)

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
        return _make(self._lo + k, self._p, self._w, self._n1, self._ni, self._s, self._exact)

    def exact_div(self, den: LaurentQ) -> LaurentQ:
        """N / D in Z[q, q^-1] for N = self, D = den; raises if not exact.

        N, D are polynomials in q^s (joint stride s), and a quotient Q has
        span = deg N - deg D in q^s.  One divmod of the packed ints at the
        operands' width w, and if need be at one wider w, is exact because
          * a nonzero remainder proves there is no quotient: evaluation at 2^w
            is a ring homomorphism, so N = Q D gives N(2^w) = Q(2^w) D(2^w);
          * a zero remainder is proved by the norms: if the quotient int has
            span + 1 balanced digits (two bits spare at the top) with
            ||Q||_inf ||D||_1 < 2^(w-1), Q D has no carries: Q D = N;
          * the retry is complete: its w holds 2^(span+1) ||N||_2 ||D||_1,
            by Mignotte's bound ||Q||_inf <= 2^span ||N||_2 on a factor of N
            (von zur Gathen and Gerhard, Modern Computer Algebra, 6.6), with
            ||N||_2^2 <= ||N||_1 ||N||_inf.
        """
        if not den._p:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self._p:
            return _ZERO
        s = _joint_stride((self, den))
        span = (self.max_exp() - self._lo - den.max_exp() + den._lo) // s

        def mignotte(values):
            n, d = values
            return 0, (isqrt(n._n1 * n._ni) + 1) * d._n1 << max(span + 1, 0)

        for norms in (_widest, mignotte):
            (pn, pd), w, s, _, _ = _shared([self, den], norms)
            quot, rem = divmod(pn, pd)
            if rem:
                raise ExactDivisionError("nonzero remainder in exact division")
            if span * w <= quot.bit_length() <= (span + 1) * w - 2:
                p, wq, n1, ni, sq = _encode(_unpack(quot, w), s)
                if ni * den._n1 < 1 << (w - 1):
                    # Q D = N: both end digits of Q are nonzero.
                    return _make(self._lo - den._lo, p, wq, n1, ni, sq, True)
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

    For sums that start from values: polynomial sums, partial evaluation
    and vectors built from values.  With apply_columns, one of the two
    places where the package drops cancelled terms: once, at the end, and
    in place, so that no surviving (tuple) key is hashed again.
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

    Entry j is q^los[j] times the packed int ps[j], at output outs[j], with
    true norms n1s[j] and nis[j] (a record's fields, to_records, as parallel
    tuples), at the narrowest slot width w above every entry and their joint
    stride s.  Only an entry whose value is not _exact is decoded, once, to
    find its norms.  No field changes after construction.
    """

    __slots__ = ("outs", "los", "ps", "n1s", "nis", "w", "s")

    def __init__(self, pairs: Iterable[tuple[Hashable, LaurentQ]]):
        pairs = [(out, v) for out, v in pairs if v._p]
        values = [v for _, v in pairs]
        recs, w, s = to_records(values)
        ps = [rec[1] for rec in recs]
        norms = [(v._n1, v._ni) if v._exact else _norms(_unpack(p, w)) for v, p in zip(values, ps)]
        self.n1s, self.nis = tuple([n1 for n1, _ in norms]), tuple([ni for _, ni in norms])
        self.w, self.s = _width_for(max(self.nis, default=0)), s
        self.outs, self.los = tuple([out for out, _ in pairs]), tuple([rec[0] for rec in recs])
        self.ps = tuple(ps if self.w == w else [_repack(p, w, s, self.w, s) for p in ps])

    def values(self) -> dict:
        """Each entry as a LaurentQ at the column's width, stride and true norms, by output."""
        w, s = self.w, self.s
        return {
            out: _make(lo, p, w, n1, ni, s, True)
            for out, lo, p, n1, ni in zip(self.outs, self.los, self.ps, self.n1s, self.nis)
        }


def to_records(values: list[LaurentQ]) -> tuple[list[list[int]], int, int]:
    """Nonzero values as kernel records [lo, p, n1, ni], with their width and stride.

    A record is a value's lowest exponent, packed int and norm bounds, at
    the widest value's width and the values' joint stride: a value at
    another width or stride is re-packed there (_repack).
    """
    w, s = max([v._w for v in values], default=32), _joint_stride(values)
    return [
        [v._lo, v._p if v._w == w and v._s == s else _repack(v._p, v._w, v._s, w, s), v._n1, v._ni]
        for v in values
    ], w, s


def _repack(p: int, w0: int, s0: int, w: int, s: int) -> int:
    """p at width w0 and stride s0 re-packed at w and s (its digits fit w); one slot as it is."""
    return p if p.bit_length() < w0 else _pack(_restride(_unpack(p, w0), s0, s), w)


def from_record(rec: list[int], w: int, s: int) -> LaurentQ:
    """The LaurentQ of a record [lo, p, n1, ni] at width w and stride s."""
    return _make(rec[0], rec[1], w, rec[2], rec[3], s)


def from_records(records: dict, w: int, s: int) -> dict:
    """from_record of every record of a dict, by key."""
    return {key: _make(lo, p, w, n1, ni, s) for key, (lo, p, n1, ni) in records.items()}


def apply_columns(
    terms: list[tuple[list[int], Hashable, tuple[PackedColumn, tuple, tuple[int, ...]]]],
    keys: Callable[[Hashable, tuple], Iterable[Hashable]],
    w0: int,
    s0: int,
) -> tuple[dict, int, int]:
    """The sparse sum of coeff * column over (record, prefix, (column, outs, los)) terms.

    Each term's coefficient is a record (to_records) at width w0 and stride
    s0, the same for every term.  Entry j of its column is q^los[j] times
    the packed int column.ps[j]: los is column.los, or other exponents for
    the same packed ints (a polynomial shifted by q-powers of its
    variables).  It lands at the j-th key of keys(prefix, outs), and the
    keys of one term are distinct.  Every product is one int multiply and
    every sum one shift-add, at one slot width w and stride s for the whole
    call.  Returns (records by key, w, s): each output is one new record
    [lo, p, n1, ni] at w and s, in canonical form, and cancelled outputs
    are dropped.  This is the package's one packed multiply-accumulate: R
    and K application, polynomial products, shift sums and vector sums.

    The width follows the module's one rule, with one side of the product
    rule per term: a product of coefficient c and entry e has the pair
    bound ||c||_inf ||e||_1, or ||c||_1 ||e||_inf when c's two bounds are
    equal (a monomial or an integer).  That is the smaller side whenever
    ||c||_1 / ||c||_inf >= ||e||_1 / ||e||_inf, as for the coefficients an
    operator word builds.  Each output's record sums the pair bounds of
    its products, its ||.||_inf bound; its ||.||_1 bound is its slot count
    times that.  A call runs at 32-bit slots, whatever the widths of its
    coefficients and columns; the coefficients at another width or stride
    are re-packed for the call once, and so is each such column.  When a
    bound reaches the width, the call is redone once with copies of the
    records at their true norms (a column's are true), then at the width
    the bounds proved.  No call writes into a column or record.

    The stride is 2 unless a column or a multi-slot coefficient has stride
    1.  A stride-1 column met at stride 2, or two stride-2 contributions to
    one output whose lo differ by an odd amount, redo the call at stride 1.
    """
    s = 2 if s0 == 2 or all([rec[1].bit_length() < w0 for rec, _, _ in terms]) else 1
    w, tight = 32, False
    while True:
        out = _column_sum(terms, keys, w0, s0, s, w)
        if out is None:
            s = 1
        elif type(out) is dict:
            return out, w, s
        elif tight:
            w = _width_for(out)
        else:
            tight = True
            terms = [([rec[0], rec[1], *_norms(_unpack(rec[1], w0))], prefix, hit)
                     for rec, prefix, hit in terms]


def _column_sum(terms, keys, w0: int, s0: int, s: int, w: int) -> dict | int | None:
    """apply_columns at stride s and width w.

    The outputs; None on a stride-1 column or a parity clash at s == 2; or,
    when a record's bound reaches the width, the largest record bound.
    """
    if w0 != w or s0 != s:
        # A record too wide for w serves as it is: its pair bounds reach the width.
        terms = [(rec if rec[3].bit_length() >= w else [rec[0], _repack(rec[1], w0, s0, w, s), *rec[2:]],
                  prefix, hit) for rec, prefix, hit in terms]
    # Each output's record: [lo, packed sum, ||.||_1 bound, sum of pair bounds].
    acc: dict = {}
    get = acc.get
    # The columns of this call re-packed at w and s, by id.
    at: dict = {}
    # s - 1 masks an odd exponent gap at stride 2 and shifts a gap to slots.
    odd = s - 1
    for (lc, pc, c1, ci), prefix, (col, outs, los) in terms:
        ps = col.ps
        if col.w != w or col.s != s:
            if col.s < s:
                return None
            ps = at.get(id(col))
            if ps is None:
                # A column wider than w, at its true norms, makes the records reach w.
                ps = col.ps if col.w > w else tuple([_repack(p, col.w, col.s, w, s) for p in col.ps])
                at[id(col)] = ps
        # The pair bound of a product is ci times its entry's side of the rule.
        side = col.nis if c1 == ci else col.n1s
        for k, lv, pv, e in zip(keys(prefix, outs), los, ps, side):
            rec = get(k)
            if rec is None:
                acc[k] = [lc + lv, pc * pv, 0, ci * e]
                continue
            d = lc + lv - rec[0]
            if d & odd:
                return None
            if d >= 0:
                rec[1] += pc * pv << w * (d >> odd)
            else:
                rec[1] = pc * pv + (rec[1] << w * (-d >> odd))
                rec[0] += d
            rec[3] += ci * e
    low, half = (1 << w) - 1, 1 << (w - 1)
    cancelled = False
    for rec in acc.values():
        _, p, _, ni = rec
        if ni >= half:
            return max([rec[3] for rec in acc.values()])
        rec[2] = ni * (p.bit_length() // w + 1)
        if not p & low:
            if not p:
                cancelled = True
                continue
            # The lowest slots cancelled: strip them (canonical form).
            tz = ((p & -p).bit_length() - 1) // w
            rec[1] = p >> w * tz
            rec[0] += tz * s
    if cancelled:
        return {k: rec for k, rec in acc.items() if rec[1]}
    return acc


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
