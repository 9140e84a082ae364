"""Sparse multivariate polynomials over LaurentQ coefficients.

A MultiPolyQ is a polynomial in a fixed tuple of named variables (arity 3
with variables x,y,z or arity 4 with x,y,z,w) stored as a dict mapping the
exponent vector (a tuple of nonnegative ints, one per variable) to a
nonzero LaurentQ coefficient.  The zero polynomial stores no terms.

The two substitutions the difference equations need are q-shifts
(variable v -> q^k * v, which only rescales coefficients) and evaluation
of variables at powers of q (which collapses terms into a LaurentQ).
Every recursion step and difference-equation residual is one shift_sum,
sum of coeff * poly.shift_multi(shifts).  A product is a shift_sum of one
unshifted term, and shift_sum goes through exactq.apply_columns, the
package's one packed multiply-accumulate: a polynomial is a PackedColumn
whose outputs are its exponent vectors, built on first use and kept, and
each term of the other factor is one kernel term.  Evaluation at q-powers
(Q_{b,c} and P_b at the points of every K and R element) reads the same
kept column: one shift-add per entry at a width proven from the entries'
summed norms, with what it needs beyond the column kept on the evaluated
polynomial.  Sums, scalar multiples and partial evaluation only add,
through exactq.accumulate.  Both drop the cancelled terms.
"""

from __future__ import annotations

from itertools import chain
from operator import add, index, mul
from typing import Iterable, Iterator, Sequence

from .exactq import (
    DomainError,
    LaurentQ,
    PackedColumn,
    _repack,
    _strip_low,
    _width_for,
    accumulate,
    apply_columns,
    from_records,
    to_records,
)

VARS3 = ("x", "y", "z")
VARS4 = ("x", "y", "z", "w")


class MultiPolyQ:
    """Sparse polynomial in named variables with LaurentQ coefficients."""

    __slots__ = ("names", "_terms", "_column", "_evaluation")

    def __init__(
        self,
        names: Sequence[str],
        terms: dict[tuple[int, ...], LaurentQ] | None = None,
        *,
        _trusted: bool = False,
    ):
        self.names = tuple(names)
        self._column = self._evaluation = None
        if terms is None:
            self._terms: dict[tuple[int, ...], LaurentQ] = {}
        elif _trusted:
            self._terms = terms
        else:
            arity = len(self.names)
            clean: dict[tuple[int, ...], LaurentQ] = {}
            for exps, coeff in terms.items():
                exps = tuple(map(index, exps))
                if len(exps) != arity or any(e < 0 for e in exps):
                    raise DomainError(f"bad exponent vector {exps} for arity {arity}")
                if not isinstance(coeff, LaurentQ):
                    raise TypeError(f"coefficient {coeff!r} is not a LaurentQ")
                if not coeff.is_zero:
                    clean[exps] = coeff
            self._terms = clean

    @property
    def arity(self) -> int:
        return len(self.names)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(names: Sequence[str]) -> MultiPolyQ:
        return MultiPolyQ(names, {}, _trusted=True)

    @staticmethod
    def constant(names: Sequence[str], coeff: LaurentQ) -> MultiPolyQ:
        if coeff.is_zero:
            return MultiPolyQ.zero(names)
        return MultiPolyQ(names, {(0,) * len(names): coeff}, _trusted=True)

    @staticmethod
    def one(names: Sequence[str]) -> MultiPolyQ:
        return MultiPolyQ.constant(names, LaurentQ.one())

    @staticmethod
    def variable(names: Sequence[str], index: int) -> MultiPolyQ:
        exps = [0] * len(names)
        exps[index] = 1
        return MultiPolyQ(names, {tuple(exps): LaurentQ.one()}, _trusted=True)

    @staticmethod
    def monomial(
        names: Sequence[str], exps: Sequence[int], coeff: LaurentQ
    ) -> MultiPolyQ:
        return MultiPolyQ(names, {tuple(exps): coeff})

    # -- predicates and access -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def items(self) -> Iterator[tuple[tuple[int, ...], LaurentQ]]:
        return iter(self._terms.items())

    def coeff(self, exps: Sequence[int]) -> LaurentQ:
        return self._terms.get(tuple(exps), LaurentQ.zero())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPolyQ):
            return NotImplemented
        return self.names == other.names and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    # -- arithmetic --------------------------------------------------------------

    def _as_column(self) -> PackedColumn:
        """The terms as one packed column keyed by exponent vector, built once and kept."""
        if self._column is None:
            self._column = PackedColumn(self._terms.items())
        return self._column

    def _check_names(self, other: MultiPolyQ) -> None:
        if self.names != other.names:
            raise DomainError(f"variable mismatch: {self.names} vs {other.names}")

    def __neg__(self) -> MultiPolyQ:
        return MultiPolyQ(
            self.names, {e: -c for e, c in self._terms.items()}, _trusted=True
        )

    def _coerce(self, other: MultiPolyQ | LaurentQ | int) -> MultiPolyQ | None:
        if isinstance(other, int):
            return MultiPolyQ.constant(self.names, LaurentQ.integer(other))
        if isinstance(other, LaurentQ):
            return MultiPolyQ.constant(self.names, other)
        if isinstance(other, MultiPolyQ):
            return other
        return None

    def __add__(self, other: MultiPolyQ | LaurentQ | int) -> MultiPolyQ:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check_names(o)
        out = accumulate(chain(self._terms.items(), o._terms.items()))
        return MultiPolyQ(self.names, out, _trusted=True)

    __radd__ = __add__

    def __sub__(self, other: MultiPolyQ | LaurentQ | int) -> MultiPolyQ:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: LaurentQ | int) -> MultiPolyQ:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: MultiPolyQ | LaurentQ | int) -> MultiPolyQ:
        if isinstance(other, (int, LaurentQ)):
            if not other:
                return MultiPolyQ.zero(self.names)
            return MultiPolyQ(
                self.names,
                {e: c * other for e, c in self._terms.items()},
                _trusted=True,
            )
        if not isinstance(other, MultiPolyQ):
            return NotImplemented
        # The larger factor is the column, each term of the smaller one a
        # kernel term; shift_sum checks the names.
        small, large = (other, self) if len(self._terms) > len(other._terms) else (self, other)
        return shift_sum(self.names, ((small, large, (0,) * len(self.names)),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> MultiPolyQ:
        if n < 0:
            raise DomainError("negative power of a polynomial")
        result = MultiPolyQ.one(self.names)
        for _ in range(n):
            result = result * self
        return result

    # -- substitutions -------------------------------------------------------------

    def shift_multi(self, ks: Sequence[int]) -> MultiPolyQ:
        """Replace every variable v by q^ks[v] * v (each term gains q^(ks . exps))."""
        if all(k == 0 for k in ks):
            return self
        return MultiPolyQ(
            self.names,
            {
                e: c.shifted(sum(k * ev for k, ev in zip(ks, e)))
                for e, c in self._terms.items()
            },
            _trusted=True,
        )

    def evaluate_at_q_powers(self, exps: Sequence[int]) -> LaurentQ:
        """Substitute variable v by q^{exps[v]} for every v; exact LaurentQ.

        One packed sum over the kept column (_as_column): entry j lands at
        q^(los[j] + exps . outs[j]).  Slot t of the sum adds at most one
        digit of each entry, so |slot| <= sum_j ||e_j||_inf, and the sum
        runs at the width of that bound (_width_for), at stride 2 when the
        column has stride 2 and every entry lands at one parity.  The
        polynomial keeps what this needs (_evaluation), built on first
        evaluation: the column's exponents by variable, whether its los
        share one parity, the sums of its entries' ||.||_1 and ||.||_inf,
        the width of the latter and, by stride, the column's ints at that
        width and stride (its own ints where both match, else re-packed
        once).  A point whose coordinates are all even, as every K and R
        point is, keeps the los' parities, so only an odd point looks at
        the parities of the landing exponents.
        """
        # index() rejects a float or other non-integer before any shift.
        point = tuple(map(index, exps))
        if len(point) != self.arity:
            raise DomainError("evaluation point has wrong arity")
        if not self._terms:
            return LaurentQ.zero()
        column = self._as_column()
        if self._evaluation is None:
            ni = sum(column.nis)
            one_parity = len({lo & 1 for lo in column.los}) == 1
            self._evaluation = (
                tuple(zip(*column.outs)), one_parity, sum(column.n1s), ni, _width_for(ni), {}
            )
        by_var, one_parity, n1, ni, w, packed = self._evaluation
        los = column.los
        for k, var_exps in zip(point, by_var):
            if k:
                los = list(map(add, los, map(k.__mul__, var_exps)))
        if any([k & 1 for k in point]):
            one_parity = len({lo & 1 for lo in los}) == 1
        s = 2 if column.s == 2 and one_parity else 1
        ps = packed.get(s)
        if ps is None:
            ps = packed[s] = column.ps if (column.w, column.s) == (w, s) else tuple(
                [_repack(p, column.w, column.s, w, s) for p in column.ps]
            )
        base, odd = min(los), s - 1
        total = sum([p << w * ((lo - base) >> odd) for lo, p in zip(los, ps)])
        return _strip_low(base, total, w, n1, ni, s)

    def partial_eval_q_power(self, var: int, k: int) -> MultiPolyQ:
        """Substitute variable var by q^k, keeping the other variables."""
        out = accumulate(
            (e[:var] + (0,) + e[var + 1 :], coeff.shifted(k * e[var]))
            for e, coeff in self._terms.items()
        )
        return MultiPolyQ(self.names, out, _trusted=True)

    # -- inspection ------------------------------------------------------------------

    def q_degree_range(self) -> tuple[int, int]:
        """(min, max) q-exponent over all coefficients; error on zero."""
        if not self._terms:
            raise DomainError("q-degree of the zero polynomial")
        lo = min(c.min_exp() for c in self._terms.values())
        hi = max(c.max_exp() for c in self._terms.values())
        return (lo, hi)

    def q_coefficient_poly(self, q_exp: int) -> MultiPolyQ:
        """The coefficient of q^{q_exp}, as a polynomial with integer coefficients."""
        out: dict[tuple[int, ...], LaurentQ] = {}
        for e, coeff in self._terms.items():
            c = coeff.coeff(q_exp)
            if c:
                out[e] = LaurentQ.integer(c)
        return MultiPolyQ(self.names, out, _trusted=True)

    def transform_q_inverse(self, power_shift: int) -> MultiPolyQ:
        """Apply q -> q^{-1} to every coefficient, then multiply by q^{power_shift}."""
        return MultiPolyQ(
            self.names,
            {
                e: LaurentQ({power_shift - qe: c for qe, c in coeff.items()})
                for e, coeff in self._terms.items()
            },
            _trusted=True,
        )

    def monomial_exponents(self) -> set[tuple[int, ...]]:
        return set(self._terms)

    # -- rendering ----------------------------------------------------------------------

    def _sorted_exponents(self) -> list[tuple[int, ...]]:
        return sorted(self._terms, key=lambda e: tuple(reversed(e)), reverse=True)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for exps in self._sorted_exponents():
            coeff = self._terms[exps]
            parts = sorted(
                (name, e) for name, e in zip(self.names, exps) if e
            )
            mono = "*".join(name if e == 1 else f"{name}^{e}" for name, e in parts)
            body, negative = _coeff_body(coeff, mono)
            if not pieces:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPolyQ[{','.join(self.names)}]({self})"

    def to_json(self) -> dict:
        return {
            "vars": list(self.names),
            "terms": [
                {"exp": list(e), "coeff": self._terms[e].to_json()}
                for e in sorted(self._terms)
            ],
        }

    @staticmethod
    def from_json(data: dict) -> MultiPolyQ:
        return MultiPolyQ(
            tuple(data["vars"]),
            {
                tuple(t["exp"]): LaurentQ.from_json(t["coeff"])
                for t in data["terms"]
            },
        )


def _coeff_body(coeff: LaurentQ, mono: str) -> tuple[str, bool]:
    """Render coeff*mono, returning (body, sign-is-negative)."""
    terms = sorted(coeff.items())
    all_neg = all(c < 0 for _, c in terms)
    if all_neg:
        coeff = -coeff
        terms = sorted(coeff.items())
    if not mono:
        return (str(coeff) if len(terms) == 1 else f"({coeff})", all_neg)
    if len(terms) == 1:
        e, c = terms[0]
        if e == 0 and abs(c) == 1:
            return (mono, all_neg)
        return (f"{coeff}*{mono}", all_neg)
    return (f"({coeff})*{mono}", all_neg)


def shift_sum(names: Sequence[str], terms: Iterable[tuple]) -> MultiPolyQ:
    """The sum of coeff * poly.shift_multi(shifts) over (coeff, poly, shifts).

    All products go into one exactq.apply_columns call, so no partial sum
    or shifted polynomial is built.  Each poly serves as its own column
    (MultiPolyQ._as_column, built once per poly); a group's shift only
    moves the exponents (los) its kernel terms place the column's entries
    at, and the packed ints, with their width and norms, are shared.  Each
    term of coeff is one kernel term.
    """
    names = tuple(names)
    coeffs, prefixes, hits = [], [], []
    for coeff, poly, shifts in terms:
        if coeff.names != names or poly.names != names:
            raise DomainError(f"variable mismatch: {names} vs {coeff.names}, {poly.names}")
        column = poly._as_column()
        los = column.los
        if any(shifts):
            los = tuple(lo + sum(map(mul, shifts, e)) for lo, e in zip(los, column.outs))
        coeffs += coeff._terms.values()
        prefixes += coeff._terms
        hits += [(column, column.outs, los)] * len(coeff._terms)
    recs, w, s = to_records(coeffs)
    out = apply_columns(list(zip(recs, prefixes, hits)), _exponent_keys, w, s)
    return MultiPolyQ(names, from_records(*out), _trusted=True)


def _exponent_keys(prefix: tuple[int, ...], outs: tuple) -> Iterable[tuple[int, ...]]:
    """The output keys of a polynomial column times the monomial with exponents prefix."""
    if any(prefix):
        return [tuple(map(add, prefix, e)) for e in outs]
    return outs


def variables(names: Sequence[str]) -> list[MultiPolyQ]:
    """The variables of the given tuple as polynomials, in order."""
    return [MultiPolyQ.variable(names, i) for i in range(len(names))]


def q_power(names: Sequence[str], exp: int, coeff: int = 1) -> MultiPolyQ:
    """The constant polynomial coeff * q^exp."""
    return MultiPolyQ.constant(names, LaurentQ.monomial(exp, coeff))

