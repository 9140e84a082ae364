"""The registry of every memo table in the package.

Each table is a plain dict, filled by the module that registered it, so a
lookup costs what any dict lookup costs.  The polynomials Q, dual Q and P
have a table each, and a polynomial keeps its packed column once built.  R
and K matrix elements are cached only as the packed columns of
tensorops.apply_local (R_local, K_local): exactq.PackedColumn values, each
the nonzero entries of one local input at their true norms, which no call
changes.  R_index and K_index map each field layout to a dict from the
local code of an input to its column, the int codes of its outputs there
and its exponents, so a local input is decoded and looked up once per
layout; an element override never reads or fills them.  `clear` empties
every table and puts back the entries it was registered with (P_0 = 1 is
the only one).
The lru_caches of exactq, on the one q-Pochhammer product behind its three
public Pochhammer functions and on the Gaussian binomials, cache pure
functions and read no table, so they are not registered here.
"""

from __future__ import annotations

_TABLES: dict[str, tuple[dict, dict]] = {}


def table(name: str, seed: dict | None = None) -> dict:
    """A new memo table registered under name, holding seed's entries."""
    memo = dict(seed or {})
    _TABLES[name] = (memo, dict(memo))
    return memo


def tables() -> dict[str, dict]:
    """Every registered table by name; the live dicts, not copies."""
    return {name: memo for name, (memo, _) in _TABLES.items()}


def clear() -> None:
    """Empty every registered table, then restore its seed entries."""
    for memo, seed in _TABLES.values():
        memo.clear()
        memo.update(seed)
