"""The registry of every memo table in the package.

Each table is a plain dict, registered once under its own name and filled
by the module that registered it, so a lookup costs what any dict lookup
costs.  Q, dual Q and P have a table each, and a polynomial keeps its
packed column once built.  Each local operator of tensorops.apply_local (R,
K and the six q-oscillator generators) has two.  Its columns (R_local,
K_local, gen_a+_local, ...) are exactq.PackedColumn values, each the
nonzero entries of one local input at their true norms, which no call
changes.  Its index (R_index, K_index, gen_a+_index, ...) maps each field
layout to a dict from the local code of an input to its column, the int
codes of its outputs there and its exponents, so a local input is decoded
and looked up once per layout.  An element override never reads or fills
either.  `clear` empties every table.  The lru_caches of exactq, on the
one q-Pochhammer product behind its three public Pochhammer functions and
on the Gaussian binomials, cache pure functions and read no table, so they
are not registered here.
"""

from __future__ import annotations

_TABLES: dict[str, dict] = {}


def table(name: str) -> dict:
    """A new, empty memo table registered under name; ValueError if name is taken."""
    if name in _TABLES:
        raise ValueError(f"memo table {name!r} is already registered")
    memo = _TABLES[name] = {}
    return memo


def tables() -> dict[str, dict]:
    """Every registered table by name; the live dicts, not copies."""
    return dict(_TABLES)


def clear() -> None:
    """Empty every registered table."""
    for memo in _TABLES.values():
        memo.clear()
