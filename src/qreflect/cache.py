"""Schema-versioned JSON persistence for the Q and P polynomial caches.

A library round trip: the CLI never reads or writes these files.  The
file layout is {"schema_version": 2, "q": {"b,c": <poly>}, "p": {"b":
<poly>}}, and a polynomial is {"vars": [...], "terms": [row, ...]} with
one row per term,

    [e_1, ..., e_n, lo, s, "c_0 c_1 ... c_t"],

its exponent vector, then its coefficient sum_i c_i q^(lo + s*i) as
LaurentQ.to_digits gives it: the lowest q-exponent, the stride (1 or 2)
and the digits as one space-separated decimal string, both end digits
nonzero.  A version mismatch triggers a rebuild (the file is ignored) and
is never silently reused, so a file in an older layout (schema 1 wrote a
[exponent, "coefficient"] pair per q-power) is a silent rebuild; a file
that cannot be read or parsed is ignored the same way, with a warning on
stderr.  A file that parses is trusted: its polynomials are installed as
they are.
"""

from __future__ import annotations

import json
import os
import stat
import sys
import tempfile
from pathlib import Path

from . import qfamily, threedr
from .exactq import LaurentQ
from .multipoly import VARS3, VARS4, MultiPolyQ

SCHEMA_VERSION = 2


def export_cache(path: str | Path) -> int:
    """Write the in-memory Q and P caches to path; returns entry count."""
    q_entries = qfamily.cache_snapshot()
    p_entries = threedr.p_cache_snapshot()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "q": {f"{b},{c}": _poly_data(poly) for (b, c), poly in sorted(q_entries.items())},
        "p": {str(b): _poly_data(poly) for b, poly in sorted(p_entries.items())},
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Write a sibling temp file and rename it over the target, so that a
    # reader or a concurrent writer sharing the file never sees a torn one.
    # mkstemp makes the file 0600; give it the target's mode, or the umask
    # default for a new file, so that other users sharing it can still read.
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload))
        os.chmod(tmp, _file_mode(path))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return len(q_entries) + len(p_entries)


def _file_mode(path: Path) -> int:
    """Permission bits of path, or those a new file would get under the umask."""
    try:
        return stat.S_IMODE(path.stat().st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def import_cache(path: str | Path) -> int:
    """Load a cache file into memory; returns entries accepted.

    The entries are installed without checking them: a wrong polynomial in
    a well-formed file becomes the memoized value.  Returns 0 (and loads
    nothing) when the file is missing or carries a different schema
    version.  A file that cannot be read or parsed (bad JSON, a bad key or
    polynomial) is a miss as well: it loads nothing and prints one warning
    line on stderr.
    """
    path = Path(path)
    if not path.exists():
        return 0
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("schema_version") != SCHEMA_VERSION:
            return 0
        q_entries = _entries(payload, "q", _q_key, VARS4)
        p_entries = _entries(payload, "p", int, VARS3)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        print(
            f"warning: ignoring cache file {path}: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 0
    qfamily.cache_install(q_entries)
    threedr.p_cache_install(p_entries)
    return len(q_entries) + len(p_entries)


def _q_key(key: str) -> tuple[int, int]:
    b, c = key.split(",")
    return int(b), int(c)


def _entries(payload: dict, section: str, parse_key, names: tuple[str, ...]) -> dict:
    """One section's polynomials by parsed key; raises on any malformed entry."""
    entries = {}
    for key, data in payload.get(section, {}).items():
        if tuple(data["vars"]) != names:
            raise ValueError(f"{section} entry {key!r} is over {data['vars']}, need {names}")
        entries[parse_key(key)] = _poly(data["terms"], names)
    return entries


def _poly_data(poly: MultiPolyQ) -> dict:
    """A polynomial in the file layout: one row per term, exponents first."""
    rows = []
    for exps in sorted(poly.monomial_exponents()):
        lo, s, digits = poly.coeff(exps).to_digits()
        rows.append([*exps, lo, s, " ".join(map(str, digits))])
    return {"vars": list(poly.names), "terms": rows}


def _poly(rows: list, names: tuple[str, ...]) -> MultiPolyQ:
    """Inverse of _poly_data; raises on a malformed row."""
    n = len(names)
    terms = {}
    for row in rows:
        if len(row) != n + 3:
            raise ValueError(f"term row {row!r} does not have {n + 3} fields")
        lo, s, digits = row[n:]
        terms[tuple(row[:n])] = LaurentQ.from_digits(lo, s, list(map(int, digits.split())))
    return MultiPolyQ(names, terms)
