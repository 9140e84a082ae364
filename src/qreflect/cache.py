"""Schema-versioned JSON persistence for the keys of the Q and P memo tables.

A library round trip: the CLI never reads or writes these files.  The
file layout is {"schema_version": 3, "q": [[b, c], ...], "p": [b, ...]}:
the sorted keys of the Q_{b,c} and P_b tables, and no polynomial.
Importing rebuilds each listed entry by its own recursion, so a file can
cost time but never change an answer.  A version mismatch triggers a
rebuild (the file is ignored) and is never silently reused, so a file in
an older layout (schema 2 held every coefficient) is a silent miss; a file
that cannot be read or parsed, or lists a key that is not an int >= 0, is
ignored the same way, with a warning on stderr.
"""

from __future__ import annotations

import json
import os
import stat
import sys
import tempfile
from pathlib import Path

from . import qfamily, threedr

SCHEMA_VERSION = 3


def export_cache(path: str | Path) -> int:
    """Write the keys of the in-memory Q and P tables to path; returns entry count."""
    q_keys = sorted(qfamily.cache_snapshot())
    p_keys = sorted(threedr.p_cache_snapshot())
    payload = {"schema_version": SCHEMA_VERSION, "q": q_keys, "p": p_keys}
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
    return len(q_keys) + len(p_keys)


def _file_mode(path: Path) -> int:
    """Permission bits of path, or those a new file would get under the umask."""
    try:
        return stat.S_IMODE(path.stat().st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def import_cache(path: str | Path) -> int:
    """Rebuild the entries a cache file lists; returns the number of keys listed.

    Each listed Q_{b,c} and P_b is computed by qfamily.q_polynomial and
    threedr.p_polynomial, so no value is read from the file.  Returns 0
    (and builds nothing) when the file is missing or carries a different
    schema version.  A file that cannot be read or parsed (bad JSON, a
    missing section, a key that is not a non-bool int >= 0 or a Q key that
    is not a pair) is a miss as well: it builds nothing and prints one
    warning line on stderr.
    """
    path = Path(path)
    if not path.exists():
        return 0
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("schema_version") != SCHEMA_VERSION:
            return 0
        q_keys = {(_index(b), _index(c)) for b, c in payload["q"]}
        p_keys = {_index(b) for b in payload["p"]}
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        print(
            f"warning: ignoring cache file {path}: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 0
    # Build each packed column too, or the first E checks after an import pay for it.
    for b, c in sorted(q_keys):
        qfamily.q_polynomial(b, c)._as_column()
    for b in sorted(p_keys):
        threedr.p_polynomial(b)._as_column()
    return len(q_keys) + len(p_keys)


def _index(value) -> int:
    """value as a table index; ValueError unless it is an int >= 0 (bools excluded)."""
    if type(value) is not int or value < 0:
        raise ValueError(f"cache key {value!r} is not an int >= 0")
    return value
