"""Machine speed probe, for timings that survive a shared host's drift.

On the 2-core reference VM the same work ran up to 2x slower for minutes
at a time, with CPU time equal to wall time: the host slows the vCPU down,
it does not take it away, and the speed also swings within a second.  A
fixed pure-Python loop of dict and integer work, of the kind the package
does, slows down with it.  A timed check is divided by the mean time of the
probes run within WINDOW_S of it, in the same process, and multiplied by
REFERENCE_S: it reads as seconds on a machine where the probe takes
REFERENCE_S.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from time import perf_counter

ITERATIONS = 10_000
# The probe's time on the reference VM when it was not slowed down.
REFERENCE_S = 1.5e-3
# Probe at most this often while a pass runs; about 3% overhead.
EVERY_S = 0.05
# Probes this close to a check, before or after, describe its speed; the
# speed swings within a second.  Over ten seeds per workload, this window
# gave pass-time spreads of 0.02-0.06, one factor per pass 0.03-0.13.
WINDOW_S = 0.5


def probe() -> float:
    """Seconds for one run of the fixed loop."""
    start = perf_counter()
    acc: dict[int, int] = {}
    get = acc.get
    for i in range(ITERATIONS):
        key = i & 63
        acc[key] = get(key, 0) + i * 2654435761
    return perf_counter() - start


def scale(probes: list[float]) -> float:
    """Factor that turns seconds measured alongside `probes` into reference seconds."""
    return REFERENCE_S * len(probes) / sum(probes)


def check_scales(timed: dict) -> list[float]:
    """One scale factor per check of a pass, from the probes around it.

    `timed` holds the pass's check starts and durations (check_t, check_s)
    and its probe end times and durations (probe_t, probe_s).
    """
    times, probes = timed["probe_t"], timed["probe_s"]
    scales = []
    for start, seconds in zip(timed["check_t"], timed["check_s"]):
        lo = bisect_left(times, start - WINDOW_S)
        hi = bisect_right(times, start + seconds + WINDOW_S)
        scales.append(scale(probes[lo:hi] or probes))
    return scales

