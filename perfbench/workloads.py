"""Seeded inputs and the check lists of the three benchmark workloads.

A workload is a list of checks.  Each check is a (label, callable) pair;
the callable returns a VerificationReport or a bool, and a check passes
when that value says so.  The package under test only ever sees the
generated occupation tuples and index ranges.

Sizes are chosen so that one cold pass plus one warm pass fits several
times into one timed run (see README.md for the measurements behind them).
"""

from __future__ import annotations

import random
from itertools import product
from pathlib import Path

WORKLOADS = ("reflection", "tetrahedron", "families")

# K acts on sites (2,4,6,8) in the third factor of the reflection word.  At a
# fixed total occupation the per-state cost rises about 13x from occupations
# (0,0) to (2,2) at sites 4 and 6, so a plain draw per total occupation gives
# run-to-run spreads of 35-45%; one draw per occupation of this quartet keeps
# the mix of cheap and expensive states the same for every seed.
REFLECTION_QUARTET = (2, 4, 6, 8)

SIZES = {
    "full": {
        "reflection": {"totals": (5, 6), "max_occ": 2},
        "tetrahedron": {"max_occ": 3, "one_in": 8},
        "families": {
            "e_max_bc": 3,
            "props_max_bc": 3,
            "closed_form_bc": 3,
            "p_max_b": 16,
            "p_relations_max_b": 9,
        },
        "setup_probes_per_round": 3,
    },
    # Tiny sizes for the harness smoke test; never used for measurements.
    "smoke": {
        "reflection": {"totals": (2,), "max_occ": 2},
        "tetrahedron": {"max_occ": 1, "one_in": 4},
        "families": {
            "e_max_bc": 1,
            "props_max_bc": 1,
            "closed_form_bc": 1,
            "p_max_b": 3,
            "p_relations_max_b": 2,
        },
        "setup_probes_per_round": 1,
    },
}


# -- state generators ------------------------------------------------------------


def reflection_states(seed: int, totals: tuple[int, ...], max_occ: int) -> list[tuple[int, ...]]:
    """One 9-fold state per (total occupation, quartet occupation) cell.

    For each total in `totals` and each occupation of the K(2,4,6,8)
    quartet that fits, the five remaining sites are drawn uniformly from
    the occupations (each <= max_occ) that complete the total.
    """
    rng = random.Random(seed)
    others = [p for p in range(9) if p not in REFLECTION_QUARTET]
    rests: dict[int, list[tuple[int, ...]]] = {}
    for rest in product(range(max_occ + 1), repeat=len(others)):
        rests.setdefault(sum(rest), []).append(rest)
    states = []
    for total in totals:
        for quartet in product(range(max_occ + 1), repeat=len(REFLECTION_QUARTET)):
            candidates = rests.get(total - sum(quartet))
            if not candidates:
                continue
            state = [0] * 9
            for pos, m in zip(REFLECTION_QUARTET, quartet):
                state[pos] = m
            for pos, m in zip(others, rng.choice(candidates)):
                state[pos] = m
            states.append(tuple(state))
    return states


def tetrahedron_states(seed: int, max_occ: int, one_in: int) -> list[tuple[int, ...]]:
    """A proportional sample of the 6-fold states with occupations <= max_occ.

    Each total occupation contributes round(n / one_in) of its n states
    (at least one), so every seed sees the same mix of totals.
    """
    rng = random.Random(seed)
    strata: dict[int, list[tuple[int, ...]]] = {}
    for state in product(range(max_occ + 1), repeat=6):
        strata.setdefault(sum(state), []).append(state)
    states = []
    for total in sorted(strata):
        stratum = strata[total]
        states.extend(sorted(rng.sample(stratum, max(1, round(len(stratum) / one_in)))))
    return states


def composition(states: list[tuple[int, ...]]) -> dict[str, int]:
    """States per total occupation, as recorded with every result."""
    counts: dict[str, int] = {}
    for state in states:
        key = str(sum(state))
        counts[key] = counts.get(key, 0) + 1
    return counts


# -- check lists -------------------------------------------------------------------


def clear_memo_tables() -> None:
    from qreflect import qfamily, tensorops, threedk, threedr

    for module in (qfamily, threedr, threedk, tensorops):
        module.clear_caches()


def families_checks(seed: int, size: dict, cache_path: Path):
    """The polynomial pipeline, cold, ending in a cache round trip.

    The input ranges are fixed; the seed only shuffles the order of the E
    and P relation checks, which moves where memo-table construction lands
    but not the total work.
    """
    from qreflect import cache, qfamily, threedk, threedr
    from qreflect.cli import golden_report

    rng = random.Random(seed)
    n = size["e_max_bc"]
    e_cases = [
        (name, b, c)
        for name in threedk.E_RELATION_IDS
        for b in range(n + 1)
        for c in range(n + 1)
    ]
    rng.shuffle(e_cases)
    p_cases = list(range(size["p_relations_max_b"] + 1))
    rng.shuffle(p_cases)
    m = size["props_max_bc"]
    bc_pairs = [(b, c) for b in range(m + 1) for c in range(m + 1 - b)]
    cf = size["closed_form_bc"]
    held: dict = {}

    def e_checks(tag):
        return [
            (f"{tag} {name} ({b},{c})", lambda a=(name, b, c): threedk.verify_e(*a))
            for name, b, c in e_cases
        ]

    def export():
        held["q"] = qfamily.cache_snapshot()
        held["p"] = threedr.p_cache_snapshot()
        held["entries"] = cache.export_cache(cache_path)
        return held["entries"] == len(held["q"]) + len(held["p"])

    def reimport():
        clear_memo_tables()
        entries = cache.import_cache(cache_path)
        return (
            entries == held["entries"]
            and qfamily.cache_snapshot() == held["q"]
            and threedr.p_cache_snapshot() == held["p"]
        )

    checks = e_checks("E")
    for b, c in bc_pairs:
        checks.append((f"support ({b},{c})", lambda a=(b, c): qfamily.check_support_and_ring(*a)))
        checks.append((f"specializations ({b},{c})", lambda a=(b, c): qfamily.check_specializations(*a)))
        checks.append((f"routes ({b},{c})", lambda a=(b, c): qfamily.check_route_agreement(*a)))
    checks.append(
        (
            f"closed form ({cf},{cf})",
            lambda: qfamily.closed_form_q(cf, cf) == qfamily.q_polynomial(cf, cf),
        )
    )
    checks.append((f"P_{size['p_max_b']} recursion", lambda: threedr.p_ring_report(size["p_max_b"])))
    checks.extend(
        (f"P relations b={b}", lambda b=b: threedr.verify_p_relations(b)) for b in p_cases
    )
    checks.append(("golden set", golden_report))
    checks.append(("cache export", export))
    checks.append(("cache import equals computed", reimport))
    checks.extend(e_checks("imported E"))
    return checks


def checks_for(workload: str, seed: int, size: dict, scratch: Path):
    """(checks, description of the inputs) for one workload at one seed."""
    if workload == "families":
        checks = families_checks(seed, size["families"], scratch / f"families-cache-{seed}.json")
        return checks, {"checks": len(checks)}
    from qreflect import tensorops

    # The verifier is looked up at call time, so that a traced run sees it.
    if workload == "reflection":
        states = reflection_states(seed, **size["reflection"])
        checks = [(f"reflection {s}", lambda s=s: tensorops.verify_reflection(s)) for s in states]
    elif workload == "tetrahedron":
        states = tetrahedron_states(seed, **size["tetrahedron"])
        checks = [(f"tetrahedron {s}", lambda s=s: tensorops.verify_tetrahedron(s)) for s in states]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return checks, {"states": len(states), "composition": composition(states)}


# -- negative controls -------------------------------------------------------------


# Zeroing one element leaves an equation intact when the element's block is
# one-dimensional or the change cancels on both sides, so the control tries
# generated states in order until one fails, up to this many.
CONTROL_TRIES = 10


def negative_control(workload: str, seed: int, size: dict) -> tuple[str, bool]:
    """(description, passed) of a corrupted verification that must fail.

    reflection/tetrahedron: generated states in order, each verified with
    one nonzero element of the first factor it meets forced to zero by
    tensorops.zeroed_key; the control passes only if none of the first
    CONTROL_TRIES states fails.  families: one imported Q polynomial
    perturbed by one term, after which an E relation that reads it must
    fail.
    """
    from qreflect import qfamily, tensorops, threedk, threedr

    if workload == "families":
        original = qfamily.q_polynomial(1, 1)
        qfamily.cache_install({(1, 1): original + 1})
        try:
            rep = threedk.verify_e("E22", 1, 0)
        finally:
            qfamily.cache_install({(1, 1): original})
        return "E22 at (1,0) with Q_(1,1) + 1 installed", rep.passed
    if workload == "reflection":
        name, states = "K", reflection_states(seed, **size["reflection"])
        block, element = threedk.k_block_states, threedk.k_element

        def inputs(state):
            i, j, k, l = state[:4]
            return state[:4], (i + j + k, j + 2 * k + l)

        def verify(state, corrupted):
            return tensorops.verify_reflection(state, k_fn=corrupted)
    elif workload == "tetrahedron":
        name, states = "R", tetrahedron_states(seed, **size["tetrahedron"])[::-1]
        block, element = threedr.r_block_states, threedr.r_element

        def inputs(state):
            i, j, k = state[:3]
            return state[:3], (i + j, j + k)

        def verify(state, corrupted):
            return tensorops.verify_tetrahedron(state, element=corrupted)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    tried = 0
    for state in states:
        inp, weights = inputs(state)
        if not any(inp):
            continue
        key = next(out + inp for out in block(*weights) if not element(*out, *inp).is_zero)
        if not verify(state, tensorops.zeroed_key(element, key)).passed:
            return f"{workload} {state} with {name}{key} zeroed", False
        tried += 1
        if tried == CONTROL_TRIES:
            break
    return f"{workload}: no failure on {tried} corrupted states", True
