"""qreflect benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload reflection --seed 1 --seconds 45 --trace 0

Run from anywhere; it benchmarks the source tree next to this directory
(../src).  With --trace 0 it repeats rounds for --seconds seconds, each
round a fresh interpreter (perfbench/worker.py) that runs the workload's
checks cold and then warm, and reports the end-to-end metrics from each
check's median time over the rounds, in reference seconds (speed.py).  With --trace 1 it runs one untraced and one traced round and
reports the per-layer metrics.  Every round checks every verdict and a
negative control.  The last stdout line is the result object; the line
before it holds the environment and per-round details.  Exit code 0 when
every verdict is right, 1 when one is wrong, 2 when it cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = HERE / "worker.py"
# Every run must end within 180 s; a round that would overrun is stopped.
HARD_LIMIT_S = 170.0

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import qreflect.cli; "
    "print(repr(time.monotonic()))"
)


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a wrong verdict)."""


def _remaining(started: float) -> float:
    left = HARD_LIMIT_S - (monotonic() - started)
    if left <= 0:
        raise HarnessError("out of time")
    return left


def measure_setup(started: float) -> float:
    """Reference seconds from spawning an interpreter until `import qreflect.cli` returns.

    Scaled by speed probes taken in this process just before the spawn.
    """
    factor = speed.scale([speed.probe() for _ in range(5)])
    t0 = monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=_remaining(started),
    )
    if proc.returncode != 0:
        raise HarnessError(f"importing qreflect.cli failed: {proc.stderr.strip()}")
    return (float(proc.stdout) - t0) * factor


def run_round(args, trace: int, started: float) -> dict:
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--trace", str(trace), "--out", str(OUT),
    ]
    t0 = monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=_remaining(started))
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = monotonic() - t0
    return result


def tail_index(n: int) -> int:
    """Index, in ascending order, of the value with ten values above it.

    That is the highest percentile with at least ten states beyond it; with
    ten states or fewer there is none, and the largest value stands in.
    """
    return n - 11 if n > 10 else n - 1


def check_times(rounds: list[dict], pass_name: str) -> list[float]:
    """Each check's median time over rounds, in reference seconds."""
    scaled = []
    for r in rounds:
        timed = r[pass_name]
        scaled.append([t * f for t, f in zip(timed["check_s"], speed.check_scales(timed))])
    return [statistics.median(times) for times in zip(*scaled)]


def end_to_end(rounds: list[dict], setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics from the rounds of one run, in reference seconds.

    Each check's time is scaled by the speed probes taken around it (see
    speed.py), which removes the host's drift; its median over the rounds
    then drops bursts that hit one round.  A pass's time is the sum over its
    checks.  Per-state latency comes from the warm pass, where it
    is the operator work the state needs; in the cold pass it mostly shows
    which state happened to build a shared element first.
    """
    cold = check_times(rounds, "cold")
    warm = check_times(rounds, "rerun")
    per_check = sorted(warm)
    n = len(per_check)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "verdict_s": (sum(cold), "s"),
        "rerun_s": (sum(warm), "s"),
        "state_p50_ms": (statistics.median(per_check) * 1e3, "ms"),
        "state_tail_ms": (per_check[tail_index(n)] * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MiB"),
    }
    tail = {"states": n, "percentile": round(100 * (tail_index(n) + 1) / n, 2), "beyond": n - 1 - tail_index(n)}
    return metrics, tail


def per_layer(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics of the traced round, plus the cost of tracing.

    Layer times are raw seconds of the traced round; the pass times behind
    the overhead are reference seconds, like the end-to-end metrics.
    """
    metrics = dict(traced["layers"])
    metrics["trace.verdict_s"] = sum(check_times([traced], "cold"))
    metrics["trace.untraced_verdict_s"] = sum(check_times([untraced], "cold"))
    metrics["trace.overhead_ratio"] = metrics["trace.verdict_s"] / metrics["trace.untraced_verdict_s"]
    return {name: (value, spans.unit(name)) for name, value in metrics.items()}


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        revision = lines[1] if top.returncode == 0 and Path(lines[0]) == ROOT else None
    except (OSError, subprocess.SubprocessError):
        revision = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "sizes": workloads.SIZES[args.size][args.workload],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args()
    started = monotonic()
    if not (SRC / "qreflect" / "cli.py").is_file():
        print(f"error: no qreflect source tree at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    probes = workloads.SIZES[args.size]["setup_probes_per_round"]
    try:
        measure_setup(started)  # compiles bytecode; not recorded
        setup: list[float] = []
        if args.trace:
            rounds = [run_round(args, 0, started), run_round(args, 1, started)]
            metrics, tail = per_layer(*rounds), None
        else:
            # Rounds repeat until the next one would end after --seconds;
            # set-up probes are spread between them, away from any one burst.
            rounds = []
            budget = min(args.seconds, HARD_LIMIT_S)
            while not rounds or monotonic() - started + max(r["wall_s"] for r in rounds) <= budget:
                setup.extend(measure_setup(started) for _ in range(probes))
                rounds.append(run_round(args, 0, started))
            metrics, tail = end_to_end(rounds, setup)
    except (HarnessError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures = [f for r in rounds for p in ("cold", "rerun") for f in r[p]["failures"]]
    attempted = sum(r[p]["attempted"] for r in rounds for p in ("cold", "rerun"))
    controls_failed = all(not r["control"]["passed"] for r in rounds)
    correct = not failures and controls_failed
    details = {
        "environment": environment(args),
        "inputs": rounds[0]["inputs"],
        "rounds": [
            {"verdict_s": r["cold"]["seconds"], "rerun_s": r["rerun"]["seconds"],
             "speed_scale": speed.scale(r["cold"]["probe_s"] + r["rerun"]["probe_s"]),
             "wall_s": r["wall_s"], "peak_rss_mb": r["peak_rss_mb"]}
            for r in rounds
        ],
        "setup_s": setup,
        "state_tail": tail,
        "fail_share": len(failures) / attempted,
        "failures": failures[:20],
        "negative_control": {"label": rounds[0]["control"]["label"], "failed_as_required": controls_failed},
        "span_dump": rounds[-1].get("span_dump"),
    }
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
