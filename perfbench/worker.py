"""One benchmark round in a fresh interpreter: cold pass, warm pass, control.

Run by run.py, never by hand:

    python3 perfbench/worker.py --workload W --seed N --size full --trace 0|1 --out DIR

The cold pass runs the workload's checks with every memo table empty
(this interpreter has computed nothing yet); the warm pass runs the same
checks again in the same process.  The negative control runs last, with
tracing off.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402


def run_pass(checks) -> dict:
    """Time each check; a check that raises counts as failed.

    Speed probes run between checks, at most every speed.EVERY_S, outside
    the timed intervals; their end times go with them for speed.check_scales.
    """
    starts, seconds, failures, probe_t, probe_s = [], [], [], [], []

    def probe():
        probe_s.append(speed.probe())
        probe_t.append(perf_counter())

    probe()
    start = perf_counter()
    for label, fn in checks:
        if perf_counter() - probe_t[-1] >= speed.EVERY_S:
            probe()
        t0 = perf_counter()
        try:
            outcome = fn()
            ok = outcome if isinstance(outcome, bool) else outcome.passed
            detail = "" if ok or isinstance(outcome, bool) else outcome.summary()
        except Exception as exc:  # a raise is a failed check, reported below
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        starts.append(t0)
        seconds.append(perf_counter() - t0)
        if not ok:
            failures.append(f"{label}: {detail or 'failed'}")
    seconds_total = perf_counter() - start
    probe()
    return {
        "seconds": seconds_total,
        "check_t": starts,
        "check_s": seconds,
        "probe_t": probe_t,
        "probe_s": probe_s,
        "attempted": len(checks),
        "failures": failures,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    size = workloads.SIZES[args.size]
    args.out.mkdir(parents=True, exist_ok=True)

    import qreflect

    if Path(qreflect.__file__).resolve().parent != HERE.parent / "src" / "qreflect":
        print(f"error: imported qreflect from {qreflect.__file__}", file=sys.stderr)
        return 2

    result: dict = {}
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.begin_pass("cold")
    checks, result["inputs"] = workloads.checks_for(args.workload, args.seed, size, args.out)
    result["cold"] = run_pass(checks)
    if tracer is not None:
        tracer.begin_pass("rerun")
    checks, _ = workloads.checks_for(args.workload, args.seed, size, args.out)
    result["rerun"] = run_pass(checks)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = spans.layer_metrics(tracer)
        dump = args.out / f"spans-{args.workload}-seed{args.seed}.json"
        dump.write_text(json.dumps(tracer.passes, indent=1, sort_keys=True))
        result["span_dump"] = str(dump)
    label, control_passed = workloads.negative_control(args.workload, args.seed, size)
    result["control"] = {"label": label, "passed": control_passed}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    (args.out / f"families-cache-{args.seed}.json").unlink(missing_ok=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
