"""Smoke test of the benchmark harness at tiny sizes (a few seconds).

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the negative controls fail, and that the harness refuses to run
without a source tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT, run_py: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=120, cwd=cwd,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace and workload == "families":
        assert all(
            v["value"] == 0 for name, v in result["metrics"].items() if name.startswith(("tensorops.", "rerun.tensorops."))
        )
    if trace and workload == "reflection":
        assert result["metrics"]["rerun.threedk.k_element.calls"]["value"] == 0
        assert result["metrics"]["threedk.k_element.calls"]["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_negative_controls_fail(workload):
    for seed in range(5):
        label, passed = workloads.negative_control(workload, seed, workloads.SIZES["smoke"])
        assert not passed, label


def test_generators_are_seeded():
    size = workloads.SIZES["full"]
    assert workloads.reflection_states(1, **size["reflection"]) == workloads.reflection_states(1, **size["reflection"])
    assert workloads.reflection_states(1, **size["reflection"]) != workloads.reflection_states(2, **size["reflection"])
    comp = [workloads.composition(workloads.tetrahedron_states(s, **size["tetrahedron"])) for s in (1, 2)]
    assert comp[0] == comp[1]


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("reflection", 0, cwd=tmp_path, run_py=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
