"""Smoke tests for the benchmark harness, so that it cannot rot.

    python3 -m pytest perfbench

They run a handful of ops per workload and check the result's shape,
correctness and determinism.  Timings are never asserted.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def smoke(workload: str, trace: int, seed: int = 7) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_is_correct_and_complete(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", ["tabulate", "simulate"])
def test_traced_counts_repeat_for_a_seed(workload):
    exact = ["series.terms", "analysis.crossing.f_evals", "analysis.sweep.cells",
             "montecarlo.births", "symbolic.coeff_bits_max"]
    first, second = smoke(workload, 1), smoke(workload, 1)
    assert [first["metrics"][n]["value"] for n in exact] == [second["metrics"][n]["value"] for n in exact]


def test_ops_come_from_the_seed():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import workloads

    for name in WORKLOADS:
        ops = [workloads.make(name, seed, Path("out"), ROOT / "src").round() for seed in (3, 3, 4)]
        assert ops[0] == ops[1], name
        assert ops[0] != ops[2], name


def test_bare_benchmark_directory_refuses_to_run(tmp_path):
    for path in BENCHMARK["paths"]:
        target = tmp_path / path
        target.mkdir(parents=True)
        for source in (ROOT / path).glob("*.py"):
            (target / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
