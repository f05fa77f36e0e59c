"""Tests of the benchmark itself, on tiny batches.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from calibrate import KERNEL_REFERENCE_S, scaled  # noqa: E402
from run import END_TO_END, tail  # noqa: E402
from tracer import LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, *extra, seed=3, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--size", "2", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=180)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def detail(workload, seed, trace):
    path = BENCH / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())["detail"]


def test_spec_names_match_the_code():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_UNITS


def test_tail_percentile():
    values = [float(i) for i in range(1, 101)]
    assert tail(values) == (90.0, 90.0)
    assert tail(values[:20]) == (10.0, 50.0)
    assert tail(values[:5]) == (5.0, 100.0)


def test_scaling_to_the_reference_speed():
    ref = KERNEL_REFERENCE_S
    assert scaled(2.0, ref, ref) == 2.0
    assert scaled(2.0, 2 * ref, ref) == 1.0  # a host at half speed


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run(workload):
    res = result(bench(workload, "--trace", "0"))
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 2
    assert set(res["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())
    # raw times and yardsticks are kept beside the scaled metrics
    d = detail(workload, 3, 0)
    assert len(d["raw_pass_wall_s"]) == len(d["kernel_s"]) == d["passes"]
    assert len(d["raw_setup_samples_s"]) + 1 == len(d["interpreter_s"]) == 6


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_trace(workload):
    res = result(bench(workload, "--trace", "1"))
    assert res["correct"] is True and res["failed"] == 0
    assert set(res["metrics"]) == set(LAYER_UNITS)
    assert res["metrics"]["trace.overhead_ratio"]["value"] > 0
    spans = BENCH / "out" / f"spans-{workload}-seed3.jsonl"
    first = json.loads(spans.read_text().splitlines()[0])
    assert set(first) == {"id", "parent", "name", "variant", "start", "end", "task", "work"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_output_is_a_failed_task(workload):
    res = result(bench(workload, "--trace", "0", "--corrupt-every", "2"))
    assert res["correct"] is False
    # task 0 of every pass is corrupted, task 1 is not
    assert res["attempted"] >= 2 and res["failed"] == res["attempted"] // 2
    assert detail(workload, 3, 0)["fail_ratio"] == res["failed"] / res["attempted"]
    assert set(res["metrics"]) == set(END_TO_END)


def test_work_counters_repeat_across_runs():
    first = result(bench("lattice-oracle", "--trace", "0", seed=5))
    counters = detail("lattice-oracle", 5, 0)["counters"]
    second = result(bench("lattice-oracle", "--trace", "0", seed=5))
    assert first["correct"] and second["correct"]
    assert detail("lattice-oracle", 5, 0)["counters"] == counters
    assert counters == {"bcz_steps": 1000, "slopes": 1202}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("farey-exact", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
