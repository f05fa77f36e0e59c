"""gapkit benchmark: time-to-validated-result on four workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload farey-exact --seed 1 --seconds 20 --trace 0

Workloads: farey-exact, lattice-oracle, golden-exact, cli-float (see
BENCHMARK.json for why each exists).  With ``--trace 0`` the last stdout
line reports the end-to-end metrics, measured untraced.  Times are wall
times scaled to a fixed reference speed by yardsticks measured next to them
(calibrate.py), because the host's own speed swings by more than the
bounds; the raw times are kept in the result file.

    setup_s      median over fresh interpreters of the time from interpreter
                 start to the first task (imports and input building; one
                 discarded warm-up probe first)
    wall_s       median time of one pass over the fixed task batch,
                 counting tasks whose check passed
    task_p50_s   median per-task latency (each task's median over passes)
    task_tail_s  the highest percentile with at least 10 tasks beyond it
    peak_rss_mb  peak resident memory of the worker

With ``--trace 1`` it reports the per-layer table of a separate traced run
and writes the spans to perfbench/out/.  Every task's output is verified;
failed or raising tasks are counted in ``failed`` against ``attempted``.
The program under test is taken from ``src/`` next to this directory; the
run fails (exit 2, no result) when it is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
from calibrate import (INTERPRETER_REFERENCE_S, KERNEL_REFERENCE_S,  # noqa: E402
                       interpreter_time, scaled)
from workloads import SRC, WORKLOADS, child_env  # noqa: E402

SETUP_PROBES = 5
IMPORT_PROBES = 3
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s
END_TO_END = {"setup_s": "s", "wall_s": "s", "task_p50_s": "s",
              "task_tail_s": "s", "peak_rss_mb": "MB"}
IMPORTED = {"gapkit": "import.gapkit_s", "gapkit.hall": "import.gapkit.hall_s",
            "gapkit.cli": "import.gapkit.cli_s"}


class BenchError(RuntimeError):
    pass


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its time limit")
    return left


def call(cmd: list[str], deadline: float) -> tuple[str, str]:
    """Run a child in its own process group; on timeout kill the whole group,
    so that nothing the child started outlives it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=child_env(), cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=remaining(deadline))
    except (subprocess.TimeoutExpired, BenchError):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("run exceeded its time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} failed ({proc.returncode}):\n" + err[-2000:])
    return out, err


def worker(mode: str, args, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(WORKER), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--size", str(args.size), "--corrupt-every", str(args.corrupt_every),
           "--workdir", str(OUT), *extra]
    out, _ = call(cmd, deadline)
    return json.loads(out.strip().splitlines()[-1])


def setup_time(args, deadline: float) -> tuple[float, dict]:
    """Median of fresh-interpreter start-to-first-task times, each scaled to
    the reference speed by the interpreter yardstick run on either side of
    it (calibrate.py); the first probe only warms bytecode caches and is
    discarded.  Returns the median and the samples, scaled and raw, with the
    yardstick times."""
    times, yardstick = [], [interpreter_time(child_env())]
    for _ in range(SETUP_PROBES + 1):
        t0 = time.monotonic()
        ready = worker("setup", args, deadline)["ready"]
        times.append(ready - t0)
        remaining(deadline)
        yardstick.append(interpreter_time(child_env()))
    pairs = list(zip(times, yardstick, yardstick[1:]))[1:]
    setup = [scaled(t, (y0 + y1) / 2, INTERPRETER_REFERENCE_S) for t, y0, y1 in pairs]
    return statistics.median(setup), {"setup_samples_s": setup,
                                      "raw_setup_samples_s": times[1:],
                                      "interpreter_s": yardstick[1:]}


def import_times(deadline: float) -> dict:
    """Cumulative import time of gapkit, gapkit.hall and gapkit.cli from
    ``-X importtime`` in fresh interpreters (median; warm-up discarded)."""
    samples = {metric: [] for metric in IMPORTED.values()}
    for i in range(IMPORT_PROBES + 1):
        _, err = call([sys.executable, "-X", "importtime", "-c", "import gapkit.cli"],
                      deadline)
        if i == 0:
            continue
        for line in err.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in IMPORTED:
                samples[IMPORTED[parts[2]]].append(int(parts[1]) / 1e6)
    return {metric: statistics.median(v) for metric, v in samples.items()}


def tail(values: list[float]) -> tuple[float, float]:
    """The highest order statistic with at least 10 values above it, and its
    percentile (p90 at 100 values, p50 at 20); the maximum below 11 values."""
    ordered = sorted(values)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def task_latencies(passes: list[dict]) -> list[float]:
    """Each task's median latency over the passes in which its check passed."""
    per_task = []
    for i in range(len(passes[0]["lat"])):
        good = [p["lat"][i] for p in passes if p["ok"][i]]
        if good:
            per_task.append(statistics.median(good))
    return per_task


def pass_detail(res: dict) -> dict:
    """Failure counts, work counters and errors of a worker's passes."""
    passes = res["passes"]
    attempted = sum(len(p["ok"]) for p in passes)
    failed = attempted - sum(sum(p["ok"]) for p in passes)
    return {"passes": len(passes), "attempted": attempted, "failed": failed,
            "fail_ratio": failed / attempted, "counters": passes[0]["counters"],
            "counters_repeat": all(p["counters"] == passes[0]["counters"] for p in passes),
            "warmup_ok": res["warmup_ok"],
            "errors": [e for p in passes for e in p["errors"]][:10]}


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    setup_s, setup_detail = setup_time(args, deadline)
    res = worker("run", args, deadline)
    passes = res["passes"]
    per_task = task_latencies(passes)
    tail_s, tail_pct = tail(per_task) if per_task else (0.0, 0.0)
    walls = [p["wall"] for p in passes]
    kernels = [p["kernel_s"] for p in passes]
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "task_p50_s": statistics.median(per_task) if per_task else 0.0,
        "task_tail_s": tail_s,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    detail = dict(pass_detail(res), pass_wall_s=walls,
                  raw_pass_wall_s=[p["raw_wall"] for p in passes],
                  kernel_s=kernels, reference_kernel_s=KERNEL_REFERENCE_S,
                  reference_interpreter_s=INTERPRETER_REFERENCE_S, **setup_detail,
                  tasks=res["tasks"], task_tail_percentile=tail_pct,
                  task_tail_count=len(per_task))
    metrics = {name: (value, END_TO_END[name]) for name, value in values.items()}
    return metrics, detail


def traced(args, deadline: float) -> tuple[dict, dict]:
    from tracer import LAYER_UNITS

    imports = import_times(deadline)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    res = worker("trace", args, deadline, "--spans", str(spans))
    passes = res["passes"]
    tables = res["layers"]
    plain = [p["wall"] for p in passes if not p["traced"]]
    timed = [p["wall"] for p in passes if p["traced"]]
    values = {name: statistics.median(t[name] for t in tables)
              for name in tables[0]}
    values.update(imports)
    values["core.exact_over_float.bcz"] = res["core.exact_over_float.bcz"]
    values["core.exact_over_float.surface"] = res["core.exact_over_float.surface"]
    values["trace.overhead_ratio"] = statistics.median(timed) / statistics.median(plain)
    counted = [n for n, u in LAYER_UNITS.items() if u in ("count", "bytes")]
    layers_repeat = all(t[n] == tables[0][n] for t in tables for n in counted)
    detail = dict(pass_detail(res), untraced_wall_s=plain, traced_wall_s=timed,
                  spans_file=str(spans.relative_to(ROOT)))
    detail["counters_repeat"] = detail["counters_repeat"] and layers_repeat
    metrics = {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}
    return metrics, detail


def provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "git_commit": commit,
            "source_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=int, default=0,
                    help="cut each batch to this many tasks (smoke tests)")
    ap.add_argument("--corrupt-every", type=int, default=0,
                    help="corrupt every k-th task's output before its check (tests)")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "gapkit" / "__init__.py").is_file():
        print(f"perfbench: no gapkit sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        metrics, detail = (traced if args.trace else end_to_end)(args, deadline)
    except (BenchError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    correct = detail["failed"] == 0 and detail["counters_repeat"] \
        and all(detail["warmup_ok"])
    result = {"correct": correct, "attempted": detail["attempted"],
              "failed": detail["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = dict(result, detail=detail, provenance=provenance(args))
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for key in ("attempted", "failed", "fail_ratio", "passes", "task_tail_percentile",
                "task_tail_count", "counters", "errors"):
        if key in detail:
            print(f"# {key}: {json.dumps(detail[key])}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
