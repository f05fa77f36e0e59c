"""One benchmark process: set up a workload, run its batch, report JSON.

Started by run.py in a fresh interpreter, never imported by it.

    worker.py setup --workload W --seed S
        import and build the inputs, then print the monotonic clock reading
        at which the first task could start.
    worker.py run --workload W --seed S --seconds T
        untraced: repeat the batch while another pass fits in T seconds.
    worker.py trace --workload W --seed S --seconds T --spans FILE
        alternate untraced and traced passes over the same batch, write the
        spans, and report the per-layer table and the tracing overhead.

The last stdout line is a JSON object; run.py turns it into metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import KERNEL_REFERENCE_S, kernel_time, scaled  # noqa: E402
from workloads import WORKLOADS, CliFloat, load_reference  # noqa: E402

# trace passes run in the order U T T U U T ..., so drift hits both sides alike
TRACE_ORDER = (False, True, True, False)


def make_workload(name: str, workdir: Path):
    reference = load_reference()
    if name == CliFloat.name:
        return CliFloat(reference, workdir=workdir, in_process=True)
    return WORKLOADS[name](reference)


def run_pass(wl, gk, items, corrupt_every: int, tracer=None) -> dict:
    """One closed-loop pass over the batch; every task is checked.

    The calibration kernel runs before the first task and after each one;
    ``lat`` holds each task's wall time scaled to the reference speed by
    the median of the four nearest kernel readings (two on either side of
    it; fewer at the ends), ``raw_lat`` the wall time itself.
    ``wall`` and ``raw_wall`` sum them over the tasks whose check passed.
    """
    raw, ok, errors = [], [], []
    kernel = [kernel_time()]
    counters = Counter()
    if tracer is not None:
        tracer.start_pass()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.task = i
        corrupt = corrupt_every > 0 and i % corrupt_every == 0
        t0 = time.perf_counter()
        try:
            good, work = wl.run(gk, item, corrupt)
            why = "check failed"
        except Exception as exc:  # a raising task is a failed task; keep going
            good, work = False, {}
            why = f"{type(exc).__name__}: {exc}"
        raw.append(time.perf_counter() - t0)
        kernel.append(kernel_time())
        if not good and len(errors) < 5:
            errors.append(f"task {i} {item!r}: {why}")
        ok.append(bool(good))
        counters.update(work)
    # reading i is taken just before task i, reading i + 1 just after it
    lat = [scaled(t, statistics.median(kernel[max(i - 1, 0):i + 3]), KERNEL_REFERENCE_S)
           for i, t in enumerate(raw)]
    return {"wall": sum(t for t, good in zip(lat, ok) if good),
            "raw_wall": sum(t for t, good in zip(raw, ok) if good),
            "lat": lat, "raw_lat": raw, "kernel_s": statistics.median(kernel),
            "ok": ok, "counters": dict(counters), "errors": errors}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def core_probe(repeats: int = 3) -> dict:
    """Exact over float cost per unit, on fixed small inputs."""
    from gapkit import bcz, lattice, surface

    def median_time(fn):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    point, _ = lattice.to_transversal(lattice.seeded_lattice(0), 1)
    exact_us = median_time(lambda: bcz.orbit(point, 3000)) / 3000
    float_us = median_time(lambda: bcz.roof_sequence(point.to_float(), 30000)) / 30000
    golden_n = len(surface.saddle_connections(surface.golden_l(), 4.0))
    lshape_n = len(surface.saddle_connections(surface.l_shape(1.7, 1.9), 6.0))
    golden_us = median_time(lambda: surface.saddle_connections(surface.golden_l(), 4.0)) / golden_n
    lshape_us = median_time(lambda: surface.saddle_connections(
        surface.l_shape(1.7, 1.9), 6.0)) / lshape_n
    return {"core.exact_over_float.bcz": exact_us / float_us,
            "core.exact_over_float.surface": golden_us / lshape_us}


def timed_passes(wl, gk, items, seconds, corrupt_every, schedule, tracer=None):
    """Passes until the next one would end past ``seconds``; ``schedule``
    gives, per pass index, whether that pass is traced (at least one of each
    kind the schedule names runs)."""
    passes, elapsed = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        traced = schedule[len(passes) % len(schedule)]
        if traced:
            tracer.install()
            first_span = len(tracer.spans)
        try:
            p = run_pass(wl, gk, items, corrupt_every, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        p["traced"] = traced
        if traced:
            p["spans"] = (first_span, len(tracer.spans))
        passes.append(p)
        elapsed.append(time.perf_counter() - t0)
        kinds = {q["traced"] for q in passes}
        if (len(kinds) == len(set(schedule))
                and time.perf_counter() - start + max(elapsed) > seconds):
            return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run", "trace"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--size", type=int, default=0, help="cut the batch to this many tasks")
    ap.add_argument("--corrupt-every", type=int, default=0,
                    help="corrupt every k-th task's output before its check (tests)")
    ap.add_argument("--spans", default=None, help="trace mode: span file to write")
    ap.add_argument("--workdir", required=True, help="scratch directory for task files")
    args = ap.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=args.workdir))
    try:
        return _main(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _main(args, workdir: Path) -> int:
    wl = make_workload(args.workload, workdir)
    tasks = wl.batch(args.seed, args.size or None)
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()  # the setup below is traced too
    gk = wl.load()
    items = wl.build(gk, tasks)
    if args.mode == "setup":
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    setup_spans = 0
    if tracer is not None:
        tracer.uninstall()
        setup_spans = len(tracer.spans)

    # untimed tasks first, so lazy imports and first-call costs that a
    # long-lived user pays once are not charged to the first timed pass
    warm = run_pass(wl, gk, wl.warmup(items), 0)

    schedule = TRACE_ORDER if tracer is not None else (False,)
    passes = timed_passes(wl, gk, items, args.seconds, args.corrupt_every,
                          schedule, tracer)
    out = {
        "workload": wl.name, "seed": args.seed, "tasks": len(items),
        "passes": [{k: p[k] for k in ("wall", "raw_wall", "lat", "raw_lat", "kernel_s",
                                      "ok", "counters", "errors", "traced")}
                   for p in passes],
        "warmup_ok": warm["ok"],
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        from tracer import layer_metrics
        setup_table = layer_metrics(tracer.spans[:setup_spans], {})
        tables = []
        for p in passes:
            if p["traced"]:
                lo, hi = p["spans"]
                table = layer_metrics(tracer.spans[lo:hi], p["counters"])
                for key in ("lattice.seeded_lattice.busy_s", "surface.golden_l.busy_s"):
                    table[key] += setup_table[key]
                tables.append(table)
        out["layers"] = tables
        out.update(core_probe())
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
