"""Time gapkit layer by layer, per unit of work, this checkout against another.

Five layers so far.  The surface: the exact development of the golden L
(``_waves.Waves(golden_l(), R).run()``) and the float one of the same L
with float sides, at R = 3, 3.75, 4.5 and 10.  Per radius and side it
reports the time of each development, its states (the sizes of its waves
added up), the microseconds per state, the connections, how many waves of
the exact development were certified (their predicates formed in floats)
and how many were not, its exact fallbacks (the calls of the scalar
``core.zphi_sign``, wrapped in every gapkit module that imports it: the
re-signs of the sign filter and the exact ball tests) and the exact/float
ratio.  The cli: in-process ``cli.main`` calls of ``hall --grid 8``, whose
time is the fixed cost of a call, and of ``lattice-gaps --count 10000``,
whose time per output row is the cost of the rows.  Per command and side
it reports the time of a call and the microseconds per row.  The strip: ``pointcloud.slopes_in_strip``
of width 1 on the exact ``seeded_lattice(3)`` and on its float twin, at
n = 501 and 10,001.  Per lattice, n and side it reports the time of a call,
the coefficient scans it made and their cells (``lattice._ragged`` spied),
and the microseconds per slope and per cell.  The bcz: the exact Farey orbit
``bcz.orbit(farey_orbit_start(Q), N(Q) + 1, detect_period=True)`` at
Q = 60, 110 and 158, and the float ``bcz.roof_sequence`` of 10,000 steps
from (sqrt 2 - 1, 3/4).  Per orbit and side it reports the time of a call,
the steps, the distinct roofs among them (exact orbits) and the
microseconds per step.  The startup: the whole wall time, from start to
exit, of a fresh ``python3`` process given each of the ``STARTUP`` argument
strings (gapkit commands through ``-m gapkit.cli`` and ``-c`` sources).
Per job and side it reports the quartiles and the samples in seconds.

A sample of the other layers is one new ``python3`` process that runs
this file with ``--child`` on a side's ``src/``: it develops each radius
once to count the work, then times ``CALLS`` developments of each kind and
reports the best; it makes one untimed ``cli.main`` call of each command
(imports and any set-up the process keeps) and then times ``CALLS`` calls
of each; it counts the strip work on one spied call and times ``CALLS``
more; it walks each orbit once to count its steps and roofs and times
``CALLS`` more.  A startup sample is one new process running one job,
after one discarded run per job and side (it fills the bytecode caches
where writing them is allowed).  Each side is sampled ``REPEATS`` times; the two sides
alternate within each repeat, the side that goes first swapping from one
repeat to the next, so that a slow spell of the host falls on both.  A
side is a checkout: its ``src/`` is the child's PYTHONPATH.

    python3 tools/layers.py [--parent PATH]
    python3 tools/layers.py --quick

Without ``--parent`` this checkout runs on both sides.  ``--quick`` takes
one sample per side and times one call of each kind: it develops R = 3,
takes the strips at n = 501 only, the orbits at Q = 60 and 1,000 float
steps, and the startup of ``farey-gaps --q 5`` alone.  It prints one JSON
object whose ``layers`` block holds per radius, command, strip, orbit or
job and side the median and quartiles (inclusive method) over the samples
of each time, and the median of the per-sample exact/float ratios.  A
checkout whose exact waves know no certification reports its wave counts
as null.  The harness imports only the standard library; gapkit and numpy
load in the children.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RADII = (3.0, 3.75, 4.5, 10.0)
REPEATS, CALLS = 10, 5
COMMANDS = ("hall --grid 8", "lattice-gaps --count 10000")
STRIP_COUNTS = (501, 10001)
FAREY_LEVELS, FLOAT_STEPS = (60, 110, 158), 10_000
# python3 arguments of the startup jobs: the startup blocks of BENCH_26.json
# (farey-gaps, bcz-orbit and the two sources) and BENCH_28.json (hall)
STARTUP = ("-m gapkit.cli farey-gaps --q 60",
           "-m gapkit.cli bcz-orbit --a 1/7 --b 1 --steps 30 --exact",
           "-m gapkit.cli hall --grid 8", "-c 'import gapkit.cli'", "-c pass")
QUICK_STARTUP = ("-m gapkit.cli farey-gaps --q 5",)


@contextlib.contextmanager
def exact_fallbacks():
    """Count the calls of ``core.zphi_sign`` made through every loaded gapkit
    module that imports it, into the one-item list yielded."""
    from gapkit import core

    sign, calls = core.zphi_sign, [0]

    def spy(a, b):
        calls[0] += 1
        return sign(a, b)

    users = [m for name, m in sys.modules.items()
             if name.startswith("gapkit.") and m is not core
             and getattr(m, "zphi_sign", None) is sign]
    for module in users:
        module.zphi_sign = spy
    try:
        yield calls
    finally:
        for module in users:
            module.zphi_sign = sign


def develop(make, radius: float, calls: int) -> dict:
    """The work of one development of make() at radius, counted on a
    spied run, and the best time of ``calls`` unspied runs."""
    from gapkit import _waves

    waves = _waves.Waves(make(), radius)
    ops, route, sizes, certified = waves.ops, waves.ops.route, [], []

    def spy(wave):
        sizes.append(len(wave.il))
        routed = route(wave)
        certified.append(getattr(ops, "err", None) is not None)
        return routed

    ops.route = spy
    with exact_fallbacks() as fallbacks:
        connections = len(waves.run())
    best = float("inf")
    for _ in range(calls):
        waves = _waves.Waves(make(), radius)
        t0 = time.perf_counter()
        waves.run()
        best = min(best, time.perf_counter() - t0)
    cert = sum(certified) if hasattr(ops, "err") else None
    return {"s": best, "states": sum(sizes), "connections": connections,
            "exact_fallbacks": fallbacks[0], "certified_waves": cert,
            "uncertified_waves": None if cert is None else len(certified) - cert}


def invoke(command: str, calls: int) -> dict:
    """The output rows of an untimed ``cli.main`` call of command and the
    best time of ``calls`` more calls, stdout captured in memory."""
    from gapkit import cli

    def once() -> tuple[float, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            code = cli.main(command.split())
            elapsed = time.perf_counter() - t0
        if code != 0:
            raise SystemExit(f"gapkit {command} exited {code}")
        return elapsed, out.getvalue()

    text = once()[1]
    rows = sum(1 for ln in text.splitlines() if ln and not ln.startswith("#")) - 1
    return {"s": min(once()[0] for _ in range(calls)), "rows": rows}


def strip(lat, n: int, calls: int) -> dict:
    """The coefficient scans and cells of one slopes_in_strip(lat, 1, n),
    counted on a spied call, and the best time of ``calls`` unspied calls."""
    from gapkit import lattice, pointcloud

    cells, ragged = [], lattice._ragged

    def spy(starts, lens, total):
        cells.append(total)
        return ragged(starts, lens, total)

    lattice._ragged = spy  # one call per single-basis scan, total = its cells
    try:
        slopes = len(pointcloud.slopes_in_strip(lat, 1, n))
    finally:
        lattice._ragged = ragged
    best = float("inf")
    for _ in range(calls):
        t0 = time.perf_counter()
        pointcloud.slopes_in_strip(lat, 1, n)
        best = min(best, time.perf_counter() - t0)
    return {"s": best, "slopes": slopes, "scans": len(cells), "cells": sum(cells)}


def walk(run, calls: int) -> dict:
    """The steps and distinct exact roofs of one orbit ``run()``, and the
    best time of ``calls`` more runs."""
    roofs = run()
    best = float("inf")
    for _ in range(calls):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    distinct = len(set(roofs)) if isinstance(roofs, tuple) else None  # exact roofs
    return {"s": best, "steps": len(roofs), "distinct_roofs": distinct}


def child(radii: list[float], counts: list[int], levels: list[int], steps: int,
          calls: int) -> dict:
    """Per radius, the exact and the float golden L developed, per command
    its cli.main calls, per count the exact and the float strip, and per
    level the exact Farey orbit and the float roofs (run in a side's
    interpreter)."""
    from gapkit import bcz, farey, lattice, surface
    from gapkit.core import PHI

    side = float(PHI)
    exact = lattice.seeded_lattice(3)
    orbits = {}
    for q in levels:  # each walk runs before the next level rebinds start and n
        start, n = bcz.farey_orbit_start(q), farey.farey_size(q) + 1
        orbits[f"farey Q={q}"] = walk(
            lambda: bcz.orbit(start, n, detect_period=True).returns, calls)
    start = bcz.TransversalPoint(2 ** 0.5 - 1, 0.75, 1.0)
    orbits[f"roof_sequence n={steps}"] = walk(lambda: bcz.roof_sequence(start, steps), calls)
    return {"surface": {repr(r): {"exact": develop(surface.golden_l, r, calls),
                                  "float": develop(lambda: surface.l_shape(side, side),
                                                   r, calls)}
                        for r in radii},
            "cli": {command: invoke(command, calls) for command in COMMANDS},
            "strip": {str(n): {"exact": strip(exact, n, calls),
                               "float": strip(exact.to_float(), n, calls)}
                      for n in counts},
            "bcz": orbits}


def child_env(checkout: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(checkout / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_once(argv: list[str], checkout: Path) -> tuple[float, str]:
    """Seconds from start to exit of one fresh interpreter running argv on
    the checkout, and its stdout; a failing child is an error."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=child_env(checkout), cwd=checkout,
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{shlex.join(argv)} in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return elapsed, proc.stdout


def side_order(sides: dict, r: int) -> list:
    """The sides in the order repeat r runs them: the side that goes first
    swaps from one repeat to the next."""
    order = list(sides)
    return order if r % 2 == 0 else order[::-1]


def quartiles(values: list[float], scale: float, digits: int) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": round(statistics.median(values) * scale, digits),
            "q1": round(q1 * scale, digits), "q3": round(q3 * scale, digits)}


def cli_summary(runs: list[dict]) -> dict:
    """One side's calls of one command over its samples: the time of a call
    in microseconds, and per output row."""
    times = [run["s"] for run in runs]
    rows = runs[0]["rows"]
    return {"call_us": quartiles(times, 1e6, 1), "rows": rows,
            "us_per_row": round(statistics.median(times) * 1e6 / rows, 4)}


def strip_summary(runs: list[dict]) -> dict:
    """One side's strips of one lattice and count over its samples: the
    time of a call in ms, the work counted once, and the microseconds per
    slope and per scanned cell."""
    times, first = [run["s"] for run in runs], runs[0]
    median_us = statistics.median(times) * 1e6
    return {"ms": quartiles(times, 1e3, 3), "slopes": first["slopes"],
            "scans": first["scans"], "cells": first["cells"],
            "us_per_slope": round(median_us / first["slopes"], 4),
            "us_per_cell": round(median_us / first["cells"], 5)}


def startup_summary(times: list[float]) -> dict:
    """One side's fresh runs of one job: the quartiles and the samples, in
    seconds."""
    return {"s": quartiles(times, 1, 6), "samples_s": [round(t, 6) for t in times]}


def bcz_summary(runs: list[dict]) -> dict:
    """One side's walks of one orbit over its samples: the time of a call in
    ms, the steps and distinct roofs counted once, and the microseconds per
    step."""
    times, first = [run["s"] for run in runs], runs[0]
    return {"ms": quartiles(times, 1e3, 3), "steps": first["steps"],
            "distinct_roofs": first["distinct_roofs"],
            "us_per_step": round(statistics.median(times) * 1e6 / first["steps"], 4)}


def summary(runs: list[dict]) -> dict:
    """One side at one radius over its samples: times in ms, work counted
    once (it is the same in every sample)."""
    out = {}
    for kind in ("exact", "float"):
        first = runs[0][kind]
        times = [run[kind]["s"] for run in runs]
        out[f"{kind}_ms"] = quartiles(times, 1e3, 3)
        out[f"{kind}_us_per_state"] = round(statistics.median(times) * 1e6 / first["states"], 3)
        out[f"{kind}_states"] = first["states"]
    out["connections"] = runs[0]["exact"]["connections"]
    out["exact_fallbacks"] = runs[0]["exact"]["exact_fallbacks"]
    out["certified_waves"] = runs[0]["exact"]["certified_waves"]
    out["uncertified_waves"] = runs[0]["exact"]["uncertified_waves"]
    out["exact_float_ratio"] = round(statistics.median(
        run["exact"]["s"] / run["float"]["s"] for run in runs), 3)
    return out


def measure(sides: dict, radii: list[float], counts: list[int], levels: list[int],
            steps: int, jobs: tuple, repeats: int, calls: int) -> dict:
    args = ["--child", json.dumps([radii, counts, levels, steps, calls])]
    samples = {side: [] for side in sides}
    fresh = {job: {side: [] for side in sides} for job in jobs}
    for job in jobs:
        for checkout in sides.values():
            run_once(shlex.split(job), checkout)  # discarded
    for r in range(repeats):
        for side in side_order(sides, r):
            samples[side].append(json.loads(run_once([__file__, *args], sides[side])[1]))
        for job in jobs:
            for side in side_order(sides, r):
                fresh[job][side].append(run_once(shlex.split(job), sides[side])[0])
    surface = {f"golden-L R={radius!r}": {side: summary([s["surface"][repr(radius)]
                                                         for s in runs])
                                         for side, runs in samples.items()}
               for radius in radii}
    cli = {command: {side: cli_summary([s["cli"][command] for s in runs])
                     for side, runs in samples.items()}
           for command in COMMANDS}
    strips = {f"seeded(3) {kind} n={n}": {side: strip_summary([s["strip"][str(n)][kind]
                                                              for s in runs])
                                          for side, runs in samples.items()}
              for n in counts for kind in ("exact", "float")}
    orbits = {name: {side: bcz_summary([s["bcz"][name] for s in runs])
                     for side, runs in samples.items()}
              for name in samples["change"][0]["bcz"]}
    startup = {job: {side: startup_summary(times) for side, times in by_side.items()}
               for job, by_side in fresh.items()}
    return {"surface": surface, "cli": cli, "strip": strips, "bcz": orbits,
            "startup": startup}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, default=ROOT,
                        help="the other checkout (default: this one)")
    parser.add_argument("--quick", action="store_true",
                        help="develop R = 3, take the strips at n = 501 only, the "
                             "orbits at Q = 60 and 1,000 float steps and the "
                             "startup of farey-gaps --q 5, each once per side")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(*json.loads(args.child))))
        return 0
    radii, counts, levels, steps, jobs, repeats, calls = \
        ([3.0], STRIP_COUNTS[:1], FAREY_LEVELS[:1], 1000, QUICK_STARTUP, 1, 1) if args.quick \
        else (list(RADII), list(STRIP_COUNTS), list(FAREY_LEVELS), FLOAT_STEPS, STARTUP,
              REPEATS, CALLS)
    sides = {"change": ROOT, "parent": args.parent.resolve()}
    for checkout in sides.values():
        if not (checkout / "src" / "gapkit").is_dir():
            parser.error(f"{checkout} has no src/gapkit")
    try:
        layers = measure(sides, radii, counts, levels, steps, jobs, repeats, calls)
    except RuntimeError as exc:
        print(f"layers: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "python": platform.python_version(), "repeats": repeats, "calls": calls,
        "checkouts": {side: str(path) for side, path in sides.items()},
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "layers": layers,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
