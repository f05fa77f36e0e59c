"""Time gapkit layer by layer, per unit of work, this checkout against another.

Three layers so far.  The surface: the exact development of the golden L
(``_waves.Waves(golden_l(), R).run()``) and the float one of the same L
with float sides, at R = 3, 3.75, 4.5 and 10.  Per radius and side it
reports the time of each development, its states (the sizes of its waves
added up), the microseconds per state, the connections, how many waves of
the exact development were certified (their predicates formed in floats)
and how many were not, and the exact/float ratio.  The cli: in-process
``cli.main`` calls of ``hall --grid 8``, whose time is the fixed cost of a
call, and of ``lattice-gaps --count 10000``, whose time per output row is
the cost of the rows.  Per command and side it reports the time of a call
and the microseconds per row.  The strip: ``pointcloud.slopes_in_strip``
of width 1 on the exact ``seeded_lattice(3)`` and on its float twin, at
n = 501 and 10,001.  Per lattice, n and side it reports the time of a call,
the coefficient scans it made and their cells (``lattice._ragged`` spied),
and the microseconds per slope and per cell.

Every sample is one new ``python3`` process that runs this file with
``--child`` on a side's ``src/``: it develops each radius once to count
the work, then times ``CALLS`` developments of each kind and reports the
best; it makes one untimed ``cli.main`` call of each command (imports and
any set-up the process keeps) and then times ``CALLS`` calls of each; it
counts the strip work on one spied call and times ``CALLS`` more.  Each
side is sampled ``REPEATS`` times; the two sides alternate within each
repeat, the side that goes first swapping from one repeat to the next, as
in ``tools/startup.py``.

    python3 tools/layers.py [--parent PATH]
    python3 tools/layers.py --quick

Without ``--parent`` this checkout runs on both sides.  ``--quick``
develops R = 3, times each command once per side and takes the strips at
n = 501 only.  It prints one JSON
object whose ``layers`` block holds per radius, command or strip and side the
median and quartiles (inclusive method) over the samples of each time, and
the median of the per-sample exact/float ratios.  A checkout whose exact
waves know no certification reports its wave counts as null.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from startup import child_env, side_order  # tools/ is sys.path[0] when run as a script

ROOT = Path(__file__).resolve().parents[1]
RADII = (3.0, 3.75, 4.5, 10.0)
REPEATS, CALLS = 9, 5
COMMANDS = ("hall --grid 8", "lattice-gaps --count 10000")
STRIP_COUNTS = (501, 10001)


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
    connections = len(waves.run())
    best = float("inf")
    for _ in range(calls):
        waves = _waves.Waves(make(), radius)
        t0 = time.perf_counter()
        waves.run()
        best = min(best, time.perf_counter() - t0)
    cert = sum(certified) if hasattr(ops, "err") else None
    return {"s": best, "states": sum(sizes), "connections": connections,
            "certified_waves": cert,
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


def child(radii: list[float], counts: list[int], calls: int) -> dict:
    """Per radius, the exact and the float golden L developed, per command
    its cli.main calls, and per count the exact and the float strip (run in
    a side's interpreter)."""
    from gapkit import lattice, surface
    from gapkit.core import PHI

    side = float(PHI)
    exact = lattice.seeded_lattice(3)
    return {"surface": {repr(r): {"exact": develop(surface.golden_l, r, calls),
                                  "float": develop(lambda: surface.l_shape(side, side),
                                                   r, calls)}
                        for r in radii},
            "cli": {command: invoke(command, calls) for command in COMMANDS},
            "strip": {str(n): {"exact": strip(exact, n, calls),
                               "float": strip(exact.to_float(), n, calls)}
                      for n in counts}}


def sample(checkout: Path, radii: list[float], counts: list[int], calls: int) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--child",
                           json.dumps([radii, counts, calls])],
                          env=child_env(checkout), cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"layers child in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout)


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
    out["certified_waves"] = runs[0]["exact"]["certified_waves"]
    out["uncertified_waves"] = runs[0]["exact"]["uncertified_waves"]
    out["exact_float_ratio"] = round(statistics.median(
        run["exact"]["s"] / run["float"]["s"] for run in runs), 3)
    return out


def measure(sides: dict, radii: list[float], counts: list[int], repeats: int,
            calls: int) -> dict:
    samples = {side: [] for side in sides}
    for r in range(repeats):
        for side in side_order(sides, r):
            samples[side].append(sample(sides[side], radii, counts, calls))
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
    return {"surface": surface, "cli": cli, "strip": strips}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, default=ROOT,
                        help="the other checkout (default: this one)")
    parser.add_argument("--quick", action="store_true",
                        help="develop R = 3, time each command once per side and "
                             "take the strips at n = 501 only")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(*json.loads(args.child))))
        return 0
    radii, counts, repeats, calls = ([3.0], STRIP_COUNTS[:1], 1, 1) if args.quick \
        else (list(RADII), list(STRIP_COUNTS), REPEATS, CALLS)
    sides = {"change": ROOT, "parent": args.parent.resolve()}
    for checkout in sides.values():
        if not (checkout / "src" / "gapkit").is_dir():
            parser.error(f"{checkout} has no src/gapkit")
    try:
        layers = measure(sides, radii, counts, repeats, calls)
    except RuntimeError as exc:
        print(f"layers: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "python": platform.python_version(), "repeats": repeats, "calls": calls,
        "checkouts": {side: str(path) for side, path in sides.items()},
        "layers": layers,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
