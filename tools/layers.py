"""Time gapkit layer by layer, per unit of work, this checkout against another.

One layer so far, the surface: the exact development of the golden L
(``_waves.Waves(golden_l(), R).run()``) and the float one of the same L
with float sides, at R = 3, 3.75, 4.5 and 10.  Per radius and side it
reports the time of each development, its states (the sizes of its waves
added up), the microseconds per state, the connections, how many waves of
the exact development were certified (their predicates formed in floats)
and how many were not, and the exact/float ratio.

Every sample is one new ``python3`` process that runs this file with
``--child`` on a side's ``src/``: it develops each radius once to count
the work, then times ``CALLS`` developments of each kind and reports the
best.  Each side is sampled ``REPEATS`` times; the two sides alternate
within each repeat, the side that goes first swapping from one repeat to
the next, as in ``tools/startup.py``.

    python3 tools/layers.py [--parent PATH]
    python3 tools/layers.py --quick

Without ``--parent`` this checkout runs on both sides.  ``--quick``
develops R = 3 once per side.  It prints one JSON object whose ``layers``
block holds per radius and side the median and quartiles (inclusive method)
over the samples of each time, and the median of the per-sample
exact/float ratios.  A checkout whose exact waves know no certification
reports its wave counts as null.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RADII = (3.0, 3.75, 4.5, 10.0)
REPEATS, CALLS = 9, 5


def child_env(checkout: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(checkout / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


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


def child(radii: list[float], calls: int) -> dict:
    """Per radius, the exact and the float golden L developed (run in a
    side's interpreter)."""
    from gapkit import surface
    from gapkit.core import PHI

    side = float(PHI)
    return {repr(r): {"exact": develop(surface.golden_l, r, calls),
                      "float": develop(lambda: surface.l_shape(side, side), r, calls)}
            for r in radii}


def sample(checkout: Path, radii: list[float], calls: int) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--child", json.dumps([radii, calls])],
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


def measure(sides: dict, radii: list[float], repeats: int, calls: int) -> dict:
    samples = {side: [] for side in sides}
    order = list(sides)
    for r in range(repeats):
        for side in (order if r % 2 == 0 else order[::-1]):
            samples[side].append(sample(sides[side], radii, calls))
    return {f"golden-L R={radius!r}": {side: summary([s[repr(radius)] for s in runs])
                                      for side, runs in samples.items()}
            for radius in radii}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, default=ROOT,
                        help="the other checkout (default: this one)")
    parser.add_argument("--quick", action="store_true",
                        help="develop R = 3 once per side")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(*json.loads(args.child))))
        return 0
    radii, repeats, calls = ([3.0], 1, 1) if args.quick else (list(RADII), REPEATS, CALLS)
    sides = {"change": ROOT, "parent": args.parent.resolve()}
    for checkout in sides.values():
        if not (checkout / "src" / "gapkit").is_dir():
            parser.error(f"{checkout} has no src/gapkit")
    try:
        surface = measure(sides, radii, repeats, calls)
    except RuntimeError as exc:
        print(f"layers: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "python": platform.python_version(), "repeats": repeats, "calls": calls,
        "checkouts": {side: str(path) for side, path in sides.items()},
        "layers": {"surface": surface},
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
