"""Time gapkit commands in fresh interpreters, this checkout against another.

Every sample is one new ``python3`` process, timed from its start to its
exit.  Each COMMAND is the argument string of a gapkit subcommand, run as
``python3 -m gapkit.cli COMMAND``; each ``--code`` is Python source, run as
``python3 -c CODE``.  A side is a checkout: its ``src/`` is the child's
PYTHONPATH.  Each job is sampled 15 times per side; the two sides alternate
within each repeat, the side that goes first swapping from one repeat to the
next, so that a slow spell of the host falls on both.  One discarded run per
side and job comes first (it fills the bytecode caches where writing them is
allowed).

    python3 tools/startup.py [--parent PATH] [--code SRC ...] [COMMAND ...]
    python3 tools/startup.py --quick

The startup block of BENCH_26.json is

    python3 tools/startup.py --parent PATH "farey-gaps --q 60" \
        "bcz-orbit --a 1/7 --b 1 --steps 30 --exact" \
        --code "import gapkit.cli" --code pass

Without ``--parent`` this checkout runs on both sides.  ``--quick`` times
``farey-gaps --q 5`` once per side.  It prints one JSON object: per job and
side the median and the quartiles (inclusive method) of the samples, in
seconds, and the samples.  Only the standard library is used, so the probe
itself loads no numpy.
"""

from __future__ import annotations

import argparse
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
REPEATS = 15
QUICK_COMMAND = "farey-gaps --q 5"


def child_env(checkout: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(checkout / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_once(argv: list[str], checkout: Path) -> float:
    """Seconds from start to exit of one fresh interpreter running argv;
    a failing child is an error."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=child_env(checkout), cwd=checkout,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{shlex.join(argv)} in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return elapsed


def summary(samples: list[float]) -> dict:
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = q3 = samples[0]
    return {"median_s": round(statistics.median(samples), 6), "q1_s": round(q1, 6),
            "q3_s": round(q3, 6), "samples_s": [round(t, 6) for t in samples]}


def measure(jobs: dict, sides: dict, repeats: int) -> dict:
    """``jobs`` maps a label to interpreter arguments, ``sides`` a side name
    to its checkout; returns label -> side -> summary."""
    samples = {label: {side: [] for side in sides} for label in jobs}
    for argv in jobs.values():
        for checkout in sides.values():
            run_once(argv, checkout)  # discarded
    order = list(sides)
    for r in range(repeats):
        for label, argv in jobs.items():
            for side in (order if r % 2 == 0 else order[::-1]):
                samples[label][side].append(run_once(argv, sides[side]))
    return {label: {side: summary(s) for side, s in by_side.items()}
            for label, by_side in samples.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("commands", nargs="*", metavar="COMMAND",
                        help="gapkit subcommand and options, as one string")
    parser.add_argument("--code", action="append", default=None,
                        help="Python source to time as python3 -c SRC (repeatable)")
    parser.add_argument("--parent", type=Path, default=ROOT,
                        help="the other checkout (default: this one)")
    parser.add_argument("--quick", action="store_true",
                        help=f"time {QUICK_COMMAND!r} once per side")
    args = parser.parse_args(argv)
    if args.quick:
        commands, codes, repeats = [QUICK_COMMAND], [], 1
    else:
        commands, codes, repeats = args.commands, args.code or [], REPEATS
    if not commands and not codes:
        parser.error("give at least one COMMAND or --code, or --quick")
    sides = {"change": ROOT, "parent": args.parent.resolve()}
    for checkout in sides.values():
        if not (checkout / "src" / "gapkit").is_dir():
            parser.error(f"{checkout} has no src/gapkit")
    jobs = {f"gapkit {c}": ["-m", "gapkit.cli", *shlex.split(c)] for c in commands}
    jobs.update({f"python -c {src!r}": ["-c", src] for src in codes})
    try:
        results = measure(jobs, sides, repeats)
    except RuntimeError as exc:
        print(f"startup: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "python": platform.python_version(), "repeats": repeats,
        "checkouts": {side: str(path) for side, path in sides.items()},
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "commands": results,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
