"""Host-speed calibration: times are reported at a fixed reference speed.

On a shared host the same code can run 1.5-2.5x slower for seconds to
minutes at a time (a 2-vCPU Xeon host showed a fixed pure-Python loop swing
from 1.2 to 3.2 ms), so raw wall times of two runs of the same code differ
by more than any useful bound.  The benchmark therefore measures a fixed
yardstick next to every measurement and scales the measurement by
``reference time / yardstick time``.  A scaled time is the wall time on a
host where the yardstick takes its reference time; it grows in proportion
to the work the program does, and the host's speed swings cancel.  Raw times
are kept in each result's details.

Two yardsticks, each close to the work it calibrates:

* tasks: ``kernel_time``, a stdlib-only interpreted kernel (Fraction
  arithmetic on growing integers, small-object allocation, dict updates and
  a sort), run before the first task and after every task; a task uses the
  median of the four readings nearest to it, two on either side.  The host's
  speed also flips within a second, so a single pair of readings can
  mistake a task's speed; the median of four is steadier.
* set-up: ``interpreter_time``, a fresh interpreter importing numpy (a
  third-party dependency, not gapkit), run before the first set-up probe
  and after every probe.  Interpreted kernels do not track import time.

Neither yardstick runs gapkit code, so a change to the program cannot change
them.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

# yardstick times at the reference speed; about their medians on the host above
KERNEL_REFERENCE_S = 2.0e-3
INTERPRETER_REFERENCE_S = 0.19


def _kernel_once() -> float:
    t0 = time.perf_counter()
    acc, counts = Fraction(0), {}
    for k in range(1, 400):
        acc += Fraction(k * k + 1, 3 * k + 7)
        counts[k % 17] = counts.get(k % 17, 0) + k
    sorted(range(2000, 0, -1))
    return time.perf_counter() - t0


def kernel_time(repeats: int = 3) -> float:
    """Median wall time of ``repeats`` runs of the fixed interpreted kernel
    (the median drops a run hit by a momentary stall)."""
    return statistics.median(_kernel_once() for _ in range(repeats))


def interpreter_time(env: dict) -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
    return time.monotonic() - t0


def scaled(seconds: float, yardstick_s: float, reference_s: float) -> float:
    """``seconds`` of wall time measured where the yardstick took
    ``yardstick_s``, expressed at the speed where it takes ``reference_s``."""
    return seconds * reference_s / yardstick_s
