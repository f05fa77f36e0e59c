"""The four benchmark workloads: seeded task batches, task bodies and checks.

Every workload is a closed loop of one client running one task at a time.
A task computes a result through gapkit's public functions and verifies it
twice: against the program's independent route (``consistent``) and against
reference data taken from the program at the commit that defined the
benchmark (``reference.json``, written by ``make_reference.py`` from the
same ``observe`` methods).  A task returns ``(ok, counters)``; the caller
counts an exception as a failed task too.

Inputs are drawn from fixed pools, stratified by cost, so that every seed
gives a batch of nearly the same total work and a reference entry exists
for every input.  Nothing here imports gapkit at module load: the setup
probe times those imports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SRC = HERE.parent / "src"

FAREY_LEVELS = range(60, 160)
LATTICE_SEEDS = range(256)
LATTICE_GAPS = 500
LATTICE_HITS = 100
GOLDEN_RADII = tuple(3.0 + k / 32 for k in range(49))

CLI_PIPELINES = ("lattice-gaps", "compare", "sqrtn", "affine-angles", "wedge-p",
                 "surface-sc", "baseline-poisson", "hall")
CLI_VARIANTS = 8
CLI_GAPS_FILE = "lattice_gaps.csv"
_SHIFTS = ("0.4142,0.7320", "0.2137,0.5813", "0.6180,0.3819", "0.1231,0.8765",
           "0.7071,0.2360", "0.3333,0.9119", "0.5772,0.1415", "0.8660,0.4472")
_SHAPES = ("1.7,1.9", "1.3,2.1", "1.55,1.45", "2.2,1.35", "1.8,1.25",
           "1.41,1.73", "1.95,1.6", "1.25,1.85")


def child_env() -> dict:
    """Environment of every process the benchmark starts: the checkout's
    gapkit, and one thread for numerical libraries."""
    env = os.environ.copy()
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("GAPKIT_THREADS", None)
    return env


def sha256_lines(items) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()


def frac_str(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return str(x)


def _stratified(rnd: random.Random, pool, k: int) -> list:
    """One draw from each of k contiguous, nearly equal slices of the pool."""
    pool = list(pool)
    bounds = [round(i * len(pool) / k) for i in range(k + 1)]
    picks = [pool[rnd.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]
    rnd.shuffle(picks)
    return picks


def cli_argv(pipeline: str, variant: int) -> list[str]:
    """The gapkit argument vector of one cli-float pipeline variant."""
    k = variant
    return {
        "lattice-gaps": ["lattice-gaps", "--seed", str(k), "--count", "10000"],
        "compare": ["compare", "--left", CLI_GAPS_FILE, "--cdf", "hall-unnormalized"],
        "sqrtn": ["sqrtn", "--n", str(40000 + 5000 * k)],
        "affine-angles": ["affine-angles", "--shift", _SHIFTS[k], "--radius", "120"],
        "wedge-p": ["wedge-p", "--sigma", "1.0", "--radius", "80",
                    "--samples", "20000", "--seed", str(k)],
        "surface-sc": ["surface-sc", "--shape", "l:" + _SHAPES[k], "--radius", "10"],
        "baseline-poisson": ["baseline-poisson", "--n", "50000", "--seed", str(k)],
        "hall": ["hall", "--scaling", ("farey", "unnormalized")[k % 2],
                 "--grid", str(1000 + 24 * k)],
    }[pipeline]


class Workload:
    """A seeded batch of tasks with its setup, task body and check."""

    name = ""
    batch_size = 0
    modules: tuple = ()
    in_process = True  # False: tasks run gapkit in subprocesses of their own

    def __init__(self, reference: dict):
        self.ref = reference.get(self.name, {})

    def load(self):
        """Import the gapkit modules the tasks use; returns them by name."""
        import importlib
        return {m: importlib.import_module("gapkit." + m) for m in self.modules}

    def batch(self, seed: int, size: int | None = None) -> list:
        tasks = self.make_batch(random.Random(f"{self.name}:{seed}"))
        return tasks[:size] if size else tasks

    def make_batch(self, rnd: random.Random) -> list:
        raise NotImplementedError

    def build(self, gk: dict, tasks: list) -> list:
        """Inputs built before the first task (part of setup time)."""
        return tasks

    def warmup(self, items: list) -> list:
        """Untimed tasks run once before the timed passes."""
        return items[:1]

    def observe(self, gk: dict, item, corrupt: bool = False):
        """Run one task: (reference key, observed digests, consistent, counters).

        ``corrupt`` damages the result before it is checked (benchmark tests).
        """
        raise NotImplementedError

    def run(self, gk: dict, item, corrupt: bool = False):
        key, observed, consistent, work = self.observe(gk, item, corrupt)
        return consistent and observed == self.ref.get(key), work


class FareyExact(Workload):
    """BCZ orbit of (1/Q, 1) against the level-Q Farey sequence, exactly."""

    name = "farey-exact"
    batch_size = 50
    modules = ("bcz", "farey")

    def make_batch(self, rnd):
        return _stratified(rnd, FAREY_LEVELS, self.batch_size)

    def observe(self, gk, q, corrupt=False):
        bcz, farey = gk["bcz"], gk["farey"]
        size = farey.farey_size(q)
        orb = bcz.orbit(bcz.farey_orbit_start(q), size + 1, detect_period=True)
        roofs = list(orb.returns)
        if corrupt:
            roofs[-1] += 1
        pairs = list(farey.farey_pairs(q))
        expected = [Fraction(q * q, d0 * d1) for (_, d0), (_, d1) in zip(pairs, pairs[1:])]
        observed = {"size": size, "roofs": sha256_lines(map(frac_str, roofs))}
        consistent = orb.period == size and roofs == expected
        return str(q), observed, consistent, {"bcz_steps": len(roofs)}


class LatticeOracle(Workload):
    """Exact return-map gaps against the strip-enumeration oracle, plus
    float hitting times against the exact strip slopes."""

    name = "lattice-oracle"
    batch_size = 40
    modules = ("lattice", "pointcloud")

    def make_batch(self, rnd):
        # make_reference.py leaves out seeds whose cross-check fails
        pool = [s for s in LATTICE_SEEDS if str(s) in self.ref]
        return rnd.sample(pool, self.batch_size)

    def build(self, gk, tasks):
        lattice = gk["lattice"]
        out = []
        for seed in tasks:
            lat = lattice.seeded_lattice(seed)
            out.append((seed, lat, lat.to_float()))
        return out

    def observe(self, gk, item, corrupt=False):
        lattice, pc = gk["lattice"], gk["pointcloud"]
        seed, lat, flat = item
        fast = list(lattice.slope_gaps_fast(lat, 1, LATTICE_GAPS, exact=True).gaps)
        if corrupt:
            fast[0] = fast[0] * 2
        seq = pc.slopes_in_strip(lat, 1, LATTICE_GAPS + 1)
        slopes = seq.slopes
        oracle = [t - s for s, t in zip(slopes, slopes[1:])]
        hits = pc.hitting_times(flat, 1.0, LATTICE_HITS)
        close = len(hits) == LATTICE_HITS and all(
            abs(h - float(s)) <= 1e-9 * max(1.0, abs(float(s)))
            for h, s in zip(hits, slopes))
        observed = {"gaps": sha256_lines(map(frac_str, fast))}
        work = {"bcz_steps": len(fast), "slopes": len(slopes) + len(hits)}
        return str(seed), observed, fast == oracle and close, work


class GoldenExact(Workload):
    """Saddle connections of a fresh exact golden L, then both gap pipelines
    on the same instance (the second and third development are cache hits)."""

    name = "golden-exact"
    batch_size = 40
    modules = ("surface",)

    def make_batch(self, rnd):
        return _stratified(rnd, GOLDEN_RADII, self.batch_size)

    def build(self, gk, tasks):
        gk["surface"].golden_l()  # the constant input; tasks build their own
        return tasks

    def observe(self, gk, radius, corrupt=False):
        surface = gk["surface"]
        surf = surface.golden_l()
        conns = surface.saddle_connections(surf, radius)
        holo = [(c.holonomy.x, c.holonomy.y) for c in conns]
        if corrupt:
            holo = holo[1:]
        angle = surface.sc_angle_gaps(surf, radius)
        slope = surface.sc_slope_gaps(surf, radius)
        observed = {"connections": len(holo),
                    "holonomies": sha256_lines(sorted(f"{x}|{y}" for x, y in holo)),
                    "directions": angle.count,
                    "slope_gaps": sha256_lines(map(str, slope.gaps))}
        consistent = (Counter(holo) == Counter((-x, -y) for x, y in holo)
                      and abs(float(angle.samples.mean()) - 1.0) <= 1e-9)
        return repr(radius), observed, consistent, {"connections": len(holo)}


class CliFloat(Workload):
    """gapkit float pipelines through ``gapkit.cli.main(argv)``, checked by
    stdout digest.  The benchmark runs them in-process (the fresh-interpreter
    ``import gapkit.cli`` is this workload's set-up); make_reference.py runs
    them as ``python -m gapkit.cli`` subprocesses, so the in-process bytes
    are checked against those of the real command."""

    name = "cli-float"
    batch_size = 40
    modules = ("cli",)

    def __init__(self, reference, workdir: Path, in_process: bool = False):
        super().__init__(reference)
        self.workdir = workdir
        self.in_process = in_process

    def warmup(self, items):
        # the batch starts with one task of every pipeline, in order
        return items[:len(CLI_PIPELINES)]

    def make_batch(self, rnd):
        # rounds of every pipeline in order; each pipeline's variants are
        # stratified over the variant pool, so every seed does similar work
        rounds = self.batch_size // len(CLI_PIPELINES)
        picks = {p: _stratified(rnd, range(CLI_VARIANTS), rounds) for p in CLI_PIPELINES}
        tasks = []
        for r in range(rounds):
            for pipeline in CLI_PIPELINES:
                # compare reads the file lattice-gaps wrote just before it,
                # so it carries that task's variant
                source = "lattice-gaps" if pipeline == "compare" else pipeline
                tasks.append((pipeline, picks[source][r]))
        return tasks

    def _invoke(self, gk, argv: list[str]) -> tuple[int, bytes]:
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            cwd = os.getcwd()
            os.chdir(self.workdir)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = gk["cli"].main(argv)
            finally:
                os.chdir(cwd)
            return code, out.getvalue().encode()
        proc = subprocess.run([sys.executable, "-m", "gapkit.cli", *argv],
                              cwd=self.workdir, env=child_env(), capture_output=True,
                              timeout=120)
        return proc.returncode, proc.stdout

    def observe(self, gk, item, corrupt=False):
        pipeline, variant = item
        code, out = self._invoke(gk, cli_argv(pipeline, variant))
        if pipeline == "lattice-gaps":
            (self.workdir / CLI_GAPS_FILE).write_bytes(out)
        if corrupt:
            out = out.replace(b"gapkit", b"gapkjt", 1)
        rows = sum(1 for ln in out.splitlines() if ln and not ln.startswith(b"#")) - 1
        work = {"cli_rows": max(rows, 0), "cli_bytes": len(out)}
        observed = {"stdout_sha256": hashlib.sha256(out).hexdigest()}
        return f"{pipeline}:{variant}", observed, code == 0, work


WORKLOADS = {cls.name: cls for cls in (FareyExact, LatticeOracle, GoldenExact, CliFloat)}


def load_reference() -> dict:
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text())
    return {}
