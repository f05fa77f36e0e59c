"""Write reference.json: the digests every benchmark task is checked against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs each workload's ``observe`` over its whole input pool with the
checkout's gapkit and records the observed digests and counts.  An input
whose independent cross-check fails is left out of the pool, so that no
benchmark task fails on the program the reference was taken from.  Run it
only on the commit that defines the benchmark's reference outputs: a later
run would bless whatever the program then computes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (CLI_PIPELINES, CLI_VARIANTS, FAREY_LEVELS,  # noqa: E402
                       GOLDEN_RADII, LATTICE_SEEDS, REFERENCE, CliFloat,
                       FareyExact, GoldenExact, LatticeOracle)


def record(wl, items) -> dict:
    gk = wl.load() if wl.in_process else {}
    out = {}
    for item in items:
        key, observed, consistent, _ = wl.observe(gk, item)
        if consistent:
            out[key] = observed
        else:
            print(f"{wl.name}: {item!r} fails its cross-check; left out", file=sys.stderr)
    return out


def main() -> int:
    reference = {}
    reference[FareyExact.name] = record(FareyExact({}), FAREY_LEVELS)
    lattice = LatticeOracle({})
    gk = lattice.load()
    reference[lattice.name] = record(lattice, lattice.build(gk, list(LATTICE_SEEDS)))
    reference[GoldenExact.name] = record(GoldenExact({}), GOLDEN_RADII)
    with tempfile.TemporaryDirectory() as tmp:
        cli = CliFloat({}, workdir=Path(tmp))
        # compare reads the file lattice-gaps of the same variant just wrote
        items = [(p, k) for k in range(CLI_VARIANTS) for p in CLI_PIPELINES]
        reference[cli.name] = record(cli, items)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    for name, entries in reference.items():
        print(f"{name}: {len(entries)} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
