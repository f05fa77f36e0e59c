"""Command-line surface: every pipeline as a subcommand emitting CSV or JSON.

Output starts with a metadata block (tool version, echoed configuration,
seed), then data rows.  Exact rationals serialize as "p/q" strings and
golden numbers as "a+b*phi", so reruns are byte-identical for a fixed
configuration; nothing time- or host-dependent is ever written.

Exit codes: 0 success, 2 argument/validation problems and unreadable or
unwritable files, 3 exhaustion or resource-budget failures.

farey, bcz and hall load no numpy on import and are imported at the top.
numpy and the modules that load it on import (lattice, affine, surface,
stats) are imported in the handlers that use them, so farey-gaps and an
exact bcz-orbit run without numpy.

The argparse parser is built on the first ``main`` call, not at import, and
that one parser serves every later call in the process (``build_parser`` is
cached): building it costs a few milliseconds, more than a small command's
own work.  Parsing leaves the parser as it was, so callers must not mutate it.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from fractions import Fraction

from . import __version__, bcz, farey, hall
from .core import Mat2, Vec2
from .errors import ExhaustionError, GapkitError, ResourceLimitError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3


_BLOCK_ROWS = 4096  # CSV rows joined into one string per write


def _cells(column):
    """The text cells of one column: a numpy array prints repr of each value,
    a range str of each index, and any other sequence p/q for a Fraction and
    str for the rest (int, GoldenNum, Python float); gapkit builds no Fraction
    subclass, so an exact type test, cheaper than isinstance through Fraction's
    ABCMeta, finds every Fraction.  An array is recognised
    through the numpy already in sys.modules: none can exist before numpy is
    loaded, so a command that never loads it never imports it here."""
    np = sys.modules.get("numpy")
    if np is not None and isinstance(column, np.ndarray):
        return map(repr, column.tolist())
    if isinstance(column, range):
        return map(str, column)
    return (f"{v.numerator}/{v.denominator}" if type(v) is Fraction else str(v)
            for v in column)


def _write_output(meta: dict, columns: dict, fmt: str, path):
    """Write the metadata block and the named columns (all of one length),
    as CSV lines written a block of rows at a time or as one JSON document."""
    rows = zip(*map(_cells, columns.values()))
    if fmt == "csv":
        head = [f"# {key}: {meta[key]}\n" for key in sorted(meta)]
        head.append(",".join(columns) + "\n")
        lines = map(",".join, rows)

        def blocks():
            while block := list(itertools.islice(lines, _BLOCK_ROWS)):
                yield "\n".join(block) + "\n"

        chunks = itertools.chain(head, blocks())
    else:
        payload = {
            "meta": {k: str(v) for k, v in sorted(meta.items())},
            "columns": list(columns),
            "rows": list(rows),
        }
        chunks = [json.dumps(payload, indent=2, sort_keys=True), "\n"]
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _meta(args, **extra) -> dict:
    # the worker count is deliberately not echoed: output bytes must be a
    # function of (config, seed, version) only
    meta = {"tool": "gapkit", "version": __version__, "command": args.command}
    if getattr(args, "seed", None) is not None:
        from . import stats
        meta["seed"] = args.seed
        meta["rng"] = stats.RNG_ALGORITHM
    meta.update(extra)
    return meta


def _parse_scalar(text: str):
    """Exact scalar from 'p/q' or a decimal literal (decimals stay exact)."""
    text = text.strip()
    if "/" in text:
        num, den = (int(part) for part in text.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    return Fraction(text)


def _finite_float(text: str) -> float:
    """argparse type of the float options: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


# -- subcommand implementations ---------------------------------------------
#
# Each handler returns (config, columns): the configuration echoed into the
# metadata block and the named output columns.  main writes them.

def _cmd_farey_gaps(args):
    gaps = farey.farey_gaps(args.q)
    return ({"q": args.q, "count": len(gaps)},
            {"index": range(len(gaps)), "normalized_gap": gaps})


def _cmd_bcz_orbit(args):
    # the start is checked exactly in both modes; the float walk takes its floats
    point = bcz.TransversalPoint(*map(_parse_scalar, (args.a, args.b, args.eta)))
    orb = bcz.orbit(point if args.exact else point.to_float(), args.steps, detect_period=True)
    points = orb.points[:len(orb.returns)]
    return ({"a": args.a, "b": args.b, "eta": args.eta, "steps": args.steps,
             "exact": args.exact, "period": orb.period if orb.period else "none"},
            {"step": range(len(points)), "a": [p.a for p in points],
             "b": [p.b for p in points], "roof": orb.returns})


def _cmd_hall(args):
    import numpy as np
    lo, hi = hall.kinks(args.scaling)
    ts = np.linspace(0.0, 4.0 * hi, args.grid)
    return ({"scaling": args.scaling, "grid": args.grid,
             "kink_low": repr(lo), "kink_high": repr(hi)},
            {"t": ts, "cdf": hall.hall_cdf(ts, args.scaling),
             "pdf": hall.hall_pdf(ts, args.scaling)})


def _cmd_lattice_gaps(args):
    if args.count < 0:  # one message for both routes, before either scans
        raise ValueError(f"--count must be nonnegative, got {args.count}")
    from . import lattice
    lat = lattice.seeded_lattice(args.seed)
    if args.oracle:
        from .pointcloud import gaps as gaps_of, slopes_in_strip
        seq = slopes_in_strip(lat.to_float(), args.eta, args.count + 1)
        values = gaps_of(seq).floats() if args.count else ()  # no gaps, as the fast route
    else:
        values = lattice.slope_gaps_fast(lat, args.eta, args.count).gaps
    return ({"eta": args.eta, "count": args.count, "oracle": args.oracle,
             "lattice": lat.tag},
            {"index": range(len(values)), "gap": values})


def _shifted_square_lattice(shift: str):
    """The affine.AffineLattice Z^2 shifted by the --shift value 'x,y'."""
    from . import affine
    parts = shift.split(",")
    if len(parts) != 2:
        raise ValueError(f"--shift must be x,y, got {shift!r}")
    sx, sy = (_scalar_to_float(part, "--shift part") for part in parts)
    return affine.AffineLattice(Mat2(1.0, 0.0, 0.0, 1.0), Vec2(sx, sy))


def _cmd_affine_angles(args):
    from . import affine
    dist = affine.angle_gap_distribution(_shifted_square_lattice(args.shift), args.radius)
    return ({"shift": args.shift, "radius": args.radius, "count": dist.count},
            {"index": range(dist.count), "normalized_gap": dist.samples})


def _cmd_wedge_p(args):
    from . import affine
    ws = affine.empirical_p(_shifted_square_lattice(args.shift), args.sigma,
                            args.radius, args.samples, args.seed)
    return ({"sigma": args.sigma, "radius": args.radius, "samples": args.samples,
             "shift": args.shift},
            {"points_in_wedge": range(len(ws.counts)), "directions": ws.counts,
             "fraction": ws.fractions()})


def _cmd_sqrtn(args):
    from . import affine
    seq = affine.sqrt_mod1_gaps(args.n)
    return ({"n": args.n, "count": len(seq)},
            {"index": range(len(seq)), "normalized_gap": seq.gaps})


def _cmd_surface_sc(args):
    import numpy as np
    from . import surface
    kind, _, dims = args.shape.partition(":")
    if args.shape == "golden":
        surf = surface.golden_l()
    elif kind == "l" and dims.count(",") == 1:
        surf = surface.l_shape(*(float(part) for part in dims.split(",")))
    else:
        raise ValueError(f"--shape must be golden or l:alpha,beta, got {args.shape!r}")
    conns = surface.saddle_connections(surf, args.radius)
    xs = [c.holonomy.x for c in conns]
    ys = [c.holonomy.y for c in conns]
    return ({"shape": args.shape, "radius": args.radius, "count": len(conns)},
            {"x": xs, "y": ys, "x_float": np.asarray(xs, dtype=float),
             "y_float": np.asarray(ys, dtype=float),
             "crossings": [len(c.path) for c in conns]})


def _cmd_baseline_poisson(args):
    from . import lattice
    seq = lattice.poisson_baseline(args.n, args.seed)
    return ({"n": args.n, "count": len(seq)},
            {"index": range(len(seq)), "normalized_gap": seq.gaps})


def _read_column(path: str):
    """Last column of a gapkit CSV (or a JSON rows payload), as a float array.

    Decimal cells are converted all at once; a column with a p/q cell or a
    non-finite value goes cell by cell through ``_scalar_to_float``, whose
    errors name the cell."""
    import numpy as np
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        rows = json.loads(text).get("rows")
        if not isinstance(rows, list) or not all(
                isinstance(row, list) and row and all(isinstance(c, str) for c in row)
                for row in rows):
            raise ValueError(f"{path}: JSON input needs a 'rows' list of text-cell lists")
        cells = [row[-1] for row in rows]
    else:
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        cells = [ln.split(",")[-1] for ln in lines[1:]]
    try:
        column = np.array(list(map(float, cells)))
    except ValueError:  # a p/q cell, or text that is no number
        column = None
    if column is None or not np.isfinite(column).all():
        return np.array([_scalar_to_float(cell, "cell") for cell in cells])
    return column


def _scalar_to_float(text: str, name: str) -> float:
    """A 'p/q' or decimal, named ``name`` in errors, as a float; a zero
    denominator or a non-finite value (nan, inf, or a p/q past the float
    range) is a ValueError."""
    try:
        value = float(_parse_scalar(text)) if "/" in text else float(text)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"non-finite {name} {text!r}")
    return value


def _cmd_compare(args):
    import numpy as np
    from . import stats
    left = stats.ecdf(_read_column(args.left))
    if args.cdf in ("hall", "hall-unnormalized"):
        scaling = "farey" if args.cdf == "hall" else "unnormalized"
        ks = stats.ks_distance(left, lambda t: hall.hall_cdf(t, scaling))
        reference = args.cdf
    elif args.cdf == "poisson":
        ks = stats.ks_distance(left, lambda t: 1.0 - np.exp(-t))
        reference = "poisson-exponential"
    elif args.right:
        right = stats.ecdf(_read_column(args.right))
        ks = stats.ks_two_sample(left, right)
        reference = args.right
    else:
        raise ValueError("compare needs --right FILE or --cdf NAME")
    return ({"left": args.left, "reference": reference, "n_left": left.count},
            {"ks_distance": [ks]})


# -- parser -------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The gapkit parser, built once per process and shared by every caller:
    do not mutate it (no add_argument, set_defaults or add_parser on it)."""
    parser = argparse.ArgumentParser(
        prog="gapkit",
        description="Gap distributions of slopes and angles of planar point sets")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--output", default=None, help="write here instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--workers", type=int, default=1,
                       help="reserved; results never depend on it")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("farey-gaps", help="normalized Farey gaps at one level")
    p.add_argument("--q", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_farey_gaps)

    p = sub.add_parser("bcz-orbit", help="orbit of the transversal return map")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--eta", default="1")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--exact", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_bcz_orbit)

    p = sub.add_parser("hall", help="limiting CDF/PDF on a grid")
    p.add_argument("--scaling", choices=("farey", "unnormalized"), default="farey")
    p.add_argument("--grid", type=int, default=512)
    common(p)
    p.set_defaults(func=_cmd_hall)

    p = sub.add_parser("lattice-gaps", help="slope gaps of a seeded lattice")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--eta", type=_finite_float, default=1.0)
    p.add_argument("--oracle", action="store_true",
                   help="direct enumeration instead of the return-map fast path")
    common(p, seed=True)
    p.set_defaults(func=_cmd_lattice_gaps)

    p = sub.add_parser("affine-angles", help="angle gaps of a shifted lattice")
    p.add_argument("--shift", required=True, help="x,y")
    p.add_argument("--radius", type=_finite_float, required=True)
    common(p)
    p.set_defaults(func=_cmd_affine_angles)

    p = sub.add_parser("wedge-p", help="wedge occupancy fractions over directions")
    p.add_argument("--sigma", type=_finite_float, required=True)
    p.add_argument("--radius", type=_finite_float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--shift", default="0.2137,0.5813")
    common(p, seed=True)
    p.set_defaults(func=_cmd_wedge_p)

    p = sub.add_parser("sqrtn", help="gaps of fractional parts of sqrt(k)")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_sqrtn)

    p = sub.add_parser("surface-sc", help="saddle connections of an L-surface")
    p.add_argument("--shape", required=True, help="golden or l:alpha,beta")
    p.add_argument("--radius", type=_finite_float, required=True)
    common(p)
    p.set_defaults(func=_cmd_surface_sc)

    p = sub.add_parser("baseline-poisson", help="i.i.d. uniform gap baseline")
    p.add_argument("--n", type=int, required=True)
    common(p, seed=True)
    p.set_defaults(func=_cmd_baseline_poisson)

    p = sub.add_parser("compare", help="KS distance between gap files / reference")
    p.add_argument("--left", required=True)
    p.add_argument("--right", default=None)
    p.add_argument("--cdf", choices=("hall", "hall-unnormalized", "poisson"),
                   default=None)
    common(p)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        config, columns = args.func(args)
        _write_output(_meta(args, **config), columns, args.format, args.output)
    except (ExhaustionError, ResourceLimitError) as exc:
        print(f"gapkit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, GapkitError, OSError) as exc:
        print(f"gapkit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
