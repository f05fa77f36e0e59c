"""The slope/return-time machinery of unimodular lattices.

A lattice (lattice.UnimodularLattice) is a state x with its primitive
vectors attached.  The strip loop asks it empty_strip, then reads a strip's
points through exact_rows (exact bases) or float_columns (float bases), the
definition of horizontal shortness a ball's points through enumerate_points
and the sheared state g.x through act, hitting_times its verdicts through
axis_hits.  Surfaces reach the same statistics through their saddle
connections (surface.sc_slope_gaps).

All slope statistics flow through two facts about the vertical shear
(x, y) -> (x, y - s x):

  * it subtracts s from every slope, so slope gaps are shear-invariant;
  * a lattice has a slope s vector in the width-eta strip exactly when the
    sheared lattice has a horizontal vector of length at most eta,

so the sorted strip slopes coincide with the times at which the shear flow
hits the "horizontally short" transversal.  slopes_in_strip and
hitting_times compute the two sides of that equality through different code
paths, and their agreement is the load-bearing invariant of this module.
hitting_times verifies its candidates through the lattice's
axis_hits(slopes, eta, tols): is shear(s).x eta-horizontally short, for
each candidate s?  The definition, axis_hits_by_definition, answers by
is_horizontally_short of each act(shear(s)); an exact lattice takes it, a
float lattice answers from one stacked scan of its sheared bases.

At height H the strip loop keeps only slopes <= H / eta, so it reads only
the strip below its diagonal y = (H / eta) x (_LowerStrip): the scan drops
the points more than its margin above the diagonal before any row is
built, about half the rectangle.  That prefilter only steers; the loop's
own float slope test decides.  Exact lattices hand the strip loop their
points as ExactRows: int numerator pairs (X, Y) over one common
denominator, rectangle membership already decided in ints; Fraction slopes
and points are built only for the rows returned.  Float lattices hand it
float arrays (x, y) (float_columns), whose slopes y / x are ordered as
arrays; a Vec2 is built only for a point strip_points returns.  Every slope
order, float too, is one float-first sort (_float_first): a stable sort by
a float f with an error bound err, and keys compared only inside runs of
overlapping intervals [f - err, f + err].
Int rows pass the correctly rounded Y / X with err = 0 (rounding is
monotone), float slopes themselves with err = 5e-13 max(1, |f|) and one
key, so a run is one slope (_float_order).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import itemgetter, truediv
from typing import TYPE_CHECKING, Optional

import numpy as np

from .core import Ball, Vec2, VerticalStrip, _check_positive, is_exact, shear
from .errors import ExceptionalLatticeError, ExhaustionError, ResourceLimitError

if TYPE_CHECKING:  # lattice imports this module
    from .lattice import UnimodularLattice

__all__ = [
    "ExactRows", "SlopeSequence", "GapSequence", "strip_points",
    "slopes_in_strip", "gaps",
    "is_horizontally_short", "axis_hits_by_definition", "hitting_times",
]

# |y| below this counts as horizontal for float lattices (exact lattices use 0)
AXIS_TOL = 1e-9


@dataclass(frozen=True)
class ExactRows:
    """Points (X/d, Y/d) of an exact lattice, as int numerator lists xs, ys.

    ``int_x`` (``int_y``) says that the lattice's own x (y) coordinates are
    ints rather than Fractions, so ``point`` returns the same scalar types
    as the lattice's exact arithmetic would.
    """

    xs: list
    ys: list
    d: int
    int_x: bool = False
    int_y: bool = False

    def point(self, x: int, y: int) -> Vec2:
        d = self.d
        return Vec2(x // d if self.int_x else Fraction(x, d),
                    y // d if self.int_y else Fraction(y, d))

    def points(self) -> list[Vec2]:
        """The Vec2 points, for enumerate_points of an exact basis."""
        return list(map(self.point, self.xs, self.ys))


@dataclass(frozen=True)
class SlopeSequence:
    """Strictly increasing nonnegative slopes of strip vectors (ties collapsed)."""

    eta: float
    slopes: tuple

    def __post_init__(self):
        for s, t in zip(self.slopes, self.slopes[1:]):
            if not t > s:
                raise ValueError("slopes must be strictly increasing")

    def __len__(self):
        """The slope count; perfbench's tracer counts slopes_in_strip's work by it."""
        return len(self.slopes)

    def floats(self) -> np.ndarray:
        return np.asarray(self.slopes, dtype=float)


@dataclass(frozen=True, eq=False)
class GapSequence:
    """Consecutive differences of a slope (or similar) sequence; all positive."""

    gaps: tuple | np.ndarray  # a float64 array from float producers

    def __len__(self):
        return len(self.gaps)

    def floats(self) -> np.ndarray:
        return np.asarray(self.gaps, dtype=float)


def _ragged(starts, lens, total: int):
    """Concatenated ranges [starts[r], starts[r] + lens[r]) as one int64
    array; ``total`` is lens.sum()."""
    return np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(total)


def _float_order(f: np.ndarray) -> list[int]:
    """_float_first of float slopes with err = 5e-13 max(1, |f|) and one
    key: each run of overlapping intervals keeps its first index."""
    return _float_first(f, 5e-13 * np.maximum(1.0, np.abs(f)), lambda i: 0)


def _float_first(f: np.ndarray, err, key) -> list[int]:
    """The indices i of the floats ``f`` in order of ``key(i)``, the first
    index of each key value kept, given bounds ``err`` (array or scalar)
    such that f[i] + err[i] < f[j] - err[j] implies key(i) < key(j), and
    equal floats for equal keys.  A stable sort by f is the key order except
    inside runs, which end where the largest f + err so far lies below every
    later f - err; only runs of more than one index are sorted by key,
    stably, so the first index of each key value stays first."""
    order = np.argsort(f, kind="stable")
    upper = np.maximum.accumulate((f + err)[order])
    lower = np.minimum.accumulate((f - err)[order][::-1])[::-1]
    edge = np.concatenate(([0], np.flatnonzero(upper[:-1] < lower[1:]) + 1, [len(f)]))
    wide = np.flatnonzero(np.diff(edge) > 1)[::-1]  # last first: runs shrink
    order = order.tolist()
    for lo, hi in zip(edge[wide].tolist(), edge[wide + 1].tolist()):
        run = sorted([(key(i), i) for i in order[lo:hi]], key=itemgetter(0))
        order[lo:hi] = [i for j, (k, i) in enumerate(run) if j == 0 or run[j - 1][0] != k]
    return order


def _slope_order(rows: ExactRows, cut: float) -> list:
    """The (x, y) rows with float slope <= cut, in exact slope order with
    equal slopes collapsed to their first row."""
    xs, ys = rows.xs, rows.ys
    keys = np.fromiter(map(truediv, ys, xs), dtype=float, count=len(xs))
    at = np.flatnonzero(keys <= cut).tolist()
    kept = _float_first(keys[at], 0.0, lambda i: Fraction(ys[at[i]], xs[at[i]]))
    return [(xs[at[i]], ys[at[i]]) for i in kept]


def _column_order(x: np.ndarray, y: np.ndarray, cut: float) -> np.ndarray:
    """Float strip columns with slope y / x <= cut in slope order, ties
    collapsed by _float_order, as an (m, 3) array of rows (slope, x, y)."""
    f = y / x
    at = f <= cut
    rows = np.stack((f[at], x[at], y[at]), axis=1)
    return rows[_float_order(rows[:, 0])]


class _LowerStrip(VerticalStrip):
    """The region of the strip loop: the strip 0 < x <= eta, 0 <= y <= height
    read below its diagonal y = cut x, cut = height / eta, the largest slope
    the loop keeps at that height.  Membership stays the rectangle's; the
    scan (lattice._primitive_scan) only drops the points more than its
    margin above the diagonal, which have float slopes above cut, so the
    loop's own ``<= cut`` tests still decide every row."""

    @property
    def cut(self) -> float:
        return float(self.height) / float(self.eta)


def _strip_rows(lat: UnimodularLattice, eta, n: int):
    """The growing-height strip loop behind strip_points.

    Each height reads the strip below its diagonal (_LowerStrip), the only
    part whose slopes it can keep.  Returns (rows, exact): the first n rows
    in slope order, as (x, y) int rows of the ExactRows ``exact`` from
    lat.exact_rows, else as an (n, 3) float array of rows (slope, x, y) from
    lat.float_columns.  An exact empty strip (lat.empty_strip) raises
    ExceptionalLatticeError before any scan.  H doubles until a scan raises
    ResourceLimitError (lattice.DEFAULT_CELL_BUDGET), raised again as
    ExhaustionError with the slopes of the last completed height.  That ends
    the loop: a scan visits at least |b| H / |det| rows, b != 0 the larger
    |x| of the reduced basis, and b >~ 4e-155 as _check_float_det rejects
    entries past about 1.34e154, so the budget fires before H overflows.
    """
    _check_positive(eta, "eta")
    if lat.empty_strip(eta):
        raise ExceptionalLatticeError("lattice has a vertical vector and an empty strip")
    height, done = float(eta) * max(4.0, 4.0 * n), 0.0
    rows, exact = np.empty((0, 3)), None  # no height completed yet
    while True:
        strip = _LowerStrip(eta, height)
        try:
            exact = lat.exact_rows(strip)
            rows = _slope_order(exact, strip.cut) if exact is not None \
                else _column_order(*lat.float_columns(strip), strip.cut)
        except ResourceLimitError as err:
            raise ExhaustionError(
                f"found {len(rows)} of {n} slopes below height {done}; "
                f"the cell budget stops height {height}: {err}",
                partial=SlopeSequence(eta, _slopes(rows, exact))) from err
        if len(rows) >= n:
            return rows[:n], exact
        done, height = height, height * 2.0


def _slopes(rows, exact: Optional[ExactRows]) -> tuple:
    if exact is not None:
        return tuple(Fraction(y, x) for x, y in rows)
    return tuple(rows[:, 0].tolist())


def strip_points(lat: UnimodularLattice, eta, n: int) -> list:
    """The n strip points of smallest nonnegative slope, as sorted (slope, point)
    pairs with ties collapsed.

    Enumerates the strip under growing height caps H; every slope <= H/eta is
    then definitely present, so the first n of those are final.  H doubles
    until the cell budget stops a scan: ExhaustionError with the slopes of the
    last completed height.  An exact empty strip raises ExceptionalLatticeError.
    """
    rows, exact = _strip_rows(lat, eta, n)
    if exact is not None:
        return [(Fraction(y, x), exact.point(x, y)) for x, y in rows]
    return [(s, Vec2(x, y)) for s, x, y in rows.tolist()]


def slopes_in_strip(lat: UnimodularLattice, eta, n: int) -> SlopeSequence:
    """The n smallest nonnegative slopes of strip vectors, sorted, ties collapsed
    (see strip_points)."""
    return SlopeSequence(eta, _slopes(*_strip_rows(lat, eta, n)))


def gaps(seq: SlopeSequence) -> GapSequence:
    """Consecutive slope differences (``lattice-gaps --oracle``); needs two slopes."""
    if len(seq) < 2:
        raise ValueError("need at least two slopes to form gaps")
    return GapSequence(tuple(t - s for s, t in zip(seq.slopes, seq.slopes[1:])))


def _axis_radius(eta) -> float:
    """The radius eta (1 + 1e-12) whose ball is searched for a horizontal
    vector of length <= eta, after checking eta."""
    _check_positive(eta, "eta")
    return float(eta) * (1 + 1e-12)


def _on_axis(v: Vec2, tol: float, radius: float) -> bool:
    """The definition's test of one point: horizontal, nonzero, within radius."""
    flat = v.y == 0 if is_exact(v.y) else abs(float(v.y)) <= tol
    return flat and v.x != 0 and abs(float(v.x)) <= radius


def is_horizontally_short(lat: UnimodularLattice, eta, tol: float = AXIS_TOL) -> bool:
    """The definition: does the lattice hold a horizontal vector of length <= eta?

    ``tol`` is the float zero-test for the transverse coordinate; callers
    that sheared the lattice by s should scale it by |s|, which is how much
    the shear amplifies coordinate rounding.  Exact lattices ignore it.
    """
    radius = _axis_radius(eta)
    return any(_on_axis(v, tol, radius) for v in lat.enumerate_points(Ball(radius)))


def axis_hits_by_definition(lat: UnimodularLattice, slopes, eta, tols) -> list[bool]:
    """For each time s of ``slopes``: is shear(s).x eta-horizontally short,
    with ``tols[t]`` the float zero test of time t?  The definition, one
    sheared lattice per time: exact lattices answer by it, and it is the
    oracle of the float stack (UnimodularLattice.axis_hits)."""
    return [is_horizontally_short(lat.act(shear(s)), eta, tol)
            for s, tol in zip(slopes, tols)]


def hitting_times(lat: UnimodularLattice, eta, n: int) -> list:
    """Times s >= 0 at which the sheared state shear(s).x is eta-horizontally short.

    Candidates come from the strip slopes; each one is then verified through
    the independent route, lat.axis_hits: shear the lattice and test
    shortness with the tolerance AXIS_TOL max(1, |s|).  Candidates failing
    verification are dropped, so any disagreement with slopes_in_strip is
    observable.  The result is the candidates that axis_hits_by_definition
    keeps; a float lattice answers from its own basis, sheared as one float
    stack, so the check stays independent of the strip points.
    """
    slopes = slopes_in_strip(lat, eta, n).slopes
    tols = AXIS_TOL * np.maximum(1.0, np.abs(np.asarray(slopes, dtype=float)))
    return list(compress(slopes, lat.axis_hits(slopes, eta, tols)))
