"""Abstract point systems and the slope/return-time machinery built on them.

A PointSystem assigns a discrete planar set to a state, equivariantly under
linear maps: the points of the transformed system are the transformed points.
All slope statistics flow through two facts about the vertical shear
(x, y) -> (x, y - s x):

  * it subtracts s from every slope, so slope gaps are shear-invariant;
  * a system has a slope s vector in the width-eta strip exactly when the
    sheared system has a horizontal vector of length at most eta,

so the sorted strip slopes coincide with the times at which the shear flow
hits the "horizontally short" transversal.  slopes_in_strip and
hitting_times compute the two sides of that equality through different code
paths, and their agreement is the load-bearing invariant of this module.
hitting_times verifies its candidates through one hook,
PointSystem.axis_hits(slopes, eta, tols): is shear(s).x eta-horizontally
short, for each candidate s?  The base class answers by the definition,
is_horizontally_short of each act(shear(s)); a float lattice answers from
one stacked scan of its sheared bases (lattice.UnimodularLattice).

Exact systems may hand the strip loop their points as ExactRows: int
numerator pairs (X, Y) over one common denominator, membership already
decided in ints; Fraction slopes and points are built only for the rows
returned.  Float lattices hand it float arrays (x, y) (float_columns),
whose slopes y / x are ordered as arrays; a Vec2 is built only for a point
strip_points returns.  Every slope order, float too, is one float-first sort
(_float_first): a stable sort by a float f with an error bound err, and
keys compared only inside runs of overlapping intervals [f - err, f + err].
Int rows pass the correctly rounded Y / X with err = 0 (rounding is
monotone), exact scalar slopes (those of exact surfaces) the float of
a + b phi with the bound written in core (_collapse_exact), float slopes
themselves with err = 5e-13 max(1, |f|) and one key, so a run is one slope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import itemgetter, truediv
from typing import Optional

import numpy as np

from .core import (Ball, Mat2, Region, Vec2, VerticalStrip, _check_positive, _zphi_coeffs,
                   is_exact, shear, slope, zphi_float, zphi_float_error, zphi_sign)
from .errors import ExhaustionError

__all__ = [
    "PointSystem", "ExactRows", "SlopeSequence", "GapSequence", "strip_points",
    "slopes_in_strip", "gaps",
    "is_horizontally_short", "hitting_times",
]

# |y| below this counts as horizontal for float systems (exact systems use 0)
AXIS_TOL = 1e-9

# strip heights grow geometrically up to this height before giving up
DEFAULT_HEIGHT_BUDGET = 2.0 ** 26


class PointSystem:
    """State x with a discrete set of nonzero planar points attached.

    Implementations must enumerate deterministically for a fixed state and
    region, and must satisfy equivariance: enumerating g.x over g.K returns
    exactly g applied to the enumeration of x over K.  Each implementation
    holds its search to its module's budget constant
    (lattice.DEFAULT_CELL_BUDGET, surface.DEFAULT_STATE_BUDGET), read at
    call time, and raises ResourceLimitError beyond it.
    """

    def enumerate_points(self, region: Region) -> list[Vec2]:
        """All points of the set inside a bounded region (order unspecified)."""
        raise NotImplementedError

    def axis_hits(self, slopes, eta, tols) -> list[bool]:
        """For each time s of ``slopes``: is the sheared system shear(s).x
        eta-horizontally short, with ``tols[t]`` the float zero test of
        time t?  This is the definition; a class may answer all at once."""
        return [is_horizontally_short(self.act(shear(s)), eta, tol)
                for s, tol in zip(slopes, tols)]

    def exact_rows(self, region: Region) -> Optional["ExactRows"]:
        """The points in the region as int numerators, when the system has
        an exact int form for that region; None otherwise."""
        return None

    def float_columns(self, region: Region) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """The points in the region as float arrays (x, y), when the system
        is float and holds them as columns; None otherwise."""
        return None

    def act(self, g: Mat2) -> "PointSystem":
        """The system attached to the transformed state g.x."""
        raise NotImplementedError


@dataclass(frozen=True)
class ExactRows:
    """Points (X/d, Y/d) of an exact system, as int numerator lists xs, ys.

    ``int_x`` (``int_y``) says that the system's own x (y) coordinates are
    ints rather than Fractions, so ``point`` returns the same scalar types
    as the system's exact arithmetic would.
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


def _collapse(rows: list) -> list:
    """Sort (slope, point) pairs by slope, keeping the first pair of each slope
    value (exact equality, or for floats each run of slopes within about
    1e-12 relative).  The rows share one kind of slope: exact ones go to
    _collapse_exact."""
    if rows and is_exact(rows[0][0]):
        return _collapse_exact(rows)
    f = np.fromiter(map(itemgetter(0), rows), dtype=float, count=len(rows))
    return [rows[i] for i in _float_order(f)]


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


def _collapse_exact(rows: list) -> list:
    """_collapse of exact slopes (int, Fraction or GoldenNum), float first.

    A slope a + b phi becomes the float ``core.zphi_float`` of the floats of
    its coefficients, within ``core.zphi_float_error`` of it.  Equal slopes
    have equal coefficients, hence equal floats.  Slopes beyond the float
    range have nan floats and make one run, sorted exactly.
    """
    _, fa, fb = _zphi_floats(s for s, _ in rows)
    f, err = zphi_float(fa, fb), zphi_float_error(fa, fb)
    return [rows[i] for i in _float_first(f, err, lambda i: rows[i][0])]


def _zphi_floats(values):
    """The coefficient pairs (a, b) of scalars a + b phi (GoldenNum, or any
    other scalar with b = 0) and their floats as two arrays, every float nan
    when one coefficient lies past the float range."""
    parts = list(map(_zphi_coeffs, values))
    try:
        fa, fb = np.array(parts, dtype=float).reshape(-1, 2).T
    except OverflowError:
        fa = fb = np.full(len(parts), np.nan)
    return parts, fa, fb


def _exact_signs(values) -> np.ndarray:
    """The exact signs of scalars (GoldenNum, int, Fraction or float): the
    float sign where ``core.zphi_float_error`` proves it, ``zphi_sign`` on
    the coefficients elsewhere."""
    parts, fa, fb = _zphi_floats(values)
    f = zphi_float(fa, fb)
    s = np.sign(f)
    for i in np.flatnonzero(~(np.abs(f) > zphi_float_error(fa, fb))).tolist():  # and nan
        s[i] = zphi_sign(*parts[i])
    return s


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
    collapsed as _collapse does, as an (m, 3) array of rows (slope, x, y)."""
    f = y / x
    at = f <= cut
    rows = np.stack((f[at], x[at], y[at]), axis=1)
    return rows[_float_order(rows[:, 0])]


def _strip_rows(system: PointSystem, eta, n: int):
    """The growing-height strip loop behind strip_points.

    Returns (rows, exact): the first n rows in slope order, as (x, y) int
    rows of the ExactRows ``exact``, else as an (n, 3) float array of rows
    (slope, x, y) for a system with float_columns, else as (slope, point)
    pairs.
    """
    _check_positive(eta, "eta")
    height = float(eta) * max(4.0, 4.0 * n)
    while True:
        cut = height / float(eta)
        strip = VerticalStrip(eta, height)
        exact = system.exact_rows(strip)
        if exact is not None:
            rows = _slope_order(exact, cut)
        elif (cols := system.float_columns(strip)) is not None:
            rows = _column_order(*cols, cut)
        else:
            pairs = ((slope(v), v) for v in system.enumerate_points(strip))
            rows = _collapse([r for r in pairs if float(r[0]) <= cut])
        if len(rows) >= n:
            return rows[:n], exact
        if height >= DEFAULT_HEIGHT_BUDGET:
            raise ExhaustionError(
                f"found {len(rows)} of {n} slopes below height {height}",
                partial=SlopeSequence(eta, _slopes(rows, exact)))
        height *= 2.0


def _slopes(rows, exact: Optional[ExactRows]) -> tuple:
    if exact is not None:
        return tuple(Fraction(y, x) for x, y in rows)
    if isinstance(rows, np.ndarray):
        return tuple(rows[:, 0].tolist())
    return tuple(s for s, _ in rows)


def strip_points(system: PointSystem, eta, n: int) -> list:
    """The n strip points of smallest nonnegative slope, as sorted (slope, point)
    pairs with ties collapsed.

    Enumerates the strip under growing height caps H; every slope <= H/eta is
    then definitely present, so the first n of those are final.  H doubles
    until it reaches DEFAULT_HEIGHT_BUDGET (read at each call); running out
    raises ExhaustionError carrying the partial SlopeSequence.
    """
    rows, exact = _strip_rows(system, eta, n)
    if exact is not None:
        return [(Fraction(y, x), exact.point(x, y)) for x, y in rows]
    if isinstance(rows, np.ndarray):
        return [(s, Vec2(x, y)) for s, x, y in rows.tolist()]
    return rows


def slopes_in_strip(system: PointSystem, eta, n: int) -> SlopeSequence:
    """The n smallest nonnegative slopes of strip vectors, sorted, ties collapsed
    (see strip_points)."""
    return SlopeSequence(eta, _slopes(*_strip_rows(system, eta, n)))


def gaps(seq: SlopeSequence) -> GapSequence:
    """Consecutive slope differences; needs at least two slopes."""
    if len(seq) < 2:
        raise ValueError("need at least two slopes to form gaps")
    return GapSequence(tuple(t - s for s, t in zip(seq.slopes, seq.slopes[1:])))


def _axis_radius(eta) -> float:
    """The radius eta (1 + 1e-12) whose ball is searched for a horizontal
    vector of length <= eta, after checking eta."""
    _check_positive(eta, "eta")
    return float(eta) * (1 + 1e-12)


def _on_axis(v: Vec2, tol: float, radius: float) -> bool:
    flat = v.y == 0 if is_exact(v.y) else abs(float(v.y)) <= tol
    return flat and v.x != 0 and abs(float(v.x)) <= radius


def is_horizontally_short(system: PointSystem, eta, tol: float = AXIS_TOL) -> bool:
    """True when the set holds a horizontal vector of length at most eta.

    ``tol`` is the float zero-test for the transverse coordinate; callers
    that sheared the system by s should scale it by |s|, which is how much
    the shear amplifies coordinate rounding.  Exact systems ignore it.
    """
    radius = _axis_radius(eta)
    return any(_on_axis(v, tol, radius) for v in system.enumerate_points(Ball(radius)))


def hitting_times(system: PointSystem, eta, n: int) -> list:
    """Times s >= 0 at which the sheared state shear(s).x is eta-horizontally short.

    Candidates come from the strip slopes; each one is then verified through
    the independent route, system.axis_hits: shear the system and test
    shortness with the tolerance AXIS_TOL max(1, |s|).  Candidates failing
    verification are dropped, so any disagreement with slopes_in_strip is
    observable.  The result is the candidates s for which
    is_horizontally_short(system.act(shear(s)), eta, AXIS_TOL max(1, |s|))
    holds; a float lattice answers from its own basis, sheared as one
    float stack, so the check stays independent of the strip points.
    """
    slopes = slopes_in_strip(system, eta, n).slopes
    tols = AXIS_TOL * np.maximum(1.0, np.abs(np.asarray(slopes, dtype=float)))
    return list(compress(slopes, system.axis_hits(slopes, eta, tols)))
