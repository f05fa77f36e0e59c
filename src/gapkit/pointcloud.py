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

Exact systems may hand the strip loop their points as ExactRows: int
numerator pairs (X, Y) over one common denominator, membership already
decided in ints; Fraction slopes and points are built only for the rows
returned.  Every exact slope order is one float-first sort (_float_first):
a stable sort by a float f with an error bound err, and exact comparisons
only inside runs of overlapping intervals [f - err, f + err].  Int rows
pass the correctly rounded Y / X with err = 0 (rounding is monotone), exact
scalar slopes (those of surfaces, and every GoldenNum slope) the float of
a + b phi with the bound written in core (_collapse_exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import itemgetter, truediv
from typing import Optional

import numpy as np

from .core import (Ball, GoldenNum, Mat2, Region, Vec2, VerticalStrip, _check_positive,
                   is_exact, shear, slope, zphi_float, zphi_float_error)
from .errors import ExhaustionError, UnsupportedQueryError

__all__ = [
    "PointSystem", "ExactRows", "SlopeSequence", "GapSequence", "strip_points",
    "slopes_in_strip", "gaps",
    "is_horizontally_short", "is_vertically_short", "is_exceptional",
    "hitting_times",
]

# |y| below this counts as horizontal for float systems (exact systems use 0)
AXIS_TOL = 1e-9

# cells of one enumerate_each call in _has_axis_vector, about 17 MB of scan
# temporaries: an eta-ball scan of a unit-scale lattice visits about
# (2 eta + 5)^2 cells, so a call takes 2**18 // that many systems
AXIS_CHUNK_CELLS = 2 ** 18

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

    @classmethod
    def enumerate_each(cls, systems, region: Region) -> list[list[Vec2]]:
        """enumerate_points(region) of each of ``systems``, in order.

        Per-system enumeration is the definition; a class may override this
        to enumerate many of its systems at once, returning equal lists.
        """
        return [s.enumerate_points(region) for s in systems]

    def exact_rows(self, region: Region) -> Optional["ExactRows"]:
        """The points in the region as int numerators, when the system has
        an exact int form for that region; None otherwise."""
        return None

    def act(self, g: Mat2) -> "PointSystem":
        """The system attached to the transformed state g.x."""
        raise NotImplementedError

    @property
    def minkowski_constant(self) -> Optional[float]:
        """c with: every centered convex symmetric set of area >= c meets the
        point set; None when no constant is declared."""
        return None


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
    value (exact equality, or 1e-12 relative).  The rows share one kind of
    slope: exact ones go to _collapse_exact."""
    if rows and is_exact(rows[0][0]):
        return _collapse_exact(rows)
    rows = sorted(rows, key=lambda r: r[0])
    out = rows[:1]
    for row in rows[1:]:
        s, prev = row[0], out[-1][0]
        if float(s) - float(prev) > 1e-12 * max(1.0, abs(float(prev))):
            out.append(row)
    return out


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
    range make one run, sorted exactly.
    """
    parts = [(s.a, s.b) if isinstance(s, GoldenNum) else (s, 0) for s, _ in rows]
    try:
        fa, fb = np.array(parts, dtype=float).T
    except OverflowError:
        f, err = np.zeros(len(rows)), math.inf
    else:
        f, err = zphi_float(fa, fb), zphi_float_error(fa, fb)
    return [rows[i] for i in _float_first(f, err, lambda i: rows[i][0])]


def _slope_order(rows: ExactRows, cut: float) -> list:
    """The (x, y) rows with float slope <= cut, in exact slope order with
    equal slopes collapsed to their first row."""
    xs, ys = rows.xs, rows.ys
    keys = np.fromiter(map(truediv, ys, xs), dtype=float, count=len(xs))
    at = np.flatnonzero(keys <= cut).tolist()
    kept = _float_first(keys[at], 0.0, lambda i: Fraction(ys[at[i]], xs[at[i]]))
    return [(xs[at[i]], ys[at[i]]) for i in kept]


def _strip_rows(system: PointSystem, eta, n: int):
    """The growing-height strip loop behind strip_points.

    Returns (rows, exact): the first n rows in slope order, as (slope, point)
    pairs when ``exact`` is None, else as (x, y) int rows of the ExactRows
    ``exact``.
    """
    _check_positive(eta, "eta")
    height = float(eta) * max(4.0, 4.0 * n)
    while True:
        cut = height / float(eta)
        strip = VerticalStrip(eta, height)
        exact = system.exact_rows(strip)
        if exact is None:
            pairs = ((slope(v), v) for v in system.enumerate_points(strip))
            rows = _collapse([r for r in pairs if float(r[0]) <= cut])
        else:
            rows = _slope_order(exact, cut)
        if len(rows) >= n:
            return rows[:n], exact
        if height >= DEFAULT_HEIGHT_BUDGET:
            raise ExhaustionError(
                f"found {len(rows)} of {n} slopes below height {height}",
                partial=SlopeSequence(eta, _slopes(rows, exact)))
        height *= 2.0


def _slopes(rows: list, exact: Optional[ExactRows]) -> tuple:
    if exact is None:
        return tuple(s for s, _ in rows)
    return tuple(Fraction(y, x) for x, y in rows)


def strip_points(system: PointSystem, eta, n: int) -> list:
    """The n strip points of smallest nonnegative slope, as sorted (slope, point)
    pairs with ties collapsed.

    Enumerates the strip under growing height caps H; every slope <= H/eta is
    then definitely present, so the first n of those are final.  H doubles
    until it reaches DEFAULT_HEIGHT_BUDGET (read at each call); running out
    raises ExhaustionError carrying the partial SlopeSequence.
    """
    rows, exact = _strip_rows(system, eta, n)
    if exact is None:
        return rows
    return [(Fraction(y, x), exact.point(x, y)) for x, y in rows]


def slopes_in_strip(system: PointSystem, eta, n: int) -> SlopeSequence:
    """The n smallest nonnegative slopes of strip vectors, sorted, ties collapsed
    (see strip_points)."""
    return SlopeSequence(eta, _slopes(*_strip_rows(system, eta, n)))


def gaps(seq: SlopeSequence) -> GapSequence:
    """Consecutive slope differences; needs at least two slopes."""
    if len(seq) < 2:
        raise ValueError("need at least two slopes to form gaps")
    return GapSequence(tuple(t - s for s, t in zip(seq.slopes, seq.slopes[1:])))


def _has_axis_vector(systems: list, eta, horizontal: bool, tols: list) -> list[bool]:
    """Bounded search for a horizontal (or vertical) vector of length <= eta,
    one answer per system (``tols[t]`` is the float zero test of system t);
    the systems are enumerated in chunks through the first one's
    enumerate_each, so the memory of a call does not grow with their number."""
    radius = float(eta) * (1 + 1e-12)
    chunk = max(1, AXIS_CHUNK_CELLS // math.ceil(2 * radius + 5) ** 2)
    found = []
    for lo in range(0, len(systems), chunk):
        found += type(systems[0]).enumerate_each(systems[lo:lo + chunk], Ball(radius))
    return [any(_on_axis(v, horizontal, tol, radius) for v in pts)
            for pts, tol in zip(found, tols)]


def _on_axis(v: Vec2, horizontal: bool, tol: float, radius: float) -> bool:
    small, span = (v.y, v.x) if horizontal else (v.x, v.y)
    if is_exact(small):
        if small != 0:
            return False
    elif abs(float(small)) > tol:
        return False
    return span != 0 and abs(float(span)) <= radius


def is_horizontally_short(system: PointSystem, eta, tol: float = AXIS_TOL) -> bool:
    """True when the set holds a horizontal vector of length at most eta.

    ``tol`` is the float zero-test for the transverse coordinate; callers
    that sheared the system by s should scale it by |s|, which is how much
    the shear amplifies coordinate rounding.  Exact systems ignore it.
    """
    _check_positive(eta, "eta")
    return _has_axis_vector([system], eta, True, [tol])[0]


def is_vertically_short(system: PointSystem, eta, tol: float = AXIS_TOL) -> bool:
    """True when the set holds a vertical vector of length at most eta."""
    _check_positive(eta, "eta")
    return _has_axis_vector([system], eta, False, [tol])[0]


def is_exceptional(system: PointSystem, eta) -> bool:
    """Vertically short at the threshold eta/(4c), c the Minkowski constant.

    Exceptional states are the ones the shear flow may never bring to the
    horizontally-short transversal.
    """
    c = system.minkowski_constant
    if c is None:
        raise UnsupportedQueryError(
            "exceptionality needs a declared Minkowski constant")
    return is_vertically_short(system, eta / (4.0 * c))


def hitting_times(system: PointSystem, eta, n: int) -> list:
    """Times s >= 0 at which the sheared state shear(s).x is eta-horizontally short.

    Candidates come from the strip slopes; each one is then verified through
    the independent route: apply the shear to the system and test shortness
    by enumeration.  Candidates failing verification are dropped, so any
    disagreement with slopes_in_strip is observable.  The candidates are
    enumerated in chunks of about AXIS_CHUNK_CELLS scan cells through
    PointSystem.enumerate_each, which scans float lattices as one stack;
    per-system enumeration remains the definition, so the result is the
    candidates for which is_horizontally_short holds.
    """
    slopes = slopes_in_strip(system, eta, n).slopes
    sheared = [system.act(shear(s)) for s in slopes]
    tols = [AXIS_TOL * max(1.0, abs(float(s))) for s in slopes]
    return list(compress(slopes, _has_axis_vector(sheared, eta, True, tols)))
