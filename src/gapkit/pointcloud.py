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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Ball, Mat2, Region, Vec2, VerticalStrip, is_exact, shear, slope
from .errors import ExhaustionError, UnsupportedQueryError

__all__ = [
    "PointSystem", "SlopeSequence", "GapSequence", "strip_points",
    "slopes_in_strip", "gaps",
    "is_horizontally_short", "is_vertically_short", "is_exceptional",
    "hitting_times",
]

# |y| below this counts as horizontal for float systems (exact systems use 0)
AXIS_TOL = 1e-9

# strip heights grow geometrically up to height_budget before giving up
DEFAULT_HEIGHT_BUDGET = 2.0 ** 26


class PointSystem:
    """State x with a discrete set of nonzero planar points attached.

    Implementations must enumerate deterministically for a fixed state and
    region, and must satisfy equivariance: enumerating g.x over g.K returns
    exactly g applied to the enumeration of x over K.
    """

    def enumerate_points(self, region: Region, limit: Optional[int] = None) -> list[Vec2]:
        """All points of the set inside a bounded region (order unspecified)."""
        raise NotImplementedError

    def act(self, g: Mat2) -> "PointSystem":
        """The system attached to the transformed state g.x."""
        raise NotImplementedError

    @property
    def minkowski_constant(self) -> Optional[float]:
        """c with: every centered convex symmetric set of area >= c meets the
        point set; None when no constant is declared."""
        return None


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


def _collapse(rows: list) -> list:
    """Sort (slope, point) pairs by slope, keeping the first pair of each slope
    value (exact equality, or 1e-12 relative)."""
    rows = sorted(rows, key=lambda r: r[0])
    out = rows[:1]
    for row in rows[1:]:
        s, prev = row[0], out[-1][0]
        if is_exact(s) and is_exact(prev):
            if s == prev:
                continue
        elif float(s) - float(prev) <= 1e-12 * max(1.0, abs(float(prev))):
            continue
        out.append(row)
    return out


def strip_points(system: PointSystem, eta, n: int,
                 height_budget: float = DEFAULT_HEIGHT_BUDGET) -> list:
    """The n strip points of smallest nonnegative slope, as sorted (slope, point)
    pairs with ties collapsed.

    Enumerates the strip under growing height caps H; every slope <= H/eta is
    then definitely present, so the first n of those are final.  Runs out of
    budget -> ExhaustionError carrying the partial SlopeSequence.
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    height = float(eta) * max(4.0, 4.0 * n)
    while True:
        cut = height / float(eta)
        pairs = ((slope(v), v) for v in system.enumerate_points(VerticalStrip(eta, height)))
        rows = _collapse([r for r in pairs if float(r[0]) <= cut])
        if len(rows) >= n:
            return rows[:n]
        if height >= height_budget:
            raise ExhaustionError(
                f"found {len(rows)} of {n} slopes below height {height}",
                partial=SlopeSequence(eta, tuple(s for s, _ in rows)))
        height *= 2.0


def slopes_in_strip(system: PointSystem, eta, n: int,
                    height_budget: float = DEFAULT_HEIGHT_BUDGET) -> SlopeSequence:
    """The n smallest nonnegative slopes of strip vectors, sorted, ties collapsed
    (see strip_points)."""
    return SlopeSequence(eta, tuple(s for s, _ in strip_points(system, eta, n, height_budget)))


def gaps(seq: SlopeSequence) -> GapSequence:
    """Consecutive slope differences; needs at least two slopes."""
    if len(seq) < 2:
        raise ValueError("need at least two slopes to form gaps")
    return GapSequence(tuple(t - s for s, t in zip(seq.slopes, seq.slopes[1:])))


def _has_axis_vector(system: PointSystem, eta, horizontal: bool, tol: float) -> bool:
    """Bounded search for a horizontal (or vertical) vector of length <= eta."""
    pts = system.enumerate_points(Ball(float(eta) * (1.0 + 1e-12)))
    for v in pts:
        small, span = (v.y, v.x) if horizontal else (v.x, v.y)
        if is_exact(small):
            if small != 0:
                continue
        elif abs(float(small)) > tol:
            continue
        if span != 0 and abs(float(span)) <= float(eta) * (1 + 1e-12):
            return True
    return False


def is_horizontally_short(system: PointSystem, eta, tol: float = AXIS_TOL) -> bool:
    """True when the set holds a horizontal vector of length at most eta.

    ``tol`` is the float zero-test for the transverse coordinate; callers
    that sheared the system by s should scale it by |s|, which is how much
    the shear amplifies coordinate rounding.  Exact systems ignore it.
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    return _has_axis_vector(system, eta, horizontal=True, tol=tol)


def is_vertically_short(system: PointSystem, eta, tol: float = AXIS_TOL) -> bool:
    """True when the set holds a vertical vector of length at most eta."""
    if not eta > 0:
        raise ValueError("eta must be positive")
    return _has_axis_vector(system, eta, horizontal=False, tol=tol)


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
    disagreement with slopes_in_strip is observable.
    """
    seq = slopes_in_strip(system, eta, n)
    out = []
    for s in seq.slopes:
        sheared = system.act(shear(s))
        tol = AXIS_TOL * max(1.0, abs(float(s)))
        if is_horizontally_short(sheared, eta, tol=tol):
            out.append(s)
    return out
