"""Affine lattices (lattice translates) and their angle statistics.

The angle pipeline follows the thinning-wedge renormalization: a sector of
radius R and angular half-width sigma/R^2 around direction theta is carried
by rotation(-theta) followed by the contraction diag(1/R, R) onto (almost)
the fixed triangle with vertices (0,0), (1, +-sigma), so wedge occupancy
probabilities become triangle occupancy probabilities of renormalized
lattices.  The fractional parts of sqrt(n) live in the same statistics,
which is why their generator sits in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import Mat2, Vec2, _check_positive, diag_flow, is_exact, rotation
from .lattice import _check_float_det, coefficient_scan
from .pointcloud import GapSequence
from .stats import EmpiricalDist, circular_gaps, rng

__all__ = [
    "AffineLattice", "WedgeStats", "renormalized_triangle_count", "empirical_p",
    "sqrt_mod1_gaps", "angle_gap_distribution",
]

ORIGIN_TOL = 1e-12

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class AffineLattice:
    """basis . Z^2 + shift, with the shift reduced into the fundamental cell.

    All points belong to the set (no primitivity filtering); the origin is
    excluded when the shift is trivial.
    """

    basis: Mat2
    shift: Vec2 = field(default=Vec2(0.0, 0.0))

    def __post_init__(self):
        _check_float_det(self.basis)
        if not all(is_exact(c) or math.isfinite(c) for c in self.shift):
            raise ValueError(f"shift {self.shift} is not finite")
        inv = self.basis.inverse()
        coeff = inv @ self.shift
        exact = isinstance(coeff.x, (int, Fraction)) and isinstance(coeff.y, (int, Fraction))
        if exact:
            fx, fy = coeff.x - math.floor(coeff.x), coeff.y - math.floor(coeff.y)
        else:
            fx, fy = float(coeff.x) % 1.0, float(coeff.y) % 1.0
        object.__setattr__(self, "shift", self.basis @ Vec2(fx, fy))

    def act(self, g: Mat2) -> "AffineLattice":
        return AffineLattice(g @ self.basis, g @ self.shift)

    def ball_points(self, radius: float) -> np.ndarray:
        """Points in the closed centered ball, as an (n, 2) float array."""
        _check_positive(radius, "radius")
        _, _, x, y = coefficient_scan(self.basis, -radius, radius, -radius, radius,
                                      shift=self.shift)
        rsq = x * x + y * y
        keep = (rsq <= radius * radius) & (rsq > ORIGIN_TOL ** 2)
        return np.column_stack([x[keep], y[keep]])


@dataclass(frozen=True)
class WedgeStats:
    """Empirical distribution of wedge occupancy counts over sampled directions."""

    sigma: float
    radius: float
    sample_count: int
    counts: tuple  # counts[i] = number of sampled directions with i points

    def fractions(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=float) / self.sample_count


def _sorted_angles(lattice: AffineLattice, radius: float) -> np.ndarray:
    pts = lattice.ball_points(radius)
    if len(pts) == 0:
        return np.empty(0)
    ang = np.arctan2(pts[:, 1], pts[:, 0]) % TWO_PI
    ang.sort(kind="mergesort")
    return ang


def _window_counts(angles: np.ndarray, thetas: np.ndarray, half_width: float) -> np.ndarray:
    """Number of angles within +-half_width of each theta, circularly (all from pi on)."""
    if half_width >= math.pi:
        return np.full(len(thetas), len(angles), dtype=np.int64)
    lo = (thetas - half_width) % TWO_PI
    hi = lo + 2.0 * half_width  # may pass 2 pi; handle the wrap by splitting
    below = np.searchsorted(angles, np.minimum(hi, TWO_PI), side="right") \
        - np.searchsorted(angles, lo, side="left")
    wrapped = np.where(hi > TWO_PI,
                       np.searchsorted(angles, hi - TWO_PI, side="right"), 0)
    return (below + wrapped).astype(np.int64)


def _half_width(sigma: float, radius: float) -> float:
    """The wedge half-width sigma/R^2: inf where R^2 underflows to 0, 0 where
    it overflows."""
    _check_positive(sigma, "sigma")
    _check_positive(radius, "radius")
    rsq = radius * radius
    return sigma / rsq if rsq else math.inf


def renormalized_triangle_count(lattice: AffineLattice, theta: float,
                                sigma: float, radius: float) -> int:
    """Points of the rotated-and-contracted lattice inside the fixed triangle.

    Applies rotation(-theta), then the contraction diag(1/R, R) (the time
    -2 log R diagonal flow), which carries the wedge around theta onto the
    triangle (0,0), (1, +-sigma) up to curvature of the arc.
    """
    _check_positive(sigma, "sigma")
    _check_positive(radius, "radius")
    g = diag_flow(-2.0 * math.log(radius)) @ rotation(-theta)
    moved = lattice.act(g)
    _, _, x, y = coefficient_scan(moved.basis, 0.0, 1.0, -sigma, sigma, shift=moved.shift)
    keep = (np.abs(y) <= sigma * x) & (x * x + y * y > ORIGIN_TOL ** 2)
    return int(np.count_nonzero(keep))


def empirical_p(lattice: AffineLattice, sigma: float, radius: float,
                samples: int, seed: int) -> WedgeStats:
    """Fractions of uniformly random directions whose wedge holds i points
    (every wedge holds the whole ball once sigma/R^2 >= pi)."""
    if samples < 1:
        raise ValueError("need at least one direction sample")
    half_width = _half_width(sigma, radius)
    gen = rng(seed)
    thetas = gen.uniform(0.0, TWO_PI, samples)
    angles = _sorted_angles(lattice, radius)
    counts = _window_counts(angles, thetas, half_width)
    hist = np.bincount(counts)
    return WedgeStats(sigma=sigma, radius=radius, sample_count=samples,
                      counts=tuple(int(c) for c in hist))


def sqrt_mod1_gaps(n: int) -> GapSequence:
    """Normalized gaps of the sorted fractional parts of sqrt(k), k <= n.

    Perfect squares contribute the value 0; their density vanishes, so they
    are kept for the simpler contract.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    vals = np.sqrt(np.arange(1, n + 1, dtype=float))
    vals = np.sort(vals - np.floor(vals))
    return GapSequence(len(vals) * np.diff(vals))


def angle_gap_distribution(lattice: AffineLattice, radius: float) -> EmpiricalDist:
    """Circular normalized gaps between the distinct angles of ball points
    (see stats.circular_gaps)."""
    return circular_gaps(_sorted_angles(lattice, radius))
