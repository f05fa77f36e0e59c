"""Empirical distributions, circular gaps, Kolmogorov-Smirnov distance, seeded RNG.

The KS statistic is evaluated exactly at the sample points (both one-sided
limits of the step function), never on a grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EmpiricalDist", "ecdf", "circular_gaps", "ks_distance", "ks_two_sample",
    "rng", "RNG_ALGORITHM",
]

RNG_ALGORITHM = "numpy-pcg64"


@dataclass(frozen=True)
class EmpiricalDist:
    """A nonempty sample sorted ascending; ks_distance and ks_two_sample
    read its right-continuous ECDF."""

    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("need a nonempty 1-d sample")
        if np.any(np.diff(arr) < 0):
            raise ValueError("samples must be sorted ascending")
        object.__setattr__(self, "samples", arr)

    @property
    def count(self) -> int:
        return int(self.samples.size)


def ecdf(samples) -> EmpiricalDist:
    """Sort a sample into an EmpiricalDist."""
    arr = np.sort(np.asarray(samples, dtype=float))
    return EmpiricalDist(arr)


def circular_gaps(angles) -> EmpiricalDist:
    """Normalized gaps between the distinct angles on the circle.

    Angles closer than 1e-12 collapse to one; the gaps, the wraparound gap
    included, are scaled by count/(2 pi), so their mean is exactly 1.
    """
    angles = np.sort(np.asarray(angles, dtype=float))
    angles = angles[np.diff(angles, prepend=-np.inf) > 1e-12]
    n = len(angles)
    if n < 2:
        raise ValueError("need at least two distinct angles")
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2.0 * np.pi]]))
    return EmpiricalDist(np.sort(gaps * (n / (2.0 * np.pi))))


def ks_distance(dist: EmpiricalDist, cdf) -> float:
    """sup_t |ECDF(t) - cdf(t)|.

    Against a (piecewise) continuous monotone cdf the supremum is attained
    at a sample point, approached from one side or the other, so comparing
    cdf(x_i) with i/n and (i+1)/n is exact.  ``cdf`` is called once, on the
    array of samples, so it must be vectorized (as hall_cdf is); two samples
    are compared by ks_two_sample.
    """
    x = dist.samples
    n = dist.count
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(n)
    return float(max(np.max(f - i / n), np.max((i + 1) / n - f)))


def ks_two_sample(d1: EmpiricalDist, d2: EmpiricalDist) -> float:
    """sup_t |ECDF_1(t) - ECDF_2(t)| for two samples."""
    both = np.concatenate([d1.samples, d2.samples])
    both.sort(kind="mergesort")
    c1 = np.searchsorted(d1.samples, both, side="right") / d1.count
    c2 = np.searchsorted(d2.samples, both, side="right") / d2.count
    return float(np.max(np.abs(c1 - c2)))


def rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; the algorithm name is RNG_ALGORITHM."""
    return np.random.default_rng(seed)
