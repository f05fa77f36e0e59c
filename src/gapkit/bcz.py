"""The explicit transversal for the horocycle shear on lattices, and its return map.

A lattice with a horizontal vector of length a <= eta and companion column
(b, 1/a) corresponds to the coordinate pair (a, b) with a, b in (0, eta] and
a + b > eta.  The first-return map of the shear flow to this set is

    T(a, b) = (b, floor((eta + a)/b) * b - a),

with return time ("roof") 1/(a b), independent of eta.  Exact rational
coordinates stay exact under the map, which is what makes the periodic
Farey orbits checkable to the last digit.

Both kinds of orbit walk one coordinate sequence, point i being
(x[i], x[i+1]) and

    x[i+2] = floor((eta + x[i]) / x[i+1]) * x[i+1] - x[i],

with roof 1/(x[i] x[i+1]).  Exact orbits run it on Python ints: with a, b and
eta put over the common denominator D of the three (a = A/D, b = B/D,
eta = E/D), the sequence holds the numerators, the roof is D^2/(A B), and
the domain 0 < A, B <= E < A + B is checked in ints at every step; period
detection compares int pairs.  Float orbits, and roof_sequence, run it in
one float loop that clamps drift past the domain boundary, checks
x[i] + x[i+1] > eta - FLOAT_STEP_TOL and compares within FLOAT_STEP_TOL;
their roofs come out as one float64 array.  Exact roofs become Fractions
once at the end, one per distinct product A B, shared by every step with
that product (``core.shared_fractions``): on a Farey orbit the denominators
read the same backwards, so each roof recurs.  The validated
TransversalPoints of either kind are built only when ``BczOrbit.points``
is first read.  bcz_step and roof stay the single-step map and the
independent oracle of both loops.

The float functions (the float walk behind orbit and roof_sequence, and
sample_invariant_measure) are the only ones that load numpy, inside their
bodies: the exact route, farey_orbit_start through an exact orbit, runs on
ints and Fractions in a process where numpy is never imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import TYPE_CHECKING, Optional

from .core import _check_positive, common_denominator, is_exact, shared_fractions
from .errors import ResourceLimitError

if TYPE_CHECKING:  # numpy is imported by the float functions themselves
    import numpy as np

__all__ = [
    "TransversalPoint", "BczOrbit", "bcz_step", "roof", "orbit",
    "farey_orbit_start", "rescale", "sample_invariant_measure", "roof_values",
    "roof_sequence",
]

# float orbits drift by roughly one ulp per step; domain checks allow this much
FLOAT_STEP_TOL = 1e-12

ORBIT_STEP_BUDGET = 20_000_000


@dataclass(frozen=True)
class TransversalPoint:
    """Coordinates (a, b) on the transversal of width eta."""

    a: object
    b: object
    eta: object = 1

    def __post_init__(self):
        a, b, eta = self.a, self.b, self.eta
        _check_positive(eta, "eta")
        tol = 0 if (is_exact(a) and is_exact(b) and is_exact(eta)) else FLOAT_STEP_TOL
        if not (a > 0 and b > 0 and a <= eta + tol and b <= eta + tol
                and a + b > eta - tol):
            raise ValueError(f"({a}, {b}) is not in the eta={eta} domain")

    def is_exact(self) -> bool:
        return is_exact(self.a) and is_exact(self.b) and is_exact(self.eta)

    def to_float(self) -> "TransversalPoint":
        """The point in floats; a coordinate past the float range, or one
        that rounds to 0.0, is a ValueError."""
        try:
            a, b, eta = float(self.a), float(self.b), float(self.eta)
        except OverflowError:
            raise ValueError("transversal coordinates past the float range") from None
        if not (a and b and eta):
            raise ValueError("transversal coordinates underflow to 0.0 in floats")
        return TransversalPoint(a, b, eta)


@dataclass(frozen=True, eq=False)
class BczOrbit:
    """A finite orbit segment with its roof values; period set when detected.

    ``coords`` is the coordinate sequence: int numerators over ``denom`` for
    exact orbits (``returns`` a tuple of Fractions), floats with ``denom``
    None otherwise (``returns`` a float64 array).  ``points`` is built from
    it on first access.
    """

    returns: object
    period: Optional[int]
    coords: list = field(repr=False)
    denom: Optional[int] = field(repr=False)
    eta: object = field(repr=False)

    @cached_property
    def points(self) -> tuple:
        xs = self.coords
        if self.denom is not None:
            xs = [Fraction(x, self.denom) for x in xs]
        return tuple(TransversalPoint(a, b, self.eta) for a, b in zip(xs, xs[1:]))


def roof(p: TransversalPoint):
    """Return time 1/(a*b); exact for exact points.  Does not depend on eta."""
    a, b = p.a, p.b
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(1, a * b)
    return 1 / (a * b)


def bcz_step(p: TransversalPoint) -> TransversalPoint:
    """One application of the return map; the result is again a domain point."""
    a, b, eta = p.a, p.b, p.eta
    if not b > 0:
        raise ValueError("b must be positive")
    q = (eta + a) // b if is_exact(a) and is_exact(b) and is_exact(eta) else \
        math.floor((eta + a) / b)
    new_b = q * b - a
    if not is_exact(new_b):
        # shave float excursions just past the boundary back into the domain
        if new_b <= 0.0:
            new_b = FLOAT_STEP_TOL * float(eta)
        elif new_b > float(eta):
            new_b = float(eta)
    return TransversalPoint(b, new_b, eta)


def orbit(p: TransversalPoint, n: int, detect_period: bool = False) -> BczOrbit:
    """n steps of the return map from p, recording roof values.

    With detect_period the walk stops as soon as the start point recurs
    (orbits of an invertible map cannot be pre-periodic, so comparing with
    the start alone is enough).  Exact (rational) points run on int
    numerators and compare exactly; any other point is walked as
    p.to_float() by the float loop and compares within FLOAT_STEP_TOL.
    """
    _check_steps(n)
    return (_exact_orbit if p.is_exact() else _float_walk)(p, n, detect_period)


def _check_steps(n: int) -> None:
    """The step checks of orbit and roof_sequence; ORBIT_STEP_BUDGET is read at each call."""
    if n < 0:
        raise ValueError("step count must be nonnegative")
    if n > ORBIT_STEP_BUDGET:
        raise ResourceLimitError(f"orbit of {n} steps exceeds the step budget")


def _exact_orbit(p: TransversalPoint, n: int, detect_period: bool) -> BczOrbit:
    """The exact orbit on int numerators over the common denominator D."""
    (a0, b0, e), d = common_denominator((p.a, p.b, p.eta))
    xs = [a0, b0]
    period = None
    x, y = a0, b0
    for i in range(n):
        x, y = y, (e + x) // y * y - x
        if not (0 < x <= e and 0 < y <= e < x + y):
            raise ValueError(f"({x}/{d}, {y}/{d}) left the eta={p.eta} domain")
        if detect_period and x == a0 and y == b0:
            period = i + 1
            break
        xs.append(y)
    k = period or n
    returns = tuple(shared_fractions(d * d, map(mul, xs[:k], xs[1:k + 1])))
    return BczOrbit(returns, period, xs, d, p.eta)


def _float_walk(p: TransversalPoint, n: int, detect_period: bool) -> BczOrbit:
    """The float orbit of p, its roofs one float64 array.

    A step that lands past the boundary (new coordinate <= 0 or > eta) is
    clamped back into the domain; a point with x[i] + x[i+1] <= eta -
    FLOAT_STEP_TOL raises ValueError.
    """
    a, b, eta = float(p.a), float(p.b), float(p.eta)
    low, edge = FLOAT_STEP_TOL * eta, eta - FLOAT_STEP_TOL
    xs = [a, b]
    append, floor = xs.append, math.floor
    period = None
    x, y = a, b
    for i in range(n):
        x, y = y, floor((eta + x) / y) * y - x
        if y <= 0.0 or y > eta:  # float excursion past the boundary
            y = min(max(y, low), eta)
        if not x + y > edge:
            raise ValueError(f"({x}, {y}) left the eta={eta} domain")
        if detect_period and abs(x - a) <= FLOAT_STEP_TOL and abs(y - b) <= FLOAT_STEP_TOL:
            period = i + 1
            break
        append(y)
    import numpy as np
    coords = np.array(xs)
    returns = (1.0 / (coords[:-1] * coords[1:]))[:period or n]
    return BczOrbit(returns, period, xs, None, eta)


def farey_orbit_start(q: int) -> TransversalPoint:
    """(1/q, 1) at eta = 1: the periodic orbit whose roofs are the level-q gaps."""
    if q < 1:
        raise ValueError("level must be >= 1")
    return TransversalPoint(Fraction(1, q), Fraction(1), 1)


def rescale(p: TransversalPoint, eta_new) -> TransversalPoint:
    """Move a point between transversal widths; the roof scales by (eta_old/eta_new)^2."""
    _check_positive(eta_new, "eta")
    if p.is_exact() and is_exact(eta_new):
        ratio = Fraction(eta_new) / Fraction(p.eta)
    else:
        ratio = float(eta_new) / float(p.eta)
        p = p.to_float()
    return TransversalPoint(p.a * ratio, p.b * ratio, eta_new)


def sample_invariant_measure(eta: float, n: int, seed: int) -> np.ndarray:
    """n i.i.d. samples of the invariant probability measure (2/eta^2) da db.

    Returned as an (n, 2) float array of (a, b) rows; rejection from the
    square onto the triangle a + b > eta.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    _check_positive(eta, "eta")
    import numpy as np
    from .stats import rng
    gen = rng(seed)
    out = np.empty((n, 2))
    filled = 0
    while filled < n:
        want = int((n - filled) * 2.2) + 16
        ab = gen.uniform(0.0, eta, size=(want, 2))
        ab = ab[(ab[:, 0] + ab[:, 1] > eta) & (ab[:, 0] > 0) & (ab[:, 1] > 0)]
        take = min(len(ab), n - filled)
        out[filled:filled + take] = ab[:take]
        filled += take
    return out


def roof_values(samples: np.ndarray) -> np.ndarray:
    """Vectorized roof 1/(a*b) over an (n, 2) sample array."""
    return 1.0 / (samples[:, 0] * samples[:, 1])


def roof_sequence(p: TransversalPoint, n: int) -> np.ndarray:
    """First n roof values along the orbit of p, as a float array.

    Float fast path for bulk statistics (the float loop of orbit() without
    its points); for exact agreement checks walk orbit() on an exact point
    instead.
    """
    _check_steps(n)
    return _float_walk(p, n, False).returns
