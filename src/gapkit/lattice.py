"""Unimodular lattices as point systems: enumeration, transversal coordinates,
and the two slope-gap pipelines (direct enumeration and return-map fast path).

One kernel, coefficient_scan, enumerates this module's lattices and the
affine lattices: it scans integer coefficients of a Lagrange-reduced basis in
numpy, one coefficient per row with the other solved from the box, so long
thin regions (strips, renormalized triangles) cost points found rather than
bounding-box area.  Its float coordinates only steer: an exact basis is put
over the common denominator D of its entries, every candidate within a
float margin of the box becomes an int numerator pair (X, Y) over D, and
strip and ball membership are decided in ints (UnimodularLattice.exact_rows).
Fraction slopes and exact points are built only for the rows a caller
receives.  A point is primitive exactly when its coefficient pair is
coprime, which is basis-independent.

Lattices built from exact rational entries stay exact through everything:
enumeration, slopes, transversal coordinates, and return-map orbits.  That
is what lets the fast path be compared against the enumeration oracle at
tolerances far below float drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import compress
from typing import Optional

import numpy as np

from . import bcz
from .core import (Ball, Mat2, Region, Vec2, VerticalStrip, common_denominator,
                   is_exact, rotation, shear, diag_flow)
from .errors import ExceptionalLatticeError, ResourceLimitError
from .pointcloud import ExactRows, GapSequence, PointSystem, strip_points
from .stats import rng

__all__ = [
    "UnimodularLattice", "ZSQUARED", "strip_vectors", "to_transversal",
    "slope_gaps_fast", "has_vertical_vector", "poisson_baseline",
    "seeded_lattice", "lagrange_reduce", "coefficient_scan",
]

DET_TOL = 1e-12
# rows and cells one coefficient scan may visit; a cell costs about 65 bytes
# of temporary arrays, so a scan at the cap peaks near 1.3 GB
DEFAULT_CELL_BUDGET = 20_000_000


def lagrange_reduce(basis: Mat2) -> tuple[Mat2, tuple[int, int, int, int]]:
    """Gauss/Lagrange reduction of a rank-2 float basis.

    Float-only: its one caller, coefficient_scan, reduces basis.to_float().
    Returns (reduced, u) with reduced = basis @ u and u unimodular integer
    entries (row-major).  The reduced columns are the two successive minima
    up to sign, so coefficient boxes computed from it stay small.
    """
    v1 = (basis.a, basis.c)
    v2 = (basis.b, basis.d)
    u = (1, 0, 0, 1)  # columns track coefficient combinations

    def nsq(v):
        return v[0] * v[0] + v[1] * v[1]

    for _ in range(256):
        if nsq(v1) > nsq(v2):
            v1, v2 = v2, v1
            u = (u[1], u[0], u[3], u[2])
        denom = nsq(v1)
        mu = round((v1[0] * v2[0] + v1[1] * v2[1]) / denom)
        if mu == 0:
            break
        v2 = (v2[0] - mu * v1[0], v2[1] - mu * v1[1])
        u = (u[0], u[1] - mu * u[0], u[2], u[3] - mu * u[2])
    else:
        raise ResourceLimitError("basis reduction did not converge")
    return Mat2(v1[0], v2[0], v1[1], v2[1]), u


def coefficient_scan(basis: Mat2, xlo, xhi, ylo, yhi, shift=(0.0, 0.0),
                     margin: float = 0.0, budget: int = DEFAULT_CELL_BUDGET):
    """Points basis (m, k) + shift whose float coordinates lie in a box.

    Scans one coefficient i of the float Lagrange-reduced basis row by row,
    with the other coefficient j solved from both box constraints (one cell
    of slack on either side), so long thin boxes cost their point count
    rather than their bounding area.  Returns the coefficients m, k in
    ``basis`` as int64 arrays and the coordinates x, y as float arrays of
    every point in the box widened by ``margin``.  Exact callers rebuild
    the points from m, k and decide membership exactly.  More than
    ``budget`` rows or cells raises ResourceLimitError.
    """
    red, u = lagrange_reduce(basis.to_float())
    a, b, c, d = red.entries()
    if abs(b) < abs(a):  # iterate the coefficient of the column with smaller |x|
        a, b, c, d = b, a, d, c
        u = (u[1], u[0], u[3], u[2])
    sx, sy = map(float, shift)
    xlo, xhi, ylo, yhi = float(xlo), float(xhi), float(ylo), float(yhi)
    det = a * d - b * c
    ivals = [(d * (x - sx) - b * (y - sy)) / det for x in (xlo, xhi) for y in (ylo, yhi)]
    ilo, ihi = math.floor(min(ivals)) - 1, math.ceil(max(ivals)) + 1
    if ihi - ilo > budget:
        raise ResourceLimitError(
            f"coefficient range {ihi - ilo} exceeds the enumeration budget {budget}")
    i = np.arange(ilo, ihi + 1, dtype=np.int64)
    # b != 0 (it is the larger |x| of a basis), so the x-constraint bounds j
    e1, e2 = (xlo - sx - a * i) / b, (xhi - sx - a * i) / b
    jlo, jhi = np.minimum(e1, e2), np.maximum(e1, e2)
    if d != 0.0:
        e1, e2 = (ylo - sy - c * i) / d, (yhi - sy - c * i) / d
        jlo, jhi = np.maximum(jlo, np.minimum(e1, e2)), np.minimum(jhi, np.maximum(e1, e2))
    j0 = np.floor(jlo).astype(np.int64) - 1
    lens = np.maximum(np.ceil(jhi).astype(np.int64) + 2 - j0, 0)
    total = int(lens.sum())
    if total > budget:
        raise ResourceLimitError(f"{total} cells exceed the enumeration budget {budget}")
    rows = np.repeat(i, lens)
    js = np.repeat(j0 - (np.cumsum(lens) - lens), lens) + np.arange(total)
    x = a * rows + b * js + sx
    y = c * rows + d * js + sy
    keep = (x >= xlo - margin) & (x <= xhi + margin) \
        & (y >= ylo - margin) & (y <= yhi + margin)
    rows, js = rows[keep], js[keep]
    return u[0] * rows + u[1] * js, u[2] * rows + u[3] * js, x[keep], y[keep]


@dataclass(frozen=True)
class UnimodularLattice(PointSystem):
    """Covolume-1 lattice given by a basis matrix (columns are generators).

    Primitive vectors only: the attached point set is { M (m, k) : gcd(m, k) = 1 }.
    """

    basis: Mat2
    tag: str = field(default="", compare=False)

    def __post_init__(self):
        det = self.basis.det()
        if self.is_exact():
            if det != 1:
                raise ValueError(f"exact basis must have determinant 1, got {det}")
        else:
            # a d - b c rounds in proportion to the entry magnitudes, so the
            # unit-scale tolerance 1e-12 is scaled up for conditioned bases
            # (e.g. strongly sheared ones)
            tol = DET_TOL * max(1.0, self.basis.frobenius() ** 2)
            if abs(float(det) - 1.0) > tol:
                raise ValueError(f"basis determinant {det} is not 1 within {tol}")

    def is_exact(self) -> bool:
        return all(is_exact(e) for e in self.basis.entries())

    def to_float(self) -> "UnimodularLattice":
        return UnimodularLattice(self.basis.to_float(), self.tag)

    @property
    def minkowski_constant(self) -> Optional[float]:
        return 4.0  # classical constant for covolume-1 planar lattices

    def act(self, g: Mat2) -> "UnimodularLattice":
        return UnimodularLattice(g @ self.basis, self.tag)

    # -- enumeration ------------------------------------------------------

    def _scan(self, region: Region, limit: Optional[int]):
        """Primitive coefficients (m, k) and float coordinates (x, y) of the
        points near the region's box; the float scan only steers."""
        if isinstance(region, VerticalStrip):
            if math.isinf(region.height):
                raise ValueError("cannot enumerate an unbounded strip; cap the height")
            box = (0, region.eta, 0, region.height)
        else:
            radius = region.bounding_radius()
            if radius is None:
                raise ValueError(f"region {region!r} is unbounded")
            box = (-radius, radius, -radius, radius)
        # float prescreen margin: well clear of double rounding, far below
        # any gap the exact test would have to arbitrate
        margin = 1e-6 * max(1.0, *(abs(float(t)) for t in box))
        m, k, x, y = coefficient_scan(
            self.basis, *box, margin=margin,
            budget=DEFAULT_CELL_BUDGET if limit is None else limit)
        primitive = np.gcd(m, k) == 1
        return m[primitive], k[primitive], x[primitive], y[primitive]

    def exact_rows(self, region: Region, limit: Optional[int] = None) -> Optional[ExactRows]:
        """Exact bases: the primitive points in the region as int numerators
        over the common denominator D of the basis entries.

        With the basis (A, B, C, D') over D, the point of coefficients
        (m, k) is (A m + B k, C m + D' k) / D.  Strip membership
        0 < X <= eta D, 0 <= Y <= H D and ball membership X^2 + Y^2 <= R^2 D^2
        are decided in ints against the exact eta, H and R; other regions
        test their ``contains`` on the built point.  None for float bases.
        """
        if not self.is_exact():
            return None
        m, k, _, _ = self._scan(region, limit)
        (a, b, c, e), d = common_denominator(self.basis.entries())
        m, k = m.tolist(), k.tolist()
        xs = [a * i + b * j for i, j in zip(m, k)]
        ys = [c * i + e * j for i, j in zip(m, k)]
        g = self.basis
        rows = ExactRows(xs, ys, d, type(g.a) is int and type(g.b) is int,
                         type(g.c) is int and type(g.d) is int)
        if isinstance(region, VerticalStrip):
            xmax, ymax = _floor_times(region.eta, d), _floor_times(region.height, d)
            keep = [0 < x <= xmax and 0 <= y <= ymax for x, y in zip(xs, ys)]
        elif isinstance(region, Ball):
            r = Fraction(region.radius)
            bound = (r.numerator * d) ** 2 // r.denominator ** 2
            keep = [x * x + y * y <= bound for x, y in zip(xs, ys)]
        else:
            keep = list(map(region.contains, rows.points()))
        return replace(rows, xs=list(compress(xs, keep)), ys=list(compress(ys, keep)))

    def enumerate_points(self, region: Region, limit: Optional[int] = None) -> list[Vec2]:
        """Primitive points in the region; ``limit`` caps the cells scanned.

        Exact bases decide strip and ball membership on int numerators
        (see exact_rows) and build exact vectors only for the points found.
        """
        rows = self.exact_rows(region, limit)
        if rows is not None:
            return rows.points()
        _, _, x, y = self._scan(region, limit)
        inside = region.contains
        if isinstance(region, VerticalStrip):
            inside = lambda v: 0 < v.x <= region.eta and 0 <= v.y <= region.height
        return [v for v in map(Vec2, x.tolist(), y.tolist()) if inside(v)]


def _floor_times(value, d: int) -> int:
    """floor(value * d) for an exact or float value, exactly."""
    f = Fraction(value)
    return f.numerator * d // f.denominator


ZSQUARED = UnimodularLattice(Mat2(1, 0, 0, 1), tag="Z^2")


def _lattice_strip_points(lat: UnimodularLattice, eta, n: int) -> list:
    """First n (slope, vector) pairs of the strip, from the growing-height loop.

    A vertical lattice whose strip is empty is rejected up front instead of
    doubling the height up to the budget.  An exact basis always has a
    primitive vertical vector (0, h); every x-coordinate is then a multiple
    of 1/h and the line x = 1/h holds primitive points, so the strip is
    empty exactly when h * eta < 1.  Float bases keep the bounded test:
    a vertical vector found within coefficient 1000 and a strip empty at
    the loop's first height.
    """
    if lat.is_exact():
        m, k = _vertical_coefficients(lat)
        g = lat.basis
        empty = abs(g.c * m + g.d * k) * Fraction(eta) < 1
    else:
        empty = has_vertical_vector(lat, 1000) and not lat.enumerate_points(
            VerticalStrip(eta, float(eta) * max(4.0, 4.0 * n)))
    if empty:
        raise ExceptionalLatticeError(
            "lattice has a vertical vector and an empty strip; "
            "the shear flow never reaches the transversal")
    return strip_points(lat, eta, n)


def strip_vectors(lat: UnimodularLattice, eta, n: int) -> list[Vec2]:
    """The n strip vectors of smallest nonnegative slope, in slope order."""
    return [v for _, v in _lattice_strip_points(lat, eta, n)]


def to_transversal(lat: UnimodularLattice, eta=1) -> tuple[bcz.TransversalPoint, object]:
    """Transversal coordinates of the first shear-flow hit, plus the hit time.

    Shearing by the smallest strip slope s1 makes the strip vector horizontal
    of length a; completing it to a positively-oriented basis gives a column
    (b', 1/a), and b is the representative of b' modulo a inside (eta-a, eta].
    Exact bases give exact coordinates (a float eta is promoted exactly).
    """
    if isinstance(eta, float) and lat.is_exact():
        eta = Fraction(eta)
    [(s1, v1)] = _lattice_strip_points(lat, eta, 1)
    a = v1.x
    coeff = lat.basis.inverse() @ v1  # integral; exactly so for exact bases
    m0, k0 = round(coeff.x), round(coeff.y)
    # companion coefficients with m0*k1 - m1*k0 = +1 (orientation matters:
    # the companion's sheared height must be +1/a, not -1/a)
    g, u_, v_ = _xgcd(m0, k0)
    if g == -1:
        u_, v_ = -u_, -v_
    m1, k1 = -v_, u_
    mb = lat.basis
    wx = mb.a * m1 + mb.b * k1
    wy = (mb.c - s1 * mb.a) * m1 + (mb.d - s1 * mb.b) * k1
    if is_exact(wy):
        assert wy * a == 1
    elif abs(float(wy) * float(a) - 1.0) > 1e-9:
        raise ArithmeticError("companion column lost unimodularity")
    j = math.ceil((wx - eta) / a) if not isinstance(wx, float) \
        else math.ceil((wx - float(eta)) / float(a))
    b = wx - j * a
    if not is_exact(b):  # guard float rounding at the interval ends
        if b <= float(eta) - float(a):
            b += float(a)
        elif b > float(eta):
            b -= float(a)
    return bcz.TransversalPoint(a, b, eta), s1


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with a x + b y = g = gcd(a, b)."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def slope_gaps_fast(lat: UnimodularLattice, eta, n: int,
                    exact: bool = False) -> GapSequence:
    """First n slope gaps as return times along the transversal orbit.

    No point enumeration happens after the first hit: gap i is the roof value
    of the i-th return-map iterate.  With exact=True (needs an exact basis)
    the whole orbit runs in rational arithmetic.
    """
    point, _ = to_transversal(lat, eta)
    if exact:
        if not point.is_exact():
            raise ValueError("exact orbit needs an exact lattice basis")
        orb = bcz.orbit(point, n)
        return GapSequence(orb.returns)
    return GapSequence(bcz.roof_sequence(point.to_float(), n))


def has_vertical_vector(lat: UnimodularLattice, bound: int = 1000) -> bool:
    """Bounded test for a vector with zero horizontal component.

    Exact bases are decided analytically; float bases scan coefficients up
    to the bound with a 1e-12 zero test, so False only means "none found
    within the bound".
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if lat.is_exact():
        m, k = _vertical_coefficients(lat)
        return abs(m) <= bound and k <= bound
    fa, fb = float(lat.basis.a), float(lat.basis.b)
    if abs(fa) <= 1e-12 or abs(fb) <= 1e-12:
        return True
    ms = np.arange(1, bound + 1)
    base = np.rint(-fa * ms / fb)
    for off in (-1.0, 0.0, 1.0):
        ks = base + off
        if np.any((np.abs(fa * ms + fb * ks) <= 1e-12) & (np.abs(ks) <= bound)):
            return True
    return False


def _vertical_coefficients(lat: UnimodularLattice) -> tuple[int, int]:
    """Coprime (m, k), k >= 0, with a m + b k = 0 for the basis x-components
    a, b: the coefficients of the primitive vertical vector of an exact basis."""
    a, b = lat.basis.a, lat.basis.b
    if a == 0:
        return 1, 0
    r = Fraction(-b) / Fraction(a)  # m/k
    return r.numerator, r.denominator


def poisson_baseline(n: int, seed: int) -> GapSequence:
    """Normalized gaps of n i.i.d. uniform order statistics (the e^{-t} law)."""
    if n < 2:
        raise ValueError("need at least two samples")
    gen = rng(seed)
    x = np.sort(gen.uniform(0.0, 1.0, n))
    return GapSequence(n * np.diff(x))


def seeded_lattice(seed: int) -> UnimodularLattice:
    """Reproducible generic lattice shear(s) diag_flow(t) rotation(theta) Z^2.

    The float product is rationalized entrywise and one column rescaled so
    the determinant is exactly 1; verticality is then checked, not assumed
    (vertical draws are rejected and the seed advanced).
    """
    gen = rng(seed)
    for _ in range(64):
        s = gen.uniform(-2.0, 2.0)
        t = gen.uniform(-1.0, 1.0)
        theta = gen.uniform(0.0, 2.0 * math.pi)
        m = shear(s) @ diag_flow(t) @ rotation(theta)
        exact = Mat2(*(Fraction(e) for e in m.entries()))
        det = exact.det()
        exact = Mat2(exact.a, exact.b / det, exact.c, exact.d / det)
        lat = UnimodularLattice(exact, tag=f"seeded({seed})")
        if not has_vertical_vector(lat, 1000):
            return lat
    raise ResourceLimitError("could not draw a lattice without vertical vectors")
