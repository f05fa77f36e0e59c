"""Unimodular lattices: enumeration, transversal coordinates, and the two
slope-gap pipelines (direct enumeration and return-map fast path).

One kernel, coefficient_scan, enumerates this module's lattices and the
affine lattices: it scans integer coefficients of a Lagrange-reduced basis in
numpy, one coefficient per row with the other solved from the box, so long
thin regions (strips, renormalized triangles) cost points found rather than
bounding-box area.  Its float coordinates only steer: an exact basis is put
over the common denominator D of its entries, every candidate within a
float margin of the box becomes an int numerator pair (X, Y) over D, and
strip and ball membership are decided in ints (UnimodularLattice.exact_rows).
The strip loop's region (pointcloud._LowerStrip) also steers the scan off
the points more than its margin above the strip's diagonal y = (H / eta) x,
whose slopes the loop would drop; membership stays the rectangle's.
Fraction slopes and exact points are built only for the rows a caller
receives.  A point is primitive exactly when its coefficient pair is
coprime, which is basis-independent.

The kernel also scans a float (n, 4) stack of bases over one box in the
same few numpy calls, returning the owner of each point; the stack is
Lagrange-reduced by one vectorised loop (_lagrange_stack) that gives every
basis the entries lagrange_reduce gives it alone.  A float lattice verifies
pointcloud.hitting_times's candidates with one such stack
(UnimodularLattice.axis_hits): the sheared bases (a, b, c - s a, d - s b),
held to the determinant test in one pass, with no lattice built per slope,
scanned in a thin box around the axis and their columns tested in numpy;
pointcloud.axis_hits_by_definition, which enumerates each sheared
lattice's ball, stays the definition.  Float strips come out of the scan
as x, y arrays (UnimodularLattice.float_columns), with no Vec2 per point.

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
from .core import (Ball, Mat2, Vec2, VerticalStrip, _check_positive,
                   common_denominator, is_exact, rotation, shear, diag_flow)
from .errors import ResourceLimitError
from .pointcloud import (ExactRows, GapSequence, _axis_radius, _LowerStrip, _ragged,
                         axis_hits_by_definition, strip_points)
from .stats import rng

__all__ = [
    "UnimodularLattice", "ZSQUARED", "to_transversal",
    "slope_gaps_fast", "poisson_baseline",
    "seeded_lattice", "lagrange_reduce", "coefficient_scan",
]

DET_TOL = 1e-12
# rows and cells one coefficient scan may visit; a cell costs about 65 bytes
# of temporary arrays, so a scan at the cap peaks near 1.3 GB
DEFAULT_CELL_BUDGET = 20_000_000
# cells of one stacked scan in UnimodularLattice.axis_hits, at most about
# 17 MB of scan temporaries: an eta-ball scan of a unit-scale lattice visits
# about (2 eta + 5)^2 cells, more than a thin axis box, so one scan takes
# 2**18 // that many sheared bases.  Chunks pay for speed, not the budget:
# 10^5 candidates verify about 20 % faster chunked, and the strip scan before
# them meets DEFAULT_CELL_BUDGET first (more cells per slope than per candidate)
AXIS_CHUNK_CELLS = 2 ** 18


def _det_tol(sumsq):
    """The bound on |det - 1| of every float basis whose squared entries sum
    to ``sumsq`` (float or array): a d - b c rounds in proportion to them,
    so DET_TOL grows for conditioned bases."""
    return DET_TOL * np.maximum(1.0, sumsq)


def _check_float_det(basis: Mat2) -> None:
    """ValueError unless |det - 1| of the basis, in floats, is within
    _det_tol of its squared entries; a basis whose entries or squares
    overflow floats has no such bound."""
    try:
        sumsq = sum(float(e) * float(e) for e in basis.entries())
    except OverflowError:  # an exact entry past the float range
        sumsq = math.inf
    if not math.isfinite(sumsq):
        raise ValueError(f"basis {basis} has entries or squares that overflow floats")
    det, tol = float(basis.det()), _det_tol(sumsq)
    if abs(det - 1.0) > tol:
        raise ValueError(f"basis determinant {det} is not 1 within {tol}")


def lagrange_reduce(basis: Mat2) -> tuple[Mat2, tuple[int, int, int, int]]:
    """Gauss/Lagrange reduction of a rank-2 float basis.

    Float-only: its one caller, coefficient_scan, reduces basis.to_float().
    Returns (reduced, u) with reduced = basis @ u and u unimodular integer
    entries (row-major).  The reduced columns are the two successive minima
    up to sign, so coefficient boxes computed from it stay small.
    """
    x1, y1, x2, y2 = basis.a, basis.c, basis.b, basis.d
    u = (1, 0, 0, 1)  # columns track coefficient combinations
    for _ in range(256):
        n1, n2 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2
        if n1 > n2:
            x1, y1, x2, y2, n1 = x2, y2, x1, y1, n2
            u = (u[1], u[0], u[3], u[2])
        mu = round((x1 * x2 + y1 * y2) / n1)
        if mu == 0:
            break
        x2, y2 = x2 - mu * x1, y2 - mu * y1
        u = (u[0], u[1] - mu * u[0], u[2], u[3] - mu * u[2])
    else:
        raise ResourceLimitError("basis reduction did not converge")
    return Mat2(x1, x2, y1, y2), u


def _lagrange_stack(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lagrange_reduce of every row (a, b, c, d) of a float (n, 4) array.

    One vectorised loop runs while any row still has mu != 0; a row whose
    mu is 0 is left as it stands, and a finished row is a fixed point of
    the loop, so each row comes out bit for bit as lagrange_reduce gives it
    (np.rint rounds half to even, as round does).  Returns the reduced rows
    and u, both (n, 4) and row-major, u as int64.
    """
    x1, x2, y1, y2 = g.T.copy()
    u0, u1, u2, u3 = np.eye(2, dtype=np.int64).reshape(4, 1).repeat(len(g), axis=1)
    for _ in range(256):
        n1, n2 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2
        swap = n1 > n2
        x1, x2 = np.where(swap, x2, x1), np.where(swap, x1, x2)
        y1, y2 = np.where(swap, y2, y1), np.where(swap, y1, y2)
        u0, u1 = np.where(swap, u1, u0), np.where(swap, u0, u1)
        u2, u3 = np.where(swap, u3, u2), np.where(swap, u2, u3)
        mu = np.rint((x1 * x2 + y1 * y2) / np.minimum(n1, n2))
        live = mu != 0.0
        if not live.any():
            return np.stack((x1, x2, y1, y2), axis=1), np.stack((u0, u1, u2, u3), axis=1)
        np.subtract(x2, mu * x1, out=x2, where=live)
        np.subtract(y2, mu * y1, out=y2, where=live)
        m = mu.astype(np.int64)
        u1 -= m * u0
        u3 -= m * u2
    raise ResourceLimitError("basis reduction did not converge")


def coefficient_scan(basis, xlo, xhi, ylo, yhi, shift=None, margin: float = 0.0):
    """Points basis (m, k) + shift whose float coordinates lie in a box.

    Scans one coefficient i of the float Lagrange-reduced basis row by row,
    with the other coefficient j solved from both box constraints (one cell
    of slack on either side), so long thin boxes cost their point count
    rather than their bounding area.  Returns the coefficients m, k in
    ``basis`` as int64 arrays and the coordinates x, y as float arrays of
    every point in the box widened by ``margin``.  Exact callers rebuild
    the points from m, k and decide membership exactly.

    ``basis`` may also be a float (n, 4) array of bases, rows (a, b, c, d),
    scanned over the same box as one stack, which takes no shift: the stack
    is reduced and bounded in one vectorised pass (_lagrange_stack), each
    basis as if alone, their row ranges are laid out end to end, and every
    row and cell carries its basis's coefficients, so a stack costs a few
    numpy calls however many bases it holds.  A stack returns a fifth
    array, ``owner``, the index of each point's basis; the points of basis
    t are the slice owner == t, equal value for value and in order to the
    scan of basis t alone.  A single basis keeps scalar coefficients and
    lagrange_reduce, which is faster for one, and returns no owner.  More
    than DEFAULT_CELL_BUDGET rows or cells (over the whole stack; the
    constant is read at each call) raises ResourceLimitError.
    """
    stacked = isinstance(basis, np.ndarray)
    if stacked and shift is not None:
        raise ValueError("a stack of bases takes no shift")
    sx, sy = (0.0, 0.0) if shift is None else map(float, shift)
    xlo, xhi, ylo, yhi = float(xlo), float(xhi), float(ylo), float(yhi)
    if stacked:
        red, us = _lagrange_stack(basis)
        # iterate the coefficient of the column with smaller |x|
        flip = np.abs(red[:, 1]) < np.abs(red[:, 0])
        red[flip] = red[flip][:, [1, 0, 3, 2]]
        us[flip] = us[flip][:, [1, 0, 3, 2]]
        a, b, c, d = red.T
        det = a * d - b * c
        ivals = [(d * x - b * y) / det for x in (xlo, xhi) for y in (ylo, yhi)]
        los = np.floor(np.minimum.reduce(ivals)) - 1
        spans = np.ceil(np.maximum.reduce(ivals)) + 1 - los
        if not spans.sum() <= DEFAULT_CELL_BUDGET:
            raise ResourceLimitError(f"coefficient range {spans.sum():.0f} exceeds "
                                     f"the enumeration budget {DEFAULT_CELL_BUDGET}")
        los, nrows = los.astype(np.int64), spans.astype(np.int64) + 1
        owner = np.repeat(np.arange(len(basis)), nrows)
        i = _ragged(los, nrows, int(nrows.sum()))
        a, b, c, d = red[owner].T
    else:
        red, u = lagrange_reduce(basis.to_float())
        a, b, c, d = red.entries()
        if abs(b) < abs(a):  # iterate the coefficient of the column with smaller |x|
            a, b, c, d = b, a, d, c
            u = (u[1], u[0], u[3], u[2])
        det = a * d - b * c
        ivals = [(d * (x - sx) - b * (y - sy)) / det for x in (xlo, xhi) for y in (ylo, yhi)]
        ilo, ihi = math.floor(min(ivals)) - 1, math.ceil(max(ivals)) + 1
        if ihi - ilo > DEFAULT_CELL_BUDGET:
            raise ResourceLimitError(f"coefficient range {ihi - ilo} exceeds "
                                     f"the enumeration budget {DEFAULT_CELL_BUDGET}")
        i = np.arange(ilo, ihi + 1, dtype=np.int64)
    # b != 0 (it is the larger |x| of a basis), so the x-constraint bounds j;
    # a zero or tiny d puts nan or huge y-bounds on j, handled below
    with np.errstate(all="ignore"):
        e1, e2 = (xlo - sx - a * i) / b, (xhi - sx - a * i) / b
        jlo, jhi = np.minimum(e1, e2), np.maximum(e1, e2)
        if stacked or d != 0.0:  # a horizontal b column (d == 0) leaves j free in y
            e1, e2 = (ylo - sy - c * i) / d, (yhi - sy - c * i) / d
            ylo_j = np.maximum(jlo, np.minimum(e1, e2))
            yhi_j = np.minimum(jhi, np.maximum(e1, e2))
            if stacked:  # per-row select: the rows with d == 0 keep their x-bounds
                live = d != 0.0
                ylo_j, yhi_j = np.where(live, ylo_j, jlo), np.where(live, yhi_j, jhi)
            jlo, jhi = ylo_j, yhi_j
        # cells are counted in floats, since a row's bounds may lie beyond
        # int64; such a row is over the budget or empty, and the start of an
        # empty row (wrapped in the cast) is never used
        j0 = np.floor(jlo) - 1
        lens = np.maximum(np.ceil(jhi) + 2 - j0, 0.0)
        total = lens.sum()
        if total > DEFAULT_CELL_BUDGET:
            raise ResourceLimitError(
                f"{total:.0f} cells exceed the enumeration budget {DEFAULT_CELL_BUDGET}")
        total, lens, j0 = int(total), lens.astype(np.int64), j0.astype(np.int64)
    rows = np.repeat(i, lens)
    js = _ragged(j0, lens, total)
    if stacked:
        owner = np.repeat(owner, lens)
        a, b, c, d = red[owner].T
    x = a * rows + b * js + sx
    y = c * rows + d * js + sy
    keep = (x >= xlo - margin) & (x <= xhi + margin) \
        & (y >= ylo - margin) & (y <= yhi + margin)
    rows, js = rows[keep], js[keep]
    if stacked:
        owner = owner[keep]
        u = us[owner].T
    out = (u[0] * rows + u[1] * js, u[2] * rows + u[3] * js, x[keep], y[keep])
    return out + (owner,) if stacked else out


@dataclass(frozen=True)
class UnimodularLattice:
    """Covolume-1 lattice given by a basis matrix (columns are generators).

    Primitive vectors only: the attached point set is { M (m, k) : gcd(m, k) = 1 }.
    """

    basis: Mat2
    tag: str = field(default="", compare=False)

    def __post_init__(self):
        if not self.is_exact():
            _check_float_det(self.basis)
        elif (det := self.basis.det()) != 1:
            raise ValueError(f"exact basis must have determinant 1, got {det}")

    def is_exact(self) -> bool:
        return all(is_exact(e) for e in self.basis.entries())

    def to_float(self) -> "UnimodularLattice":
        return UnimodularLattice(self.basis.to_float(), self.tag)

    def act(self, g: Mat2) -> "UnimodularLattice":
        return UnimodularLattice(g @ self.basis, self.tag)

    def empty_strip(self, eta) -> bool:
        """Is the width-eta strip empty at every height?  An exact basis has
        a primitive vertical vector (0, h), every x is a multiple of 1/h and
        the line x = 1/h holds primitive points, so the strip is empty
        exactly when h * eta < 1 (a float eta at its exact value).  False
        for float bases, whose strip loop the cell budget bounds."""
        if not self.is_exact():
            return False
        m, k = _vertical_coefficients(self)
        return abs(self.basis.c * m + self.basis.d * k) * Fraction(eta) < 1

    # -- enumeration ------------------------------------------------------

    def exact_rows(self, region: VerticalStrip | Ball) -> Optional[ExactRows]:
        """Exact bases: the primitive points in a strip or a ball as int
        numerators over the common denominator D of the basis entries.

        With the basis (A, B, C, D') over D, the point of coefficients
        (m, k) is (A m + B k, C m + D' k) / D.  Strip membership
        0 < X <= eta D, 0 <= Y <= H D and ball membership X^2 + Y^2 <= R^2 D^2
        are decided in ints against the exact eta, H and R.  A strip read
        below its diagonal (pointcloud._LowerStrip) hands over only the
        strip points the scan kept near or below the diagonal: a superset of
        those of float slope <= H / eta.  None for float bases.
        """
        if not self.is_exact():
            return None
        m, k, _, _ = _primitive_scan(self.basis, region)
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
        else:
            r = Fraction(region.radius)
            bound = (r.numerator * d) ** 2 // r.denominator ** 2
            keep = [x * x + y * y <= bound for x, y in zip(xs, ys)]
        return replace(rows, xs=list(compress(xs, keep)), ys=list(compress(ys, keep)))

    def enumerate_points(self, ball: Ball) -> list[Vec2]:
        """Primitive points in the ball, for the definition of horizontal
        shortness (pointcloud.is_horizontally_short).

        Exact bases decide membership on int numerators (see exact_rows)
        and build exact vectors only for the points found; float bases test
        Ball.contains on each scanned point.  perfbench's tracer wraps it.
        """
        rows = self.exact_rows(ball)
        if rows is not None:
            return rows.points()
        _, _, x, y = _primitive_scan(self.basis, ball)
        return list(filter(ball.contains, map(Vec2, x.tolist(), y.tolist())))

    def float_columns(self, strip: VerticalStrip):
        """The primitive points in the strip as float arrays (x, y) straight
        from the scan, kept by 0 < x <= eta and 0 <= y <= height in numpy
        (against the largest floats <= eta and height, so an exact eta is
        compared exactly); the strip loop reads them for float bases, from
        the scan of the strip below its diagonal (see exact_rows)."""
        _, _, x, y = _primitive_scan(self.basis, strip)
        keep = (x > 0) & (x <= _float_floor(strip.eta)) \
            & (y >= 0) & (y <= _float_floor(strip.height))
        return x[keep], y[keep]

    def axis_hits(self, slopes, eta, tols) -> list[bool]:
        """pointcloud.axis_hits_by_definition for exact bases; a float lattice
        stacks the bases of shear(s) @ basis as one float (n, 4) array of
        rows (a, b, c - s a, d - s b), every row held to __post_init__'s
        determinant test at once (|det - 1| <= _det_tol(|row|^2), else
        ValueError).  Chunks of about AXIS_CHUNK_CELLS cells each take
        one stacked scan of the box |x| <= r, |y| <= max(tols), r the radius
        is_horizontally_short searches, and its columns take the
        definition's tests (primitive, Ball.contains, _on_axis with each
        row's tol).  A point's floats do not depend on the box, so the
        answers are those of the ball scan."""
        if self.is_exact():
            return axis_hits_by_definition(self, slopes, eta, tols)
        radius = _axis_radius(eta)
        a, b, c, d = map(float, self.basis.entries())
        s = np.asarray(slopes, dtype=float)
        stack = np.empty((len(s), 4))
        stack[:, 0], stack[:, 1], stack[:, 2], stack[:, 3] = a, b, c - s * a, d - s * b
        det = a * stack[:, 3] - b * stack[:, 2]
        tol = _det_tol((stack * stack).sum(axis=1))
        bad = np.flatnonzero(np.abs(det - 1.0) > tol)
        if bad.size:
            t = bad[0]
            raise ValueError(f"basis determinant {det[t]} is not 1 within {tol[t]}")
        tols = np.asarray(tols, dtype=float)
        chunk = max(1, AXIS_CHUNK_CELLS // math.ceil(2 * radius + 5) ** 2)
        hits = []
        for lo in range(0, len(s), chunk):
            ytol = tols[lo:lo + chunk]
            m, k, x, y, owner = coefficient_scan(stack[lo:lo + chunk], -radius, radius,
                                                 -ytol.max(), ytol.max(),
                                                 margin=1e-6 * max(1.0, radius))
            hit = (np.gcd(m, k) == 1) & (x * x + y * y <= radius ** 2) & (x != 0) \
                & (np.abs(y) <= ytol[owner]) & (np.abs(x) <= radius)
            hits += (np.bincount(owner[hit], minlength=len(ytol)) > 0).tolist()
        return hits


def _primitive_scan(basis: Mat2, region: VerticalStrip | Ball):
    """coefficient_scan of a basis over the box of a strip or a ball,
    non-primitive points dropped: coefficients (m, k) and float coordinates
    (x, y) of the points near the box; the float scan only steers.  The
    strip loop's region (pointcloud._LowerStrip) also drops the points more
    than the margin above its diagonal y = cut x."""
    if isinstance(region, VerticalStrip):
        if math.isinf(region.height):
            raise ValueError("cannot enumerate an unbounded strip; cap the height")
        box = (0, region.eta, 0, region.height)
    else:
        radius = float(region.radius)
        box = (-radius, radius, -radius, radius)
    # float prescreen margin: well clear of double rounding, far below
    # any gap the exact test would have to arbitrate
    margin = 1e-6 * max(1.0, *(abs(float(t)) for t in box))
    scan = coefficient_scan(basis, *box, margin=margin)
    keep = np.gcd(scan[0], scan[1]) == 1
    if isinstance(region, _LowerStrip):
        # a point of float slope <= cut lies below y = cut x (1 + 2^-52), and
        # its scanned x, y are each within the margin of its own, so it
        # passes; the rounding here is of order 2^-52 height, far below
        # margin (1 + cut), and a nan test keeps the point
        cut = region.cut
        keep &= ~(scan[3] - cut * scan[2] > margin * (1.0 + cut))
    return tuple(col[keep] for col in scan)


def _float_floor(value) -> float:
    """The largest float <= value, an exact or float scalar."""
    f = float(value)
    return math.nextafter(f, -math.inf) if f > value else f


def _floor_times(value, d: int) -> int:
    """floor(value * d) for an exact or float value, exactly."""
    f = Fraction(value)
    return f.numerator * d // f.denominator


ZSQUARED = UnimodularLattice(Mat2(1, 0, 0, 1), tag="Z^2")


def to_transversal(lat: UnimodularLattice, eta=1) -> tuple[bcz.TransversalPoint, object]:
    """Transversal coordinates of the first shear-flow hit, plus the hit time.

    Shearing by the smallest strip slope s1 makes the strip vector horizontal
    of length a; completing it to a positively-oriented basis gives a column
    (b', 1/a), and b is the representative of b' modulo a inside (eta-a, eta].
    The basis must be exact (a float basis is a ValueError); the coordinates
    are exact, and a float eta is promoted exactly.  A lattice whose strip
    is empty raises ExceptionalLatticeError from strip_points, before any
    scan (UnimodularLattice.empty_strip).
    """
    if not lat.is_exact():
        raise ValueError("the transversal needs an exact lattice basis")
    _check_positive(eta, "eta")
    if isinstance(eta, float):
        eta = Fraction(eta)
    [(s1, v1)] = strip_points(lat, eta, 1)
    a = v1.x
    coeff = lat.basis.inverse() @ v1  # integral
    m0, k0 = round(coeff.x), round(coeff.y)
    # companion coefficients with m0*k1 - m1*k0 = +1 (orientation matters:
    # the companion's sheared height must be +1/a, not -1/a); k0 = 0 has m0 = +-1
    k1 = pow(m0, -1, abs(k0)) if k0 else m0
    m1 = (m0 * k1 - 1) // k0 if k0 else 0
    mb = lat.basis
    wx = mb.a * m1 + mb.b * k1
    wy = (mb.c - s1 * mb.a) * m1 + (mb.d - s1 * mb.b) * k1
    assert wy * a == 1
    b = wx - math.ceil((wx - eta) / a) * a
    return bcz.TransversalPoint(a, b, eta), s1


def slope_gaps_fast(lat: UnimodularLattice, eta, n: int,
                    exact: bool = False) -> GapSequence:
    """First n slope gaps as return times along the transversal orbit.

    No point enumeration happens after the first hit: gap i is the roof value
    of the i-th return-map iterate.  The basis must be exact (see
    to_transversal); with exact=True the whole orbit runs in rational
    arithmetic.
    """
    point, _ = to_transversal(lat, eta)
    if exact:
        return GapSequence(bcz.orbit(point, n).returns)
    return GapSequence(bcz.roof_sequence(point.to_float(), n))


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
    the determinant is exactly 1.  One draw is taken: a vertical vector is
    not excluded here, since to_transversal decides exactly whether it
    empties the strip (over seeds 0-2999 the primitive vertical vector has
    basis coefficients above 1e41).
    """
    gen = rng(seed)
    s = gen.uniform(-2.0, 2.0)
    t = gen.uniform(-1.0, 1.0)
    theta = gen.uniform(0.0, 2.0 * math.pi)
    m = shear(s) @ diag_flow(t) @ rotation(theta)
    exact = Mat2(*(Fraction(e) for e in m.entries()))
    det = exact.det()
    exact = Mat2(exact.a, exact.b / det, exact.c, exact.d / det)
    return UnimodularLattice(exact, tag=f"seeded({seed})")
