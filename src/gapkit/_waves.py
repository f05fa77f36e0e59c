"""Development of translation surfaces, one breadth-first frontier wave at a
time on numpy arrays.

``surface.saddle_connections`` imports this module when it first develops
a surface, so ``import gapkit.surface`` (and the CLI) never pays for
loading it.  ``Waves`` holds every state of a wave in arrays and runs each
step of the search on all of them at once.  The steps are written once, for
two arithmetics that differ only in the array type, the sign rule, the ball
test and how holonomies are built:

* ``_FloatOps``: float64 arrays, signs within FLOAT_EPS of zero are zero,
  the ball |x|^2 <= R^2 + FLOAT_EPS, holonomies ``Vec2`` of floats;
* ``_ExactOps``: every vertex coordinate (int, Fraction or GoldenNum, all
  in Q(sqrt 5)) is put over one common denominator D and stored as an int
  pair (a, b) meaning (a + b phi)/D (rational surfaces have b = 0; the
  golden L has D = 1), a Z[phi] pair of int arrays (``_Z``).  Each
  predicate is the sign of an element x = a + b phi of Z[phi], decided
  exactly as below: formed from the Z[phi] pairs, or on a certified wave
  in floats, and ``_zholonomy`` builds GoldenNum, Fraction and int values
  only for the emitted holonomies.

Signs.  Before each wave, ``_ExactOps.route`` bounds |x| and the conjugate
|x'| = |a + b (1 - phi)| of the wave's x-coordinates (placed vertices, ray
and entry-edge x parts) by X and X', and of its y-coordinates by Y and Y'.
``_route`` puts the wave on Python ints (object arrays) when a product
could overflow int64 (every coefficient a step forms is below 2^9 S^4, S
the largest bound), on int64 otherwise.  Every signed value is a product
of two cross products, |x| <= 48 (XY)^2, or smaller, or a dot product,
|x| <= 2 (X^2 + Y^2); so |x| <= V = 48 (XY)^2 + 2 (X^2 + Y^2), and
|x'| <= V' likewise.  ``_ExactOps.sign`` takes the sign of the float
``core.zphi_float`` of a + b phi.  It is proven exact on a rational
surface (b = 0), and on int64 when V + V' < 2^53 and (V + V') V' <
2^51 sqrt 5: a and b are then exact floats, rounding phi and b*phi errs by
under 2.0001 * 2^-53 |b| phi with |b| <= (V + V')/sqrt 5, and for b != 0
the norm x x' = a^2 + ab - b^2 is a nonzero integer, so |x| >= 1/V'
exceeds that error.  Without the proof each element is checked, a filter
in the manner of Shewchuk (1997): one with b != 0 and a float within
``core.zphi_float_error`` of zero, or not a number, is signed by the
scalar ``core.zphi_sign`` on Python ints, as is every element of an object
array past the floats.

Certified waves.  A proven int64 wave is certified when its bounds show
that every signed value formed in floats from its coordinates has the
exact sign (``_certify``); its predicates then multiply no Z[phi] pair.
With e = 2^-53, a coordinate u = a + b phi becomes the float
fl(a + fl(b fl(phi))) (``_ExactOps.pred``), which lies within 4e m of u,
m = |a| + |b| phi: a and b are exact floats (S < 2^(53/4) puts them below
2^15).  As b = (u - u')/sqrt 5 and a = (phi u' + (phi - 1) u)/sqrt 5,
m <= |u| + 1.5 |u'|, and m = |u| on a rational surface.  A float formed
from such floats by a tree of + - * with the value's degree d and at most
k roundings on any path from a coordinate errs by at most
(1 + 4e)^d (1 + e)^k - 1 times the same tree evaluated on the m's with
every - made +, by induction over the tree; and that tree is bounded as V
is, by W = V taken at X + 1.5 X' and Y + 1.5 Y' (at X and Y on a rational
surface).  Every signed value has d <= 4 and k <= 10 (the widest, the
entry test of a middle ray, has k = 9), so its float errs by under 26.01e W
<= E = 2^-48 W; no rounding underflows, every float formed being 0 or
above 2^-600.  A nonzero x has |x| >= 1/|x'| >= 1/V', as |x x'| is a
nonzero integer (|x| >= 1 on a rational surface); for a coordinate too,
as ``_bounds`` are at least 1, so that V' >= X'.  So for tau = 2E and
tau + E < 1/V' (or < 1), a nonzero float is read by its sign beyond tau,
and the float of a zero lies within E < tau of 0: read +1 above tau, -1
below -tau and 0 in between, every sign is exact, zero included.  The
Z[phi] pairs stay for the linear columns that later waves and the
holonomies read: placed vertices, translations, rays and entry edges,
which only add and gather.

The ball test |p|^2 <= R^2 runs in floats as well.  For p = ((a + b phi)/D,
(c + d phi)/D), converting the ints and forming (a + b phi)^2 +
(c + d phi)^2 - R^2 D^2 in floats errs by under 12 * 2^-53 (m + R^2 D^2),
m = (|a| + |b| phi)^2 + (|c| + |d| phi)^2, so only the points within
2^-48 (m + R^2 D^2) of the sphere, or past the float range, go to the
exact test ``_zin_ball``, which takes R^2 D^2 as an int fraction and runs
on Python ints.

The exit of a sub-cone's middle ray is the first hit edge of least num/den:
its one hit edge when it has one, else picked in floats (``_ExactOps.exits``).
With fn, fd the ``core.zphi_float`` of num and den and en, ed their
``core.zphi_float_error`` (on a certified wave its floats of num and den,
and E), |fd| > ed gives den the sign of fd and
|num/den - fn/fd| <= (en + |fn/fd| ed)/(|fd| - ed).  So q = fl(fn/fd) lies
within w = (1 + 2^-48)(en + |q| ed)/(|fd| - ed) + 2^-48 |q| + 2^-1000 of
num/den, formed in floats (w is infinite where |fd| <= ed), with room for
the roundings of q, w and q +- w and for underflow.  A row whose least q has
q + w below q - w of every other hit edge exits by that edge.  The other
rows, those with exact or near ties among them, and every row of an object
wave past the floats go to the ordered scan ``_ordered_exits``, which
compares the quotients exactly; so do all rows of a float surface, whose
FLOAT_EPS "nearer" rule is not an order to sort by.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from . import surface
from .core import (_PHI, GoldenNum, Vec2, _zphi_coeffs, common_denominator, zphi_float,
                   zphi_float_error, zphi_sign)
from .errors import ResourceLimitError
from .pointcloud import _ragged
from .surface import FLOAT_EPS, SaddleConnection, TranslationSurface, _angle, _ball_rsq


def _sign(x, band=FLOAT_EPS):
    """The float sign rule on an array, as int8: 0 within ``band`` of zero."""
    return (x > band).astype(np.int8) - (x < -band)


class _Z:
    """Elements a + b phi of Z[phi], elementwise over two int arrays of one
    shape (int64 or object), multiplied with phi^2 = phi + 1."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __add__(self, other):
        return _Z(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return _Z(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return _Z(-self.a, -self.b)

    def __mul__(self, other):
        bb = self.b * other.b
        return _Z(self.a * other.a + bb, self.a * other.b + self.b * other.a + bb)

    def __getitem__(self, key):
        return _Z(self.a[key], self.b[key])

    def __setitem__(self, key, value):
        self.a[key], self.b[key] = value.a, value.b

    def astype(self, dtype):
        return _Z(self.a.astype(dtype, copy=False), self.b.astype(dtype, copy=False))


def _bounds(*columns: _Z) -> tuple[float, float]:
    """Upper bounds for max |x| and max |x'| over the elements of the 1-D
    columns, x' the conjugate a + b (1 - phi); the margin covers float
    rounding."""
    a = np.concatenate([z.a for z in columns]).astype(float)
    b = np.concatenate([z.b for z in columns]).astype(float)
    if not len(a):
        return 0.0, 0.0
    return (np.abs(zphi_float(a, b)).max() * (1.0 + 1e-9) + 1.0,
            np.abs(a + b * (1.0 - _PHI)).max() * (1.0 + 1e-9) + 1.0)


def _values(x: float, y: float) -> float:
    """V, the bound on every signed value of a wave whose coordinates are
    bounded by x and y (module docstring)."""
    return 48 * (x * y) ** 2 + 2 * (x * x + y * y)


def _route(x: float, xc: float, y: float, yc: float, rational: bool) -> tuple[type, bool]:
    """The int dtype of a wave with |x| <= x, |x'| <= xc, |y| <= y and |y'| <= yc
    on its coordinates, and whether these bounds prove its float signs."""
    if max(x, xc, y, yc) >= 2.0 ** (53 / 4):  # 2^9 S^4 >= 2^62
        return object, rational
    v, vc = _values(x, y), _values(xc, yc)
    return np.int64, rational or v + vc < 2.0 ** 53 and (v + vc) * vc < 2.0 ** 51 * math.sqrt(5.0)


def _certify(x: float, xc: float, y: float, yc: float, rational: bool) -> Optional[float]:
    """E, the bound on the float error of every signed value of a wave with
    the bounds of ``_route``, when the band 2E certifies its float signs:
    3E below 1/V' (below 1 on a rational surface); None when it does not."""
    if max(x, xc, y, yc) >= 2.0 ** (53 / 4):  # past int64, and before any square
        return None
    k = 0.0 if rational else 1.5  # |a| + |b| phi <= |u| + k |u'|
    err = 2.0 ** -48 * _values(x + k * xc, y + k * yc)
    return err if 3 * err * (1.0 if rational else _values(xc, yc)) < 1 else None


def _checked(s, x, doubt):
    """The signs s of x with the elements under the mask ``doubt`` signed
    again by the scalar ``zphi_sign`` on Python ints."""
    for i in np.flatnonzero(doubt).tolist():
        s.flat[i] = zphi_sign(int(x.a.flat[i]), int(x.b.flat[i]))
    return s


def _ordered_exits(ops, num, den, sden, hit):
    """The first hit edge of least num/den in each row, by an ordered scan
    of the edges with the sign rule of ``ops``; -1 in a row with no hit."""
    best = np.full(len(hit), -1)
    bnum, bden = num[:, 0], den[:, 0]  # read only once best >= 0
    bsign = np.zeros(len(hit))
    for k in range(hit.shape[1]):
        nearer = hit[:, k] & ((best < 0) | (ops.sign(num[:, k] * bden - bnum * den[:, k])
                                           * sden[:, k] * bsign < 0))
        best[nearer] = k
        bnum = ops.where(nearer, num[:, k], bnum)
        bden = ops.where(nearer, den[:, k], bden)
        bsign = np.where(nearer, sden[:, k], bsign)
    return best


class _FloatOps:
    """Float arithmetic: float64 arrays and the FLOAT_EPS sign rule.

    Copies whose window meets the ball have vertices with |x| <= X = R +
    2 max |x_v|, |y| <= Y = R + 2 max |y_v|; rays (such vertices or
    quarter-turned edges) have parts below M = max(X, Y).  A product of two
    cross products takes one ray at most, so the exact waves' 48 (XY)^2
    widens to 48 XY M^2, and every signed value is below V = 48 XY M^2 +
    6 M^2.  A surface with V past the floats raises ValueError: its
    products could overflow to inf and nan, which decide no sign.
    """

    sign = staticmethod(_sign)
    where = staticmethod(np.where)

    def __init__(self, surf: TranslationSurface, radius: float):
        self.bx = np.array([float(v.x) for v in surf.vertices])
        self.by = np.array([float(v.y) for v in surf.vertices])
        x = radius + 2 * float(np.abs(self.bx).max())
        y = radius + 2 * float(np.abs(self.by).max())
        m = max(x, y)
        if not math.isfinite(48 * x * y * m * m + 6 * m * m):
            raise ValueError(f"surface too large to develop in floats at radius {radius}")
        self.rsq = _ball_rsq(radius)

    @staticmethod
    def pos(x):
        return x > FLOAT_EPS

    @staticmethod
    def zero(x):
        return np.abs(x) <= FLOAT_EPS

    @staticmethod
    def stack(columns):
        return np.stack(columns, 1)

    @staticmethod
    def empty(size: int):
        return np.empty(size)

    @staticmethod
    def floats(x):
        return x

    pred = floats

    @staticmethod
    def route(wave):
        return wave

    def exits(self, num, den, sden, hit):
        """The exit edge of each row: the ordered scan, whose FLOAT_EPS
        "nearer" rule is not an order that floats could sort by."""
        return _ordered_exits(self, num, den, sden, hit)

    def emit(self, x, y):
        """The ball mask of the points (x, y) and the holonomies inside."""
        ball = x * x + y * y <= self.rsq
        return ball, [Vec2(u, v) for u, v in zip(x[ball].tolist(), y[ball].tolist())]

    @staticmethod
    def keys(x, y):
        """The sort keys float(length_sq) and angle of the holonomies (x, y)."""
        return x * x + y * y, list(map(_angle, x.tolist(), y.tolist()))


def _zphi_value(a, b, d):
    """The scalar (a + b*phi)/d as an int, a Fraction or a GoldenNum."""
    if b == 0:
        return a // d if a % d == 0 else Fraction(a, d)
    if d == 1:
        return GoldenNum._raw(a, b)  # int coefficients need no normalizing
    return GoldenNum(Fraction(a, d), Fraction(b, d))


# Z[phi] int primitives for one point (see the module docstring): a point
# (a, b, c, d) is ((a + b phi)/D, (c + d phi)/D).

def _zin_ball(p, rsq_num, rsq_den):
    """|p|^2 <= R^2 exactly (R^2 D^2 = rsq_num / rsq_den): emit's exact fallback."""
    a, b, c, d = p
    # |p|^2 D^2 = (a^2 + b^2 + c^2 + d^2) + (2ab + b^2 + 2cd + d^2) phi
    return zphi_sign(rsq_den * (a * a + b * b + c * c + d * d) - rsq_num,
                     rsq_den * (2 * a * b + b * b + 2 * c * d + d * d)) <= 0


def _zholonomy(p, d):
    return Vec2(_zphi_value(p[0], p[1], d), _zphi_value(p[2], p[3], d))


class _ExactOps:
    """Exact arithmetic: Z[phi] int pairs over the common denominator D.

    A vertex coordinate v with no float, or with fl(v)^2 past the float range
    (|v| above about 1.34e154), raises ValueError: ``_bounds`` and the float
    window bound multiply coordinates in floats, and inf or nan windows prune
    nothing, so the development would run to its state budget.  The radius
    is not read; the exact tests take any.
    """

    def __init__(self, surf: TranslationSurface, radius: float):
        try:
            big = max(abs(float(c)) for v in surf.vertices for c in (v.x, v.y))
        except OverflowError:
            big = math.inf
        if not big * big < math.inf:
            raise ValueError("surface coordinates too large for the float window bounds")
        flat, self.d = common_denominator(
            c for v in surf.vertices for x in (v.x, v.y) for c in _zphi_coeffs(x))
        a, b, c, d = (np.array(flat[k::4], object) for k in range(4))
        self.rational = not (b.any() or d.any())
        self.bx, self.by = _Z(a, b), _Z(c, d)
        self.base = (*_bounds(self.bx), *_bounds(self.by))  # X, X', Y, Y'
        # the first wave multiplies edge vectors of the base, turned by
        # quarter turns, so either axis may hold either kind of coordinate
        edge, edge_c = 2 * max(self.base[0::2]), 2 * max(self.base[1::2])
        self._use(edge, edge_c, edge, edge_c)
        rsq = Fraction(radius) ** 2
        self.rsq_num, self.rsq_den = rsq.numerator * self.d * self.d, rsq.denominator
        try:
            self.rsq = self.rsq_num / self.rsq_den  # R^2 D^2, correctly rounded
        except OverflowError:  # every point then goes to the exact test
            self.rsq = math.inf

    def _use(self, *bounds: float) -> type:
        """Put the base on the int dtype that ``_route`` picks from a wave's
        bounds (x, x', y, y'), take its sign proof, and certify the wave
        (``err`` its E, else None) when the proof holds on int64; returns
        the dtype."""
        dtype, self.proven = _route(*bounds, self.rational)
        self.bx, self.by = self.bx.astype(dtype), self.by.astype(dtype)
        self.err = _certify(*bounds, self.rational) if dtype is np.int64 and self.proven \
            else None
        return dtype

    def pred(self, x):
        """The column x as the predicates multiply it: its floats a + b phi
        on a certified wave, its Z[phi] pairs on any other."""
        return x if self.err is None else zphi_float(x.a, x.b)

    def sign(self, x):
        """The sign of each element of x as int8: on a certified wave's floats
        the band 2E, on Z[phi] pairs the float sign, checked element by
        element unless the wave's bound proves it (module docstring)."""
        if type(x) is not _Z:
            return _sign(x, 2 * self.err)
        if x.a.dtype != object:
            return self._signs(x, x.a, x.b)
        try:
            a, b = x.a.astype(float), x.b.astype(float)
        except OverflowError:  # past the floats: every element exactly
            return _checked(np.zeros(x.a.shape, np.int8), x, np.ones(x.a.shape, bool))
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan are checked
            return self._signs(x, a, b)

    def _signs(self, x, a, b):
        """``sign`` from the floats (or int64 arrays) a, b of x's coefficients."""
        f = zphi_float(a, b)
        s = np.sign(f).astype(np.int8)
        if self.proven:
            return s
        return _checked(s, x, (x.b != 0) & ~(np.abs(f) > zphi_float_error(a, b)))

    def pos(self, x):
        return x > 2 * self.err if type(x) is not _Z else self.sign(x) > 0

    def zero(self, x):
        return np.abs(x) <= 2 * self.err if type(x) is not _Z else (x.a == 0) & (x.b == 0)

    @staticmethod
    def where(mask, x, y):
        if type(x) is not _Z:
            return np.where(mask, x, y)
        return _Z(np.where(mask, x.a, y.a), np.where(mask, x.b, y.b))

    @staticmethod
    def stack(columns):
        return _Z(np.stack([z.a for z in columns], 1), np.stack([z.b for z in columns], 1))

    def empty(self, size: int):
        return _Z(np.empty(size, self.bx.a.dtype), np.empty(size, self.bx.a.dtype))

    def floats(self, x):
        """The floats (a + b phi)/D, for the window bound, which prunes
        only windows beyond its float tolerance."""
        d = self.d
        return zphi_float(x.a / d, x.b / d).astype(float)

    def route(self, wave: "_Wave") -> "_Wave":
        """The wave on the arithmetic that ``_route`` picks from the bounds
        of its x- and y-coordinates; placed vertices are base + translation."""
        entry = wave.entry[:4] if wave.entry else ()
        x, xc = _bounds(wave.lx, wave.rx, *entry[0::2])
        y, yc = _bounds(wave.ly, wave.ry, *entry[1::2])
        (tx, txc), (ty, tyc) = _bounds(wave.tx), _bounds(wave.ty)
        bx, bxc, by, byc = self.base
        dtype = self._use(max(x, bx + tx), max(xc, bxc + txc),
                          max(y, by + ty), max(yc, byc + tyc))
        entry = wave.entry and (*(z.astype(dtype) for z in entry), wave.entry[4])
        return wave._replace(**{f: getattr(wave, f).astype(dtype)
                                for f in ("tx", "ty", "lx", "ly", "rx", "ry")},
                             entry=entry)

    def exits(self, num, den, sden, hit):
        """The exit edge of each row, the first hit edge of least num/den:
        the one hit edge of a row that has one, ``_nearest`` of the others."""
        best = hit.argmax(1)
        rows = np.flatnonzero(np.count_nonzero(hit, 1) != 1)
        if len(rows):
            best[rows] = self._nearest(num[rows], den[rows], sden[rows], hit[rows])
        return best

    def _floats(self, x):
        """The floats of x and a bound on their error: a certified wave's
        floats and its E, or ``core.zphi_float`` and ``zphi_float_error`` of
        the coefficient floats of Z[phi] pairs."""
        if type(x) is not _Z:
            return x, self.err
        a, b = x.a.astype(float), x.b.astype(float)
        return zphi_float(a, b), zphi_float_error(a, b)

    def _nearest(self, num, den, sden, hit):
        """``exits`` decided in floats where the bound of the module docstring
        separates the least quotient from the others, by the ordered scan
        elsewhere."""
        try:  # the bound covers underflow; inf and nan decide nothing
            with np.errstate(all="ignore"):
                (fn, en), (fd, ed) = self._floats(num), self._floats(den)
                q = np.where(hit, fn / fd, np.inf)
                r = np.abs(q)
                # half-widths: infinite where den's float lies within its error of 0
                w = (en + r * ed) / np.maximum(np.abs(fd) - ed, 0.0) \
                    * (1.0 + 2.0 ** -48) + 2.0 ** -48 * r + 2.0 ** -1000
                pick = q.argmin(1)
                at = (np.arange(len(q)), pick)
                hi = q[at] + w[at]
                # decided: every other edge's lower bound lies above the pick's upper one
                above = np.where(hit, q - w, np.inf) > hi[:, None]
                sure = np.count_nonzero(above, 1) == hit.shape[1] - 1
        except OverflowError:  # past the floats: every row is scanned
            return _ordered_exits(self, num, den, sden, hit)
        best = np.full(len(hit), -1)
        best[sure] = pick[sure]
        rest = np.flatnonzero(~sure)
        if len(rest):
            best[rest] = _ordered_exits(self, num[rest], den[rest], sden[rest], hit[rest])
        return best

    def emit(self, x, y):
        """The ball mask of the points (x, y) and the holonomies inside: the
        float test, and ``_zin_ball`` within its error band (module
        docstring)."""
        cols = (x.a, x.b, y.a, y.b)
        a, b, c, d = (v.astype(float) for v in cols)
        fx, fy = zphi_float(a, b), zphi_float(c, d)
        mx, my = np.abs(a) + np.abs(b) * _PHI, np.abs(c) + np.abs(d) * _PHI
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan go to _zin_ball
            gap = fx * fx + fy * fy - self.rsq
            band = 2.0 ** -48 * (mx * mx + my * my + self.rsq)
        ball = gap < -band
        for i in np.flatnonzero(~(np.abs(gap) > band)).tolist():  # and nan
            ball[i] = _zin_ball([int(v[i]) for v in cols], self.rsq_num, self.rsq_den)
        inside = np.flatnonzero(ball)
        points = zip(*(v[inside].tolist() for v in cols))
        return ball, [_zholonomy(p, self.d) for p in points]

    def keys(self, x, y):
        """The sort keys float(length_sq) and angle of the holonomies (x, y),
        bit for bit the floats of their exact values, which are those of the
        correctly rounded int quotients of the coefficients.  On int64 with
        D below 2^26 the coefficients lie below S < 2^(53/4), so the sums of
        their squares are exact in int64, and they, the coefficients and D^2
        convert to floats exactly; object columns, and int64 ones with a
        larger D, divide as Python ints, whose int / int is correctly rounded."""
        if self.d >= 2 ** 26:
            x, y = x.astype(object), y.astype(object)
        a, b, c, e = x.a, x.b, y.a, y.b
        dd = self.d * self.d
        lsq = zphi_float((a * a + b * b + c * c + e * e) / dd,
                         (2 * a * b + b * b + 2 * c * e + e * e) / dd)
        return np.asarray(lsq, float), list(map(_angle, self.floats(x).tolist(),
                                                self.floats(y).tolist()))


class _Wave(NamedTuple):
    """One BFS frontier of states, one array entry per state.

    (tx, ty) translates the placed polygon copy; (lx, ly) and (rx, ry) are
    the cone's clockwise and counterclockwise rays, il whether the clockwise
    ray belongs to the cone (the other never does: cones are half-open, so
    the gluing of a corner's in-edge ray to the partner corner's out-edge
    ray traces no edge-aligned connection twice).  ``entry`` is None in the
    first wave (states at the corner) and (e1x, e1y, e2x, e2y, side) after
    it: the ends of the edge the state entered through and the origin's
    side of that edge.  ``parent`` (an index into the previous wave) and
    ``edge`` record the crossing that made the state, so paths are rebuilt
    only when emitted.  Coordinates are arrays of the arithmetic in use.
    """

    tx: object
    ty: object
    lx: object
    ly: object
    rx: object
    ry: object
    il: np.ndarray
    entry: Optional[tuple]
    parent: Optional[np.ndarray]
    edge: Optional[np.ndarray]


class Waves:
    """Breadth-first cone development of a surface from its singularity,
    one frontier wave at a time.

    A state is a placed polygon copy and a visibility cone.  Each step
    classifies the copy's vertices against every cone of the wave, emits
    those first on their ray from the origin, splits each cone at its
    interior emitted vertices, prunes sub-cones whose window lies beyond the
    radius, and continues each through the edge its middle ray exits by:
    per-state vertex work as (states, n) arrays, the ragged splits and
    sub-cones laid end to end with ``_ragged``.  On an exact surface a
    sub-cone exits by its one hit edge, or by the nearest one that a float
    pass over the quotients of all its edges proves; the Python loop over
    the n polygon edges, the ordered nearest-exit scan, runs only for the
    rows that pass leaves undecided, and for every row of a float surface.
    The waves hold
    the states in the queue order of a state-by-state search, so the
    connections come out in its discovery order (states in BFS order, the
    vertices of each state in index order).
    """

    def __init__(self, surf: TranslationSurface, radius: float):
        self.ops = (_ExactOps if surf.is_exact() else _FloatOps)(surf, radius)
        n = self.n = len(surf.vertices)
        self.nxt = np.roll(np.arange(n), -1)
        # crossing edge k shifts the copy by base[k] - base[partner(k) + 1]
        self.glued = self.nxt[list(surf.partner)]
        self.reach = _window_reach(radius)

    def run(self) -> list[SaddleConnection]:
        """The connections in order of discovery, their sort keys left in
        ``keys`` as float arrays (float(length_sq), angle); a development of
        more than ``surface.DEFAULT_STATE_BUDGET`` states raises
        ResourceLimitError carrying those of the waves completed before the
        one that would overrun it."""
        wave, links, found, states = self._first_wave(), [], [], 0
        while len(wave.il):
            states += len(wave.il)
            if states > surface.DEFAULT_STATE_BUDGET:
                raise ResourceLimitError(
                    f"development exceeded {surface.DEFAULT_STATE_BUDGET} states",
                    partial=_connections(links, found))
            links.append((wave.parent, wave.edge))
            wave = self._step(self.ops.route(wave), found)
        self.keys = [np.concatenate(k, dtype=float) for k in zip(*(k for *_, k in found))]
        return _connections(links, found)

    def _first_wave(self) -> _Wave:
        """The corner wedges: each corner's angle from its out-edge ray to
        its in-edge ray, carved into sub-pi pieces by quarter turns."""
        ops, n, bx, by = self.ops, self.n, self.ops.bx, self.ops.by
        prev = np.roll(np.arange(n), 1)
        ix, iy = bx[prev] - bx, by[prev] - by  # in-edge rays
        turns = [(bx[self.nxt] - bx, by[self.nxt] - by)]  # out-edge rays
        for _ in range(4):
            x, y = turns[-1]
            turns.append((-y, x))
        cx, cy = (ops.stack(axis) for axis in zip(*turns))  # (corner, turn)
        # quarter turns inserted until the in-edge ray is strictly left
        fcx, fcy, fix, fiy = map(ops.pred, (cx[:, :4], cy[:, :4], ix, iy))
        left = ops.pos(fcx * fiy[:, None] - fcy * fix[:, None])
        inserts = np.where(left.any(1), left.argmax(1), 4)
        corner = np.repeat(np.arange(n), inserts + 1)
        w = _ragged(np.zeros(n, np.int64), inserts + 1, int(inserts.sum()) + n)
        last, after = w == inserts[corner], np.minimum(w + 1, 4)
        return _Wave(-bx[corner], -by[corner], cx[corner, w], cy[corner, w],
                     ops.where(last, ix[corner], cx[corner, after]),
                     ops.where(last, iy[corner], cy[corner, after]),
                     np.ones(len(w), bool), None, None, None)

    def _ray_hits(self, entry, own, rx, ry, edges):
        """Where each ray (rx, ry), a column, meets every edge (q1, q2) of
        its state ``own``: (num, den, sign of den, hit), the meeting point
        ray * num/den, hit where num/den > 0 and the point lies past the
        entry edge."""
        sign = self.ops.sign
        num, ex, ey = (a[own] for a in edges)
        den = rx * ey - ry * ex
        sden = sign(den)
        hit = sign(num) * sden > 0
        if entry is not None:
            e1x, e1y, e2x, e2y, side = (a[own, None] for a in entry)
            eex, eey = e2x - e1x, e2y - e1y
            val = num * (eex * ry - eey * rx) - den * (eex * e1y - eey * e1x)
            hit &= sign(val) * sden == -side
        return num, den, sden, hit

    def _step(self, wave: _Wave, found: list) -> _Wave:
        """Process every state of the wave; append its emitted vertices to
        ``found`` as (state indices, holonomies, sort keys) and return the
        next wave."""
        ops, nxt, pred = self.ops, self.nxt, self.ops.pred
        count = len(wave.il)
        # placed vertices, and (f-prefixed) as the predicates multiply them
        px, py = ops.bx + wave.tx[:, None], ops.by + wave.ty[:, None]
        fx, fy = pred(px), pred(py)
        qx, qy = fx[:, nxt], fy[:, nxt]
        edges = (fx * qy - fy * qx, qx - fx, qy - fy)  # cross(q1, q2), q2 - q1
        entry = wave.entry and (*map(pred, wave.entry[:4]), wave.entry[4])
        origin = ops.zero(fx) & ops.zero(fy)
        if entry is None:
            beyond = ~origin
        else:
            e1x, e1y, e2x, e2y, side = (a[:, None] for a in entry)
            beyond = ops.sign((e2x - e1x) * (fy - e1y) - (e2y - e1y) * (fx - e1x)) \
                == -side

        # candidate vertices: in the cone and past the entry
        lx, ly, rx, ry = (pred(a)[:, None] for a in (wave.lx, wave.ly, wave.rx, wave.ry))
        c_l, c_r = lx * fy - ly * fx, fx * ry - fy * rx
        interior = ops.pos(c_l) & ops.pos(c_r)
        on_l = ops.zero(c_l) & ops.pos(lx * fx + ly * fy)
        cand = ~origin & beyond & (interior | on_l & wave.il[:, None])
        cs, cv = np.nonzero(cand)

        # blocked: an edge crosses the ray piece before the candidate
        p0, p1 = fx[cs, cv, None], fy[cs, cv, None]
        sides = ops.sign(p0 * fy[cs] - p1 * fx[cs])
        along = (sides == 0) & (sides[:, nxt] == 0)
        t = p0 * fx[cs] + p1 * fy[cs]
        near = ops.pos(t) & ops.pos(p0 * p0 + p1 * p1 - t) & beyond[cs]
        num, den, sden, hit = self._ray_hits(entry, cs, p0, p1, edges)
        blocked = (along & (near | near[:, nxt])) \
            | (~along & (sides * sides[:, nxt] <= 0) & hit
               & (ops.sign(num - den) * sden < 0))
        free = ~blocked.any(1)
        cs, cv = cs[free], cv[free]
        x, y = px[cs, cv], py[cs, cv]
        ball, hols = ops.emit(x, y)
        found.append((cs[ball].tolist(), hols, ops.keys(x[ball], y[ball])))

        # first singularities terminate rays: interior ones split the cone
        inner = interior[cs, cv]
        kill_l = np.zeros(count, bool)
        kill_l[cs[~inner]] = True
        ss, sx, sy = cs[inner], x[inner], y[inner]
        splits = np.bincount(ss, minlength=count)
        # a split's place in the orient order of its state's splits, ties
        # kept in vertex order (a stable sort): count the splits j of its
        # state with orient(s_j, s_i) > 0 or a tie and j < i
        pairs = splits[ss]
        i = np.repeat(np.arange(len(ss)), pairs)
        j = _ragged((np.cumsum(splits) - splits)[ss], pairs, int(pairs.sum()))
        fsx, fsy = pred(sx), pred(sy)
        cross = fsx[j] * fsy[i] - fsy[j] * fsx[i]
        before = ops.pos(cross) | ops.zero(cross) & (j < i)
        rank = np.bincount(i[before], minlength=len(ss))

        # bounds of each state end to end: left ray, splits in order, right ray
        size = splits + 2
        start = np.cumsum(size) - size
        end = start + splits + 1
        total = int(size.sum())
        bx, by, binc = ops.empty(total), ops.empty(total), np.zeros(total, bool)
        bx[start], by[start], binc[start] = wave.lx, wave.ly, wave.il & ~kill_l
        bx[end], by[end] = wave.rx, wave.ry
        at = start[ss] + 1 + rank
        bx[at], by[at] = sx, sy
        a = _ragged(start, splits + 1, total - count)  # sub-cone from bound a to a + 1
        own = np.repeat(np.arange(count), splits + 1)
        fbx, fby = pred(bx), pred(by)

        # sub-cones: drop slivers, then windows beyond the radius
        keep = ops.pos(fbx[a] * fby[a + 1] - fby[a] * fbx[a + 1])
        own, a = own[keep], a[keep]
        if entry is not None:
            wx, wy = ops.floats(bx), ops.floats(by)
            window = [*map(ops.floats, wave.entry[:4]), wx[a], wy[a], wx[a + 1], wy[a + 1]]
            keep = ~(_window_min_radius(own, *window) > self.reach)
            own, a = own[keep], a[keep]

        # exit edge of the middle ray: nearest crossed edge, in edge order
        mx, my = (fbx[a] + fbx[a + 1])[:, None], (fby[a] + fby[a + 1])[:, None]
        sides = ops.sign(mx * fy[own] - my * fx[own])
        num, den, sden, hit = self._ray_hits(entry, own, mx, my, edges)
        hit &= ~((sides == 0) & (sides[:, nxt] == 0)) & (sides * sides[:, nxt] <= 0)
        best = ops.exits(num, den, sden, hit)
        if (best < 0).any():
            raise RuntimeError("development ray found no exit edge")

        # cross the exit edge into the glued copy
        e1, e2 = (own, best), (own, nxt[best])
        f1x, f1y, f2x, f2y = fx[e1], fy[e1], fx[e2], fy[e2]
        side = ops.sign((f2x - f1x) * -f1y - (f2y - f1y) * -f1x)
        keep = side != 0  # a window collinear with the origin subtends no angle
        own, k, a = own[keep], best[keep], a[keep]
        e1, e2 = (own, k), (own, nxt[k])
        shift_x, shift_y = ops.bx - ops.bx[self.glued], ops.by - ops.by[self.glued]
        return _Wave(wave.tx[own] + shift_x[k], wave.ty[own] + shift_y[k],
                     bx[a], by[a], bx[a + 1], by[a + 1], binc[a],
                     (px[e1], py[e1], px[e2], py[e2], side[keep]), own, k)


def _window_reach(radius: float) -> float:
    """Windows whose |x| lower bound exceeds this hold no connection in the ball."""
    return radius * (1 + 1e-9) + 1e-9


def _window_min_radius(own, e1x, e1y, e2x, e2y, lx, ly, rx, ry):
    """A lower bound for |x| over the entry window (e1, e2)[own] of each
    sub-cone (lx, ly)-(rx, ry), in floats on every surface.

    ``np.hypot`` is not ``math.hypot``: on about 0.2 % of random inputs they
    differ by one ulp.  The bound only prunes windows beyond
    R (1 + 1e-9) + 1e-9, which hold no connection of length_sq <= R^2 + 1e-9,
    so a one-ulp difference can only add or drop states that emit nothing,
    and only when a bound lies within an ulp of that threshold.
    """
    e1x, e1y, e2x, e2y = (a[own] for a in (e1x, e1y, e2x, e2y))
    ex, ey = e2x - e1x, e2y - e1y
    low = np.full(len(own), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = e1x * ey - e1y * ex
        for fx, fy in ((lx, ly), (rx, ry)):
            den = fx * ey - fy * ex
            low = np.minimum(low, np.where(np.abs(den) > 1e-300,
                                           np.abs(cut / den) * np.hypot(fx, fy), np.inf))
        esq = ex * ex + ey * ey
        u = -(e1x * ex + e1y * ey) / esq
        fx, fy = e1x + u * ex, e1y + u * ey
        seen = (esq > 0) & (0.0 <= u) & (u <= 1.0) \
            & (lx * fy - ly * fx >= 0) & (fx * ry - fy * rx >= 0)
    return np.minimum(low, np.where(seen, np.hypot(fx, fy), np.inf))


def _key_order(conns, lsq, angle) -> list[int]:
    """The indices of ``conns`` in order of (float(length_sq), angle, path),
    given ``Waves.keys``: one stable lexsort, then one sort by (run, path,
    index) of the positions in runs of equal keys."""
    order = np.lexsort((angle, lsq))
    lsq, angle = lsq[order], angle[order]
    tie = (lsq[1:] == lsq[:-1]) & (angle[1:] == angle[:-1])
    run = np.cumsum(np.concatenate(([True], ~tie))).tolist()
    at = np.flatnonzero(np.concatenate(([False], tie)) | np.concatenate((tie, [False]))).tolist()
    order = order.tolist()
    tied = sorted((run[p], conns[order[p]].path, order[p]) for p in at)
    for p, (_, _, i) in zip(at, tied):
        order[p] = i
    return order


def _connections(links, found) -> list[SaddleConnection]:
    """The connections of the completed waves in discovery order.  A path is
    its state's chain of crossings, built wave by wave only for the states
    that lead to an emitted vertex."""
    links = [(parent.tolist(), edge.tolist()) for parent, edge in links[1:]]
    need = [set(states) for states, *_ in found]
    for w in range(len(found) - 1, 0, -1):
        parent = links[w - 1][0]
        need[w - 1].update(parent[s] for s in need[w])
    paths = dict.fromkeys(need[0], ())
    out = []
    for w, (states, hols, _) in enumerate(found):
        if w:
            parent, edge = links[w - 1]
            paths = {s: paths[parent[s]] + (edge[s],) for s in need[w]}
        out.extend(SaddleConnection(h, paths[s]) for s, h in zip(states, hols))
    return out
