"""Property tests: the coefficient-scan kernel against a brute-force scan of
the whole integer coefficient box, on random exact rational lattices; the
exact int-numerator strip order against a brute-force Fraction sort; a
stacked scan of many float bases against one scan per basis; and the float
first order of exact scalar slopes against an exact sort."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gapkit import pointcloud
from gapkit.affine import AffineLattice
from gapkit.core import Ball, GoldenNum, Mat2, Vec2, VerticalStrip, shear
from gapkit.lattice import UnimodularLattice, coefficient_scan
from gapkit.pointcloud import (ExactRows, PointSystem, is_horizontally_short,
                               slopes_in_strip, strip_points)

SETTINGS = settings.get_profile("gapkit")


@st.composite
def rational_lattices(draw):
    """shear(p/q) diag(r, 1/r) U Z^2 with U in SL(2, Z): exact, unimodular."""
    p, q = draw(st.integers(-4, 4)), draw(st.integers(1, 3))
    r = Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    t, s = draw(st.integers(-1, 1)), draw(st.integers(-1, 1))
    basis = shear(Fraction(p, q)) @ Mat2(r, 0, 0, 1 / r) \
        @ Mat2(1, t, 0, 1) @ Mat2(1, 0, s, 1)
    return UnimodularLattice(basis)


def coefficient_box(basis, xlo, xhi, ylo, yhi):
    """Integer ranges holding the coefficients of every point of the box."""
    inv = basis.inverse()
    corners = [inv @ Vec2(x, y) for x in (xlo, xhi) for y in (ylo, yhi)]
    ms, ks = [c.x for c in corners], [c.y for c in corners]
    return (range(math.floor(min(ms)), math.ceil(max(ms)) + 1),
            range(math.floor(min(ks)), math.ceil(max(ks)) + 1))


def brute_force(lat, inside, box):
    """Exact primitive points accepted by ``inside``, every cell of the box tried."""
    g = lat.basis
    mrange, krange = coefficient_box(g, *box)
    out = set()
    for m in mrange:
        for k in krange:
            if math.gcd(m, k) == 1:
                v = Vec2(g.a * m + g.b * k, g.c * m + g.d * k)
                if inside(v):
                    out.add((v.x, v.y))
    return out


radii = st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=8)


@SETTINGS
@given(rational_lattices(), radii)
def test_ball_matches_brute_force(lat, radius):
    got = {(v.x, v.y) for v in lat.enumerate_points(Ball(radius))}
    want = brute_force(lat, lambda v: v.norm_sq() <= radius ** 2,
                       (-radius, radius, -radius, radius))
    assert got == want


@SETTINGS
@given(rational_lattices(),
       st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=8),
       st.fractions(min_value=0, max_value=4, max_denominator=8))
def test_strip_matches_brute_force(lat, eta, height):
    got = {(v.x, v.y) for v in lat.enumerate_points(VerticalStrip(eta, height))}
    want = brute_force(lat, lambda v: 0 < v.x <= eta and 0 <= v.y <= height,
                       (0, eta, 0, height))
    assert got == want


@SETTINGS
@given(rational_lattices(), st.floats(0.0, 1.0, exclude_max=True),
       st.floats(0.0, 1.0, exclude_max=True), st.floats(0.5, 3.0))
def test_affine_ball_matches_brute_force(lat, u, v, radius):
    basis = lat.basis.to_float()
    shift = basis @ Vec2(u, v)
    got = AffineLattice(basis, shift).ball_points(radius)
    mrange, krange = coefficient_box(basis, -radius, radius, -radius, radius)
    m, k = (a.ravel() for a in np.meshgrid(mrange, krange))
    want = np.column_stack([basis.a * (m + u) + basis.b * (k + v),
                            basis.c * (m + u) + basis.d * (k + v)])
    want = want[np.sum(want ** 2, axis=1) > 1e-24]
    # both sides round differently, so leave out points on the circle
    clear = lambda pts: pts[np.abs(np.sum(pts ** 2, axis=1) - radius ** 2) > 1e-9]
    got, want = clear(got), clear(want[np.sum(want ** 2, axis=1) <= radius ** 2 + 1e-9])
    assert len(got) == len(want)
    if len(got):
        dist = np.abs(got[:, None, :] - want[None, :, :]).max(axis=2)
        assert np.all(dist.min(axis=1) < 1e-9)


def x_step(lat):
    """The positive generator of the x-projection of a rational lattice; the
    strip of width eta holds primitive points exactly when it is <= eta."""
    a, b = Fraction(lat.basis.a), Fraction(lat.basis.b)
    return Fraction(math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
                    a.denominator * b.denominator)


def slope_sort(points):
    """(slope, point) pairs sorted by exact Fraction slope, keeping the first
    point of each slope value."""
    out = []
    for s, v in sorted(((Fraction(v.y) / Fraction(v.x), v) for v in points),
                       key=lambda r: r[0]):
        if not out or s != out[-1][0]:
            out.append((s, v))
    return out


@SETTINGS
@given(rational_lattices(),
       st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=8),
       st.integers(1, 40))
def test_exact_strip_slopes_match_fraction_sort(lat, eta, n):
    assume(x_step(lat) <= eta)
    got = strip_points(lat, eta, n)
    # every slope <= the n-th lies below height slope * eta
    height = got[-1][0] * eta
    g = lat.basis
    mrange, krange = coefficient_box(g, 0, eta, 0, height)
    pts = [Vec2(g.a * m + g.b * k, g.c * m + g.d * k)
           for m in mrange for k in krange if math.gcd(m, k) == 1]
    want = slope_sort(v for v in pts if 0 < v.x <= eta and 0 <= v.y <= height)[:n]
    assert got == want
    # same scalar types as the basis arithmetic gives
    assert [(type(s), type(v.x), type(v.y)) for s, v in got] == \
        [(type(s), type(v.x), type(v.y)) for s, v in want]
    assert slopes_in_strip(lat, eta, n).slopes == tuple(s for s, _ in want)


@SETTINGS
@given(rational_lattices(),
       st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=8))
def test_exact_ball_horizontally_short_matches_fraction_test(lat, eta):
    # is_horizontally_short enumerates the ball of radius eta (1 + 1e-12)
    radius = float(eta) * (1.0 + 1e-12)
    got = lat.enumerate_points(Ball(radius))
    want = brute_force(lat, lambda v: v.norm_sq() <= Fraction(radius) ** 2,
                       (-radius, radius, -radius, radius))
    assert {(v.x, v.y) for v in got} == want
    short = any(y == 0 and 0 < abs(x) <= eta for x, y in want)
    assert is_horizontally_short(lat, eta) == short


class RowsSystem(PointSystem):
    """A finite exact point set given as int rows over a denominator."""

    def __init__(self, rows, d):
        self.rows, self.d = rows, d

    def exact_rows(self, region):
        eta, height = Fraction(region.eta), Fraction(region.height)
        inside = [(x, y) for x, y in self.rows
                  if 0 < Fraction(x, self.d) <= eta and 0 <= Fraction(y, self.d) <= height]
        return ExactRows([x for x, _ in inside], [y for _, y in inside], self.d)


BIG = 2 ** 60


@SETTINGS
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 40),
                          st.integers(0, 20), st.integers(1, 3)),
                min_size=2, max_size=40))
def test_float_key_ties_ordered_exactly(draws):
    # row q (BIG + j, k (BIG + j) + t): slope k + t / (BIG + j); for k >= 1
    # these collide in float, and q > 1 repeats an exact slope at another point
    rows = [(q * (BIG + j), q * (k * (BIG + j) + t)) for k, j, t, q in draws]
    slopes = [Fraction(y, x) for x, y in rows]
    assume(any(s != t and float(s) == float(t) for s in slopes for t in slopes))
    system = RowsSystem(rows, BIG)
    want = slope_sort(Vec2(Fraction(x, BIG), Fraction(y, BIG)) for x, y in rows)
    for n in (1, len(want) // 2, len(want)):
        assert strip_points(system, 4, n) == want[:n]


@st.composite
def float_bases(draw):
    """shear(s) diag(r, 1/r) U with U in SL(2, Z), in floats."""
    s, r = draw(st.floats(-4.0, 4.0)), draw(st.floats(0.3, 3.0))
    t, u = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    return shear(s) @ Mat2(r, 0.0, 0.0, 1.0 / r) @ Mat2(1, t, 0, 1) @ Mat2(1, 0, u, 1)


boxes = st.one_of(
    st.floats(0.5, 3.0).map(lambda r: (-r, r, -r, r)),
    st.tuples(st.floats(0.25, 2.0), st.floats(0.0, 6.0)).map(
        lambda eh: (0.0, eh[0], 0.0, eh[1])))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@SETTINGS
@given(st.lists(float_bases(), min_size=1, max_size=6), boxes, st.booleans(),
       st.floats(0.0, 1.0, exclude_max=True))
# a nearly horizontal column puts a row's y-bound for j near 1e300
@example([Mat2(1.0, 0.0, -1e-300, 1.0), Mat2(1.0, 0.0, 0.0, 1.0)],
         (-1.0, 1.0, -1.0, 1.0), False, 0.0)
def test_stacked_scan_matches_scan_per_basis(bases, box, shifted, u):
    shifts = [g @ Vec2(u, 1.0 - u) for g in bases] if shifted else None
    m, k, x, y, owner = coefficient_scan(bases, *box, shift=shifts, margin=1e-6)
    assert np.all(np.diff(owner) >= 0)
    for t, g in enumerate(bases):
        one = coefficient_scan(g, *box, shift=shifts[t] if shifted else None, margin=1e-6)
        for got, want in zip((m, k, x, y), one):
            assert got.dtype == want.dtype
            assert np.array_equal(got[owner == t], want)


@SETTINGS
@given(st.lists(float_bases(), min_size=1, max_size=6), rational_lattices(),
       st.floats(0.5, 3.0), st.floats(0.25, 2.0), st.floats(0.0, 6.0))
def test_enumerate_each_matches_enumerate_points(bases, exact, radius, eta, height):
    # float bases go through one stack, the exact lattice through exact_rows
    systems = [UnimodularLattice(g) for g in bases]
    for region in (Ball(radius), VerticalStrip(eta, height)):
        assert UnimodularLattice.enumerate_each(systems, region) == \
            [s.enumerate_points(region) for s in systems]
        assert UnimodularLattice.enumerate_each([exact], region) == \
            [exact.enumerate_points(region)]


TINY = Fraction(1, 10 ** 30)


@st.composite
def exact_slopes(draw):
    """Slopes drawn from a few values, each possibly nudged by 1e-30 and
    given as an int, a Fraction or a GoldenNum (q, 0) when rational."""
    rationals = st.fractions(-3, 3, max_denominator=40)
    pool = draw(st.lists(rationals | st.builds(GoldenNum, rationals, rationals),
                         min_size=1, max_size=6))
    slopes = []
    for _ in range(draw(st.integers(0, 30))):
        s = draw(st.sampled_from(pool)) + draw(st.sampled_from([0, 0, TINY, -TINY]))
        if isinstance(s, GoldenNum) and s.b == 0:
            s = s.a
        if not isinstance(s, GoldenNum) and draw(st.booleans()):
            s = GoldenNum(s)
        elif isinstance(s, Fraction) and s.denominator == 1:
            s = int(s)
        slopes.append(s)
    return slopes


def exact_collapse(rows):
    """Stable exact sort by slope, keeping the first row of each value."""
    out = []
    for row in sorted(rows, key=lambda r: r[0]):
        if not out or row[0] != out[-1][0]:
            out.append(row)
    return out


@SETTINGS
@given(exact_slopes())
@example([Fraction(1, 3), Fraction(1, 3) + TINY, Fraction(1, 3) - TINY, Fraction(1, 3)])
@example([GoldenNum(0, 1), GoldenNum(1, 0), 1, GoldenNum(0, 1) - TINY, GoldenNum(0, 1)])
@example([Fraction(10 ** 400), 1, Fraction(10 ** 400), -Fraction(10 ** 400)])  # past floats
def test_collapse_of_exact_slopes_matches_an_exact_sort(slopes):
    rows = [(s, i) for i, s in enumerate(slopes)]
    assert pointcloud._collapse(rows) == exact_collapse(rows)


@SETTINGS
@given(st.integers(10 ** 6, 10 ** 12), st.integers(-2, 2), st.booleans())
def test_collapse_orders_golden_slopes_that_floats_misorder(b, k, above):
    # the float a + b*phi of x = k + frac(b phi) errs by up to ulp(b phi),
    # far more than its distance to y, a Fraction within 1e-30 of x on
    # either side: one of the two sides puts the float keys out of order
    floor_bphi = (b + math.isqrt(5 * b * b)) // 2
    x = GoldenNum(k - floor_bphi, b)
    n = 10 ** 30 * b
    y = Fraction(10 ** 30 * (k - floor_bphi) + (n + math.isqrt(5 * n * n)) // 2 + above,
                 10 ** 30)
    assert (y > x) == above
    rows = [(x, 0), (y, 1), (Fraction(k), 2), (x, 3), (y, 4)]
    assert pointcloud._collapse(rows) == exact_collapse(rows)
