"""Property tests: the coefficient-scan kernel against a brute-force scan of
the whole integer coefficient box, on random exact rational lattices; the
exact int-numerator strip order against a brute-force Fraction sort; a
stacked scan of many float bases against one scan per basis, the stacked
Lagrange reduction against lagrange_reduce, the axis test of a float
lattice's sheared bases against enumerating each sheared lattice, and
hitting times from the candidate stack against one sheared lattice per
candidate; strip slopes under an SL(2, Z) change of basis; the return
times of the transversal orbit against the strip slope gaps; the float
first order of exact scalar slopes against an exact sort; and the float
slope collapse against a reference sort-and-compare loop, on random lists
and float lattice strips."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gapkit import lattice, pointcloud
from gapkit.affine import AffineLattice
from gapkit.core import Ball, GoldenNum, Mat2, Vec2, VerticalStrip, rotation, shear, slope
from gapkit.errors import ExceptionalLatticeError
from gapkit.lattice import (UnimodularLattice, coefficient_scan, seeded_lattice,
                            slope_gaps_fast)
from gapkit.pointcloud import (ExactRows, axis_hits_by_definition, gaps, hitting_times,
                               is_horizontally_short, slopes_in_strip, strip_points)

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
    rows = lat.exact_rows(VerticalStrip(eta, height))
    got = {(v.x, v.y) for v in map(rows.point, rows.xs, rows.ys)}
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


class RowsSystem:
    """A finite exact point set given as int rows over a denominator, read
    by the strip loop through exact_rows alone."""

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
@given(st.lists(float_bases(), min_size=1, max_size=6), boxes)
# a nearly horizontal column puts a row's y-bound for j near 1e300
@example([Mat2(1.0, 0.0, -1e-300, 1.0), Mat2(1.0, 0.0, 0.0, 1.0)], (-1.0, 1.0, -1.0, 1.0))
def test_stacked_scan_matches_scan_per_basis(bases, box):
    stack = np.array([g.entries() for g in bases], dtype=float)
    m, k, x, y, owner = coefficient_scan(stack, *box, margin=1e-6)
    assert np.all(np.diff(owner) >= 0)
    for t, g in enumerate(bases):
        one = coefficient_scan(g, *box, margin=1e-6)
        for got, want in zip((m, k, x, y), one):
            assert got.dtype == want.dtype
            assert np.array_equal(got[owner == t], want)
    with pytest.raises(ValueError, match="no shift"):
        coefficient_scan(stack, *box, shift=(0.5, 0.5))


sheared_bases = st.builds(lambda s, g: shear(s) @ g, st.floats(-1e3, 1e3), float_bases())


@SETTINGS
@given(st.lists(float_bases() | sheared_bases, min_size=1, max_size=8))
@example([Mat2(1.0, 0.0, -1e-300, 1.0), Mat2(1.0, 0.0, 0.0, 1.0)])
# mu rounds to -0.0 beside a live row: the column (-0.0, 2.0) keeps its sign
@example([Mat2(0.5, -0.0, -0.05, 2.0), Mat2(1.0, 1.0, 0.0, 1.0)])
def test_stacked_reduction_matches_lagrange_reduce(bases):
    # one vectorised loop over the stack, bit for bit the loop of each basis
    red, u = lattice._lagrange_stack(np.array([g.entries() for g in bases], dtype=float))
    assert red.dtype == float and u.dtype == np.int64
    for t, g in enumerate(bases):
        want, want_u = lattice.lagrange_reduce(g)
        assert red[t].tolist() == list(want.entries())
        assert np.signbit(red[t]).tolist() == [math.copysign(1.0, e) < 0 for e in want.entries()]
        assert tuple(u[t].tolist()) == want_u


@SETTINGS
@given(float_bases(), st.floats(0.1, 1.4), st.floats(0.25, 3.0), st.integers(1, 40))
def test_hitting_times_match_the_definition(g, theta, eta, n):
    # the stack of sheared bases against one sheared lattice per candidate;
    # the rotation leaves no vertical vector, so every strip fills
    flat = UnimodularLattice(rotation(theta) @ g)
    slopes = slopes_in_strip(flat, eta, n).slopes
    want = [s for s in slopes
            if is_horizontally_short(flat.act(shear(s)), eta,
                                     pointcloud.AXIS_TOL * max(1.0, abs(s)))]
    scans = []

    def spy(basis, *args, **kwargs):
        scans.append(basis)
        return scan(basis, *args, **kwargs)

    scan = lattice.coefficient_scan
    with mock.patch.object(lattice, "coefficient_scan", spy):
        assert hitting_times(flat, eta, n) == want
    # the stacked rows are the bases of the sheared lattices
    stack = np.concatenate([b for b in scans if isinstance(b, np.ndarray)])
    assert stack.tolist() == [list(flat.act(shear(s)).basis.entries()) for s in slopes]


@SETTINGS
@given(st.floats(-1e3, 1e3), st.sampled_from([1e-6, 1e-3, 0.5]))
def test_a_stack_row_off_unimodular_raises(s, err):
    # a basis whose determinant is 1 + err, built past __post_init__; its
    # stack of sheared bases raises where a lattice built from that row would
    off = Mat2(1.0 + err, 0.0, 0.0, 1.0)
    lat = object.__new__(UnimodularLattice)
    object.__setattr__(lat, "basis", off)

    def raises(build):
        try:
            build()
        except ValueError as e:
            assert "is not 1 within" in str(e)
            return True
        return False

    assert raises(lambda: lat.axis_hits([s], 1.0, [1e-9])) == raises(
        lambda: UnimodularLattice(shear(s) @ off))
    assert raises(lambda: lat.axis_hits([s, 0.0], 1.0, [1e-9] * 2))  # the unsheared row is off


@st.composite
def axis_stacks(draw):
    """(lattice, eta, slopes, tols): a float basis, or one with a primitive
    column (L, e) turned onto the vertical axis or not, L at, an ulp either
    side of, or well inside the radius that is_horizontally_short searches
    for eta and e near the tolerances drawn; the slopes are 0, those that
    shear a basis column onto the axis or to about a tolerance off it, and
    a few drawn."""
    eta = draw(st.floats(0.5, 3.0))
    radius = pointcloud._axis_radius(eta)
    levels = [5e-10, 1e-9, 3e-7]
    tol = st.sampled_from(levels)
    if draw(st.booleans()):
        g = draw(float_bases())
    else:
        L = draw(st.sampled_from([radius, math.nextafter(radius, 0.0),
                                  math.nextafter(radius, 9.0), radius / 2]))
        e = draw(st.sampled_from([0.0, 1.0, -1.0])) * draw(tol)
        t = draw(st.floats(-2.0, 2.0))
        g = Mat2(L, t, e, (1.0 + e * t) / L)
        g = Mat2(0, -1, 1, 0) @ g if draw(st.booleans()) else g
    slopes = [0.0]
    for x, y in ((g.a, g.c), (g.b, g.d)):
        if x != 0 and abs(y / x) <= 1e3:
            offsets = draw(st.lists(st.sampled_from(levels + [-v for v in levels]), max_size=2))
            slopes += [(y - d) / x for d in [0.0] + offsets]
    slopes += draw(st.lists(st.floats(-4.0, 4.0), max_size=3))
    tols = draw(st.lists(tol, min_size=len(slopes), max_size=len(slopes)))
    return UnimodularLattice(g), eta, slopes, tols


@SETTINGS
@given(axis_stacks())
def test_axis_hits_match_the_definition(stack):
    # the float lattice answers from one stacked thin scan of its sheared
    # bases; the definition enumerates the ball of each sheared lattice
    lat, eta, slopes, tols = stack
    assert lat.axis_hits(slopes, eta, tols) == axis_hits_by_definition(lat, slopes, eta, tols)


@st.composite
def sl2z(draw):
    """g in SL(2, Z): a product of one to three elementary matrices with an
    off-diagonal entry in [-2, 2]."""
    g = Mat2(1, 0, 0, 1)
    for _ in range(draw(st.integers(1, 3))):
        t = draw(st.integers(-2, 2))
        g = g @ (Mat2(1, t, 0, 1) if draw(st.booleans()) else Mat2(1, 0, t, 1))
    return g


@SETTINGS
@given(st.integers(0, 10 ** 6), sl2z())
def test_change_of_basis_keeps_the_strip_slopes(seed, g):
    # B and B g span one lattice: exact slopes are equal, float ones close
    lat = seeded_lattice(seed)
    moved = UnimodularLattice(lat.basis @ g)
    assert slopes_in_strip(moved, 1, 300) == slopes_in_strip(lat, 1, 300)
    np.testing.assert_allclose(slopes_in_strip(moved.to_float(), 1, 300).floats(),
                               slopes_in_strip(lat.to_float(), 1, 300).floats(),
                               rtol=1e-9, atol=0)


@SETTINGS
@given(st.one_of(rational_lattices(), st.integers(0, 10 ** 6).map(seeded_lattice)),
       st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=16),
       st.integers(1, 12))
def test_return_times_are_the_strip_slope_gaps(lat, eta, n):
    # the central identity: the roofs along the transversal orbit are the
    # gaps of the strip slopes, exactly, at any rational strip width
    try:
        fast = slope_gaps_fast(lat, eta, n, exact=True).gaps
    except ExceptionalLatticeError:
        assume(False)
    assert fast == gaps(slopes_in_strip(lat, eta, n + 1)).gaps


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


def float_collapse_loop(rows):
    """The reference float collapse: a stable sort, then each row kept when
    its slope lies more than 1e-12 relative above the last kept slope."""
    rows = sorted(rows, key=lambda r: r[0])
    out = rows[:1]
    for row in rows[1:]:
        s, prev = row[0], out[-1][0]
        if float(s) - float(prev) > 1e-12 * max(1.0, abs(float(prev))):
            out.append(row)
    return out


@st.composite
def float_slopes(draw):
    """Float slopes around a few values, each copied exactly or moved by at
    most 1e-13 relative: no chain of close slopes is wider than 1e-12.  The
    values are at least 1e-6 relative apart, or, near the tie rule, 2e-12
    relative apart in a row above some c >= 1."""
    scale, c = draw(st.floats(1e-3, 1e3)), draw(st.floats(1.0, 1e6))
    pool = [k * scale for k in draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                                             max_size=6, unique=True))]
    pool += [c * (1 + 2e-12 * j) for j in range(draw(st.integers(1 - len(pool), 4)))]
    slopes = []
    for _ in range(draw(st.integers(0, 30))):
        s = draw(st.sampled_from(pool))
        slopes.append(s + draw(st.sampled_from([0.0, 0.0, 1.0, -1.0]))
                      * draw(st.floats(0.0, 1e-13)) * max(1.0, abs(s)))
    return slopes


@SETTINGS
@given(float_slopes())
@example([1.0, 1.0 + 1e-13, 1.0 - 1e-13, 1.0, 2.0])
@example([0.0, 1e-13, 0.0, -1e-13])
def test_collapse_of_float_slopes_matches_the_loop(slopes):
    rows = [(s, i) for i, s in enumerate(slopes)]
    assert pointcloud._collapse(rows) == float_collapse_loop(rows)


@SETTINGS
@given(st.integers(0, 10 ** 6), st.sampled_from([0.5, 1.0, 2.0]), st.floats(1.0, 40.0))
def test_collapse_of_float_lattice_strips_matches_the_loop(seed, eta, height):
    x, y = seeded_lattice(seed).to_float().float_columns(VerticalStrip(eta, height))
    rows = [(slope(v), v) for v in map(Vec2, x.tolist(), y.tolist())]
    assert pointcloud._collapse(rows) == float_collapse_loop(rows)
