"""Property tests: the shared Z[phi] sign rule against high-precision
arithmetic, the sign rule and float ball test of the exact waves against
exact arithmetic, the exact surface development against the float one and
against exact linear maps, budget partials against full developments, and
the radius cache against fresh developments."""

import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gapkit import _waves, pointcloud, surface
from gapkit.core import PHI, GoldenNum, Mat2, Vec2, shear, slope, zphi_float, zphi_sign
from gapkit.errors import ResourceLimitError, VerticalVectorError
from gapkit.surface import golden_l, l_shape, saddle_connections, sc_slope_gaps

SETTINGS = settings.get_profile("gapkit")

BIG = 2 ** 60


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def reference_sign(a, b):
    with mpmath.workdps(60):
        return int(mpmath.sign(mpmath.mpf(a) + mpmath.mpf(b) * mpmath.phi))


@SETTINGS
@given(st.integers(-BIG, BIG), st.integers(-BIG, BIG))
@example(0, 0)
@example(BIG, -BIG)
def test_zphi_sign_random_pairs(a, b):
    assert zphi_sign(a, b) == reference_sign(a, b) == GoldenNum(a, b).sign()


@SETTINGS
@given(st.integers(1, 86), st.integers(-1, 1), st.integers(-1, 1), st.booleans())
def test_zphi_sign_near_zero_fibonacci_pairs(n, da, db, negate):
    # F(n+1) - F(n) phi = (1 - phi)^n: nonzero, of size phi^-n, alternating sign
    a, b = fibonacci(n + 1) + da, -fibonacci(n) + db
    if negate:
        a, b = -a, -b
    assert zphi_sign(a, b) == reference_sign(a, b)


# (|x| + |x'|) |x'| below this proves the float sign of x in the waves
FLOAT_SIGN_BOUND = 2 ** 51 * mpmath.sqrt(5)


def wave_sign(z, proven):
    """The sign rule of an exact wave with or without the proof, on z."""
    ops = _waves._ExactOps(golden_l(), 1.0)
    ops.proven = proven
    return ops.sign(z).tolist()


def magnitudes(a, b):
    """|x| and |x'| of x = a + b phi, in 60-digit arithmetic."""
    with mpmath.workdps(60):
        x = mpmath.mpf(a) + mpmath.mpf(b) * mpmath.phi
        return abs(x), abs(x - mpmath.mpf(b) * mpmath.sqrt(5))


def wave_signs(a, b):
    """The wave signs of x = a + b phi and -x, as one (1, 2) array on int64
    and on Python ints, are the exact signs: checked element by element,
    and taken as floats where the bound of the ``_waves`` docstring proves
    them.  Returns whether it does."""
    x, xc = magnitudes(a, b)
    proven = x + xc < 2 ** 53 and (x + xc) * xc < FLOAT_SIGN_BOUND
    expected = [[reference_sign(a, b), -reference_sign(a, b)]]
    for dtype in (np.int64, object):
        z = _waves._Z(np.array([[a, -a]], dtype), np.array([[b, -b]], dtype))
        assert wave_sign(z, False) == wave_sign(z, proven) == expected
    return proven


@SETTINGS
@given(st.integers(-2 ** 25, 2 ** 25), st.integers(-2 ** 25, 2 ** 25),
       st.integers(0, 3), st.integers(-3, 3), st.booleans())
@example(0, 0, 0, 0, False)
@example(0, 2 ** 25, 0, 1, True)
@example(0, 2 ** 25, 3, 1, True)
def test_float_sign_route_random_pairs(a, b, shift, k, near_zero):
    # up to 2^25 most pairs lie inside the bound, up to 2^28 most outside
    a, b = a << shift, b << shift
    if near_zero:  # a + b phi within about k of zero
        a = k - int(mpmath.nint(mpmath.mpf(b) * mpmath.phi))
    wave_signs(a, b)


@SETTINGS
@given(st.integers(1, 86), st.integers(-1, 1), st.integers(-1, 1), st.booleans())
@example(37, 0, 0, False)  # the last one inside the bound
@example(38, 0, 0, True)  # the first one past it
@example(78, 0, 0, False)  # positive, with the float -2.0
def test_float_sign_route_near_zero_fibonacci_pairs(n, da, db, negate):
    a, b = fibonacci(n + 1) + da, -fibonacci(n) + db
    if negate:
        a, b = -a, -b
    proven = wave_signs(a, b)
    if (da, db) == (0, 0):
        assert proven == (n <= 37)


@SETTINGS
@given(st.integers(-2 ** 1030, 2 ** 1030), st.integers(-2 ** 1030, 2 ** 1030))
@example(-15 * 10 ** 307, 15 * 10 ** 307)  # b*phi overflows to inf
@example(2 ** 1030, 1)  # a overflows its conversion to float
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_wave_sign_near_and_past_the_float_range(a, b):
    # object arrays go to the scalar zphi_sign wherever floats cannot decide
    z = _waves._Z(np.array([[a, -a]], object), np.array([[b, -b]], object))
    assert wave_sign(z, False) == [[zphi_sign(a, b), -zphi_sign(a, b)]]


def test_float_sign_is_wrong_just_past_its_bound():
    # F(41) - F(40) phi = phi^-40 > 0, but a + b*phi rounds to 0 in floats
    a, b = fibonacci(41), -fibonacci(40)
    z = _waves._Z(np.array([a], np.int64), np.array([b], np.int64))
    assert zphi_float(float(a), float(b)) == 0.0
    assert wave_sign(z, False) == [reference_sign(a, b)] == [1]
    assert not wave_signs(a, b)  # past the bound that proves float signs


@SETTINGS
@given(st.lists(st.tuples(*[st.integers(-30, 30)] * 4), min_size=1, max_size=30),
       st.integers(0, 29), st.booleans())
@example([(3, 0, 4, 0), (5, 0, 0, 0), (0, 0, 5, 1)], 0, False)  # on the sphere R = 5
def test_float_ball_matches_the_exact_ball(points, on, inflate):
    # a radius through one of the points, so that its float test lands in
    # the error band; the emitted holonomies are those of the exact test
    x, y = (float(GoldenNum(a, b)) for a, b in (points[on % len(points)][:2],
                                                 points[on % len(points)][2:]))
    radius = max(math.hypot(x, y), 0.5) * (1 + 1e-12 if inflate else 1)
    ops = _waves._ExactOps(golden_l(), radius)
    a, b, c, d = (np.array(col, np.int64) for col in zip(*points))
    ball, hols = ops.emit(_waves._Z(a, b), _waves._Z(c, d))
    inside = [_waves._zin_ball(p, ops.rsq_num, ops.rsq_den) for p in points]
    assert ball.tolist() == inside
    assert hols == [_waves._zholonomy(p, 1) for p, keep in zip(points, inside) if keep]


sides = st.fractions(min_value=Fraction(1), max_value=Fraction(3),
                     max_denominator=12).filter(lambda x: x > 1)


def rounded(conns):
    return {(round(float(c.holonomy.x), 9), round(float(c.holonomy.y), 9))
            for c in conns}


def rounded_paths(conns):
    return Counter((round(float(c.holonomy.x), 9), round(float(c.holonomy.y), 9), c.path)
                   for c in conns)


@SETTINGS
@given(sides, sides, st.integers(4, 16))
def test_rational_l_shape_exact_matches_float(alpha, beta, quarter_radius):
    radius = quarter_radius / 4
    surf = l_shape(alpha, beta)
    exact = saddle_connections(surf, radius)
    approx = saddle_connections(surf.to_float(), radius)
    assert rounded(exact) == rounded(approx)
    assert len(exact) == len(approx)
    # the float waves cross the same edges as the exact waves
    assert rounded_paths(exact) == rounded_paths(approx)


@SETTINGS
@given(sides, sides, st.sampled_from(["float", "exact", "golden"]), st.integers(20, 400))
@example(Fraction(3, 2), Fraction(5, 3), "exact", 200)
@example(Fraction(3, 2), Fraction(5, 3), "golden", 200)
def test_budget_partial_is_a_prefix_of_the_development(alpha, beta, kind, budget):
    surf = {"float": lambda: l_shape(float(alpha), float(beta)),
            "exact": lambda: l_shape(alpha, beta),
            "golden": golden_l}[kind]()
    full = _waves.Waves(surf, 5.0).run()
    with mock.patch.object(surface, "DEFAULT_STATE_BUDGET", budget), \
            pytest.raises(ResourceLimitError, match=f"exceeded {budget} states") as exc:
        _waves.Waves(surf, 5.0).run()
    partial = exc.value.partial
    # the partial result ends at a wave boundary of the same discovery order,
    # on either arithmetic; the first wave (13 corner wedges) fits every
    # budget drawn and emits
    assert partial and partial == full[:len(partial)]
    assert not Counter(map(str, partial)) - Counter(map(str, full))


# two distinct radii in [1/2, 5], small first; the eighths put the cut on
# connections of rational length
radius_pairs = st.lists(st.one_of(st.integers(4, 40).map(lambda k: k / 8),
                                  st.floats(0.5, 5.0)),
                        min_size=2, max_size=2, unique=True).map(sorted)


@SETTINGS
@given(sides, sides, radius_pairs)
@example(Fraction(3, 2), Fraction(5, 4), [3.75, 5.0])  # a connection of length 15/4
@example(Fraction(3, 2), Fraction(5, 4), [1.0, 4.5])
def test_radius_cache_matches_a_fresh_development(alpha, beta, radii):
    small, large = radii
    for make in (lambda: l_shape(alpha, beta),
                 lambda: l_shape(float(alpha), float(beta))):
        fresh = saddle_connections(make(), small)
        surf = make()
        saddle_connections(surf, large)
        with mock.patch.object(_waves.Waves, "run",
                               side_effect=AssertionError("developed below a cached radius")):
            served = saddle_connections(surf, small)
        assert served == fresh
        assert [(str(c.holonomy), c.path) for c in served] == \
            [(str(c.holonomy), c.path) for c in fresh]
        keys = [(float(c.length_sq), c.angle, c.path) for c in served]
        assert keys == sorted(keys)


@SETTINGS
@given(sides, sides, st.sampled_from(["float", "exact", "golden"]))
def test_slope_gaps_match_the_first_quadrant_comprehension(alpha, beta, kind):
    surf = {"float": lambda: l_shape(float(alpha), float(beta)),
            "exact": lambda: l_shape(alpha, beta),
            "golden": lambda: l_shape(alpha + PHI, beta)}[kind]()
    hols = [c.holonomy for c in saddle_connections(surf, 4.0)]
    rows = pointcloud._collapse([(slope(v), v) for v in hols if v.x > 0 and v.y >= 0])
    assert list(sc_slope_gaps(surf, 4.0).gaps) == [b - a for (a, _), (b, _) in zip(rows, rows[1:])]


@SETTINGS
@given(st.integers(1, 90), st.integers(-1, 1), st.booleans(),
       st.sampled_from([1, Fraction(1, 3), 2 ** 1100]))
def test_holonomy_signs_are_exact(n, da, negate, scale):
    # F(n+1) - F(n) phi = (1 - phi)^n lies within its float error from about
    # n = 38; scaled past the floats, every sign is taken exactly
    a, b = (fibonacci(n + 1) + da) * scale, -fibonacci(n) * scale
    if negate:
        a, b = -a, -b
    values = [GoldenNum(a, b), a, b, -float(n), 0.0, 5e-324]
    assert pointcloud._exact_signs(values).tolist() == \
        [GoldenNum(a, b).sign(), zphi_sign(a, 0), zphi_sign(b, 0), -1, 0, 1]


GOLDEN = golden_l()
SOURCE_RADIUS = 5.0  # covers radius 2 after any map below (|g^-1| <= 2.45)


def exact_equivariance(g, r=Fraction(2)):
    """Connections of g.S inside radius r are g applied to those of S."""
    pushed = {(w.x, w.y) for w in (g @ c.holonomy
                                   for c in saddle_connections(GOLDEN, SOURCE_RADIUS))
              if w.norm_sq() <= r * r}
    direct = {(c.holonomy.x, c.holonomy.y)
              for c in saddle_connections(GOLDEN.act(g), float(r))
              if c.holonomy.norm_sq() <= r * r}
    assert pushed == direct
    return direct


@SETTINGS
@given(st.integers(-2, 2))
def test_exact_shear_equivariance(k):
    exact_equivariance(shear(k))


@SETTINGS
@given(st.fractions(min_value=Fraction(1, 2), max_value=Fraction(2),
                    max_denominator=7).filter(lambda x: x != 1))
def test_exact_diagonal_equivariance(s):
    hols = exact_equivariance(Mat2(s, 0, 0, 1 / s))
    # a common denominator D > 1: rational parts come out as Fractions
    assert any(isinstance(x, Fraction) for hol in hols for x in hol)


# -- the nearest exit of the exact waves, float first ------------------------

def exact_exits(num, den, hit):
    """The first hit edge of least num/den in each row, by GoldenNum
    division and comparison; -1 in a row with no hit."""
    out = []
    for row_num, row_den, row_hit in zip(num, den, hit):
        best, least = -1, None
        for k, (n, d, h) in enumerate(zip(row_num, row_den, row_hit)):
            q = GoldenNum(*n) / GoldenNum(*d) if h else None
            if h and (least is None or q < least):
                best, least = k, q
        out.append(best)
    return out


def exit_columns(num, den, hit, dtype):
    """An exact wave's arithmetic with every sign checked, and its columns
    (num, den, sign of den, hit) for rows of Z[phi] pairs (a, b)."""
    ops = _waves._ExactOps(golden_l(), 1.0)
    ops.proven = False
    num, den_z = (_waves._Z(*(np.array([[p[i] for p in row] for row in col], dtype)
                              for i in (0, 1))) for col in (num, den))
    sden = np.array([[zphi_sign(*d) for d in row] for row in den], np.int8)
    return ops, (num, den_z, sden, np.array(hit, bool))


def wave_exits(num, den, hit, dtype):
    """The exits an exact wave picks and those of its ordered scan alone."""
    ops, columns = exit_columns(num, den, hit, dtype)
    return ops.exits(*columns).tolist(), _waves._ordered_exits(ops, *columns).tolist()


def scaled(p, m):
    """p times the Z[phi] element m."""
    x = GoldenNum(*p) * GoldenNum(*m)
    return x.a, x.b


@st.composite
def exit_rows(draw):
    """(num, den, hit, dtype): rows of random quotients over n edges, with
    exact ties (an earlier edge's pair times one Z[phi] element, whose first
    edge must win), near ties F(k+1)/F(k) against phi, and denominators
    with float errors near or past their size; int64 keeps every product
    of the ordered scan inside int64, object rows reach past the floats."""
    dtype = draw(st.sampled_from([np.int64, object]))
    big = draw(st.sampled_from([2 ** 26] if dtype is np.int64 else [2 ** 26, 2 ** 70, 2 ** 1030]))
    top = 43 if dtype is np.int64 else 90  # F(44) < 2^30
    n, rows = draw(st.integers(2, 8)), draw(st.integers(1, 4))
    coeff, small = st.integers(-big, big), st.integers(-2, 2)
    num, den, hit = [], [], []
    for _ in range(rows):
        rn, rd, rh = [], [], []
        for k in range(n):
            kind = draw(st.sampled_from(["random", "near", "small"] + ["tie"] * (k > 0)))
            if kind == "random":
                p, d = (draw(coeff), draw(coeff)), (draw(coeff), draw(coeff))
            elif kind == "small":  # den = +-((1 - phi)^i + j): large float errors
                i, j = draw(st.integers(20, top)), draw(st.integers(0, 1))
                sign = draw(st.sampled_from([1, -1]))
                p = (draw(coeff), draw(coeff))
                d = (sign * (fibonacci(i + 1) + j), -sign * fibonacci(i))
            elif kind == "tie":
                j, m = draw(st.integers(0, k - 1)), (draw(small), draw(small))
                if m == (0, 0):
                    m = (1, 0)
                p, d = scaled(rn[j], m), scaled(rd[j], m)
            else:  # F(k+1)/F(k), or phi itself, which it approximates
                i = draw(st.integers(20, top))
                p, d = draw(st.sampled_from([((fibonacci(i + 1), 0), (fibonacci(i), 0)),
                                             ((0, 1), (1, 0))]))
            rn.append(p)
            rd.append(d)
            rh.append(d != (0, 0) and draw(st.booleans()))
        num.append(rn)
        den.append(rd)
        hit.append(rh)
    return num, den, hit, dtype


@settings(SETTINGS, max_examples=150)
@given(exit_rows())
@example(([[(fibonacci(41), 0), (0, 1)]], [[(fibonacci(40), 0), (1, 0)]],
          [[True, True]], np.int64))  # F(41)/F(40) > phi by less than the floats see
@example(([[(fibonacci(42), 0), (0, 1)]], [[(fibonacci(41), 0), (1, 0)]],
          [[True, True]], np.int64))  # F(42)/F(41) < phi: the second edge wins
@example(([[(3, 1), (6, 2), (1, 0)]], [[(2, 0), (4, 0), (9, 0)]],
          [[True, True, False]], np.int64))  # an exact tie: the first edge wins
@example(([[(2 ** 1030, 0), (1, 0)]], [[(2 ** 1031, 0), (1, 0)]],
          [[True, True]], object))  # past the floats
@example(([[(0, 15 * 10 ** 307), (1, 0)]], [[(1, 0), (1, 0)]],
          [[True, True]], object))  # b phi overflows to inf
@example(([[(1, 0), (1, 0)]], [[(fibonacci(79), -fibonacci(78)), (1, 0)]],
          [[True, True]], object))  # den = phi^-78 > 0 has the float -2.0
@example(([[(1, 0), (1, 0)]],
          [[(fibonacci(79), -fibonacci(78)), (fibonacci(72) + 1, -fibonacci(71))]],
          [[True, True]], object))  # and against a quotient near 1 with a wide interval
def test_float_first_exit_is_the_ordered_scan(rows):
    num, den, hit, dtype = rows
    with np.errstate(all="raise"):  # the waves guard every overflow they allow
        picked, scanned = wave_exits(num, den, hit, dtype)
    assert picked == scanned == exact_exits(num, den, hit)


def test_exit_rows_the_floats_cannot_order_reach_the_scan(monkeypatch):
    # F(k+1)/F(k) against phi: |F(k+1)/F(k) - phi| ~ phi^-2k, which the
    # floats see for small k and not for large k, whose rows the scan decides
    scanned, scan = [], _waves._ordered_exits

    def spy(ops, num, den, sden, hit):
        scanned.extend(den.a[:, 0].tolist())
        return scan(ops, num, den, sden, hit)

    monkeypatch.setattr(_waves, "_ordered_exits", spy)
    ks = range(2, 44)
    num = [[(fibonacci(k + 1), 0), (0, 1)] for k in ks]
    den = [[(fibonacci(k), 0), (1, 0)] for k in ks]
    ops, columns = exit_columns(num, den, [[True, True]] * len(ks), np.int64)
    # odd k: F(k+1)/F(k) < phi, so the first edge wins; even k: the second
    assert ops.exits(*columns).tolist() == [1 - k % 2 for k in ks]
    assert not {fibonacci(k) for k in range(2, 12)} & set(scanned)
    assert {fibonacci(k) for k in range(35, 44)} <= set(scanned)


def test_golden_development_never_scans(monkeypatch):
    # every exit of the golden L is decided in floats
    monkeypatch.setattr(_waves, "_ordered_exits",
                        mock.Mock(side_effect=AssertionError("an exit went to the scan")))
    assert len(_waves.Waves(golden_l(), 10.0).run()) == 768


# -- certified waves: every predicate formed in floats -----------------------

def parallel(draw, p, small):
    """p times a small nonzero element of Z[phi], p a point of pairs (a, b)."""
    m = (draw(small), draw(small))
    if m == (0, 0):
        m = (1, 0)
    return tuple(scaled(c, m) for c in p)


@st.composite
def certified_rows(draw, edges=1):
    """Rows of a certified wave: per row, ``edges`` vertex pairs (q1, q2), an
    entry edge (e1, e2) and the rays l and r of a sub-cone, each point a pair
    of Z[phi] coefficient pairs below 2^k (the bound refuses most rows from
    k = 3).  Parallel points, drawn often, make the signed values below
    exact zeros."""
    k = draw(st.integers(0, 4))
    coeff, small = st.integers(-2 ** k, 2 ** k), st.integers(-2, 2)

    def point():
        return tuple((draw(coeff), draw(coeff)) for _ in range(2))

    rows = []
    for _ in range(draw(st.integers(1, 4))):
        q = []
        for _ in range(edges):
            q1 = point()
            q.extend([q1, parallel(draw, q1, small) if draw(st.booleans()) else point()])
        e1 = point()
        e2 = parallel(draw, e1, small) if draw(st.booleans()) else point()
        l, r = point(), point()
        if draw(st.booleans()):  # the middle ray l + r parallel to q2 - q1
            (ax, bx), (ay, by) = l
            (cx, dx), (cy, dy) = parallel(draw, tuple(
                (u[0] - v[0], u[1] - v[1]) for u, v in zip(q[1], q[0])), small)
            r = ((cx - ax, dx - bx), (cy - ay, dy - by))
        rows.append([*q, e1, e2, l, r])
    return rows


def coordinate_columns(rows, dtype):
    """Per point of a row and axis, the column of ``_Z`` pairs over the rows."""
    return [_waves._Z(*(np.array([row[p][axis][i] for row in rows], dtype) for i in (0, 1)))
            for p in range(len(rows[0])) for axis in (0, 1)]


def wave_bounds(rows):
    """Upper bounds X, X', Y, Y' on the coordinates of the rows, from
    60-digit values rounded up."""
    bounds = [0.0] * 4
    for row in rows:
        for point in row:
            for axis, (a, b) in enumerate(point):
                for j, m in enumerate(magnitudes(a, b)):
                    bounds[2 * axis + j] = max(bounds[2 * axis + j], float(m) * (1 + 2 ** -40))
    return bounds


def signed_values(q1x, q1y, q2x, q2y, e1x, e1y, e2x, e2y, lx, ly, rx, ry):
    """The shapes of signed value a wave step forms, on any arithmetic: the
    cross and dot products of vertices, the hit tests of the middle ray
    l + r against the edge q1 q2, and its entry test, a product of cross
    products (the module docstring's 48 (XY)^2)."""
    mx, my = lx + rx, ly + ry
    num = q1x * q2y - q1y * q2x
    den = mx * (q2y - q1y) - my * (q2x - q1x)
    eex, eey = e2x - e1x, e2y - e1y
    return [num, den, num - den, q1x * q1x + q1y * q1y - (q1x * q2x + q1y * q2y),
            eex * (q1y - e1y) - eey * (q1x - e1x),
            num * (eex * my - eey * mx) - den * (eex * e1y - eey * e1x)]


def certified_ops(err):
    """An exact wave's arithmetic, certified with the error bound err."""
    ops = _waves._ExactOps(golden_l(), 1.0)
    ops.err = err
    return ops


def exact_value(z, i):
    """Element i of the Z[phi] column z in 60-digit arithmetic."""
    with mpmath.workdps(60):
        return mpmath.mpf(int(z.a[i])) + mpmath.mpf(int(z.b[i])) * mpmath.phi


def fib_rows(k):
    """One row whose coordinates include F(k+1) - F(k) phi = (1 - phi)^k,
    of size phi^-k with a conjugate of size phi^k."""
    tiny = (fibonacci(k + 1), -fibonacci(k))
    zero, one = (0, 0), (1, 0)
    return [[(tiny, one), (one, one), (zero, one), (tiny, zero),
             (one, zero), (zero, one)]]


@settings(SETTINGS, max_examples=120)
@given(certified_rows(), st.none())
@example(fib_rows(11), 11)  # the last Fibonacci row the bound certifies
@example(fib_rows(12), 12)  # the first it refuses
@example(fib_rows(40), 40)  # past int64's 2^(53/4) bound
def test_certified_signs_are_the_zphi_signs(rows, fib):
    err = _waves._certify(*wave_bounds(rows), False)
    if fib is not None:
        assert (err is not None) == (fib <= 11)
    if err is None:
        return
    ops = certified_ops(err)
    floats = signed_values(*map(ops.pred, coordinate_columns(rows, np.int64)))
    exact = signed_values(*coordinate_columns(rows, object))
    for f, z in zip(floats, exact):
        signs = [zphi_sign(int(p), int(q)) for p, q in zip(z.a, z.b)]
        assert ops.sign(f).tolist() == signs
        assert ops.pos(f).tolist() == [s > 0 for s in signs]
        assert ops.zero(f).tolist() == [s == 0 for s in signs]
        # E bounds the float error, and any float within E decides the sign
        for i, s in enumerate(signs):
            x = exact_value(z, i)
            assert abs(f[i] - x) <= err
            near = [float(x) + t * err * (1 - 2 ** -20) for t in (-1, 1)]
            assert ops.sign(np.array(near)).tolist() == [s, s]


@settings(SETTINGS, max_examples=60)
@given(certified_rows(edges=4), st.lists(st.booleans(), min_size=16, max_size=16))
def test_certified_exits_are_the_exact_exits(rows, hits):
    # the floats num/den of a certified wave, each within E, pick the exit
    # that GoldenNum division picks, float first or by the ordered scan
    err = _waves._certify(*wave_bounds(rows), False)
    if err is None:
        return
    ops = certified_ops(err)
    fcols = list(map(ops.pred, coordinate_columns(rows, np.int64)))
    zcols = coordinate_columns(rows, object)

    def columns(cols):
        *q, e1x, e1y, e2x, e2y, lx, ly, rx, ry = cols
        pairs = [signed_values(*q[4 * k:4 * k + 4], e1x, e1y, e2x, e2y, lx, ly, rx, ry)[:2]
                 for k in range(4)]
        return [[p[j] for p in pairs] for j in (0, 1)]

    (fnum, fden), (znum, zden) = columns(fcols), columns(zcols)
    num = [[(int(z.a[i]), int(z.b[i])) for z in znum] for i in range(len(rows))]
    den = [[(int(z.a[i]), int(z.b[i])) for z in zden] for i in range(len(rows))]
    hit = [[h and d != (0, 0) for h, d in zip(hits[4 * i:4 * i + 4], row)]
           for i, row in enumerate(den)]
    sden = np.array([[zphi_sign(*d) for d in row] for row in den], np.int8)
    fnum, fden, hit = np.stack(fnum, 1), np.stack(fden, 1), np.array(hit, bool)
    with np.errstate(all="raise"):  # the waves guard every overflow they allow
        picked = ops.exits(fnum, fden, sden, hit).tolist()
        scanned = _waves._ordered_exits(ops, fnum, fden, sden, hit).tolist()
    assert picked == scanned == exact_exits(num, den, hit)


golden_coordinates = st.one_of(
    st.integers(-2 ** 70, 2 ** 70), st.fractions(max_denominator=30),
    st.builds(GoldenNum, st.integers(-2 ** 70, 2 ** 70), st.integers(-2 ** 70, 2 ** 70)),
    st.builds(GoldenNum, st.integers(-50, 50), st.integers(-50, 50)),
    st.builds(GoldenNum, st.fractions(max_denominator=6), st.fractions(max_denominator=6)))


@SETTINGS
@given(golden_coordinates, golden_coordinates)
@example(GoldenNum(2, 0), 3)  # b = 0: still a GoldenNum quotient
@example(1, PHI)
@example(PHI, PHI + 1)
def test_golden_slope_is_the_core_slope(x, y):
    v = Vec2(x, y)
    if x == 0:
        with pytest.raises(VerticalVectorError):
            surface._slope(v)
        return
    assert surface._slope(v) == slope(v)
    assert repr(surface._slope(v)) == repr(slope(v))  # the same types, coefficients too
