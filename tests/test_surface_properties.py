"""Property tests: the shared Z[phi] sign rule against high-precision
arithmetic, the exact surface development against the float one and
against exact linear maps, budget partials against full developments, and
the radius cache against fresh developments."""

from collections import Counter
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gapkit import _waves, surface
from gapkit.core import GoldenNum, Mat2, shear, zphi_sign
from gapkit.errors import ResourceLimitError
from gapkit.surface import golden_l, l_shape, saddle_connections

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


@SETTINGS
@given(st.lists(st.tuples(st.integers(-BIG, BIG), st.integers(-BIG, BIG)),
                min_size=1, max_size=20))
def test_zphi_sign_of_arrays(pairs):
    # object arrays hold Python ints of any size; int64 ones, coefficients
    # small enough that 5 b^2 and (2a + b)^2 fit
    a, b = zip(*pairs)
    expected = [zphi_sign(x, y) for x, y in pairs]
    assert zphi_sign(np.array(a, object), np.array(b, object)).tolist() == expected
    a, b = (np.array([x >> 32 for x in col], np.int64) for col in (a, b))
    assert zphi_sign(a, b).tolist() == [zphi_sign(int(x), int(y)) for x, y in zip(a, b)]


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
