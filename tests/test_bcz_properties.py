"""Property tests: the int-numerator exact orbit and the float loop against
repeated bcz_step, the Farey orbits against the Farey sequence, and the
sharing of equal exact roofs and Farey gaps."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gapkit import bcz, farey

SETTINGS = settings.get_profile("gapkit")


@st.composite
def exact_domain_points(draw):
    """Domain points 0 < a, b <= eta < a + b, as ints or Fractions, eta != 1."""
    if draw(st.booleans()):
        eta = draw(st.integers(2, 6))
        a = draw(st.integers(1, eta))
        b = draw(st.integers(eta - a + 1, eta))
        return bcz.TransversalPoint(a, b, eta)
    eta = draw(st.fractions(min_value=Fraction(1, 8), max_value=5,
                            max_denominator=12).filter(lambda e: e != 1))
    grid = draw(st.integers(1, 40))
    i = draw(st.integers(1, grid))
    j = draw(st.integers(grid - i + 1, grid))
    return bcz.TransversalPoint(eta * Fraction(i, grid), eta * Fraction(j, grid), eta)


@st.composite
def float_domain_points(draw):
    """Float domain points: grid points eta*i/k, whose float orbits can recur
    exactly (dyadic k and eta), step past eta and need the clamp (eta = 0.7,
    3) or drift out of the domain (eta = 1e5), or arbitrary floats at eta = 1."""
    if draw(st.booleans()):
        eta = draw(st.sampled_from([1.0, 0.7, 3.0, 1e5]))
        k = draw(st.integers(1, 40))
        i = draw(st.integers(1, k))
        j = draw(st.integers(k - i + 1, k))
        return bcz.TransversalPoint(eta * i / k, eta * j / k, eta)
    a = draw(st.floats(1e-3, 1.0))
    b = draw(st.floats(1.0 - a, 1.0).filter(lambda b: a + b > 1.0))
    return bcz.TransversalPoint(a, b, 1.0)


def stepped(p, n, detect_period):
    """orbit() written out with bcz_step and roof: points, returns and period.

    Non-exact points are walked as p.to_float(), and recur within
    FLOAT_STEP_TOL.
    """
    if not p.is_exact():
        p = p.to_float()
    tol = 0 if p.is_exact() else bcz.FLOAT_STEP_TOL
    points, returns, cur = [p], [], p
    for i in range(n):
        returns.append(bcz.roof(cur))
        cur = bcz.bcz_step(cur)
        if detect_period and abs(cur.a - p.a) <= tol and abs(cur.b - p.b) <= tol:
            return tuple(points), returns, i + 1
        points.append(cur)
    return tuple(points), returns, None


def check_against_oracle(p, n, detect_period):
    try:
        want = stepped(p, n, detect_period)
    except ValueError:  # the oracle left the domain: so must the orbit
        with pytest.raises(ValueError):
            bcz.orbit(p, n, detect_period=detect_period)
        return
    orb = bcz.orbit(p, n, detect_period=detect_period)
    assert (orb.points, list(orb.returns), orb.period) == want


@SETTINGS
@given(exact_domain_points(), st.integers(0, 200), st.booleans())
def test_exact_orbit_matches_bcz_step(p, n, detect_period):
    check_against_oracle(p, n, detect_period)


@SETTINGS
@given(float_domain_points(), st.integers(0, 200), st.booleans())
@example(bcz.TransversalPoint(0.25, 1.0, 1.0), 10, True)  # recurs after 6 steps
@example(bcz.TransversalPoint(1.4, 2.2, 3.0), 5, False)  # clamped on the first step
@example(bcz.TransversalPoint(1e5 * 5 / 7, 1e5 * 4 / 7, 1e5), 5, False)  # leaves the domain
def test_float_orbit_matches_bcz_step(p, n, detect_period):
    check_against_oracle(p, n, detect_period)
    if not detect_period:
        try:
            want = bcz.orbit(p, n).returns
        except ValueError:
            with pytest.raises(ValueError):
                bcz.roof_sequence(p, n)
            return
        assert np.array_equal(bcz.roof_sequence(p, n), want)


@SETTINGS
@given(st.integers(1, 400))
def test_farey_orbit_period_and_roofs(q):
    size = farey.farey_size(q)
    orb = bcz.orbit(bcz.farey_orbit_start(q), size + 1, detect_period=True)
    assert orb.period == size
    dens = [d for _, d in farey.farey_pairs(q)]
    assert list(orb.returns) == [Fraction(q * q, d0 * d1)
                                 for d0, d1 in zip(dens, dens[1:])]


def assert_shared(values):
    """Every value a Fraction in lowest terms, equal values one object;
    returns how many values repeat an earlier one."""
    first = {}
    for v in values:
        assert type(v) is Fraction and math.gcd(v.numerator, v.denominator) == 1
        assert first.setdefault(v, v) is v
    return len(values) - len(first)


def check_shared_roofs(p, n, detect_period):
    orb = bcz.orbit(p, n, detect_period=detect_period)
    assert [bcz.roof(point) for point in orb.points[:len(orb.returns)]] == \
        list(orb.returns)
    return assert_shared(orb.returns)


@SETTINGS
@given(st.integers(2, 200))
def test_farey_orbit_roofs_are_shared(q):
    # the level-q denominators read the same backwards, so every roof of
    # the period recurs and each distinct one is a single object
    size = farey.farey_size(q)
    repeats = check_shared_roofs(bcz.farey_orbit_start(q), size + 1, True)
    assert repeats >= size // 2


@SETTINGS
@given(exact_domain_points(), st.integers(0, 300), st.booleans())
def test_exact_roofs_are_shared(p, n, detect_period):
    check_shared_roofs(p, n, detect_period)


@SETTINGS
@given(st.integers(1, 300))
def test_farey_gaps_share_equal_values(q):
    gaps = farey.farey_gaps(q)
    assert gaps == gaps[::-1]
    assert assert_shared(gaps) >= len(gaps) // 2
