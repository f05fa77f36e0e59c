"""Property tests: the int-numerator exact orbit against repeated bcz_step,
and the Farey orbits against the Farey sequence."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

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


def stepped(p, n, detect_period):
    """orbit() written out with bcz_step: points, returns and period."""
    points, returns, cur = [p], [], p
    for i in range(n):
        returns.append(bcz.roof(cur))
        cur = bcz.bcz_step(cur)
        if detect_period and (cur.a, cur.b) == (p.a, p.b):
            return tuple(points), tuple(returns), i + 1
        points.append(cur)
    return tuple(points), tuple(returns), None


@SETTINGS
@given(exact_domain_points(), st.integers(0, 200), st.booleans())
def test_exact_orbit_matches_bcz_step(p, n, detect_period):
    orb = bcz.orbit(p, n, detect_period=detect_period)
    assert (orb.points, orb.returns, orb.period) == stepped(p, n, detect_period)


@SETTINGS
@given(st.integers(1, 400))
def test_farey_orbit_period_and_roofs(q):
    size = farey.farey_size(q)
    orb = bcz.orbit(bcz.farey_orbit_start(q), size + 1, detect_period=True)
    assert orb.period == size
    dens = [d for _, d in farey.farey_pairs(q)]
    assert list(orb.returns) == [Fraction(q * q, d0 * d1)
                                 for d0, d1 in zip(dens, dens[1:])]
