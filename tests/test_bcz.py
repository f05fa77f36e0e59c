import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from gapkit import bcz, farey
from gapkit.errors import ResourceLimitError


class TestStep:
    def test_fixed_point(self):
        p = bcz.TransversalPoint(1, 1, 1)
        q = bcz.bcz_step(p)
        assert (q.a, q.b) == (1, 1)

    def test_farey_start_step(self):
        p = bcz.TransversalPoint(Fraction(1, 4), Fraction(1), 1)
        q = bcz.bcz_step(p)
        assert (q.a, q.b) == (1, Fraction(3, 4))

    def test_float_step(self):
        q = bcz.bcz_step(bcz.TransversalPoint(0.6, 0.5, 1.0))
        assert q.a == pytest.approx(0.5)
        assert q.b == pytest.approx(0.9)

    def test_domain_rejects_outside(self):
        with pytest.raises(ValueError):
            bcz.TransversalPoint(Fraction(1, 4), Fraction(1, 4), 1)  # a+b <= eta
        with pytest.raises(ValueError):
            bcz.TransversalPoint(Fraction(3, 2), Fraction(1), 1)     # a > eta

    def test_to_float_past_the_float_range_raises(self):
        # an exact point in the domain whose coordinates no float holds
        big = 10 ** 400
        point = bcz.TransversalPoint(big, big, big)
        with pytest.raises(ValueError, match="past the float range"):
            point.to_float()

    def test_domain_closure_bulk(self):
        # one vectorized map step stays in the domain (independent of bcz_step)
        samples = bcz.sample_invariant_measure(1.0, 10 ** 6, seed=5)
        a, b = samples[:, 0], samples[:, 1]
        a2, b2 = b, np.floor((1.0 + a) / b) * b - a
        eps = 1e-9
        assert np.all((a2 > 0) & (a2 <= 1) & (b2 > -eps) & (b2 <= 1 + eps)
                      & (a2 + b2 > 1 - eps))

    def test_domain_closure_through_api(self):
        samples = bcz.sample_invariant_measure(1.0, 10 ** 4, seed=6)
        for a, b in samples:
            q = bcz.bcz_step(bcz.TransversalPoint(a, b, 1.0))
            assert 0 < q.a <= 1 and 0 < q.b <= 1 + 1e-12 and q.a + q.b > 1 - 1e-12


class TestRoof:
    def test_values(self):
        assert bcz.roof(bcz.TransversalPoint(1, 1, 1)) == 1
        assert bcz.roof(bcz.TransversalPoint(Fraction(1, 4), 1, 1)) == 4

    def test_lower_bound(self):
        samples = bcz.sample_invariant_measure(2.0, 10 ** 6, seed=1)
        roofs = bcz.roof_values(samples)
        assert np.all(roofs >= 1.0 / 4.0 - 1e-12)  # roof >= 1/eta^2


class TestOrbit:
    def test_farey_level_four(self):
        orb = bcz.orbit(bcz.farey_orbit_start(4), 50, detect_period=True)
        assert orb.period == 6
        expected = [Fraction(4), Fraction(4, 3), Fraction(8, 3), Fraction(8, 3),
                    Fraction(4, 3), Fraction(4)]
        assert list(orb.returns) == expected

    def test_fixed_point_period_one(self):
        orb = bcz.orbit(bcz.TransversalPoint(1, 1, 1), 5, detect_period=True)
        assert orb.period == 1

    def test_returns_match_farey_gaps_level_seven(self):
        orb = bcz.orbit(bcz.farey_orbit_start(7), 10 ** 4, detect_period=True)
        pairs = list(farey.farey_pairs(7))
        expected = [Fraction(49, q0 * q1)
                    for (_, q0), (_, q1) in zip(pairs, pairs[1:])]
        assert list(orb.returns) == expected
        assert orb.period == farey.farey_size(7)

    def test_period_is_farey_size_level_100(self):
        orb = bcz.orbit(bcz.farey_orbit_start(100), 10 ** 5, detect_period=True)
        assert orb.period == 3044 == farey.farey_size(100)

    def test_step_budget(self):
        with pytest.raises(ResourceLimitError):
            bcz.orbit(bcz.TransversalPoint(1, 1, 1), bcz.ORBIT_STEP_BUDGET + 1)

    def test_roof_sequence_keeps_the_step_budget(self, monkeypatch, capsys):
        # the float fast path takes the step checks of orbit; the fast route
        # of lattice-gaps walks it, so the CLI exits 3
        from gapkit import cli
        monkeypatch.setattr(bcz, "ORBIT_STEP_BUDGET", 10)
        p = bcz.TransversalPoint(0.37, 0.81)
        assert len(bcz.roof_sequence(p, 10)) == len(bcz.orbit(p, 10).returns) == 10
        for walk in (bcz.orbit, bcz.roof_sequence):
            with pytest.raises(ResourceLimitError, match="exceeds the step budget"):
                walk(p, 100)
            with pytest.raises(ValueError, match="nonnegative"):
                walk(p, -1)
        assert cli.main(["lattice-gaps", "--seed", "5", "--count", "100"]) == 3
        assert "exceeds the step budget" in capsys.readouterr().err

    def test_roof_sequence_matches_orbit(self):
        p = bcz.TransversalPoint(0.37, 0.81, 1.0)
        fast = bcz.roof_sequence(p, 200)
        slow = bcz.orbit(p, 200).returns
        assert np.array_equal(fast, slow)

    def test_float_step_past_eta_is_clamped(self):
        # 4.4/2.2 floors to 2, and 2 * 2.2 - 1.4 rounds to 3.0000000000000004
        orb = bcz.orbit(bcz.TransversalPoint(1.4, 2.2, 3.0), 1)
        assert orb.points[1].b == 3.0
        assert orb.points[1] == bcz.bcz_step(orb.points[0])

    def test_float_drift_out_of_the_domain_raises(self):
        # (eta + a)/b is 3 but rounds to 2.9999999999999996, so the step
        # lands on a + b = eta, and at eta = 1e5 eta - FLOAT_STEP_TOL == eta
        p = bcz.TransversalPoint(1e5 * 5 / 7, 1e5 * 4 / 7, 1e5)
        for walk in (bcz.bcz_step, lambda q: bcz.orbit(q, 1),
                     lambda q: bcz.roof_sequence(q, 1)):
            with pytest.raises(ValueError):
                walk(p)


class TestRescale:
    def test_example(self):
        p = bcz.TransversalPoint(1, 1, 1)
        q = bcz.rescale(p, 2)
        assert (q.a, q.b, q.eta) == (2, 2, 2)
        assert bcz.roof(q) == Fraction(1, 4)

    def test_round_trip(self):
        p = bcz.TransversalPoint(Fraction(2, 3), Fraction(1, 2), 1)
        back = bcz.rescale(bcz.rescale(p, 5), 1)
        assert (back.a, back.b, back.eta) == (p.a, p.b, 1)

    def test_commutes_with_step(self):
        # rescale(step(p)) == step(rescale(p)), exactly on rationals
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 10 ** 4:
            a = Fraction(int(rng.integers(1, 200)), 200)
            b = Fraction(int(rng.integers(1, 200)), 200)
            if a + b <= 1:
                continue
            p = bcz.TransversalPoint(a, b, 1)
            lhs = bcz.rescale(bcz.bcz_step(p), Fraction(7, 2))
            rhs = bcz.bcz_step(bcz.rescale(p, Fraction(7, 2)))
            assert (lhs.a, lhs.b) == (rhs.a, rhs.b)
            checked += 1

    @pytest.mark.parametrize("eta", [math.inf, math.nan, 0, -1.0])
    def test_width_must_be_positive_and_finite(self, eta):
        with pytest.raises(ValueError, match="positive and finite"):
            bcz.rescale(bcz.TransversalPoint(1, 1, 1), eta)

    def test_roof_scaling_law(self):
        p = bcz.TransversalPoint(Fraction(3, 5), Fraction(4, 5), 1)
        q = bcz.rescale(p, 3)
        assert bcz.roof(q) * 9 == bcz.roof(p)


class TestInvariantMeasure:
    def test_samples_in_domain(self):
        samples = bcz.sample_invariant_measure(1.5, 10 ** 5, seed=3)
        a, b = samples[:, 0], samples[:, 1]
        assert np.all((a > 0) & (a <= 1.5) & (b > 0) & (b <= 1.5) & (a + b > 1.5))

    @pytest.mark.parametrize("eta", [math.inf, math.nan, 0.0])
    def test_width_must_be_positive_and_finite(self, eta):
        # inf raised OverflowError from the sampler before the check
        with pytest.raises(ValueError, match="positive and finite"):
            bcz.sample_invariant_measure(eta, 10, seed=0)

    def test_determinism(self):
        s1 = bcz.sample_invariant_measure(1.0, 1000, seed=11)
        s2 = bcz.sample_invariant_measure(1.0, 1000, seed=11)
        assert np.array_equal(s1, s2)

    def test_pushforward_invariance(self):
        samples = bcz.sample_invariant_measure(1.0, 10 ** 6, seed=17)
        a, b = samples[:, 0], samples[:, 1]
        a2 = b  # first coordinate after one map step
        from gapkit.stats import ecdf, ks_two_sample
        assert ks_two_sample(ecdf(a), ecdf(a2)) <= 0.01

    def test_mean_roof_matches_quadrature(self):
        # oracle: E[1/(ab)] = 2 * int_0^1 -log(1-a)/a da
        oracle, _ = integrate.quad(lambda a: -math.log1p(-a) / a, 0, 1,
                                   points=[0.0, 1.0], limit=200)
        oracle *= 2.0
        assert oracle == pytest.approx(math.pi ** 2 / 3, abs=1e-9)
        samples = bcz.sample_invariant_measure(1.0, 10 ** 6, seed=23)
        mean = float(np.mean(bcz.roof_values(samples)))
        assert mean == pytest.approx(oracle, abs=0.01)
