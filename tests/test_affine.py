import math

import numpy as np
import pytest

from gapkit import stats
from gapkit.affine import (AffineLattice, angle_gap_distribution, empirical_p,
                           points_in_ball, renormalized_triangle_count,
                           sqrt_mod1_gaps, wedge_count)
from gapkit.core import Ball, Mat2, Vec2, rotation

from conftest import MappedRegion


def unit_affine(x, y):
    return AffineLattice(Mat2(1.0, 0.0, 0.0, 1.0), Vec2(x, y))


class TestConstruction:
    def test_shift_reduction_idempotent(self):
        a = unit_affine(2.7, -1.4)
        b = AffineLattice(a.basis, a.shift)
        assert float(a.shift.x) == pytest.approx(float(b.shift.x))
        assert float(a.shift.y) == pytest.approx(float(b.shift.y))
        assert 0 <= float(a.shift.x) < 1 and 0 <= float(a.shift.y) < 1

    def test_determinant_checked(self):
        with pytest.raises(ValueError):
            AffineLattice(Mat2(1.0, 0.0, 0.0, 1.1), Vec2(0.0, 0.0))

    def test_non_finite_shift_rejected(self):
        # an infinite shift used to reduce to nan and fail only on enumeration
        with pytest.raises(ValueError, match="shift .* is not finite"):
            unit_affine(math.inf, 0.0)


class TestPointsInBall:
    def test_half_shift_unit_ball(self):
        pts = points_in_ball(unit_affine(0.5, 0.5), 1.0)
        got = sorted((round(v.x, 9), round(v.y, 9)) for v in pts)
        assert got == [(-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)]

    def test_density_matches_area(self):
        pts = unit_affine(0.123, 0.456).ball_points(300.0)
        assert len(pts) / (math.pi * 300.0 ** 2) == pytest.approx(1.0, abs=0.01)

    def test_empty_when_radius_too_small(self):
        assert points_in_ball(unit_affine(0.5, 0.5), 0.5) == []

    def test_origin_excluded_for_trivial_shift(self):
        pts = points_in_ball(unit_affine(0.0, 0.0), 1.5)
        assert all(v.norm() > 1e-9 for v in pts)

    def test_equivariance_of_enumeration(self, generic_affine):
        g = rotation(0.7)
        region = Ball(3.0)
        direct = {(round(float(v.x), 8), round(float(v.y), 8))
                  for v in generic_affine.act(g).enumerate_points(MappedRegion(g, region))}
        pushed = {(round(float((g @ v).x), 8), round(float((g @ v).y), 8))
                  for v in generic_affine.enumerate_points(region)}
        assert direct == pushed


class TestWedges:
    def test_constructed_single_point(self):
        # one point at angle 0, radius 5; a narrow wedge around it
        lat = unit_affine(0.0, 0.5)
        count = wedge_count(lat, math.atan2(0.5, 1.0), 0.5, 1.3)
        assert count == 1

    def test_partition_covers_ball(self, generic_affine):
        radius = 20.0
        total = len(generic_affine.ball_points(radius))
        k = 64
        sigma = math.pi * radius ** 2 / k  # half-width pi/k each
        counted = sum(wedge_count(generic_affine, (2 * i + 1) * math.pi / k,
                                  sigma, radius) for i in range(k))
        assert counted == total

    def test_half_turn_wedge_is_the_ball(self):
        # from sigma/R^2 = pi on the wedge is the whole ball; at 4 the
        # two wrapped halves used to overlap and count points twice, and
        # at R = 1e-300, where R^2 underflows to 0, sigma/R^2 divided by 0
        lat = unit_affine(0.2137, 0.5813)
        for sigma, radius in ((math.pi * 25.0, 5.0), (4.0 * 25.0, 5.0), (1.0, 1e-300)):
            total = len(lat.ball_points(radius))
            assert [wedge_count(lat, t, sigma, radius) for t in (0.0, 1.0, 2.0, 3.0)] \
                == [total] * 4
            ws = empirical_p(lat, sigma, radius, 200, seed=1)
            assert ws.counts[total] == 200 and len(ws.counts) == total + 1

    def test_triangle_count_integer_lattice(self):
        # theta=0, R=1 renormalizes by the identity
        count = renormalized_triangle_count(unit_affine(0.0, 0.0), 0.0, 1.0, 1.0)
        assert count == 3  # (1,0), (1,1), (1,-1)

    def test_wedge_triangle_agreement(self, generic_affine):
        gen = stats.rng(123)
        thetas = gen.uniform(0.0, 2 * math.pi, 1000)
        radius = 100.0
        from gapkit.affine import _sorted_angles, _window_counts
        angles = _sorted_angles(generic_affine, radius)
        wedge = _window_counts(angles, thetas, 1.0 / radius ** 2)
        tri = np.array([renormalized_triangle_count(generic_affine, th, 1.0, radius)
                        for th in thetas])
        assert np.mean(np.abs(wedge - tri) <= 1) >= 0.95


    @pytest.mark.parametrize("sigma, radius", [(math.inf, 10.0), (math.nan, 10.0),
                                               (1.0, math.inf), (0.0, 10.0)])
    def test_sizes_must_be_positive_and_finite(self, sigma, radius):
        # sigma = inf used to count 0 points, or raise OverflowError
        lat = unit_affine(0.2, 0.3)
        with pytest.raises(ValueError, match="positive and finite"):
            wedge_count(lat, 0.0, sigma, radius)
        with pytest.raises(ValueError, match="positive and finite"):
            renormalized_triangle_count(lat, 0.0, sigma, radius)
        with pytest.raises(ValueError, match="positive and finite"):
            empirical_p(lat, sigma, radius, 10, seed=0)

    def test_ball_radius_must_be_positive_and_finite(self):
        with pytest.raises(ValueError, match="positive and finite"):
            unit_affine(0.2, 0.3).ball_points(math.inf)


class TestEmpiricalP:
    def test_tiny_sigma_gives_empty_wedges(self, generic_affine):
        ws = empirical_p(generic_affine, 1e-9, 50.0, 500, seed=3)
        assert ws.fractions()[0] == 1.0

    def test_fractions_sum_to_one(self, generic_affine):
        ws = empirical_p(generic_affine, 1.0, 50.0, 2000, seed=4)
        assert ws.fractions().sum() == pytest.approx(1.0)

    def test_p0_nonincreasing_in_sigma(self, generic_affine):
        # same seed couples the direction samples across sigma values
        vals = [empirical_p(generic_affine, s, 60.0, 3000, seed=8).fractions()[0]
                for s in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_stability_in_radius(self, generic_affine):
        w1 = empirical_p(generic_affine, 1.0, 100.0, 10 ** 4, seed=5)
        w2 = empirical_p(generic_affine, 1.0, 200.0, 10 ** 4, seed=5)
        f1, f2 = w1.fractions(), w2.fractions()
        width = max(len(f1), len(f2))
        f1 = np.pad(f1, (0, width - len(f1)))
        f2 = np.pad(f2, (0, width - len(f2)))
        assert np.max(np.abs(f1 - f2)) <= 0.02


class TestSqrtGaps:
    def test_first_fractional_part(self):
        vals = np.sqrt(np.arange(1, 5, dtype=float))
        assert (vals - np.floor(vals))[1] == pytest.approx(0.41421356, abs=1e-8)

    def test_mean_gap_near_one(self):
        seq = sqrt_mod1_gaps(10 ** 5).floats()
        assert float(np.mean(seq)) == pytest.approx(1.0, abs=0.01)

    def test_not_exponential(self, sqrt_gaps_million):
        ks = stats.ks_distance(stats.ecdf(sqrt_gaps_million),
                               lambda t: 1.0 - np.exp(-np.asarray(t)))
        assert ks >= 0.05

    def test_needs_two(self):
        with pytest.raises(ValueError):
            sqrt_mod1_gaps(1)


class TestAngleGaps:
    def test_mean_exactly_one(self, generic_affine):
        dist = angle_gap_distribution(generic_affine, 60.0)
        assert float(np.mean(dist.samples)) == pytest.approx(1.0, abs=1e-9)

    def test_matches_sqrt_gaps_at_moderate_radius(self, generic_affine):
        dist = angle_gap_distribution(generic_affine, 300.0)
        sg = stats.ecdf(sqrt_mod1_gaps(10 ** 5).floats())
        assert stats.ks_two_sample(dist, sg) <= 0.05

    def test_torsion_shift_differs_from_generic(self, generic_affine):
        torsion = angle_gap_distribution(unit_affine(0.0, 0.0), 300.0)
        generic = angle_gap_distribution(generic_affine, 300.0)
        assert stats.ks_two_sample(torsion, generic) >= 0.05
