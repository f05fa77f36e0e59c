import numpy as np
import pytest

from gapkit import stats


class TestEmpiricalDist:
    def test_requires_sorted_nonempty(self):
        with pytest.raises(ValueError):
            stats.EmpiricalDist(np.array([]))
        with pytest.raises(ValueError):
            stats.EmpiricalDist(np.array([2.0, 1.0]))

    def test_ecdf_sorts(self):
        d = stats.ecdf([3.0, 1.0, 2.0])
        assert list(d.samples) == [1.0, 2.0, 3.0]


class TestKs:
    def test_self_distance_zero(self):
        d = stats.ecdf(np.random.default_rng(0).uniform(size=100))
        assert stats.ks_two_sample(d, d) == 0.0

    def test_uniform_sample_close_to_identity(self):
        d = stats.ecdf(stats.rng(42).uniform(size=10 ** 5))
        assert stats.ks_distance(d, lambda t: np.clip(t, 0, 1)) <= 0.01

    def test_detects_shift(self):
        d = stats.ecdf(stats.rng(1).uniform(size=2000) + 0.5)
        assert stats.ks_distance(d, lambda t: np.clip(t, 0, 1)) >= 0.4

    def test_supremum_side(self):
        # single sample at 0.5 against identity: sup is 0.5 from both sides
        d = stats.ecdf([0.5])
        assert stats.ks_distance(d, lambda t: np.clip(t, 0, 1)) == pytest.approx(0.5)

    def test_vectorized_cdf_error_propagates(self):
        # works pointwise, fails on arrays: the failure must not be hidden
        def cdf(t):
            if np.ndim(t):
                raise ValueError("broken vectorized branch")
            return min(max(t, 0.0), 1.0)

        with pytest.raises(ValueError):
            stats.ks_distance(stats.ecdf([0.25, 0.75]), cdf)

    def test_two_sample_vs_scipy(self):
        from scipy import stats as sps
        gen = stats.rng(5)
        a, b = gen.normal(size=500), gen.normal(0.3, size=700)
        ours = stats.ks_two_sample(stats.ecdf(a), stats.ecdf(b))
        theirs = sps.ks_2samp(a, b).statistic
        assert ours == pytest.approx(theirs, abs=1e-12)


def uniform_cdf(t):
    return np.clip(t, 0.0, 1.0)


class TestDiscrepancy:
    """Star discrepancy sup |ECDF(t) - t| on [0, 1], as the KS distance to
    the uniform law."""

    def test_single_midpoint(self):
        assert stats.ks_distance(stats.ecdf([0.5]), uniform_cdf) == pytest.approx(0.5)

    def test_regular_grid_small(self):
        n = 1000
        grid = (np.arange(n) + 0.5) / n
        assert stats.ks_distance(stats.ecdf(grid), uniform_cdf) == pytest.approx(0.5 / n)


class TestRng:
    def test_same_seed_same_stream(self):
        a = stats.rng(123).uniform(size=50)
        b = stats.rng(123).uniform(size=50)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert stats.rng(1).uniform() != stats.rng(2).uniform()

    def test_algorithm_identifier(self):
        assert stats.RNG_ALGORITHM == "numpy-pcg64"
