import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gapkit import bcz, farey, hall, lattice, pointcloud, stats
from gapkit.core import Ball, Mat2
from gapkit.lattice import (UnimodularLattice, ZSQUARED, _vertical_coefficients,
                            poisson_baseline, seeded_lattice, slope_gaps_fast,
                            to_transversal)
from gapkit.errors import ExhaustionError
from gapkit.pointcloud import gaps, slopes_in_strip, strip_points


class TestConstruction:
    def test_rejects_wrong_determinant(self):
        with pytest.raises(ValueError):
            UnimodularLattice(Mat2(1.0, 0.0, 0.0, 1.01))
        with pytest.raises(ValueError):
            UnimodularLattice(Mat2(2, 0, 0, 1))

    def test_seeded_lattice_is_exactly_unimodular(self):
        for seed in range(5):
            lat = seeded_lattice(seed)
            assert lat.is_exact()
            assert lat.basis.det() == 1
            m, k = _vertical_coefficients(lat)
            assert abs(m) > 1000 and k > 1000


def strip_vectors(lat, eta, n):
    """The n strip vectors of smallest nonnegative slope, in slope order."""
    return [v for _, v in strip_points(lat, eta, n)]


class TestStripVectors:
    def test_integer_lattice(self):
        vecs = strip_vectors(ZSQUARED, 1, 3)
        assert [(v.x, v.y) for v in vecs] == [(1, 0), (1, 1), (1, 2)]

    def test_skew_basis_stays_in_strip(self):
        lat = UnimodularLattice(Mat2(1.0, 0.3, 0.0, 1.0))
        for v in strip_vectors(lat, 1, 40):
            assert 0 < v.x <= 1 and v.y >= 0

    def test_only_primitive_vectors(self):
        # (2, 0) is in the eta=2 strip but is twice (1, 0)
        vecs = strip_vectors(ZSQUARED, 2, 4)
        assert (2, 0) not in {(v.x, v.y) for v in vecs}

    def test_membership_consistent_under_group_action(self):
        # strip vectors of g.L pull back to integer coefficient pairs of L
        import numpy as np
        from gapkit.core import diag_flow, rotation
        gen = np.random.default_rng(13)
        lat = seeded_lattice(6).to_float()
        for _ in range(100):
            g = rotation(gen.uniform(0, 2 * math.pi)) \
                @ diag_flow(gen.uniform(-0.5, 0.5))
            moved = lat.act(g)
            inv = moved.basis.inverse()
            for v in strip_vectors(moved, 1, 10):
                c = inv @ v
                assert abs(c.x - round(c.x)) < 1e-6
                assert abs(c.y - round(c.y)) < 1e-6


class TestTransversal:
    def test_integer_lattice(self):
        point, first = to_transversal(ZSQUARED, 1)
        assert (point.a, point.b) == (1, 1)
        assert first == 0

    def test_integer_lattice_wide(self):
        point, _ = to_transversal(ZSQUARED, 4)
        assert (point.a, point.b) == (1, 4)

    def test_round_trip_from_transversal_basis(self):
        # the lattice with columns (a, 0), (b, 1/a) has coordinates (a, b)
        a, b = Fraction(1, 4), Fraction(1)
        lat = UnimodularLattice(Mat2(a, b, 0, 4))
        point, first = to_transversal(lat, 1)
        assert (point.a, point.b) == (a, b)
        assert first == 0

    def test_vertical_lattice_raises(self):
        from gapkit.errors import ExceptionalLatticeError
        lat = UnimodularLattice(Mat2(0, -1, 1, Fraction(1, 2)))
        with pytest.raises(ExceptionalLatticeError):
            to_transversal(lat, Fraction(1, 2))

    def test_vertical_lattice_with_distant_strip_points(self):
        # the strip holds (1/10, 5), (1/10, 15), ... : vertical vector (0, 10)
        lat = UnimodularLattice(Mat2(Fraction(1, 10), 0, 5, 10))
        point, first = to_transversal(lat, Fraction(1, 10))
        assert point.a == Fraction(1, 10)
        assert first == 50

    def test_vertical_lattice_with_short_vertical_vector_raises(self):
        from gapkit.errors import ExceptionalLatticeError
        lat = UnimodularLattice(Mat2(Fraction(1, 5), 0, 0, 5))
        with pytest.raises(ExceptionalLatticeError):
            to_transversal(lat, Fraction(1, 10))

    @pytest.mark.parametrize("eta", [math.inf, math.nan, 0, -1.0])
    def test_width_must_be_positive_and_finite(self, eta):
        # inf raised OverflowError promoting eta to a Fraction
        lat = seeded_lattice(1)
        with pytest.raises(ValueError, match="positive and finite"):
            to_transversal(lat, eta)
        with pytest.raises(ValueError, match="positive and finite"):
            slope_gaps_fast(lat, eta, 10)

    @pytest.mark.parametrize("exact", [False, True])
    def test_float_basis_raises(self, exact):
        lat = seeded_lattice(1).to_float()
        with pytest.raises(ValueError, match="exact lattice basis"):
            to_transversal(lat, 1)
        with pytest.raises(ValueError, match="exact lattice basis"):
            slope_gaps_fast(lat, 1, 10, exact=exact)

    def test_orbit_roofs_equal_enumerated_gaps(self, seeded_lattices):
        lat = seeded_lattices[2]
        direct = gaps(slopes_in_strip(lat.to_float(), 1, 1001)).floats()
        fast = slope_gaps_fast(lat, 1, 1000).floats()
        assert np.allclose(fast, direct, atol=1e-9)


def _digest(items):
    return hashlib.sha256("\n".join(map(str, items)).encode()).hexdigest()


class TestPinnedExactEnumeration:
    """Exact strip output pinned by digest: values, order and scalar types
    (int vs Fraction) must never change."""

    SLOPES = {
        0: "218cb7c663ed4f78b1e23a65e67b4faf5054c5ee532012d43526d478d9a5ebaf",
        5: "89d23ca1385802b598045c495d7e337874c8e18028494ed4164476a279b859f5",
        17: "7242b92323d1cf6bb4bf41cab89d19d06cdf6c6fea9edc042ca4bff4c7777b0a",
    }
    VECTORS = {
        0: "794dcd0ff7efe2dcda643ca618feec81c0efbbec95b9cb2c469f98cff14d85a7",
        5: "d122289521416f2acc00d8718435bc583731da9bd94c86b17f8d7c9d448bee0c",
        17: "6a57e932682404c2b7674fbd3683959a41c2513fdb663c56000c132aaf2cb0f9",
    }
    TRANSVERSAL = {
        5: ("702886030052785256997513798531230744831786108683/"
            "730750818665451472305501160732110985741966770176",
            "607291909940720559194690182955291307693623101195/"
            "730750818665451472305501160732110985741966770176",
            "797858528418857706856548208909954389618662488533/"
            "702886030052785256997513798531230744831786108683"),
        17: ("301960979465776929431008740641711449805607853097/"
             "730750818665451372156049386030224418485882060800",
             "721104115266035890749715918109060256349135344763/"
             "730750818665451372156049386030224418485882060800",
             "1812244049560952751923541415736014681505445609167/"
             "603921958931553858862017481283422899611215706194"),
    }

    @pytest.mark.parametrize("seed", sorted(SLOPES))
    def test_slopes_digest(self, seed):
        slopes = slopes_in_strip(seeded_lattice(seed), 1, 2001).slopes
        assert len(slopes) == 2001
        assert all(type(s) is Fraction for s in slopes)
        assert _digest(slopes) == self.SLOPES[seed]

    @pytest.mark.parametrize("seed", sorted(VECTORS))
    def test_strip_vectors_digest(self, seed):
        vecs = strip_vectors(seeded_lattice(seed), 1, 50)
        assert all(type(v.x) is Fraction and type(v.y) is Fraction for v in vecs)
        assert _digest(f"{v.x}|{v.y}" for v in vecs) == self.VECTORS[seed]

    @pytest.mark.parametrize("seed", sorted(TRANSVERSAL))
    def test_transversal(self, seed):
        point, first = to_transversal(seeded_lattice(seed), 1)
        assert (str(point.a), str(point.b), str(first)) == self.TRANSVERSAL[seed]
        assert point.eta == 1
        assert type(point.a) is Fraction and type(point.b) is Fraction

    @pytest.mark.parametrize("lat, eta, want", [
        # (slope, x, y) as strings and as scalar types
        (ZSQUARED, 4, [("0", "1", "0"), ("1/4", "4", "1"), ("1/3", "3", "1"),
                       ("1/2", "2", "1"), ("2/3", "3", "2"), ("3/4", "4", "3")]),
        (UnimodularLattice(Mat2(Fraction(1, 10), 0, 5, 10)), Fraction(1, 10),
         [("50", "1/10", "5"), ("150", "1/10", "15"), ("250", "1/10", "25"),
          ("350", "1/10", "35"), ("450", "1/10", "45"), ("550", "1/10", "55")]),
        (UnimodularLattice(Mat2(1, Fraction(355, 113), 0, 1)), 1,
         [("0", "1", "0"), ("113/16", "16/113", "1"), ("1582/111", "111/113", "14"),
          ("1469/95", "95/113", "13"), ("1356/79", "79/113", "12"),
          ("1243/63", "63/113", "11")]),
    ])
    def test_scalar_types(self, lat, eta, want):
        # a coordinate is an int exactly when its basis row has int entries;
        # slopes are always Fractions
        rows = strip_points(lat, eta, 6)
        assert [(str(s), str(v.x), str(v.y)) for s, v in rows] == want
        int_x = all(type(e) is int for e in (lat.basis.a, lat.basis.b))
        int_y = all(type(e) is int for e in (lat.basis.c, lat.basis.d))
        for s, v in rows:
            assert type(s) is Fraction
            assert type(v.x) is (int if int_x else Fraction)
            assert type(v.y) is (int if int_y else Fraction)

    def test_exhaustion_partial(self, monkeypatch):
        # strip points (1/10, 5 + 10 k): 128 of them lie below the last height
        # completed; its scan takes 1,078 cells, the next height's 2,146
        lat = UnimodularLattice(Mat2(Fraction(1, 10), 0, 5, 10))
        monkeypatch.setattr(lattice, "DEFAULT_CELL_BUDGET", 2000)
        with pytest.raises(ExhaustionError) as err:
            slopes_in_strip(lat, Fraction(1, 10), 200)
        assert str(err.value) == (
            "found 128 of 200 slopes below height 1280.0; the cell budget stops "
            "height 2560.0: 2146 cells exceed the enumeration budget 2000")
        partial = err.value.partial
        assert partial.eta == Fraction(1, 10)
        assert partial.slopes == tuple(Fraction(50 + 100 * k) for k in range(128))
        assert all(type(s) is Fraction for s in partial.slopes)


class TestFastGaps:
    def test_integer_lattice_all_ones(self):
        seq = slope_gaps_fast(ZSQUARED, 1, 20, exact=True)
        assert all(g == 1 for g in seq.gaps)

    def test_wide_strip_matches_farey_after_rescale(self):
        seq = slope_gaps_fast(ZSQUARED, 4, 6, exact=True)
        pairs = list(farey.farey_pairs(4))
        expected = [Fraction(1, q0 * q1) for (_, q0), (_, q1) in zip(pairs, pairs[1:])]
        assert list(seq.gaps) == expected
        orb = bcz.orbit(bcz.rescale(to_transversal(ZSQUARED, 4)[0], 1), 6)
        assert [g * 16 for g in seq.gaps] == list(orb.returns)

    def test_exact_fast_path_equals_exact_enumeration(self):
        lat = seeded_lattice(3)
        fast = slope_gaps_fast(lat, 1, 400, exact=True).gaps
        slopes = slopes_in_strip(lat, 1, 401).slopes  # exact Fractions
        direct = [t - s for s, t in zip(slopes, slopes[1:])]
        assert list(fast) == direct

    def test_oracle_equivalence_twenty_lattices(self):
        # return-map route == enumeration route, exactly, 20 x 10^4 gaps
        for seed in range(20):
            lat = seeded_lattice(seed)
            fast = slope_gaps_fast(lat, 1, 10 ** 4, exact=True).gaps
            slopes = slopes_in_strip(lat, 1, 10 ** 4 + 1).slopes
            direct = [t - s for s, t in zip(slopes, slopes[1:])]
            assert list(fast) == direct

    def test_golden_shear_lattice_converges_to_hall(self):
        basis = Mat2(Fraction(1), Fraction((1 + math.sqrt(5)) / 2), Fraction(0), Fraction(1))
        lat = UnimodularLattice(basis, tag="golden shear")
        sample = slope_gaps_fast(lat, 1, 10 ** 5).floats()
        ks = stats.ks_distance(stats.ecdf(sample),
                               lambda t: hall.hall_cdf(t, "unnormalized"))
        assert ks <= 0.02

    def test_eta_independence_after_rescaling(self):
        # eta^2-rescaled gap distributions agree across strip widths
        lat = seeded_lattice(1)
        narrow = slope_gaps_fast(lat, 1, 10 ** 5).floats()
        wide = slope_gaps_fast(lat, 2, 10 ** 5).floats() * 4.0
        ks = stats.ks_two_sample(stats.ecdf(narrow), stats.ecdf(wide))
        assert ks <= 0.01


def vertical_coefficients(lat):
    """_vertical_coefficients, checked to give a primitive vertical vector."""
    m, k = _vertical_coefficients(lat)
    g = lat.basis
    assert math.gcd(m, k) == 1 and k >= 0 and g.a * m + g.b * k == 0
    assert g.c * m + g.d * k != 0
    return m, k


class TestVerticalVectors:
    def test_explicit_vertical_basis(self):
        assert vertical_coefficients(UnimodularLattice(Mat2(0, -1, 1, Fraction(1, 2)))) == (1, 0)

    def test_integer_lattice(self):
        assert vertical_coefficients(ZSQUARED) == (0, 1)

    def test_irrational_horizontal_shear(self):
        # the float sqrt(2) taken exactly: its denominator is 2^52
        lat = UnimodularLattice(Mat2(1, Fraction(math.sqrt(2)), 0, 1))
        m, k = vertical_coefficients(lat)
        assert k == 2 ** 52 and abs(m) > 1000

    def test_float_basis_raises(self):
        lat = UnimodularLattice(Mat2(1.0, math.sqrt(2), 0.0, 1.0))
        with pytest.raises(ValueError, match="exact lattice basis"):
            to_transversal(lat, 1)

    def test_exact_detection_with_bound(self):
        # minimal vertical coefficient pair is (-355, 113)
        lat = UnimodularLattice(Mat2(1, Fraction(355, 113), 0, 1))
        assert vertical_coefficients(lat) == (-355, 113)


class TestPoissonBaseline:
    def test_mean_near_one(self):
        n = 10 ** 5
        seq = poisson_baseline(n, seed=1)
        assert float(np.mean(seq.floats())) == pytest.approx(1.0, abs=3 / math.sqrt(n))

    def test_exponential_law(self):
        seq = poisson_baseline(10 ** 5, seed=2)
        ks = stats.ks_distance(stats.ecdf(seq.floats()),
                               lambda t: 1.0 - np.exp(-np.asarray(t)))
        assert ks <= 0.01

    def test_deterministic(self):
        a = poisson_baseline(1000, seed=9).floats()
        b = poisson_baseline(1000, seed=9).floats()
        assert np.array_equal(a, b)


class TestMinkowski:
    def test_centered_squares_catch_a_point(self):
        # area 4 + eps centered square always contains a nonzero point
        side = math.sqrt(4.01)
        gen = np.random.default_rng(31)
        for _ in range(1000):
            lat = seeded_lattice(int(gen.integers(0, 10 ** 6))).to_float()
            pts = lat.enumerate_points(Ball(side))  # covers the square
            hits = [v for v in pts
                    if abs(v.x) <= side / 2 and abs(v.y) <= side / 2]
            assert hits


class TestEnumerationBudget:
    def test_budget_error(self, monkeypatch):
        from gapkit.errors import ResourceLimitError
        monkeypatch.setattr(lattice, "DEFAULT_CELL_BUDGET", 10)
        with pytest.raises(ResourceLimitError):
            ZSQUARED.enumerate_points(Ball(4000.0))
        # a stack is held to the budget as a whole: each of these thin scans
        # visits 45 cells, under the budget alone, the three together over it
        monkeypatch.setattr(lattice, "DEFAULT_CELL_BUDGET", 100)
        flat = ZSQUARED.to_float()
        assert flat.axis_hits([0.0] * 2, 2.5, [1e-9] * 2) == [True] * 2
        with pytest.raises(ResourceLimitError):
            flat.axis_hits([0.0] * 3, 2.5, [1e-9] * 3)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_lattice_references(monkeypatch):
    """Every 8th lattice-oracle task of the benchmark (32 of the 256 seeds),
    in-process, against perfbench/reference.json: exact return-map gaps
    against the strip oracle, and float hitting times."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import LATTICE_SEEDS, REFERENCE, LatticeOracle
    workload = LatticeOracle(json.loads(REFERENCE.read_text()))
    gk = {"lattice": lattice, "pointcloud": pointcloud}
    items = workload.build(gk, LATTICE_SEEDS[::8])
    assert len(items) == 32
    failed = [item[0] for item in items if not workload.run(gk, item)[0]]
    assert failed == []
