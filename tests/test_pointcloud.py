import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from gapkit import lattice, pointcloud
from gapkit.core import Ball, Mat2, VerticalStrip, diag_flow, rotation, shear
from gapkit.errors import ExceptionalLatticeError
from gapkit.lattice import UnimodularLattice, ZSQUARED
from gapkit.pointcloud import (SlopeSequence, axis_hits_by_definition, gaps, hitting_times,
                               is_horizontally_short, slopes_in_strip)
from gapkit.surface import saddle_connections, sc_slope_gaps


QUARTER_TURN = Mat2(0, -1, 1, 0)


def random_group_element(gen):
    """Random determinant-1 matrix with entries in [-2, 2]."""
    while True:
        g = rotation(gen.uniform(0, 2 * math.pi)) \
            @ diag_flow(gen.uniform(-0.8, 0.8)) \
            @ rotation(gen.uniform(0, 2 * math.pi))
        if max(abs(e) for e in g.to_float().entries()) <= 2.0:
            return g


class TestSlopesInStrip:
    def test_integer_lattice_unit_strip(self):
        seq = slopes_in_strip(ZSQUARED, 1, 5)
        assert list(seq.slopes) == [0, 1, 2, 3, 4]

    def test_integer_lattice_wide_strip_is_farey(self):
        seq = slopes_in_strip(ZSQUARED, 4, 7)
        expected = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                    Fraction(2, 3), Fraction(3, 4), Fraction(1)]
        assert list(seq.slopes) == expected

    def test_zero_count(self):
        assert len(slopes_in_strip(ZSQUARED, 1, 0)) == 0

    def test_exhaustion_carries_partial(self, monkeypatch):
        # the x-projection of this vertical lattice is Z: nothing ever lands
        # in a strip of width 1/2, so the height doubling runs out
        from gapkit.errors import ExhaustionError
        lat = UnimodularLattice(Mat2(0, -1, 1, Fraction(1, 2)))
        monkeypatch.setattr(pointcloud, "DEFAULT_HEIGHT_BUDGET", 1024.0)
        with pytest.raises(ExhaustionError) as err:
            slopes_in_strip(lat, Fraction(1, 2), 5)
        assert str(err.value) == "found 0 of 5 slopes below height 1280.0"
        assert err.value.partial == pointcloud.SlopeSequence(Fraction(1, 2), ())

    def test_exhaustion_partial_holds_the_exact_slopes_found(self, monkeypatch):
        # diag(1/3, 3) Z^2 meets the strip of width 1/3 only at x = 1/3, at
        # slopes 9j: under the first cap, slope 36, that is 5 of the 9 asked
        from gapkit.errors import ExhaustionError
        lat = UnimodularLattice(Mat2(Fraction(1, 3), 0, 0, 3))
        monkeypatch.setattr(pointcloud, "DEFAULT_HEIGHT_BUDGET", 1.0)
        with pytest.raises(ExhaustionError) as err:
            slopes_in_strip(lat, Fraction(1, 3), 9)
        assert str(err.value) == "found 5 of 9 slopes below height 12.0"
        partial = err.value.partial.slopes
        assert partial == tuple(Fraction(9 * j) for j in range(5))
        assert all(type(s) is Fraction for s in partial)

    def test_unbounded_strip_enumeration_rejected(self):
        with pytest.raises(ValueError, match="unbounded strip"):
            ZSQUARED.exact_rows(VerticalStrip(1))
        with pytest.raises(ValueError, match="unbounded strip"):
            ZSQUARED.to_float().float_columns(VerticalStrip(1.0))

    def test_sequence_validates_monotone(self):
        with pytest.raises(ValueError):
            SlopeSequence(1.0, (1.0, 1.0))


class TestGaps:
    def test_arithmetic_progression(self):
        seq = SlopeSequence(1.0, (0.0, 1.0, 2.0, 3.0))
        assert list(gaps(seq).gaps) == [1.0, 1.0, 1.0]

    def test_farey_level_four_diffs(self):
        seq = slopes_in_strip(ZSQUARED, 4, 7)
        expected = [Fraction(1, 4), Fraction(1, 12), Fraction(1, 6),
                    Fraction(1, 6), Fraction(1, 12), Fraction(1, 4)]
        assert list(gaps(seq).gaps) == expected

    def test_golden_surface_gaps_positive(self, golden_surface):
        seq = sc_slope_gaps(golden_surface, 3.0).gaps
        assert len(seq) >= 3
        for g in seq:
            assert g > 0

    def test_needs_two_slopes(self):
        with pytest.raises(ValueError):
            gaps(SlopeSequence(1.0, (1.0,)))


class TestShortness:
    def test_integer_lattice_horizontal(self):
        assert is_horizontally_short(ZSQUARED, 1)

    def test_vertical_basis(self):
        lat = UnimodularLattice(Mat2(0.0, 1.0, -1.0, 0.3))
        assert is_horizontally_short(lat.act(QUARTER_TURN), 1)

    def test_horizontal_shear_has_no_short_vertical(self):
        # columns (1,0), (1/2,1): the shortest vertical vector is (0, 2),
        # which the quarter turn takes to (-2, 0)
        lat = UnimodularLattice(Mat2(1, Fraction(1, 2), 0, 1)).act(QUARTER_TURN)
        assert not is_horizontally_short(lat, 1)
        assert is_horizontally_short(lat, 2)

    @pytest.mark.parametrize("eta", [math.inf, math.nan, 0.0])
    def test_width_must_be_positive_and_finite(self, eta):
        # inf raised OverflowError on a float lattice before the check
        flat = lattice.seeded_lattice(1).to_float()
        with pytest.raises(ValueError, match="positive and finite"):
            is_horizontally_short(flat, eta)
        with pytest.raises(ValueError, match="positive and finite"):
            slopes_in_strip(flat, eta, 5)

    def test_exceptional_threshold(self):
        # a lattice with primitive vertical vector (0, h) has an empty strip,
        # and never reaches the transversal, exactly when h eta < 1
        for lat, h in ((ZSQUARED, 1), (UnimodularLattice(Mat2(Fraction(1, 5), 0, 0, 5)), 5)):
            point, _ = lattice.to_transversal(lat, Fraction(1, h))
            assert point.a == Fraction(1, h)
            with pytest.raises(ExceptionalLatticeError):
                lattice.to_transversal(lat, Fraction(1, h) - Fraction(1, 10 ** 9))


class TestHittingTimes:
    def test_integer_lattice(self):
        times = hitting_times(ZSQUARED, 1, 5)
        assert times == [0, 1, 2, 3, 4]

    def test_empty(self):
        assert hitting_times(ZSQUARED, 1, 0) == []
        # no candidate: nothing to stack
        assert hitting_times(ZSQUARED.to_float(), 1, 0) == []
        assert ZSQUARED.to_float().axis_hits([], 1.0, []) == []
        assert ZSQUARED.axis_hits([], 1, []) == []

    def test_matches_slopes_random_lattices(self, seeded_lattices):
        for lat in seeded_lattices[:5]:
            flat = lat.to_float()
            slopes = slopes_in_strip(flat, 1, 60).slopes
            times = hitting_times(flat, 1, 60)
            assert len(times) == 60
            assert np.allclose(times, slopes, atol=1e-9)

    def test_matches_per_candidate_verification(self, seeded_lattices):
        # the reference: verify each candidate on its own
        for lat in seeded_lattices:
            flat = lat.to_float()
            slopes = slopes_in_strip(flat, 1, 80).slopes
            want = [s for s in slopes
                    if is_horizontally_short(flat.act(shear(s)), 1,
                                             pointcloud.AXIS_TOL * max(1.0, abs(s)))]
            assert hitting_times(flat, 1, 80) == want

    def test_verification_is_chunked(self, monkeypatch):
        # 100 candidates stacked at once would scan 6,400 cells; chunks of
        # 7 systems stay under a budget of 2,000 that the whole stack exceeds
        scans = []

        def spy(basis, *args, **kwargs):
            scans.append(basis)
            return scan(basis, *args, **kwargs)

        scan = lattice.coefficient_scan
        monkeypatch.setattr(lattice, "coefficient_scan", spy)
        monkeypatch.setattr(lattice, "DEFAULT_CELL_BUDGET", 2000)
        monkeypatch.setattr(lattice, "AXIS_CHUNK_CELLS", 500)
        assert hitting_times(ZSQUARED.to_float(), 1, 100) == list(range(100))
        assert [len(b) for b in scans if isinstance(b, np.ndarray)] == [7] * 14 + [2]

    def test_a_float_lattice_builds_no_lattice_per_candidate(self, seeded_lattices,
                                                            monkeypatch):
        # the float route shears its own basis as one array
        flat = seeded_lattices[2].to_float()
        built = []

        def spy(self):
            built.append(self)
            post_init(self)

        post_init = UnimodularLattice.__post_init__
        monkeypatch.setattr(UnimodularLattice, "__post_init__", spy)
        assert len(hitting_times(flat, 1, 100)) == 100
        assert built == []

    @pytest.mark.parametrize("route", ["stacked", "per-system"])
    def test_drops_a_failed_candidate(self, route, seeded_lattices, monkeypatch):
        flat = seeded_lattices[4].to_float()
        slopes = slopes_in_strip(flat, 1, 30).slopes
        bad = slopes[17]
        system = (PerturbedLattice if route == "stacked" else PerSystem)(flat.basis, bad=bad)
        scans = []

        def spy(basis, *args, **kwargs):
            scans.append(basis)
            return scan(basis, *args, **kwargs)

        scan = lattice.coefficient_scan
        monkeypatch.setattr(lattice, "coefficient_scan", spy)
        assert hitting_times(system, 1, 30) == [s for s in slopes if s != bad]
        stacks = [b for b in scans if isinstance(b, np.ndarray)]
        if route == "stacked":
            assert [len(b) for b in stacks] == [30]
        else:
            assert stacks == []


@dataclass(frozen=True)
class PerturbedLattice(UnimodularLattice):
    """A float lattice whose shear by ``bad`` lands 1e-3 off that slope, so
    the strip vector of slope ``bad`` is not horizontal after it."""

    bad: float = 0.0

    def act(self, g):
        if g == shear(self.bad):
            g = shear(self.bad + 1e-3)
        return UnimodularLattice(g @ self.basis)

    def axis_hits(self, slopes, eta, tols):
        return super().axis_hits([s + 1e-3 if s == self.bad else s for s in slopes], eta, tols)


class PerSystem(PerturbedLattice):
    """A PerturbedLattice answering axis_hits by the definition, one
    sheared lattice per candidate."""

    def axis_hits(self, slopes, eta, tols):
        return axis_hits_by_definition(self, slopes, eta, tols)


class TestEquivariance:
    @pytest.mark.parametrize("region", [Ball(3.0), Ball(1.4)])
    def test_lattice_systems(self, region, seeded_lattices):
        # g.x in Ball(r) is g applied to x in Ball(r |g^-1|_F), which holds
        # every preimage; points within 1e-9 of the circle are left out,
        # since the two sides round them differently
        gen = np.random.default_rng(21)
        systems = [ZSQUARED.to_float()] + [l.to_float() for l in seeded_lattices[:3]]
        rsq = region.radius ** 2 * (1 - 1e-9)

        def inside(points):
            return {(round(float(v.x), 8), round(float(v.y), 8))
                    for v in points if float(v.norm_sq()) <= rsq}

        for sysm in systems:
            for _ in range(25):
                g = random_group_element(gen)
                wide = Ball(region.radius * g.inverse().frobenius() + 0.5)
                direct = inside(sysm.act(g).enumerate_points(region))
                pushed = inside(g @ v for v in sysm.enumerate_points(wide))
                assert direct == pushed


class TestCentralSymmetry:
    def test_lattice_ball(self, seeded_lattices):
        lat = seeded_lattices[0].to_float()
        pts = {(round(float(v.x), 9), round(float(v.y), 9))
               for v in lat.enumerate_points(Ball(4.0))}
        assert pts == {(-x, -y) for x, y in pts}

    def test_surface_holonomies(self, golden_surface):
        pts = {(c.holonomy.x, c.holonomy.y) for c in saddle_connections(golden_surface, 3.0)}
        assert pts == {(-x, -y) for x, y in pts}


class TestShearInvariance:
    def test_gap_sequences_coincide_beyond_shear(self, seeded_lattices):
        lat = seeded_lattices[1]
        n = 120
        base = slopes_in_strip(lat, 1, n).slopes
        s = base[10]  # shear by an actual slope so the tail aligns exactly
        sheared = lat.act(shear(s))
        moved = slopes_in_strip(sheared, 1, n - 10).slopes
        expected = [x - s for x in base[10:]]
        assert np.allclose([float(x) for x in moved],
                           [float(x) for x in expected], atol=1e-9)
        g1 = gaps(SlopeSequence(1, tuple(moved))).floats()
        g2 = gaps(SlopeSequence(1, tuple(base))).floats()[10:]
        assert np.allclose(g1, g2, atol=1e-9)
