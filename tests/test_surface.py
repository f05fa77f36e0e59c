import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gapkit import surface
from gapkit.core import PHI, shear
from gapkit.errors import ResourceLimitError
from gapkit.surface import (TranslationSurface, golden_l, l_shape,
                            saddle_connections, sc_angle_gaps, sc_slope_gaps)


def holonomy_set(conns):
    return {(c.holonomy.x, c.holonomy.y) for c in conns}


class TestConstruction:
    def test_golden_matches_explicit_l_shape(self):
        assert golden_l().vertices == l_shape(PHI, PHI).vertices

    def test_golden_cone_angle(self):
        angles = golden_l().cone_angles()
        assert len(angles) == 1
        assert angles[0] == pytest.approx(6 * math.pi, abs=1e-9)

    def test_generic_l_shape_single_6pi_singularity(self):
        angles = l_shape(1.7, 1.9).cone_angles()
        assert len(angles) == 1
        assert angles[0] == pytest.approx(6 * math.pi, abs=1e-9)

    def test_degenerate_dimensions_rejected(self):
        with pytest.raises(ValueError):
            l_shape(1.0, 1.9)
        with pytest.raises(ValueError):
            l_shape(0.5, 2.0)

    def test_incomplete_pairing_rejected(self):
        with pytest.raises(ValueError):
            TranslationSurface([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 2)])

    def test_unequal_edges_rejected(self):
        with pytest.raises(ValueError):
            TranslationSurface([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)],
                               [(0, 3), (1, 2), (4, 5)])

    def test_exact_edges_must_match_exactly(self):
        eps = Fraction(1, 10 ** 12)
        verts = [(0, 0), (1, 0), (1 + eps, 1), (0, 1)]
        with pytest.raises(ValueError):
            TranslationSurface(verts, [(0, 2), (1, 3)])
        # float surfaces keep the 1e-9 tolerance
        TranslationSurface([(float(x), float(y)) for x, y in verts], [(0, 2), (1, 3)])

    def test_clockwise_polygon_rejected(self):
        with pytest.raises(ValueError):
            TranslationSurface([(0, 0), (0, 1), (1, 1), (1, 0)], [(0, 2), (1, 3)])


class TestTorusOracle:
    """The square torus's connections are exactly the primitive integer vectors."""

    @pytest.mark.parametrize("radius", [1.5, 3.0, 5.5, 10.2])
    def test_primitive_vectors(self, radius):
        torus = TranslationSurface([(0, 0), (1, 0), (1, 1), (0, 1)],
                                   [(0, 2), (1, 3)])
        got = sorted(holonomy_set(saddle_connections(torus, radius)))
        bound = int(radius) + 1
        expected = sorted(
            (x, y)
            for x in range(-bound, bound + 1) for y in range(-bound, bound + 1)
            if (x, y) != (0, 0) and math.gcd(x, y) == 1
            and x * x + y * y <= radius * radius)
        assert got == expected

    def test_each_connection_once(self):
        torus = TranslationSurface([(0, 0), (1, 0), (1, 1), (0, 1)],
                                   [(0, 2), (1, 3)])
        conns = saddle_connections(torus, 4.0)
        assert len(conns) == len(holonomy_set(conns))


class TestGoldenEnumeration:
    def test_axis_holonomies_at_short_radius(self, golden_surface):
        hols = holonomy_set(saddle_connections(golden_surface, 1.1))
        short = PHI - 1
        for v in [(1, 0), (0, 1), (short, 0), (0, short)]:
            assert v in hols
        assert all((-x, -y) in hols for x, y in hols)

    def test_diagonals_present(self, golden_surface):
        hols = holonomy_set(saddle_connections(golden_surface, 2.2))
        for v in [(1, 1), (PHI, 1), (1, PHI)]:
            assert v in hols

    def test_counting_nondecreasing_and_positive(self, golden_surface):
        counts = [len(saddle_connections(golden_surface, r))
                  for r in (0.7, 1.1, 2.0, 4.0)]
        assert counts[0] > 0  # the short sides have length phi - 1 ~ 0.618
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_cached_result_cannot_be_emptied(self):
        surf = golden_l()
        conns = saddle_connections(surf, 3.0)
        with pytest.raises(AttributeError):
            conns.clear()
        assert len(saddle_connections(surf, 3.0)) == len(conns) == 72

    def test_quadratic_growth(self, golden_surface):
        n5 = len(saddle_connections(golden_surface, 5.0))
        n10 = len(saddle_connections(golden_surface, 10.0))
        assert 3.0 <= n10 / n5 <= 5.0

    def test_exact_rerun_and_reindexing_determinism(self, golden_surface):
        base = [(str(c.holonomy.x), str(c.holonomy.y), c.path)
                for c in saddle_connections(golden_l(), 10.0)]
        again = [(str(c.holonomy.x), str(c.holonomy.y), c.path)
                 for c in saddle_connections(golden_l(), 10.0)]
        assert base == again
        # rotate the vertex labels: same surface, same holonomy set
        verts = list(golden_l().vertices)
        rotated = verts[3:] + verts[:3]
        pairings = [((i - 3) % 8, (j - 3) % 8) for i, j in golden_l().pairings]
        reindexed = TranslationSurface(rotated, pairings)
        a = holonomy_set(saddle_connections(golden_surface, 10.0))
        b = holonomy_set(saddle_connections(reindexed, 10.0))
        assert a == b


class TestRadiusCache:
    @pytest.mark.parametrize("make, cached, smaller", [
        (golden_l, 15.0, 7.5),
        (lambda: l_shape(1.3, 2.1), 12.0, 10.0),
        # radii on the cut: connections of length exactly 1 and 15/4
        (golden_l, 15.0, 1.0),
        (lambda: l_shape(Fraction(3, 2), Fraction(5, 4)), 6.0, 3.75),
        (lambda: l_shape(1.5, 1.25), 6.0, 3.75),
    ])
    def test_smaller_radius_filters_the_cached_tuple(self, monkeypatch, make,
                                                     cached, smaller):
        fresh = saddle_connections(make(), smaller)
        surf = make()
        saddle_connections(surf, cached)

        def no_development(self):
            raise AssertionError("developed again below a cached radius")

        monkeypatch.setattr(surface._Developer, "run", no_development)
        served = saddle_connections(surf, smaller)
        assert served == fresh
        assert [(str(c.holonomy), c.path) for c in served] == \
            [(str(c.holonomy), c.path) for c in fresh]
        if surf._exact and smaller in (1.0, 3.75):
            assert any(c.length_sq == Fraction(smaller) ** 2 for c in served)


class TestPinnedGoldenOutput:
    """The exact golden-L output, pinned by digest: holonomy strings, paths,
    order and the exact slope gaps must never change."""

    def test_connections_digest(self):
        lines = [f"{c.holonomy.x}|{c.holonomy.y}|{c.path}"
                 for c in saddle_connections(golden_l(), 10.0)]
        assert len(lines) == 768
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
            "1853030a73aec3077f4400f7709abb634754f68c7e8419f80028546a1e4ed276"

    def test_slope_gaps_digest(self):
        gaps = sc_slope_gaps(golden_l(), 6.0).gaps
        assert len(gaps) == 39
        assert hashlib.sha256(str(gaps).encode()).hexdigest() == \
            "e2e8d62fd09868f921489dd24840084e43a692ffdc60e758dc68ca60e97181e5"


class TestEquivariance:
    def test_float_shear(self, generic_lshape):
        g = shear(1.0)
        ginv_norm = g.inverse().frobenius()
        r = 3.0
        src = saddle_connections(generic_lshape, r * ginv_norm + 0.5)
        pushed = set()
        for c in src:
            w = g @ c.holonomy
            if float(w.norm_sq()) <= r * r * (1 - 1e-12):
                pushed.add((round(float(w.x), 7), round(float(w.y), 7)))
        moved = generic_lshape.act(g)
        direct = {(round(float(c.holonomy.x), 7), round(float(c.holonomy.y), 7))
                  for c in saddle_connections(moved, r)
                  if float(c.holonomy.norm_sq()) <= r * r * (1 - 1e-12)}
        assert pushed == direct

    def test_exact_golden_shear(self, golden_surface):
        g = shear(-PHI)  # exact parabolic; entries stay in Z[phi]
        r = Fraction(2)
        src = saddle_connections(golden_surface, 5.0)
        pushed = {(w.x, w.y) for w in (g @ c.holonomy for c in src)
                  if w.norm_sq() <= r * r}
        moved = golden_surface.act(g)
        direct = {(c.holonomy.x, c.holonomy.y)
                  for c in saddle_connections(moved, float(r))
                  if c.holonomy.norm_sq() <= r * r}
        assert pushed == direct


class TestGapPipelines:
    def test_slope_gap_count(self, golden_surface):
        conns = saddle_connections(golden_surface, 5.0)
        slopes = {c.slope for c in conns if c.holonomy.x > 0 and c.holonomy.y >= 0}
        seq = sc_slope_gaps(golden_surface, 5.0)
        assert len(seq) == len(slopes) - 1

    def test_angle_gap_count_circular(self, golden_surface):
        conns = saddle_connections(golden_surface, 5.0)
        angles = {round(c.angle, 12) for c in conns}
        dist = sc_angle_gaps(golden_surface, 5.0)
        assert dist.count == len(angles)

    def test_golden_min_gap_positive(self, golden_surface):
        seq = sc_slope_gaps(golden_surface, 8.0)
        assert min(float(g) for g in seq.gaps) > 0

    def test_angle_gaps_mean_one(self, golden_surface):
        dist = sc_angle_gaps(golden_surface, 8.0)
        assert float(np.mean(dist.samples)) == pytest.approx(1.0, abs=1e-9)


class TestBudget:
    @pytest.mark.parametrize("make", [golden_l, lambda: l_shape(1.7, 1.9)],
                             ids=["exact", "float"])
    @pytest.mark.parametrize("radius", [math.inf, math.nan, 0.0, -1.0])
    def test_radius_must_be_positive_and_finite(self, make, radius):
        with pytest.raises(ValueError):
            saddle_connections(make(), radius)

    def test_state_budget_error(self, monkeypatch):
        monkeypatch.setattr(surface, "DEFAULT_STATE_BUDGET", 50)
        with pytest.raises(ResourceLimitError):
            saddle_connections(golden_l(), 10.0)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_golden_references(monkeypatch):
    """Every golden-exact task of the benchmark, in-process, against
    perfbench/reference.json: each radius develops a fresh exact golden L."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import GOLDEN_RADII, REFERENCE, GoldenExact
    workload = GoldenExact(json.loads(REFERENCE.read_text()))
    assert len(GOLDEN_RADII) == 49
    failed = [r for r in GOLDEN_RADII if not workload.run({"surface": surface}, r)[0]]
    assert failed == []


def test_benchmark_tracer_sees_both_surface_kinds(monkeypatch):
    """The benchmark's tracer wraps saddle_connections and tells the exact
    golden L from a float L-shape through TranslationSurface.is_exact."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        surface.saddle_connections(surface.golden_l(), 3.0)
        surface.saddle_connections(surface.l_shape(1.7, 1.9), 3.0)
    finally:
        tracer.uninstall()
    assert surface.saddle_connections is saddle_connections
    variants = [span[3] for span in tracer.spans if span[2] == "surface.saddle_connections"]
    assert variants == ["golden", "lshape"]
