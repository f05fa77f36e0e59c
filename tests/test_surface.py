import hashlib
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gapkit import _waves, surface
from gapkit.core import PHI, GoldenNum, Mat2, shear, slope
from gapkit.errors import ResourceLimitError
from gapkit.surface import (TranslationSurface, golden_l, l_shape,
                            saddle_connections, sc_angle_gaps, sc_slope_gaps)


def holonomy_set(conns):
    return {(c.holonomy.x, c.holonomy.y) for c in conns}


def cone_angles(surf):
    """Total angle around each singularity: the corners that the gluings
    identify form one class, whose interior angles add up."""
    pts = [(float(v.x), float(v.y)) for v in surf.vertices]
    n = len(pts)
    root = list(range(n))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for i, j in enumerate(surf.partner):
        root[find(i)] = find((j + 1) % n)  # the tail of edge i is the head of j
    total = Counter()
    for i, (x, y) in enumerate(pts):
        ox, oy = pts[(i + 1) % n][0] - x, pts[(i + 1) % n][1] - y
        ix, iy = pts[i - 1][0] - x, pts[i - 1][1] - y
        total[find(i)] += math.atan2(ox * iy - oy * ix, ox * ix + oy * iy) % (2 * math.pi)
    return list(total.values())


class TestConstruction:
    def test_golden_matches_explicit_l_shape(self):
        assert golden_l().vertices == l_shape(PHI, PHI).vertices

    def test_golden_cone_angle(self):
        angles = cone_angles(golden_l())
        assert len(angles) == 1
        assert angles[0] == pytest.approx(6 * math.pi, abs=1e-9)

    def test_generic_l_shape_single_6pi_singularity(self):
        angles = cone_angles(l_shape(1.7, 1.9))
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

        monkeypatch.setattr(_waves.Waves, "run", no_development)
        served = saddle_connections(surf, smaller)
        assert served == fresh
        assert [(str(c.holonomy), c.path) for c in served] == \
            [(str(c.holonomy), c.path) for c in fresh]
        if surf._exact and smaller in (1.0, 3.75):
            assert any(c.length_sq == Fraction(smaller) ** 2 for c in served)

    @pytest.mark.parametrize("make, radius", [
        (golden_l, PHI + 2),
        (lambda: l_shape(Fraction(3, 2), Fraction(5, 4)), Fraction(15, 4)),
    ], ids=["golden-phi+2", "l(3/2,5/4)-15/4"])
    def test_exact_radius_develops_as_its_float(self, make, radius):
        # saddle_connections keys and develops by float(radius), whatever
        # scalar it is given
        exact = saddle_connections(make(), radius)
        approx = saddle_connections(make(), float(radius))
        assert exact == approx
        assert [(str(c.holonomy), c.path) for c in exact] == \
            [(str(c.holonomy), c.path) for c in approx]


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
        # the reprs of the gaps: every integral coefficient an int
        assert hashlib.sha256(str(gaps).encode()).hexdigest() == \
            "32d71e1460197d058ea5be03cff70684ba30f12e4076999dfa584bd84eceec8f"


def sheared_golden():
    return golden_l().act(shear(Fraction(1, 3)))


def discovery_digest(conns):
    return hashlib.sha256(
        "\n".join(f"{c.holonomy}|{c.path}" for c in conns).encode()).hexdigest()


class TestPinnedDevelopments:
    """Exact developments pinned by discovery order and state count, as the
    state-by-state search gave them before the waves took exact surfaces:
    (surface, radius, connections, states, sha256 of str(holonomy)|path in
    discovery order)."""

    CASES = [
        (golden_l, 3.0, 72, 300,
         "0290d25dea6e949ac4bcbc04399e6fcbbcc4806712a95ae3706efd776e83916e"),
        (golden_l, 3.75, 112, 466,
         "12d198b60f55d9cb8653c9007e0ea21a080812d6e65a210ded96e5ff82a232d7"),
        (golden_l, 4.5, 168, 690,
         "0145c0a9d2d10b8dc2e16bf7278b7973a4c06ae51835508bfcaa7b60d2e9c7db"),
        (golden_l, 10.0, 768, 4128,
         "4d4433c01f228840659334250c54c1e147d127ef7345f1f00897799e1c11c66d"),
        (golden_l, 20.0, 3176, 25624,
         "6330d3b55c70088ef99370a20bf8b1325c9ab1c4f4a766831b37e91c7d2180fb"),
        (golden_l, 40.0, 12824, 179138,
         "0cf09331bb07c9c92eaca19e27ea27e7c30f864767dfc4098fe8143b8d277afb"),
        (lambda: l_shape(Fraction(3, 2), Fraction(5, 3)), 10.0, 952, 4922,
         "8e2d60182affbc3a9d4b2bcf112e187ab4a2ada29b16fe837a82ef6aa7c57b82"),
        (lambda: l_shape(2, 3), 10.0, 460, 2282,
         "8414208ab91ed25d573dcbefd6d367a063884636b1c93937139595dcc06b8449"),
        (lambda: l_shape(Fraction(13, 12), Fraction(14, 11)), 4.0, 256, 1051,
         "94e4432868b63d44d6da406f8199a5f43a533558a7284e40adc7ed7c35ac60c1"),
        (lambda: l_shape(PHI + 1, PHI), 10.0, 752, 3628,
         "fa50afcd6efc2d1bb7aade4e50bdedb95ab642718351f8a529b3aa4289105e9c"),
        (lambda: l_shape(2, 2), 10.0, 576, 2880,
         "37da01200150375edeccf84d50a5ca6b8657fe4fa735c21a208b47d9816d17ba"),
        (sheared_golden, 10.0, 806, 4295,
         "cc1ed75cea495ad224d1f8625095f1c5cae2b2939572ed2cb7ddae9680bab4d3"),
        (lambda: sheared_golden().act(Mat2(PHI, 0, 0, PHI - 1)), 10.0, 794, 4496,
         "234562aeedfde81dddeff8916ce4a31c3fd8c6cc9fe658dbb80d0f826de5b7e6"),
    ]

    @pytest.mark.parametrize("make, radius, connections, states, digest", CASES,
                             ids=["golden-3", "golden-3.75", "golden-4.5", "golden-10",
                                  "golden-20", "golden-40", "l(3/2,5/3)", "l(2,3)",
                                  "l(13/12,14/11)", "l(phi+1,phi)", "l(2,2)",
                                  "golden-shear", "golden-shear-diag"])
    def test_discovery_order_and_state_count(self, monkeypatch, make, radius,
                                             connections, states, digest):
        # exactly `states` states fit the budget, and one fewer overruns it
        monkeypatch.setattr(surface, "DEFAULT_STATE_BUDGET", states)
        conns = _waves.Waves(make(), radius).run()
        assert len(conns) == connections
        assert discovery_digest(conns) == digest
        monkeypatch.setattr(surface, "DEFAULT_STATE_BUDGET", states - 1)
        with pytest.raises(ResourceLimitError, match=f"exceeded {states - 1} states"):
            _waves.Waves(make(), radius).run()


def spy_routes(monkeypatch, dtype=None, certify=True):
    """Record per wave (and the first) the int dtype that ``_waves._route``
    picks and whether ``_waves._certify`` certifies the wave, or make every
    wave take ``dtype`` and, unless ``certify``, no certificate."""
    routes, use = [], _waves._ExactOps._use
    if dtype is not None:
        monkeypatch.setattr(_waves, "_route", lambda *bounds: dtype)
    if not certify:
        monkeypatch.setattr(_waves, "_certify", lambda *bounds: None)

    def spy(ops, *bounds):
        picked = use(ops, *bounds)
        routes.append((picked, ops.err is not None))
        return picked

    monkeypatch.setattr(_waves._ExactOps, "_use", spy)
    return routes


CERTIFIED, UNCERTIFIED, PYTHON_INTS = (np.int64, True), (np.int64, False), (object, False)


class TestIntegerRoutes:
    """The exact waves run on int64 while no product can overflow it, read
    the float signs of the waves that a bound certifies and filter the
    others element by element, and give the same connections with no
    certificate on any wave and on Python ints."""

    @staticmethod
    def assert_forced_runs_match(monkeypatch, make, radius, routes):
        picked = spy_routes(monkeypatch)
        default = _waves.Waves(make(), radius).run()
        assert set(picked) == routes
        for dtype in (np.int64, object):  # no certificate anywhere, then Python ints too
            forced = spy_routes(monkeypatch, dtype, certify=False)
            run = _waves.Waves(make(), radius).run()
            assert set(forced) == {(dtype, False)}
            assert run == default
            assert [(str(c.holonomy), c.path) for c in run] == \
                [(str(c.holonomy), c.path) for c in default]

    @pytest.mark.parametrize("make, radius, routes", [
        (golden_l, 10.0, {CERTIFIED, UNCERTIFIED}),
        (lambda: l_shape(Fraction(13, 12), Fraction(14, 11)), 4.0, {CERTIFIED}),  # D = 132
        # D = 3, and |x| and |x'| far apart on each axis
        (lambda: sheared_golden().act(Mat2(PHI, 0, 0, PHI - 1)), 10.0,
         {CERTIFIED, UNCERTIFIED}),
    ], ids=["golden", "l(13/12,14/11)", "golden-shear-diag"])
    def test_python_ints_match_int64(self, monkeypatch, make, radius, routes):
        self.assert_forced_runs_match(monkeypatch, make, radius, routes)

    @pytest.mark.parametrize("radius, routes", [(3.0, {CERTIFIED}), (4.5, {CERTIFIED}),
                                                (40.0, {CERTIFIED, UNCERTIFIED})])
    def test_float_signs_match_zphi_signs(self, monkeypatch, radius, routes):
        # golden-exact's radii certify every wave; R = 40 outgrows the
        # certificate on 36 of its 45 waves, which filter each sign
        self.assert_forced_runs_match(monkeypatch, golden_l, radius, routes)

    def test_side_past_int64_runs_on_python_ints(self, monkeypatch):
        # products of the 10^100 side would overflow int64, and past int64
        # no wave is certified
        picked = spy_routes(monkeypatch)
        assert len(_waves.Waves(l_shape(10 ** 100, 2), 5.0).run()) == 58
        assert set(picked) == {PYTHON_INTS}

    def test_radius_past_floats_is_decided_exactly(self, monkeypatch):
        # R^2 overflows a float, so every ball test goes to _zin_ball; the
        # development runs to the state budget as at any radius that large
        monkeypatch.setattr(surface, "DEFAULT_STATE_BUDGET", 3000)
        partials = []
        for radius in (1e100, 1e200):
            with pytest.raises(ResourceLimitError) as info:
                saddle_connections(golden_l(), radius)
            partials.append(info.value.partial)
        assert len(partials[0]) > 0
        assert partials[1] == partials[0]


def certified_run(waves):
    """Run a development, recording per wave whether its route certified it
    (the first entry is the corner wedges, built before the first route)."""
    ops, route, marks = waves.ops, waves.ops.route, [waves.ops.err is not None]

    def spy(wave):
        routed = route(wave)
        marks.append(ops.err is not None)
        return routed

    ops.route = spy
    return waves.run(), marks


def spy_products(monkeypatch):
    """Count the Z[phi] products ``_waves._Z`` forms."""
    calls, mul = [], _waves._Z.__mul__

    def spy(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(_waves._Z, "__mul__", spy)
    return calls


class TestCertifiedWaves:
    """Waves whose bounds certify their float signs form every product of
    their predicates in floats; the others keep the Z[phi] products, and
    both give the pinned developments."""

    @pytest.mark.parametrize("radius, connections", [(3.0, 72), (3.75, 112), (4.5, 168)])
    def test_golden_exact_radii_form_no_zphi_product(self, monkeypatch, radius, connections):
        products = spy_products(monkeypatch)
        conns, marks = certified_run(_waves.Waves(golden_l(), radius))
        assert len(conns) == connections
        assert all(marks)
        assert products == []

    @pytest.mark.parametrize("case", [3, 11], ids=["golden-10", "golden-shear"])
    def test_uncertified_waves_keep_the_pinned_developments(self, monkeypatch, case):
        make, radius, connections, _, digest = TestPinnedDevelopments.CASES[case]
        products = spy_products(monkeypatch)
        conns, marks = certified_run(_waves.Waves(make(), radius))
        assert True in marks and False in marks
        assert products  # the uncertified waves multiply Z[phi] pairs
        assert len(conns) == connections
        assert discovery_digest(conns) == digest

    def test_certification_belongs_to_each_instance(self):
        golden = _waves.Waves(golden_l(), 3.0)
        long = _waves.Waves(l_shape(10 ** 100, 2), 5.0)  # Python ints: never certified
        assert golden.ops.err is not None and long.ops.err is None
        assert len(long.run()) == 58
        assert golden.ops.err is not None
        conns, marks = certified_run(golden)
        assert len(conns) == 72 and all(marks)
        assert long.ops.err is None

    @pytest.mark.parametrize("bound", [2.0 ** (53 / 4), 2.0 ** 200, np.float64(1e300), 1.7e308])
    @pytest.mark.filterwarnings("error")
    def test_bounds_past_int64_certify_nothing(self, bound):
        # the bound arithmetic exits before it squares, as _route does
        with np.errstate(all="raise"):
            for rational in (False, True):
                assert _waves._certify(bound, 1.0, 1.0, 1.0, rational) is None
                assert _waves._certify(1.0, 1.0, 1.0, bound, rational) is None
            assert _waves._certify(2.0 ** 13, 2.0 ** 13, 2.0 ** 13, 2.0 ** 13, False) is None


@pytest.mark.parametrize("make, radius", [
    (golden_l, 20.0),  # D = 1, certified and uncertified waves
    (lambda: sheared_golden().act(Mat2(PHI, 0, 0, PHI - 1)), 6.0),  # D = 3
    (lambda: l_shape(Fraction(13, 12), Fraction(14, 11)), 4.0),  # D = 132
    (lambda: l_shape(10 ** 100, 2), 5.0),  # Python ints
    # D = 3^17 on int64: D^2 > 2^53 is no exact float, so the quotients take Python ints
    (lambda: l_shape(2, 3).act(Mat2(Fraction(1, 3 ** 17), 0, 0, Fraction(1, 3 ** 17))),
     5.0 / 3 ** 17),
], ids=["golden", "golden-shear-diag", "l(13/12,14/11)", "l(10^100,2)", "l(2,3)/3^17"])
def test_sort_keys_are_the_floats_of_the_holonomies(make, radius):
    # the keys that order the connections, formed in arrays on int64 waves
    waves = _waves.Waves(make(), radius)
    conns = waves.run()
    lsq, angle = waves.keys
    assert lsq.tolist() == [float(c.length_sq) for c in conns]
    assert angle.tolist() == [surface._angle(float(c.holonomy.x), float(c.holonomy.y))
                              for c in conns]
    assert [c.angle for c in conns] == angle.tolist()  # each connection keeps its key


def golden_orbit_holonomies(radius):
    """The holonomy multiset of the golden L inside the ball, from its Veech
    group alone: breadth-first over T = [[1, phi], [0, 1]], its inverse and
    S = [[0, -1], [1, 0]] inside the ball, from the roots (1, 0), twice, and
    (1/phi, 0), once.  The search is complete because Rosen's
    lambda-reduction of a vector never increases its norm."""
    rsq = Fraction(radius) ** 2
    counts = Counter()
    for root, weight in (((GoldenNum(1), GoldenNum(0)), 2),
                         ((PHI - 1, GoldenNum(0)), 1)):
        seen, frontier = {root}, [root]
        while frontier:
            reached = []
            for x, y in frontier:
                for w in ((x + PHI * y, y), (x - PHI * y, y), (-y, x)):
                    if w not in seen and w[0] * w[0] + w[1] * w[1] <= rsq:
                        seen.add(w)
                        reached.append(w)
            frontier = reached
        counts.update(dict.fromkeys(seen, weight))
    return counts


@pytest.mark.parametrize("radius, connections", [(3.0, 72), (4.5, 168), (10.0, 768)])
def test_golden_development_matches_its_veech_group_orbits(radius, connections):
    """An exact oracle that shares nothing with the development."""
    orbits = golden_orbit_holonomies(radius)
    developed = Counter((c.holonomy.x, c.holonomy.y)
                        for c in saddle_connections(golden_l(), radius))
    assert sum(orbits.values()) == connections
    assert developed == orbits


class TestEquivariance:
    def test_float_shear(self, generic_lshape):
        g = shear(1.0)
        ginv_norm = math.hypot(*g.inverse().entries())
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
        slopes = {slope(c.holonomy) for c in conns
                  if c.holonomy.x > 0 and c.holonomy.y >= 0}
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

    @pytest.mark.parametrize("alpha, beta", [(1e120, 1.5), (1e154, 1.5), (1e200, 2.0)])
    def test_float_surface_past_the_float_range(self, alpha, beta):
        # its products overflowed, and a ray found no exit edge; at 1e120
        # only through a quarter-turned first-wave ray
        with pytest.raises(ValueError, match="too large to develop in floats"):
            saddle_connections(l_shape(alpha, beta), 5.0)

    def test_long_float_surface_still_develops(self):
        assert len(saddle_connections(l_shape(1e100, 2.0), 5.0)) == 58

    @pytest.mark.parametrize("exponent", [155, 200, 400])
    def test_exact_surface_past_the_float_range(self, exponent):
        # at 10^155 the float windows overflowed and pruned nothing, so the
        # development ran to the state budget; at 10^400 no float existed
        with pytest.raises(ValueError, match="too large for the float window bounds"):
            saddle_connections(l_shape(10 ** exponent, 2), 5.0)

    def test_long_exact_surface_still_develops(self):
        # 10^154 squares below the float range
        assert len(saddle_connections(l_shape(10 ** 154, 2), 5.0)) == 58

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
