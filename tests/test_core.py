import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gapkit.core import (Ball, GoldenNum, Mat2, PHI, Vec2, VerticalStrip,
                         diag_flow, is_exact, rotation, shear, slope)
from gapkit.errors import VerticalVectorError
from gapkit.lattice import ZSQUARED


def mat_close(m1, m2, tol=1e-12):
    return all(abs(float(a) - float(b)) <= tol
               for a, b in zip(m1.entries(), m2.entries()))


class TestSubgroups:
    def test_shear_zero_is_identity(self):
        assert shear(0).entries() == (1, 0, 0, 1)

    def test_shear_unit_example(self):
        v = shear(1) @ Vec2(1, 1)
        assert (v.x, v.y) == (1, 0)

    def test_shear_shifts_slope(self):
        v = Vec2(2.0, 3.0)
        assert slope(shear(1.0) @ v) == pytest.approx(0.5, abs=1e-12)

    def test_shear_slope_shift_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x, y, s = rng.uniform(-5, 5, 3)
            if abs(x) < 1e-3:
                continue
            v = Vec2(x, y)
            assert slope(shear(s) @ v) == pytest.approx(slope(v) - s, abs=1e-9)

    def test_diag_flow_zero_is_identity(self):
        assert mat_close(diag_flow(0.0), Mat2(1, 0, 0, 1))

    def test_diag_flow_example(self):
        v = diag_flow(2 * math.log(2)) @ Vec2(1.0, 1.0)
        assert v.x == pytest.approx(2.0, abs=1e-12)
        assert v.y == pytest.approx(0.5, abs=1e-12)

    def test_conjugation_identity(self):
        # diag_flow(t) shear(s) diag_flow(-t) = shear(s e^{-t})
        s, t = 1.0, math.log(4)
        lhs = diag_flow(t) @ shear(s) @ diag_flow(-t)
        assert mat_close(lhs, shear(0.25))

    def test_conjugation_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            s = rng.uniform(-3, 3)
            t = rng.uniform(-2, 2)
            lhs = diag_flow(t) @ shear(s) @ diag_flow(-t)
            assert mat_close(lhs, shear(s * math.exp(-t)))

    def test_rotation_zero_identity(self):
        assert mat_close(rotation(0.0), Mat2(1, 0, 0, 1))

    def test_rotation_quarter_turn(self):
        v = rotation(-math.pi / 2) @ Vec2(0.0, 1.0)
        assert v.x == pytest.approx(1.0, abs=1e-12)
        assert v.y == pytest.approx(0.0, abs=1e-12)

    def test_rotation_inverse(self):
        assert mat_close(rotation(0.37) @ rotation(-0.37), Mat2(1, 0, 0, 1))

    def test_determinants_one(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            s, t, th = rng.uniform(-4, 4, 3)
            for m in (shear(s), diag_flow(t), rotation(th)):
                assert abs(float(m.det()) - 1.0) <= 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        for fn in (shear, diag_flow, rotation):
            with pytest.raises(ValueError):
                fn(bad)


class TestSlope:
    def test_examples(self):
        assert slope(Vec2(2, 3)) == Fraction(3, 2)
        assert slope(Vec2(1, 0)) == 0
        assert slope(shear(2) @ Vec2(3, 7)) == Fraction(1, 3)

    def test_vertical_raises(self):
        with pytest.raises(VerticalVectorError):
            slope(Vec2(0, 1))

    def test_exact_stays_exact(self):
        assert isinstance(slope(Vec2(Fraction(1, 3), Fraction(2, 5))), Fraction)


# small coefficients, so equal values come up often; a Fraction with
# denominator 1 is kept as one, as arithmetic may leave it
coefficients = st.integers(-2, 2) | st.integers(-2, 2).map(Fraction) \
    | st.fractions(-2, 2, max_denominator=3)
golden_nums = st.builds(GoldenNum._raw, coefficients, coefficients)


class TestGoldenNum:
    def test_defining_relation(self):
        assert PHI * PHI == PHI + 1
        assert (PHI - 1) * PHI == 1

    def test_exact_arithmetic(self):
        x = GoldenNum(Fraction(1, 2), 3)
        y = GoldenNum(2, Fraction(-1, 4))
        assert (x + y) - y == x
        assert (x * y) / y == x
        assert x - x == 0

    def test_division_inverse(self):
        assert 1 / PHI == PHI - 1

    def test_conjugate_norm(self):
        x = GoldenNum(3, -2)
        assert x * x.conjugate() == x.norm()

    def test_order_matches_float(self):
        vals = [GoldenNum(a, b) for a in range(-3, 4) for b in range(-3, 4)]
        exact = sorted(vals)
        embedded = sorted(vals, key=float)
        assert [float(v) for v in exact] == [float(v) for v in embedded]

    def test_sign(self):
        assert GoldenNum(-1, 1).sign() == 1      # phi - 1 > 0
        assert GoldenNum(2, -1).sign() == 1      # 2 - phi > 0
        assert GoldenNum(1, -1).sign() == -1     # 1 - phi < 0
        assert GoldenNum(0, 0).sign() == 0

    def test_float_mixing_rejected(self):
        with pytest.raises(TypeError):
            PHI + 0.5
        with pytest.raises(TypeError):
            0.5 * PHI
        assert float(PHI) + 0.5 == pytest.approx(2.118033988749895)

    def test_int_and_fraction_mix_exactly(self):
        assert PHI + 1 == GoldenNum(1, 1)
        assert Fraction(1, 2) * PHI == GoldenNum(0, Fraction(1, 2))

    def test_hash_eq_consistency(self):
        assert GoldenNum(2, 0) == 2
        assert hash(GoldenNum(2, 0)) == hash(2)

    @settings.get_profile("gapkit")
    @given(golden_nums, golden_nums | coefficients)
    @example(GoldenNum(2, 0), 2)
    @example(GoldenNum._raw(Fraction(1), 1), GoldenNum(1, 1))
    @example(GoldenNum(Fraction(1, 2), 0), Fraction(1, 2))
    def test_eq_is_a_zero_difference_and_hash_follows(self, x, y):
        assert (x == y) == (y == x) == ((x - y).sign() == 0)
        if x == y:
            assert hash(x) == hash(y)

    def test_is_exact(self):
        assert is_exact(PHI) and is_exact(Fraction(1, 2)) and is_exact(3)
        assert not is_exact(0.5) and not is_exact(True)

    @settings.get_profile("gapkit")
    @given(st.integers() | st.booleans() | st.fractions() | golden_nums | st.floats()
           | st.floats(allow_nan=False).map(np.float64)
           | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64))
    def test_is_exact_keeps_its_definition(self, x):
        # the float shortcut answers as the isinstance test did
        want = isinstance(x, (int, Fraction, GoldenNum)) and not isinstance(x, bool)
        assert is_exact(x) == want


class TestRegions:
    def test_strip_membership(self):
        # the lattices decide membership: on Z^2 the closed right edge
        # x = 2 and bottom y = 0 are in, the open left edge x = 0 is out
        rows = ZSQUARED.exact_rows(VerticalStrip(2, 5))
        want = {(x, y) for x in (1, 2) for y in range(6) if math.gcd(x, y) == 1}
        assert set(zip(rows.xs, rows.ys)) == want
        x, y = ZSQUARED.to_float().float_columns(VerticalStrip(2.0, 5.0))
        assert set(zip(x.tolist(), y.tolist())) == want

    def test_strip_bounded_variant(self):
        # the top edge y = height is closed, in ints and in floats
        want = [(1, 0), (1, 1), (1, 2), (1, 3)]
        rows = ZSQUARED.exact_rows(VerticalStrip(1, 3))
        assert sorted(zip(rows.xs, rows.ys)) == want
        x, y = ZSQUARED.to_float().float_columns(VerticalStrip(1.0, 3.0))
        assert sorted(zip(x.tolist(), y.tolist())) == want

    def test_ball(self):
        ball = Ball(2.0)
        assert ball.contains(Vec2(2.0, 0.0))
        assert not ball.contains(Vec2(2.0, 0.1))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            VerticalStrip(0.0)
        with pytest.raises(ValueError):
            Ball(-1.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    def test_sizes_must_be_positive_and_finite(self, value):
        with pytest.raises(ValueError, match="positive and finite"):
            VerticalStrip(value)
        with pytest.raises(ValueError, match="positive and finite"):
            Ball(value)

    def test_strip_height_may_be_infinite(self):
        assert VerticalStrip(1.0).height == VerticalStrip(1.0, math.inf).height == math.inf


class TestMat2:
    def test_inverse_exact(self):
        m = Mat2(Fraction(2), Fraction(3), Fraction(1), Fraction(2))
        inv = m.inverse()
        assert (m @ inv).entries() == (1, 0, 0, 1)

    def test_inverse_unimodular_stays_integral(self):
        m = Mat2(2, 3, 1, 2)
        assert m.inverse().entries() == (2, -3, -1, 2)

    def test_matmul_vector(self):
        assert (Mat2(1, 2, 3, 4) @ Vec2(1, 1)).y == 7
