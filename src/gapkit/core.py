"""Scalars, 2x2 linear algebra, one-parameter subgroups of SL(2,R), and plane regions.

Scalars come in three kinds: exact rationals (int / fractions.Fraction), exact
elements of Q(sqrt 5) (GoldenNum), and floats.  Exact kinds mix freely with
each other; mixing an exact GoldenNum with a float raises TypeError so that
precision is only dropped on purpose, via an explicit float() call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import VerticalVectorError

__all__ = [
    "GoldenNum", "PHI", "Vec2", "Mat2", "VerticalStrip", "Ball",
    "shear", "diag_flow", "rotation", "slope", "is_exact", "zphi_sign",
    "zphi_float", "zphi_float_error", "common_denominator", "shared_fractions",
]


def _as_coeff(x):
    """GoldenNum()'s coefficient check: Fractions with unit denominator -> int."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"GoldenNum coefficients must be int or Fraction, got {type(x).__name__}")


def zphi_sign(a, b):
    """Exact sign of the real number a + b*phi (a, b int or Fraction): -1, 0 or +1;
    the one exact sign rule of Q(sqrt 5), for GoldenNum and the exact waves."""
    if b == 0:
        return (a > 0) - (a < 0)
    # 2(a + b phi) = s + b sqrt 5
    s = 2 * a + b
    if s >= 0 and b >= 0:
        return 1
    if s <= 0 and b <= 0:
        return -1
    # opposite signs: compare s^2 with 5 b^2
    lhs, rhs = s * s, 5 * b * b
    if s > 0:  # b < 0
        return (lhs > rhs) - (lhs < rhs)
    return (rhs > lhs) - (rhs < lhs)


def _zphi_coeffs(x):
    """The rational coefficients (a, b) of x = a + b*phi: a GoldenNum's own,
    (x, 0) for any other scalar."""
    return (x.a, x.b) if isinstance(x, GoldenNum) else (x, 0)


def zphi_float(a, b):
    """The float a + b*phi from the floats (or int arrays) a, b of the coefficients."""
    return a + b * _PHI


def zphi_float_error(a, b):
    """A bound on |zphi_float(a, b) - (a + b phi)|, for a and b the floats of
    the coefficients: conversions, phi, one product and one sum err by at
    most 5 * 2^-53 (|a| + |b| phi) plus underflow, and this is 8 * 2^-53
    (|a| + |b| phi) + 2^-1060.  A float beyond it has the exact sign."""
    return 2.0 ** -50 * (abs(a) + abs(b) * _PHI) + 2.0 ** -1060


def _quotient(p, n):
    """p/n (int or Fraction) as a GoldenNum coefficient: an int when n divides p."""
    return p // n if p % n == 0 else Fraction(p, n)


def common_denominator(values) -> tuple[list[int], int]:
    """Exact rationals as int numerators over their least common denominator.

    Returns (nums, d) with values[i] == nums[i] / d.  The one way exact
    kernels (BCZ orbits, the Z[phi] surface development, lattice
    enumeration) put their inputs on ints.
    """
    fracs = [Fraction(v) for v in values]
    d = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (d // f.denominator) for f in fracs], d


def shared_fractions(num: int, dens) -> list[Fraction]:
    """[Fraction(num, m) for m in dens], one object per distinct int m.

    Fractions are immutable, so equal values may share one object; exact
    roofs and Farey gaps repeat their denominators, and building each
    distinct value once skips the repeats' gcds.
    """
    dens = list(dens)
    made = {m: Fraction(num, m) for m in set(dens)}
    return list(map(made.__getitem__, dens))


class GoldenNum:
    """Exact element a + b*phi of Q(sqrt 5), phi = (1 + sqrt 5)/2, phi^2 = phi + 1.

    Coefficients are ints whenever possible: the constructor and every
    result of +, -, * and / turn a Fraction of denominator 1 into an int, so
    equal values print and repr alike.  All arithmetic and comparisons are
    exact; float(x) is the only lossy operation.  The kernels build values
    with _raw; the checked constructor, immutability, truth, abs, >= and
    repr serve PHI, tests and callers, so the type stays whole where no
    pipeline calls a method.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        object.__setattr__(self, "a", _as_coeff(a))
        object.__setattr__(self, "b", _as_coeff(b))

    def __setattr__(self, name, value):
        raise AttributeError("GoldenNum is immutable")

    @classmethod
    def _raw(cls, a, b):
        # arithmetic-internal constructor: coefficients are already sane,
        # skip validation (ring operations on normalized inputs stay sane)
        self = object.__new__(cls)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        return self

    @classmethod
    def _normal(cls, a, b):
        """_raw of a ring operation's int or Fraction coefficients, those of
        denominator 1 made ints."""
        if type(a) is not int and a.denominator == 1:
            a = a.numerator
        if type(b) is not int and b.denominator == 1:
            b = b.numerator
        return cls._raw(a, b)

    # -- ring structure -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GoldenNum):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return GoldenNum._raw(other, 0)
        if isinstance(other, float):
            raise TypeError(
                "cannot mix GoldenNum with float implicitly; call float() first")
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GoldenNum._normal(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GoldenNum._normal(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GoldenNum._normal(o.a - self.a, o.b - self.b)

    def __neg__(self):
        return GoldenNum._raw(-self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a1 + b1 phi)(a2 + b2 phi), phi^2 = phi + 1
        return GoldenNum._normal(self.a * o.a + self.b * o.b,
                                 self.a * o.b + self.b * o.a + self.b * o.b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """core.slope's y / x: for x = a + b phi, y x'/N(x) with x' = (a + b)
        - b phi its conjugate and N(x) = x x' = a^2 + ab - b^2 its norm."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = o.a, o.b, self.a, self.b
        n = a * a + a * b - b * b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 5)")
        return GoldenNum._raw(_quotient(c * (a + b) - d * b, n), _quotient(d * a - c * b, n))

    def __rtruediv__(self, other):
        """core.slope's y / x for an int or Fraction y over a GoldenNum x."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- order structure -------------------------------------------------

    def sign(self):
        """Exact sign of a + b*phi as a real number: -1, 0, or +1."""
        return zphi_sign(self.a, self.b)

    def _cmp(self, other):
        o = self._coerce(other)
        if o is None:
            return None
        return (self - o).sign()

    def __eq__(self, other):  # 1 and phi are independent over Q: compare coefficients
        if isinstance(other, GoldenNum):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __lt__(self, other):
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c < 0

    def __le__(self, other):
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c >= 0

    def __hash__(self):  # hash(Fraction(n, 1)) == hash(n): equal values hash equal
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __float__(self):
        return zphi_float(float(self.a), float(self.b))

    def __repr__(self):
        return f"GoldenNum({self.a!r}, {self.b!r})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*phi"
        return f"{self.a}{'+' if self.b > 0 else ''}{self.b}*phi"


PHI = GoldenNum(0, 1)
_PHI = (1.0 + math.sqrt(5.0)) / 2.0  # the float of PHI, shared by every module


def is_exact(x) -> bool:
    """True for scalars carrying exact arithmetic (int, Fraction, GoldenNum).

    A float is answered first: the isinstance test against Fraction goes
    through its ABC machinery, which costs more than the rest of the call."""
    if type(x) is float:
        return False
    return isinstance(x, (int, Fraction, GoldenNum)) and not isinstance(x, bool)


def _div(y, x):
    """Exact division where possible (int/int -> Fraction)."""
    if isinstance(y, int) and isinstance(x, int):
        return Fraction(y, x)
    return y / x


# ---------------------------------------------------------------------------
# vectors and matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Vec2:
    """Planar column vector; components may be exact scalars or floats."""

    x: object
    y: object

    def norm_sq(self):
        return self.x * self.x + self.y * self.y

    def to_float(self) -> "Vec2":
        """The float vector; tests build float twins of exact surfaces with it."""
        return Vec2(float(self.x), float(self.y))

    def __iter__(self):
        yield self.x
        yield self.y


@dataclass(frozen=True, slots=True)
class Mat2:
    """Row-major 2x2 matrix [[a, b], [c, d]] over any scalar kind."""

    a: object
    b: object
    c: object
    d: object

    def det(self):
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other):
        if isinstance(other, Mat2):
            return Mat2(self.a * other.a + self.b * other.c,
                        self.a * other.b + self.b * other.d,
                        self.c * other.a + self.d * other.c,
                        self.c * other.b + self.d * other.d)
        if isinstance(other, Vec2):
            return Vec2(self.a * other.x + self.b * other.y,
                        self.c * other.x + self.d * other.y)
        return NotImplemented

    def inverse(self) -> "Mat2":
        det = self.det()
        if det == 1:
            return Mat2(self.d, -self.b, -self.c, self.a)
        if det == 0:
            raise ZeroDivisionError("singular matrix")
        return Mat2(_div(self.d, det), _div(-self.b, det),
                    _div(-self.c, det), _div(self.a, det))

    def to_float(self) -> "Mat2":
        return Mat2(float(self.a), float(self.b), float(self.c), float(self.d))

    def entries(self):
        return (self.a, self.b, self.c, self.d)


def _check_finite(value, name):
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _check_positive(value, name):
    """ValueError unless 0 < value, and finite when value is a float."""
    if not value > 0 or isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def shear(s) -> Mat2:
    """Unipotent vertical shear: (x, y) -> (x, y - s x); subtracts s from every slope.

    Exact parameters give an exact matrix.
    """
    _check_finite(s, "shear parameter")
    return Mat2(1, 0, -s, 1)


def diag_flow(t: float) -> Mat2:
    """Diagonal flow diag(e^{t/2}, e^{-t/2}); conjugates shear(s) to shear(s e^{-t})."""
    _check_finite(float(t), "flow time")
    h = math.exp(float(t) / 2.0)
    return Mat2(h, 0.0, 0.0, 1.0 / h)


def rotation(theta: float) -> Mat2:
    """Counterclockwise rotation; rotation(-theta) maps direction theta to the x-axis."""
    _check_finite(float(theta), "angle")
    c, s = math.cos(float(theta)), math.sin(float(theta))
    return Mat2(c, -s, s, c)


def slope(v: Vec2):
    """Slope y/x of a non-vertical vector.  Exact inputs give exact output."""
    if v.x == 0:
        raise VerticalVectorError(f"vector {v} is vertical; slope undefined")
    return _div(v.y, v.x)


# ---------------------------------------------------------------------------
# plane regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerticalStrip:
    """Strip 0 < x <= eta, 0 <= y <= height (height defaults to unbounded).

    The slope pipelines only ever enumerate the strip jointly with a height
    cap, which is why the cap lives here rather than in a separate region.
    Lattices decide membership (UnimodularLattice.exact_rows, .float_columns);
    boundary sets have measure zero, so statistics cannot see the open edge.
    """

    eta: float
    height: float = math.inf

    def __post_init__(self):
        _check_positive(self.eta, "strip width")
        if not self.height >= 0:
            raise ValueError("strip height must be nonnegative")


@dataclass(frozen=True)
class Ball:
    """Closed centered ball of the given radius."""

    radius: float

    def __post_init__(self):
        """Checks the radius of every ball, as VerticalStrip checks eta."""
        _check_positive(self.radius, "radius")

    def contains(self, v: Vec2) -> bool:
        """The float ball test of the definition of horizontal shortness."""
        return float(v.norm_sq()) <= float(self.radius) ** 2
