"""Translation surfaces from glued polygons, and saddle-connection enumeration.

A surface is a single plane polygon with every edge glued to a parallel,
equal-length, oppositely-oriented partner by translation.  Straight segments
from the singularity to itself (saddle connections) are found by developing
the surface into the plane: starting from each corner wedge at the origin,
a breadth-first search keeps (placed polygon copy, visibility cone) states,
splits the cone at every vertex that the rays hit first, emits those vertices
as holonomy vectors, and continues each sub-cone across the glued edge it
exits through.

All decisions reduce to sign tests of cross/dot products of coordinates.
``saddle_connections`` runs the development one breadth-first frontier wave
at a time with ``gapkit._waves.Waves``, imported on the first development,
every state of a wave held in numpy arrays, on one of two arithmetics:

* exact surfaces (int, Fraction and GoldenNum coordinates, all in
  Q(sqrt 5)): exact decisions on the Z[phi] int format that
  ``gapkit._waves`` describes, taken in floats wherever a written error
  bound proves the float answer exact and in ints elsewhere, with
  GoldenNum, Fraction and int values built only for the emitted holonomies;
* float surfaces: a 1e-9 zero tolerance, with the usual caveat that
  near-degenerate configurations may misclassify a boundary.

Either way the waves find the connections (holonomies, paths and discovery
order) of a state-by-state search, and a state budget overrun ends the
partial result at a wave boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import PHI, GoldenNum, Mat2, Vec2, _check_positive, _zphi_coeffs, is_exact, slope
from .pointcloud import GapSequence, _collapse, _exact_signs
from .stats import EmpiricalDist, circular_gaps

__all__ = [
    "TranslationSurface", "SaddleConnection", "golden_l", "l_shape",
    "saddle_connections", "sc_slope_gaps", "sc_angle_gaps",
]

FLOAT_EPS = 1e-9

DEFAULT_STATE_BUDGET = 2_000_000


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def _add(u, v):
    return (u[0] + v[0], u[1] + v[1])


@dataclass(frozen=True)
class SaddleConnection:
    """One oriented singularity-to-singularity segment.

    ``holonomy`` is the planar displacement (exact scalars on exact
    surfaces); ``path`` lists the polygon edges the development crossed, so
    parallel connections of equal holonomy remain distinguishable.
    """

    holonomy: Vec2
    path: tuple

    @property
    def length_sq(self):
        return self.holonomy.norm_sq()

    @property
    def angle(self) -> float:
        return _angle(float(self.holonomy.x), float(self.holonomy.y))


def _angle(x: float, y: float) -> float:
    """The direction of (x, y) in [0, 2 pi], the angle of a connection."""
    return math.atan2(y, x) % (2 * math.pi)


class TranslationSurface:
    """Polygon with translation gluings; its saddle-connection holonomies
    come from saddle_connections."""

    def __init__(self, vertices, pairings):
        self.vertices = tuple(Vec2(v[0], v[1]) if not isinstance(v, Vec2) else v
                              for v in vertices)
        n = len(self.vertices)
        partner = [None] * n
        for i, j in pairings:
            partner[i], partner[j] = j, i
        if any(p is None for p in partner):
            raise ValueError("edge pairing must be a perfect matching")
        self.pairings = tuple(tuple(sorted((i, partner[i]))) for i in range(n)
                              if i < partner[i])
        self.partner = tuple(partner)
        self._exact = all(is_exact(v.x) and is_exact(v.y) for v in self.vertices)
        area2 = sum(_cross(self._coords(i), self._coords(i + 1)) for i in range(n))
        if area2 <= 0:
            raise ValueError("polygon vertices must wind counterclockwise")
        for i in range(n):
            j = partner[i]
            if j == i:
                raise ValueError("an edge cannot be glued to itself")
            ei, ej = self._edge_vec(i), self._edge_vec(j)
            if self._exact:
                matched = ei[0] + ej[0] == 0 and ei[1] + ej[1] == 0
            else:
                mismatch = _add((float(ei[0]), float(ei[1])),
                                (float(ej[0]), float(ej[1])))
                matched = math.hypot(*mismatch) <= 1e-9
            if not matched:
                raise ValueError(
                    f"edges {i} and {j} are not parallel equal-length opposites")

    # -- construction helpers ----------------------------------------------

    def _coords(self, i: int):
        v = self.vertices[i % len(self.vertices)]
        return (v.x, v.y)

    def _edge_vec(self, i: int):
        return _sub(self._coords(i + 1), self._coords(i))

    def is_exact(self) -> bool:
        return self._exact

    def to_float(self) -> "TranslationSurface":
        """The float twin; tests compare the exact and float developments."""
        return TranslationSurface([v.to_float() for v in self.vertices],
                                  self.pairings)

    def act(self, g: Mat2) -> "TranslationSurface":
        """Transform by a linear map, as tests build surfaces; exact surfaces
        need exact map entries (convert with to_float() for a float map)."""
        moved = [g @ v for v in self.vertices]
        return TranslationSurface(moved, self.pairings)


def l_shape(alpha, beta) -> TranslationSurface:
    """L-shaped surface: unit inner square, long sides alpha (bottom) and beta (left).

    Opposite parallel boundary pieces are glued; the eight corners close up
    into one singularity of cone angle 6 pi.
    """
    one = 1 if is_exact(alpha) and is_exact(beta) else 1.0
    zero = one - one
    if not (alpha > 1 and beta > 1):
        raise ValueError("L-shape needs both long sides > 1")
    verts = [(zero, zero), (one, zero), (alpha, zero), (alpha, one),
             (one, one), (one, beta), (zero, beta), (zero, one)]
    pairings = [(0, 5), (1, 3), (2, 7), (4, 6)]
    return TranslationSurface(verts, pairings)


def golden_l() -> TranslationSurface:
    """The L-shape with both long sides the golden ratio, in exact Z[phi]."""
    return l_shape(PHI, PHI)


# ---------------------------------------------------------------------------
# development search
# ---------------------------------------------------------------------------

def _ball_rsq(radius: float) -> float:
    """Bound of the float ball test |x|^2 <= R^2 + FLOAT_EPS."""
    return radius ** 2 + FLOAT_EPS


def saddle_connections(surface: TranslationSurface, radius) -> tuple[SaddleConnection, ...]:
    """All saddle connections of holonomy length <= radius, sorted by
    (float(length_sq), angle, path).

    Exact surfaces produce exact holonomies and a run-to-run identical list;
    float surfaces carry the documented 1e-9 incidence tolerance.  Both are
    developed in frontier waves of numpy arrays.  Results are cached per
    surface instance and float radius, hence immutable; a radius below a
    cached one filters that tuple with the search's own radius test,
    length_sq <= R^2 exactly (or <= R^2 + 1e-9 on float surfaces), which
    keeps its order.  A development of more than DEFAULT_STATE_BUDGET states
    (read at each call) raises ResourceLimitError carrying the connections
    found so far, in discovery order: those of the waves completed before the
    wave that would overrun it.
    """
    key = float(radius)
    _check_positive(key, "radius")
    cache = surface.__dict__.setdefault("_connection_cache", {})
    if key not in cache:
        larger = [r for r in cache if r > key]
        if larger:
            rsq = Fraction(key) ** 2 if surface._exact else _ball_rsq(key)
            cache[key] = tuple(c for c in cache[min(larger)] if c.length_sq <= rsq)
        else:
            from ._waves import Waves, _key_order  # loaded only once a surface develops
            waves = Waves(surface, key)
            conns = waves.run()
            cache[key] = tuple(conns[i] for i in _key_order(conns, *waves.keys))
    return cache[key]


def sc_slope_gaps(surface: TranslationSurface, radius) -> GapSequence:
    """Gaps of the sorted first-quadrant saddle-connection slopes (unnormalized).

    Parallel connections share a slope value and collapse to one entry, so
    every gap is strictly positive.
    """
    hols = [c.holonomy for c in saddle_connections(surface, radius)]
    sx, sy = _exact_signs([v.x for v in hols] + [v.y for v in hols]).reshape(2, -1)
    kept = ((sx > 0) & (sy >= 0)).nonzero()[0].tolist()
    rows = _collapse([(_slope(hols[i]), hols[i]) for i in kept])
    if len(rows) < 2:
        raise ValueError("need at least two slopes to form gaps")
    return GapSequence(tuple(b - a for (a, _), (b, _) in zip(rows, rows[1:])))


def _slope(v: Vec2):
    """``core.slope(v)``, equal in value and type: for a GoldenNum coordinate
    and int coefficients x = a + b phi, y = c + d phi, the slope y x'/N(x)
    with one Fraction per coefficient, N(x) = a^2 + ab - b^2 = x x'."""
    x, y = v
    if type(x) is GoldenNum or type(y) is GoldenNum:
        (a, b), (c, d) = _zphi_coeffs(x), _zphi_coeffs(y)
        n = a * a + a * b - b * b
        if type(a) is type(b) is type(c) is type(d) is int and n:
            return GoldenNum._raw(_quotient(c * (a + b) - d * b, n), _quotient(d * a - c * b, n))
    return slope(v)


def _quotient(p: int, n: int):
    """p/n as a GoldenNum coefficient: an int when n divides p."""
    return p // n if p % n == 0 else Fraction(p, n)


def sc_angle_gaps(surface: TranslationSurface, radius) -> EmpiricalDist:
    """Circular normalized gaps of the distinct saddle-connection directions
    (see stats.circular_gaps)."""
    return circular_gaps([c.angle for c in saddle_connections(surface, radius)])
