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
Exact surfaces (int, Fraction and GoldenNum coordinates, all in Q(sqrt 5))
develop one state at a time on Python ints: every vertex coordinate is put
over one common denominator D and stored as an int pair (a, b) meaning
(a + b phi)/D, so a placed point is a 4-tuple of ints, and each predicate is
an integer polynomial whose sign is decided exactly by ``core.zphi_sign``
(rational surfaces have b = 0; the golden L has D = 1).  These Z[phi]
primitives are the module functions ``_zcross`` ... ``_zholonomy``; the
ball test ``_zin_ball`` takes R^2 D^2 as an int fraction, so it needs no
developer.  GoldenNum, Fraction and int values are built only for the
emitted holonomies.

Float surfaces develop one breadth-first frontier wave at a time
(``gapkit._waves``), every state of the wave held in numpy arrays, with a
1e-9 zero tolerance and the usual caveat that near-degenerate
configurations may misclassify a boundary.  Each array expression is the
scalar search's float expression in the same order, and numpy float64
arithmetic rounds as Python floats do, so the waves find the connections
(holonomies, paths and discovery order) of a state-by-state search; only a
state budget overrun differs, ending its partial result at a wave boundary.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .core import (GoldenNum, Mat2, PHI, Region, Vec2, _check_positive,
                   common_denominator, is_exact, slope, zphi_sign)
from .errors import ResourceLimitError
from .pointcloud import GapSequence, PointSystem, _collapse
from .stats import EmpiricalDist, circular_gaps

__all__ = [
    "TranslationSurface", "SaddleConnection", "golden_l", "l_shape",
    "saddle_connections", "sc_slope_gaps", "sc_angle_gaps",
]

FLOAT_EPS = 1e-9

DEFAULT_STATE_BUDGET = 2_000_000


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


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
    def slope(self):
        return slope(self.holonomy)

    @property
    def angle(self) -> float:
        return math.atan2(float(self.holonomy.y), float(self.holonomy.x)) % (2 * math.pi)


class TranslationSurface(PointSystem):
    """Polygon with translation gluings; the attached point set is the set of
    saddle-connection holonomies."""

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
        area2 = sum(float(_cross(self._coords(i), self._coords(i + 1)))
                    for i in range(n))
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
        return TranslationSurface([v.to_float() for v in self.vertices],
                                  self.pairings)

    def act(self, g: Mat2) -> "TranslationSurface":
        """Transform by a linear map; exact surfaces need exact map entries
        (convert with to_float() first to use a float map)."""
        moved = [g @ v for v in self.vertices]
        return TranslationSurface(moved, self.pairings)

    # -- singularity data ----------------------------------------------------

    def corner_classes(self) -> list[list[int]]:
        """Corners identified by the gluings, one list per singularity."""
        n = len(self.vertices)
        root = list(range(n))

        def find(x):
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        def union(x, y):
            root[find(x)] = find(y)

        for i in range(n):
            j = self.partner[i]
            union(i, (j + 1) % n)        # tail of i meets head of j
            union((i + 1) % n, j)
        groups = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        return list(groups.values())

    def corner_angle(self, i: int) -> float:
        """Interior angle at corner i, in (0, 2 pi)."""
        v = self._coords(i)
        d_out = _sub(self._coords(i + 1), v)
        d_in = _sub(self._coords(i - 1), v)
        fo = (float(d_out[0]), float(d_out[1]))
        fi = (float(d_in[0]), float(d_in[1]))
        return math.atan2(_cross(fo, fi), _dot(fo, fi)) % (2.0 * math.pi)

    def cone_angles(self) -> list[float]:
        """Total angle around each singularity (6 pi for the L-surfaces)."""
        return [sum(self.corner_angle(i) for i in cls)
                for cls in self.corner_classes()]

    # -- point-system surface ------------------------------------------------

    def enumerate_points(self, region: Region) -> list[Vec2]:
        radius = region.bounding_radius()
        if radius is None:
            raise ValueError(f"region {region!r} is unbounded")
        conns = saddle_connections(self, radius)
        seen = set()
        out = []
        for c in conns:
            key = (c.holonomy.x, c.holonomy.y) if self._exact else \
                (round(float(c.holonomy.x), 9), round(float(c.holonomy.y), 9))
            if key in seen:
                continue
            seen.add(key)
            if region.contains(c.holonomy):
                out.append(c.holonomy)
        return out


def l_shape(alpha, beta) -> TranslationSurface:
    """L-shaped surface: unit inner square, long sides alpha (bottom) and beta (left).

    Opposite parallel boundary pieces are glued; the eight corners close up
    into one singularity of cone angle 6 pi.
    """
    one = 1 if is_exact(alpha) and is_exact(beta) else 1.0
    zero = one - one
    if not (float(alpha) > 1 and float(beta) > 1):
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

def _zphi_coeffs(x):
    """Rational (a, b) with x = a + b*phi."""
    return (x.a, x.b) if isinstance(x, GoldenNum) else (x, 0)


def _zphi_value(a, b, d):
    """The scalar (a + b*phi)/d as an int, a Fraction or a GoldenNum."""
    if b == 0:
        return a // d if a % d == 0 else Fraction(a, d)
    return GoldenNum(Fraction(a, d), Fraction(b, d))


# Z[phi] int primitives (see the module docstring): a point (a, b, c, d) is
# ((a + b phi)/D, (c + d phi)/D) and a scalar (a, b) is a + b phi over a power
# of D.  Every predicate compares terms of one degree, so D never needs
# dividing out.

def _zcross(u, v):
    a, b, c, d = u
    e, f, g, h = v
    # (a + b phi)(g + h phi) - (c + d phi)(e + f phi), with phi^2 = phi + 1
    return (a * g + b * h - c * e - d * f,
            a * h + b * g + b * h - c * f - d * e - d * f)


def _zdot(u, v):
    a, b, c, d = u
    e, f, g, h = v
    return (a * e + b * f + c * g + d * h,
            a * f + b * e + b * f + c * h + d * g + d * h)


def _zorient(u, v):
    """Sign of cross(u, v): +1 when v lies counterclockwise of u."""
    return zphi_sign(*_zcross(u, v))


def _zadd(u, v):
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2], u[3] + v[3])


def _zsub(u, v):
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2], u[3] - v[3])


def _zneg(u):
    return (-u[0], -u[1], -u[2], -u[3])


def _zrot90(u):
    return (-u[2], -u[3], u[0], u[1])


def _zmul(s, t):
    return (s[0] * t[0] + s[1] * t[1], s[0] * t[1] + s[1] * t[0] + s[1] * t[1])


def _zdiff(s, t):
    return (s[0] - t[0], s[1] - t[1])


def _zin_ball(p, rsq_num, rsq_den):
    """|p|^2 <= R^2 exactly, for R^2 D^2 = rsq_num / rsq_den."""
    a, b, c, d = p
    # |p|^2 D^2 = (a^2 + b^2 + c^2 + d^2) + (2ab + b^2 + 2cd + d^2) phi
    return zphi_sign(rsq_den * (a * a + b * b + c * c + d * d) - rsq_num,
                     rsq_den * (2 * a * b + b * b + 2 * c * d + d * d)) <= 0


def _zfloat(p, d):
    """The float point of p: the rounding of float(GoldenNum(Fraction(a, D),
    Fraction(b, D))) in each coordinate."""
    return (p[0] / d + p[1] / d * (1.0 + math.sqrt(5.0)) / 2.0,
            p[2] / d + p[3] / d * (1.0 + math.sqrt(5.0)) / 2.0)


def _zholonomy(p, d):
    return Vec2(_zphi_value(p[0], p[1], d), _zphi_value(p[2], p[3], d))


def _ball_rsq(radius: float) -> float:
    """Bound of the float ball test |x|^2 <= R^2 + FLOAT_EPS."""
    return radius ** 2 + FLOAT_EPS


def _window_reach(radius: float) -> float:
    """Windows whose |x| lower bound exceeds this hold no connection in the ball."""
    return radius * (1 + 1e-9) + 1e-9


class _Developer:
    """Breadth-first cone development of a surface from its singularity.

    Exact surfaces develop here one state at a time, calling the Z[phi] int
    primitives above on the vertices over their common denominator D; ``run``
    hands float surfaces to ``_waves.FloatWaves``, which develops them one
    frontier wave at a time.  A state is (translation, entry edge, left ray,
    right ray, whether the left ray is in the cone, path); cones are
    half-open, so no right ray is ever in one.
    """

    def __init__(self, surface: TranslationSurface, radius):
        self.surf = surface
        self.n = len(surface.vertices)
        self.radius = float(radius)
        self.found: list[SaddleConnection] = []
        if surface._exact:
            flat, self.d = common_denominator(
                c for v in surface.vertices for x in (v.x, v.y) for c in _zphi_coeffs(x))
            self.base = [tuple(flat[k:k + 4]) for k in range(0, len(flat), 4)]
            rsq = Fraction(self.radius) ** 2
            self.rsq_num, self.rsq_den = rsq.numerator * self.d * self.d, rsq.denominator
            self.reach = _window_reach(self.radius)

    # cone membership helpers ------------------------------------------------

    def _beyond(self, entry, p):
        """p strictly past the entry edge line (or nonzero when at the corner)."""
        if entry is None:
            return any(p)
        e1, e2, side_origin = entry
        side = _zorient(_zsub(e2, e1), _zsub(p, e1))
        return side == -side_origin

    def _ray_hit(self, entry, ray, q1, q2):
        """Where the ray from the origin meets the segment (q1, q2), whose ends
        the caller has seen on opposite sides of it (or one on it).

        Returns (num, den, sign of den) with the meeting point at
        ray * num/den, num/den > 0, past the entry line; else None.
        """
        num = _zcross(q1, q2)
        den = _zcross(ray, _zsub(q2, q1))
        sden = zphi_sign(*den)
        if sden == 0 or zphi_sign(*num) * sden <= 0:
            return None
        if entry is not None:
            e1, e2, side_origin = entry
            ee = _zsub(e2, e1)
            # side of the meeting point relative to the entry line
            val = _zdiff(_zmul(num, _zcross(ee, ray)), _zmul(den, _zcross(ee, e1)))
            if zphi_sign(*val) * sden != -side_origin:
                return None
        return num, den, sden

    def _blocked(self, entry, p, placed):
        """Does an edge cross the open ray piece between entry and p?"""
        sides = [_zorient(p, q) for q in placed]
        for k in range(self.n):
            s1, s2 = sides[k], sides[k - self.n + 1]
            q1, q2 = placed[k], placed[k - self.n + 1]
            if s1 == 0 and s2 == 0:
                # edge collinear with the ray: a nearer on-ray endpoint blocks
                psq = _zdot(p, p)
                for q in (q1, q2):
                    t = _zdot(p, q)
                    if zphi_sign(*t) > 0 and zphi_sign(*_zdiff(psq, t)) > 0 \
                            and self._beyond(entry, q):
                        return True
            elif s1 * s2 <= 0:
                hit = self._ray_hit(entry, p, q1, q2)
                if hit is not None and zphi_sign(*_zdiff(hit[0], hit[1])) * hit[2] < 0:
                    return True  # met before p: 0 < num/den < 1
        return False

    def _first_hit_edge(self, entry, ray, placed):
        """Index of the edge a ray (with no vertex on it) exits through."""
        sides = [_zorient(ray, q) for q in placed]
        best = None
        for k in range(self.n):
            s1, s2 = sides[k], sides[k - self.n + 1]
            if s1 == 0 and s2 == 0 or s1 * s2 > 0:
                continue
            hit = self._ray_hit(entry, ray, placed[k], placed[k - self.n + 1])
            if hit is None:
                continue
            # num/den < best_num/best_den, sign-safely
            if best is None or zphi_sign(*_zdiff(_zmul(hit[0], best[1]),
                                                 _zmul(best[0], hit[1]))) \
                    * hit[2] * best[2] < 0:
                best, best_k = hit, k
        if best is None:
            raise RuntimeError("development ray found no exit edge")
        return best_k

    def _window_min_radius(self, entry, d_left, d_right) -> float:
        """Lower bound for |x| over the entry window between the two rays."""
        d = self.d
        e1, e2 = _zfloat(entry[0], d), _zfloat(entry[1], d)
        fl, fr = _zfloat(d_left, d), _zfloat(d_right, d)
        ee = _sub(e2, e1)
        candidates = []
        for fd in (fl, fr):
            den = _cross(fd, ee)
            if abs(den) > 1e-300:
                t = _cross(e1, ee) / den
                candidates.append(abs(t) * math.hypot(*fd))
        esq = _dot(ee, ee)
        if esq > 0:
            u = -_dot(e1, ee) / esq
            if 0.0 <= u <= 1.0:
                foot = _add(e1, (u * ee[0], u * ee[1]))
                if _cross(fl, foot) >= 0 and _cross(foot, fr) >= 0:
                    candidates.append(math.hypot(*foot))
        return min(candidates) if candidates else math.inf

    # main loop ---------------------------------------------------------------

    def run(self) -> list[SaddleConnection]:
        """The connections in order of discovery (states in BFS order, the
        vertices of each state in index order)."""
        if not self.surf._exact:
            from ._waves import FloatWaves  # loaded only once a float surface develops
            return FloatWaves(self.surf, self.radius).run()
        queue = deque(self._initial_states())
        processed = 0
        while queue:
            state = queue.popleft()
            processed += 1
            if processed > DEFAULT_STATE_BUDGET:
                raise ResourceLimitError(
                    f"development exceeded {DEFAULT_STATE_BUDGET} states",
                    partial=self.found)
            queue.extend(self._process(state))
        return self.found

    def _initial_states(self):
        base, n = self.base, self.n
        for c in range(n):
            t = _zneg(base[c])
            d_out = _zsub(base[(c + 1) % n], base[c])
            d_in = _zsub(base[(c - 1) % n], base[c])
            # carve the corner wedge into sub-pi pieces with quarter-turn inserts
            bounds = [d_out]
            cur = d_out
            for _ in range(4):
                if _zorient(cur, d_in) > 0:
                    break
                cur = _zrot90(cur)
                bounds.append(cur)
            bounds.append(d_in)
            # wedges are half-open [out-edge ray, in-edge ray): the gluing
            # identifies this corner's in-ray with the partner corner's
            # out-ray, so inclusive right ends would trace every edge-aligned
            # connection twice
            for idx in range(len(bounds) - 1):
                yield (t, None, bounds[idx], bounds[idx + 1], True, ())

    def _process(self, state):
        t, entry, d_l, d_r, incl_l, path = state
        placed = [_zadd(b, t) for b in self.base]

        # candidate vertices: in cone, past the entry, first hit along their ray
        splits = []          # strictly interior terminated directions
        kill_l = False
        for vi in range(self.n):
            p = placed[vi]
            if not any(p):
                continue
            c_l = _zorient(d_l, p)
            c_r = _zorient(p, d_r)
            interior = c_l > 0 and c_r > 0
            on_l = c_l == 0 and zphi_sign(*_zdot(d_l, p)) > 0
            if not (interior or (on_l and incl_l)):
                continue
            if not self._beyond(entry, p):
                continue
            if self._blocked(entry, p, placed):
                continue
            # p is the first singularity on its ray: emit and terminate the ray
            if _zin_ball(p, self.rsq_num, self.rsq_den):
                self.found.append(SaddleConnection(_zholonomy(p, self.d), path))
            if interior:
                splits.append(p)
            else:
                kill_l = True

        splits.sort(key=functools.cmp_to_key(lambda u, v: -_zorient(u, v)))
        bounds = [d_l, *splits, d_r]

        out = []
        for i, (da, db) in enumerate(zip(bounds, bounds[1:])):
            if _zorient(da, db) <= 0:
                continue  # degenerate sliver
            mid = _zadd(da, db)
            if entry is not None and self._window_min_radius(entry, da, db) > self.reach:
                continue
            k = self._first_hit_edge(entry, mid, placed)
            e1, e2 = placed[k], placed[(k + 1) % self.n]
            side_origin = _zorient(_zsub(e2, e1), _zneg(e1))
            if side_origin == 0:
                continue  # window collinear with the origin subtends no angle
            j = self.surf.partner[k]
            shift = _zsub(self.base[k], self.base[(j + 1) % self.n])
            t_new = _zadd(t, shift)
            out.append((t_new, (e1, e2, side_origin), da, db,
                        i == 0 and incl_l and not kill_l, path + (k,)))
        return out


def saddle_connections(surface: TranslationSurface, radius) -> tuple[SaddleConnection, ...]:
    """All saddle connections of holonomy length <= radius, sorted by
    (float(length_sq), angle, path).

    Exact surfaces produce exact holonomies and a run-to-run identical list
    from a state-by-state search; float surfaces are developed in frontier
    waves of numpy arrays and carry the documented 1e-9 incidence
    tolerance.  Results are cached per surface instance and float radius,
    hence immutable; a radius below a cached one filters that tuple with the
    search's own radius test, length_sq <= R^2 exactly (or <= R^2 + 1e-9 on
    float surfaces), which keeps its order.  A development of more than
    DEFAULT_STATE_BUDGET states (read at each call) raises
    ResourceLimitError carrying the connections found so far, in discovery
    order: on exact surfaces those of the states before the budget ran out,
    on float surfaces those of the waves completed before the wave that
    would overrun it.
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
            conns = _Developer(surface, radius).run()
            conns.sort(key=lambda c: (float(c.length_sq), c.angle, c.path))
            cache[key] = tuple(conns)
    return cache[key]


def sc_slope_gaps(surface: TranslationSurface, radius) -> GapSequence:
    """Gaps of the sorted first-quadrant saddle-connection slopes (unnormalized).

    Parallel connections share a slope value and collapse to one entry, so
    every gap is strictly positive.
    """
    hols = [c.holonomy for c in saddle_connections(surface, radius)]
    rows = _collapse([(slope(v), v) for v in hols if v.x > 0 and v.y >= 0])
    if len(rows) < 2:
        raise ValueError("need at least two slopes to form gaps")
    return GapSequence(tuple(b - a for (a, _), (b, _) in zip(rows, rows[1:])))


def sc_angle_gaps(surface: TranslationSurface, radius) -> EmpiricalDist:
    """Circular normalized gaps of the distinct saddle-connection directions
    (see stats.circular_gaps)."""
    return circular_gaps([c.angle for c in saddle_connections(surface, radius)])
