"""Translation surfaces from glued polygons, and saddle-connection enumeration.

A surface is a single plane polygon with every edge glued to a parallel,
equal-length, oppositely-oriented partner by translation.  Straight segments
from the singularity to itself (saddle connections) are found by developing
the surface into the plane: starting from each corner wedge at the origin,
a breadth-first search keeps (placed polygon copy, visibility cone) states,
splits the cone at every vertex that the rays hit first, emits those vertices
as holonomy vectors, and continues each sub-cone across the glued edge it
exits through.

All decisions reduce to sign tests of cross/dot products of coordinates, so
surfaces built on exact scalars (the golden L lives in Z[phi]) develop with
no rounding at all; float surfaces use a 1e-9 zero tolerance with the usual
caveat that near-degenerate configurations may misclassify a boundary.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import GoldenNum, Mat2, PHI, Region, Vec2, is_exact, slope
from .errors import ResourceLimitError
from .pointcloud import GapSequence, PointSystem, _collapse
from .stats import EmpiricalDist, circular_gaps

__all__ = [
    "TranslationSurface", "SaddleConnection", "golden_l", "l_shape",
    "saddle_connections", "sc_slope_gaps", "sc_angle_gaps",
]

FLOAT_EPS = 1e-9

DEFAULT_STATE_BUDGET = 2_000_000


def _sgn(x, eps: float):
    if isinstance(x, GoldenNum):
        return x.sign()
    if isinstance(x, float):
        return 0 if abs(x) <= eps else (1 if x > 0.0 else -1)
    return (x > 0) - (x < 0)


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def _sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def _add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def _rot90(u):
    return (-u[1], u[0])


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
        from .core import slope as _slope
        return _slope(self.holonomy)

    @property
    def angle(self) -> float:
        return math.atan2(float(self.holonomy.y), float(self.holonomy.x)) % (2 * math.pi)


class TranslationSurface(PointSystem):
    """Polygon with translation gluings; the attached point set is the set of
    saddle-connection holonomies."""

    centrally_symmetric = True

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
        self._eps = 0.0 if self._exact else FLOAT_EPS
        area2 = sum(float(_cross(self._coords(i), self._coords(i + 1)))
                    for i in range(n))
        if area2 <= 0:
            raise ValueError("polygon vertices must wind counterclockwise")
        for i in range(n):
            j = partner[i]
            if j == i:
                raise ValueError("an edge cannot be glued to itself")
            ei, ej = self._edge_vec(i), self._edge_vec(j)
            mismatch = _add((float(ei[0]), float(ei[1])), (float(ej[0]), float(ej[1])))
            if math.hypot(*mismatch) > 1e-9:
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

    @property
    def minkowski_constant(self):
        return None

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

    def enumerate_points(self, region: Region, limit: Optional[int] = None) -> list[Vec2]:
        radius = region.bounding_radius()
        if radius is None:
            raise ValueError(f"region {region!r} is unbounded")
        conns = saddle_connections(self, radius, state_budget=limit or DEFAULT_STATE_BUDGET)
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

class _Developer:
    """Breadth-first cone development of a surface from its singularity."""

    def __init__(self, surface: TranslationSurface, radius, state_budget: int):
        self.surf = surface
        self.eps = surface._eps
        self.n = len(surface.vertices)
        self.base = [surface._coords(i) for i in range(self.n)]
        if surface._exact:
            self.rsq = Fraction(float(radius)) ** 2
        else:
            self.rsq = float(radius) ** 2 + FLOAT_EPS
        self.radius = float(radius)
        self.budget = state_budget
        self.found: list[SaddleConnection] = []

    # cone membership helpers ------------------------------------------------

    def _beyond(self, entry, p):
        """p strictly past the entry edge line (or nonzero when at the corner)."""
        if entry is None:
            return _sgn(p[0], self.eps) != 0 or _sgn(p[1], self.eps) != 0
        e1, e2, side_origin = entry
        side = _sgn(_cross(_sub(e2, e1), _sub(p, e1)), self.eps)
        return side == -side_origin

    def _crossing_blocks(self, entry, p, q1, q2):
        """Does segment (q1, q2) cross the open ray piece between entry and p?"""
        s1 = _sgn(_cross(p, q1), self.eps)
        s2 = _sgn(_cross(p, q2), self.eps)
        if s1 == 0 and s2 == 0:
            # edge collinear with the ray: a nearer on-ray endpoint blocks
            psq = _dot(p, p)
            for q in (q1, q2):
                t = _dot(p, q)
                if _sgn(t, self.eps) > 0 and _sgn(psq - t, self.eps) > 0 \
                        and self._beyond(entry, q):
                    return True
            return False
        if s1 * s2 > 0:
            return False
        num = _cross(q1, q2)            # t = num / den along the ray
        den = _cross(p, _sub(q2, q1))
        sden = _sgn(den, self.eps)
        if sden == 0:
            return False
        if _sgn(num, self.eps) * sden <= 0:          # t <= 0
            return False
        if _sgn(num - den, self.eps) * sden >= 0:    # t >= 1
            return False
        if entry is None:
            return True
        e1, e2, side_origin = entry
        ee = _sub(e2, e1)
        # side of the crossing point (num/den) p relative to the entry line
        val = num * _cross(ee, p) - den * _cross(ee, e1)
        return _sgn(val, self.eps) * sden == -side_origin

    def _first_hit_edge(self, entry, ray, placed):
        """Index of the edge a ray (with no vertex on it) exits through."""
        best = None
        best_num = best_den = None
        for k in range(self.n):
            q1, q2 = placed[k], placed[(k + 1) % self.n]
            s1 = _sgn(_cross(ray, q1), self.eps)
            s2 = _sgn(_cross(ray, q2), self.eps)
            if s1 == 0 and s2 == 0 or s1 * s2 > 0:
                continue
            num = _cross(q1, q2)
            den = _cross(ray, _sub(q2, q1))
            sden = _sgn(den, self.eps)
            if sden == 0 or _sgn(num, self.eps) * sden <= 0:
                continue
            if entry is not None:
                e1, e2, side_origin = entry
                ee = _sub(e2, e1)
                val = num * _cross(ee, ray) - den * _cross(ee, e1)
                if _sgn(val, self.eps) * sden != -side_origin:
                    continue
            if best is None:
                best, best_num, best_den = k, num, den
            else:
                # num/den < best_num/best_den, sign-safely
                cmp = _sgn(num * best_den - best_num * den, self.eps) \
                    * sden * _sgn(best_den, self.eps)
                if cmp < 0:
                    best, best_num, best_den = k, num, den
        if best is None:
            raise RuntimeError("development ray found no exit edge")
        return best

    def _window_min_radius(self, entry, d_left, d_right) -> float:
        """Lower bound for |x| over the entry window between the two rays."""
        e1 = (float(entry[0][0]), float(entry[0][1]))
        e2 = (float(entry[1][0]), float(entry[1][1]))
        ee = _sub(e2, e1)
        candidates = []
        for d in (d_left, d_right):
            fd = (float(d[0]), float(d[1]))
            den = _cross(fd, ee)
            if abs(den) > 1e-300:
                t = _cross(e1, ee) / den
                candidates.append(abs(t) * math.hypot(*fd))
        esq = _dot(ee, ee)
        if esq > 0:
            u = -_dot(e1, ee) / esq
            if 0.0 <= u <= 1.0:
                foot = _add(e1, (u * ee[0], u * ee[1]))
                fl = (float(d_left[0]), float(d_left[1]))
                fr = (float(d_right[0]), float(d_right[1]))
                if _cross(fl, foot) >= 0 and _cross(foot, fr) >= 0:
                    candidates.append(math.hypot(*foot))
        return min(candidates) if candidates else math.inf

    # main loop ---------------------------------------------------------------

    def run(self) -> list[SaddleConnection]:
        queue = deque(self._initial_states())
        processed = 0
        while queue:
            state = queue.popleft()
            processed += 1
            if processed > self.budget:
                raise ResourceLimitError(
                    f"development exceeded {self.budget} states",
                    partial=self.found)
            queue.extend(self._process(state))
        return self.found

    def _initial_states(self):
        for c in range(self.n):
            t = (-self.base[c][0], -self.base[c][1])
            d_out = _sub(self.base[(c + 1) % self.n], self.base[c])
            d_in = _sub(self.base[(c - 1) % self.n], self.base[c])
            # carve the corner wedge into sub-pi pieces with quarter-turn inserts
            bounds = [d_out]
            cur = d_out
            for _ in range(4):
                if _sgn(_cross(cur, d_in), self.eps) > 0:
                    break
                cur = _rot90(cur)
                bounds.append(cur)
            bounds.append(d_in)
            # wedges are half-open [out-edge ray, in-edge ray): the gluing
            # identifies this corner's in-ray with the partner corner's
            # out-ray, so inclusive right ends would trace every edge-aligned
            # connection twice
            for idx in range(len(bounds) - 1):
                yield (t, None, bounds[idx], bounds[idx + 1], True, False, ())

    def _process(self, state):
        t, entry, d_l, d_r, incl_l, incl_r, path = state
        placed = [_add(b, t) for b in self.base]

        # candidate vertices: in cone, past the entry, first hit along their ray
        splits = []          # strictly interior terminated directions
        kill_l = kill_r = False
        for vi in range(self.n):
            p = placed[vi]
            if _sgn(p[0], self.eps) == 0 and _sgn(p[1], self.eps) == 0:
                continue
            c_l = _sgn(_cross(d_l, p), self.eps)
            c_r = _sgn(_cross(p, d_r), self.eps)
            interior = c_l > 0 and c_r > 0
            on_l = c_l == 0 and _sgn(_dot(d_l, p), self.eps) > 0
            on_r = c_r == 0 and _sgn(_dot(d_r, p), self.eps) > 0
            if not (interior or (on_l and incl_l) or (on_r and incl_r)):
                continue
            if not self._beyond(entry, p):
                continue
            blocked = any(
                self._crossing_blocks(entry, p, placed[k], placed[(k + 1) % self.n])
                for k in range(self.n))
            if blocked:
                continue
            # p is the first singularity on its ray: emit and terminate the ray
            if p[0] * p[0] + p[1] * p[1] <= self.rsq:
                self.found.append(SaddleConnection(Vec2(p[0], p[1]), path))
            if interior:
                splits.append(p)
            elif on_l:
                kill_l = True
            else:
                kill_r = True

        splits.sort(key=functools.cmp_to_key(
            lambda u, v: -_sgn(_cross(u, v), self.eps)))
        bounds = [(d_l, incl_l and not kill_l)] + [(p, False) for p in splits] \
            + [(d_r, incl_r and not kill_r)]

        out = []
        for (da, ia), (db, ib) in zip(bounds, bounds[1:]):
            if _sgn(_cross(da, db), self.eps) <= 0:
                continue  # degenerate sliver
            mid = _add(da, db)
            if entry is not None and \
                    self._window_min_radius(entry, da, db) > self.radius * (1 + 1e-9) + 1e-9:
                continue
            k = self._first_hit_edge(entry, mid, placed)
            e1, e2 = placed[k], placed[(k + 1) % self.n]
            side_origin = _sgn(_cross(_sub(e2, e1), (-e1[0], -e1[1])), self.eps)
            if side_origin == 0:
                continue  # window collinear with the origin subtends no angle
            j = self.surf.partner[k]
            shift = _sub(self.base[k], self.base[(j + 1) % self.n])
            t_new = _add(t, shift)
            out.append((t_new, (e1, e2, side_origin), da, db, ia, ib, path + (k,)))
        return out


def saddle_connections(surface: TranslationSurface, radius,
                       state_budget: int = DEFAULT_STATE_BUDGET) -> tuple[SaddleConnection, ...]:
    """All saddle connections of holonomy length <= radius, sorted.

    Exact surfaces produce exact holonomies and a run-to-run identical list;
    float surfaces carry the documented 1e-9 incidence tolerance.  Results
    are cached per surface instance, hence immutable.
    """
    if not float(radius) > 0:
        raise ValueError("radius must be positive")
    cache = surface.__dict__.setdefault("_connection_cache", {})
    key = (float(radius), state_budget)
    if key not in cache:
        dev = _Developer(surface, radius, state_budget)
        conns = dev.run()
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
