"""Development of float translation surfaces, one breadth-first frontier
wave at a time on numpy arrays.

``surface._Developer.run`` imports this module when it first develops a
float surface, so a program that develops only exact surfaces never loads
it.  The search, half-open cones included, is the one of
``surface._Developer``, which develops exact surfaces on the module's
Z[phi] int functions (see the ``surface`` module docstring); here every
state of a wave is processed at once, with the float ball bound and window
reach of ``surface._ball_rsq`` and ``surface._window_reach``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from . import surface
from .core import Vec2
from .errors import ResourceLimitError
from .pointcloud import _ragged
from .surface import (FLOAT_EPS, SaddleConnection, TranslationSurface, _ball_rsq,
                      _window_reach)


def _sign(x):
    """The float sign rule on an array, as int8: 0 within FLOAT_EPS of zero."""
    return (x > FLOAT_EPS).astype(np.int8) - (x < -FLOAT_EPS)


class _Wave(NamedTuple):
    """One BFS frontier of float states, one array entry per state.

    (tx, ty) translates the placed polygon copy; (lx, ly) and (rx, ry) are
    the cone's clockwise and counterclockwise rays, il whether the clockwise
    ray belongs to the cone (the other never does: cones are half-open, as
    in ``_Developer``).  ``entry`` is None in the first wave (states at
    the corner) and (e1x, e1y, e2x, e2y, side) after it: the ends of the
    edge the state entered through and the origin's side of that edge.
    ``parent`` (an index into the previous wave) and ``edge`` record the
    crossing that made the state, so paths are rebuilt only when emitted.
    """

    tx: np.ndarray
    ty: np.ndarray
    lx: np.ndarray
    ly: np.ndarray
    rx: np.ndarray
    ry: np.ndarray
    il: np.ndarray
    entry: Optional[tuple]
    parent: Optional[np.ndarray]
    edge: Optional[np.ndarray]


class FloatWaves:
    """Development of a float surface one BFS frontier wave at a time.

    Every state of a wave is held in numpy arrays, and each step of
    ``surface._Developer._process`` (vertex classification, ``_blocked``,
    the ball test, the sub-cone split, ``_window_min_radius``, ``_first_hit_edge``
    and the new states) runs on all of them at once: per-state vertex work
    as (states, n) arrays, the ragged splits and sub-cones laid end to end
    with ``_ragged``.  Python loops run only over the n polygon edges, for
    the ordered nearest-exit scan.  Each float expression is the scalar
    one in the same order, so with a zero tolerance of FLOAT_EPS every
    decision and every holonomy is the one a state-by-state search makes,
    and the waves hold the states in that search's queue order.
    """

    def __init__(self, surf: TranslationSurface, radius: float):
        n = self.n = len(surf.vertices)
        self.bx = np.array([float(v.x) for v in surf.vertices])
        self.by = np.array([float(v.y) for v in surf.vertices])
        self.nxt = np.roll(np.arange(n), -1)
        # crossing edge k shifts the copy by base[k] - base[partner(k) + 1]
        glued = self.nxt[list(surf.partner)]
        self.sx, self.sy = self.bx - self.bx[glued], self.by - self.by[glued]
        self.rsq = _ball_rsq(radius)
        self.reach = _window_reach(radius)

    def run(self) -> list[SaddleConnection]:
        """The connections in order of discovery, as ``_Developer.run``;
        the state budget is ``surface.DEFAULT_STATE_BUDGET``."""
        wave, links, found, states = self._first_wave(), [], [], 0
        while len(wave.tx):
            states += len(wave.tx)
            if states > surface.DEFAULT_STATE_BUDGET:
                # the partial result ends at the last completed wave
                raise ResourceLimitError(
                    f"development exceeded {surface.DEFAULT_STATE_BUDGET} states",
                    partial=_connections(links, found))
            links.append((wave.parent, wave.edge))
            wave = self._step(wave, found)
        return _connections(links, found)

    def _first_wave(self) -> _Wave:
        """The corner wedges of ``_Developer._initial_states``."""
        n, bx, by = self.n, self.bx, self.by
        prev = np.roll(np.arange(n), 1)
        ix, iy = bx[prev] - bx, by[prev] - by  # in-edge rays
        turns = [(bx[self.nxt] - bx, by[self.nxt] - by)]  # out-edge rays
        for _ in range(4):
            x, y = turns[-1]
            turns.append((-y, x))
        cx, cy = (np.stack(axis, 1) for axis in zip(*turns))
        # quarter turns inserted until the in-edge ray is strictly left
        left = cx[:, :4] * iy[:, None] - cy[:, :4] * ix[:, None] > FLOAT_EPS
        inserts = np.where(left.any(1), left.argmax(1), 4)
        corner = np.repeat(np.arange(n), inserts + 1)
        w = _ragged(np.zeros(n, np.int64), inserts + 1, int(inserts.sum()) + n)
        last, after = w == inserts[corner], np.minimum(w + 1, 4)
        return _Wave(-bx[corner], -by[corner], cx[corner, w], cy[corner, w],
                     np.where(last, ix[corner], cx[corner, after]),
                     np.where(last, iy[corner], cy[corner, after]),
                     np.ones(len(w), bool), None, None, None)

    def _ray_hits(self, entry, own, rx, ry, edges):
        """``_Developer._ray_hit`` of each ray (rx, ry), a column, against
        every edge of its state ``own``: (num, den, sign of den, hit)."""
        num, ex, ey = (a[own] for a in edges)
        den = rx * ey - ry * ex
        sden = _sign(den)
        hit = _sign(num) * sden > 0
        if entry is not None:
            e1x, e1y, e2x, e2y, side = (a[own, None] for a in entry)
            eex, eey = e2x - e1x, e2y - e1y
            val = num * (eex * ry - eey * rx) - den * (eex * e1y - eey * e1x)
            hit &= _sign(val) * sden == -side
        return num, den, sden, hit

    def _step(self, wave: _Wave, found: list) -> _Wave:
        """Process every state of the wave; append its emitted vertices to
        ``found`` as (state indices, xs, ys) lists and return the next wave."""
        n, nxt, eps = self.n, self.nxt, FLOAT_EPS
        count = len(wave.tx)
        px, py = self.bx + wave.tx[:, None], self.by + wave.ty[:, None]
        qx, qy = px[:, nxt], py[:, nxt]
        edges = (px * qy - py * qx, qx - px, qy - py)  # cross(q1, q2), q2 - q1
        entry = wave.entry
        origin = (np.abs(px) <= eps) & (np.abs(py) <= eps)
        if entry is None:
            beyond = ~origin
        else:
            e1x, e1y, e2x, e2y, side = (a[:, None] for a in entry)
            beyond = ((e2x - e1x) * (py - e1y) - (e2y - e1y) * (px - e1x)) * side < -eps

        # candidate vertices: in the cone and past the entry
        lx, ly, rx, ry = (a[:, None] for a in (wave.lx, wave.ly, wave.rx, wave.ry))
        c_l, c_r = lx * py - ly * px, px * ry - py * rx
        interior = (c_l > eps) & (c_r > eps)
        on_l = (np.abs(c_l) <= eps) & (lx * px + ly * py > eps)
        cand = ~origin & beyond & (interior | on_l & wave.il[:, None])
        cs, cv = np.nonzero(cand)

        # _blocked: an edge crosses the ray piece before the candidate
        p0, p1 = px[cs, cv, None], py[cs, cv, None]
        sides = _sign(p0 * py[cs] - p1 * px[cs])
        along = (sides == 0) & (sides[:, nxt] == 0)
        t = p0 * px[cs] + p1 * py[cs]
        near = (t > eps) & (p0 * p0 + p1 * p1 - t > eps) & beyond[cs]
        num, den, sden, hit = self._ray_hits(entry, cs, p0, p1, edges)
        blocked = (along & (near | near[:, nxt])) \
            | (~along & (sides * sides[:, nxt] <= 0) & hit & (_sign(num - den) * sden < 0))
        free = ~blocked.any(1)
        cs, cv = cs[free], cv[free]
        x, y = px[cs, cv], py[cs, cv]
        ball = x * x + y * y <= self.rsq
        found.append((cs[ball].tolist(), x[ball].tolist(), y[ball].tolist()))

        # first singularities terminate rays: interior ones split the cone
        inner = interior[cs, cv]
        kill_l = np.zeros(count, bool)
        kill_l[cs[~inner]] = True
        ss, sx, sy = cs[inner], x[inner], y[inner]
        splits = np.bincount(ss, minlength=count)
        # a split's place in the orient order of its state's splits, ties
        # kept in vertex order (the stable sort of _process): count the
        # splits j of its state with orient(s_j, s_i) > 0 or a tie and j < i
        pairs = splits[ss]
        i = np.repeat(np.arange(len(ss)), pairs)
        j = _ragged((np.cumsum(splits) - splits)[ss], pairs, int(pairs.sum()))
        cross = sx[j] * sy[i] - sy[j] * sx[i]
        before = (cross > eps) | (np.abs(cross) <= eps) & (j < i)
        rank = np.bincount(i[before], minlength=len(ss))

        # bounds of each state end to end: left ray, splits in order, right ray
        size = splits + 2
        start = np.cumsum(size) - size
        end = start + splits + 1
        total = int(size.sum())
        bx, by, binc = np.empty(total), np.empty(total), np.zeros(total, bool)
        bx[start], by[start], binc[start] = wave.lx, wave.ly, wave.il & ~kill_l
        bx[end], by[end] = wave.rx, wave.ry
        at = start[ss] + 1 + rank
        bx[at], by[at] = sx, sy
        a = _ragged(start, splits + 1, total - count)
        own = np.repeat(np.arange(count), splits + 1)
        cone = (own, bx[a], by[a], binc[a], bx[a + 1], by[a + 1])

        # sub-cones: drop slivers, then windows beyond the radius
        keep = cone[1] * cone[5] - cone[2] * cone[4] > eps
        own, lx, ly, il, rx, ry = (c[keep] for c in cone)
        if entry is not None:
            keep = ~(_window_min_radius(entry, own, lx, ly, rx, ry) > self.reach)
            own, lx, ly, il, rx, ry = (c[keep] for c in (own, lx, ly, il, rx, ry))

        # _first_hit_edge of the middle ray: nearest crossed edge, in edge order
        mx, my = (lx + rx)[:, None], (ly + ry)[:, None]
        sides = _sign(mx * py[own] - my * px[own])
        num, den, sden, hit = self._ray_hits(entry, own, mx, my, edges)
        hit &= ~((sides == 0) & (sides[:, nxt] == 0)) & (sides * sides[:, nxt] <= 0)
        best = np.full(len(own), -1)
        bnum, bden, bsign = np.zeros((3, len(own)))
        for k in range(n):
            nearer = hit[:, k] & ((best < 0) | (_sign(num[:, k] * bden - bnum * den[:, k])
                                               * sden[:, k] * bsign < 0))
            best[nearer] = k
            bnum = np.where(nearer, num[:, k], bnum)
            bden = np.where(nearer, den[:, k], bden)
            bsign = np.where(nearer, sden[:, k], bsign)
        if (best < 0).any():
            raise RuntimeError("development ray found no exit edge")

        # cross the exit edge into the glued copy
        e1x, e1y = px[own, best], py[own, best]
        e2x, e2y = px[own, nxt[best]], py[own, nxt[best]]
        side = _sign((e2x - e1x) * -e1y - (e2y - e1y) * -e1x)
        keep = side != 0  # a window collinear with the origin subtends no angle
        own, k = own[keep], best[keep]
        return _Wave(wave.tx[own] + self.sx[k], wave.ty[own] + self.sy[k],
                     lx[keep], ly[keep], rx[keep], ry[keep], il[keep],
                     (e1x[keep], e1y[keep], e2x[keep], e2y[keep], side[keep]), own, k)


def _window_min_radius(entry, own, lx, ly, rx, ry):
    """``_Developer._window_min_radius`` of each sub-cone (lx, ly)-(rx, ry)
    of state ``own``: a lower bound for |x| over the entry window.

    ``np.hypot`` is not ``math.hypot``: on about 0.2 % of random inputs they
    differ by one ulp.  The bound only prunes windows beyond
    R (1 + 1e-9) + 1e-9, which hold no connection of length_sq <= R^2 + 1e-9,
    so a one-ulp difference can only add or drop states that emit nothing,
    and only when a bound lies within an ulp of that threshold.
    """
    e1x, e1y, e2x, e2y = (a[own] for a in entry[:4])
    ex, ey = e2x - e1x, e2y - e1y
    low = np.full(len(own), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = e1x * ey - e1y * ex
        for fx, fy in ((lx, ly), (rx, ry)):
            den = fx * ey - fy * ex
            low = np.minimum(low, np.where(np.abs(den) > 1e-300,
                                           np.abs(cut / den) * np.hypot(fx, fy), np.inf))
        esq = ex * ex + ey * ey
        u = -(e1x * ex + e1y * ey) / esq
        fx, fy = e1x + u * ex, e1y + u * ey
        seen = (esq > 0) & (0.0 <= u) & (u <= 1.0) \
            & (lx * fy - ly * fx >= 0) & (fx * ry - fy * rx >= 0)
    return np.minimum(low, np.where(seen, np.hypot(fx, fy), np.inf))


def _connections(links, found) -> list[SaddleConnection]:
    """The connections of the completed waves in discovery order.  A path is
    its state's chain of crossings, built wave by wave only for the states
    that lead to an emitted vertex."""
    links = [(parent.tolist(), edge.tolist()) for parent, edge in links[1:]]
    need = [set(states) for states, _, _ in found]
    for w in range(len(found) - 1, 0, -1):
        parent = links[w - 1][0]
        need[w - 1].update(parent[s] for s in need[w])
    paths = dict.fromkeys(need[0], ())
    out = []
    for w, (states, xs, ys) in enumerate(found):
        if w:
            parent, edge = links[w - 1]
            paths = {s: paths[parent[s]] + (edge[s],) for s in need[w]}
        out.extend(SaddleConnection(Vec2(x, y), paths[s])
                   for s, x, y in zip(states, xs, ys))
    return out
