"""Spans around gapkit's public functions, placed from outside the package.

``Tracer.install`` swaps each traced function (or method) for a wrapper on
its module or class, so that calls made inside gapkit through a module
attribute are seen too; ``uninstall`` puts the originals back.  A span is
``(id, parent, name, variant, start, end, task, work)``: ``work`` counts the
units the call produced (steps, points, slopes, connections).  Spans stay
in memory until ``write_spans``.  ``layer_metrics`` turns them into the
``<module>.<function>.<quantity>`` table of BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict


def _size(value) -> int:
    import numpy as np
    return int(np.size(value))


def _exact_flag(args, kwargs) -> str:
    exact = kwargs.get("exact", args[3] if len(args) > 3 else False)
    return "exact" if exact else "float"


def _surface_kind(args, kwargs) -> str:
    return "golden" if args[0].is_exact() else "lshape"


# (module, attribute path, work counter taking (result, args, kwargs), variant)
TRACED = (
    ("bcz", "orbit", lambda r, a, k: len(r.returns), None),
    ("bcz", "roof_sequence", lambda r, a, k: len(r), None),
    ("farey", "farey_size", None, None),
    ("farey", "farey_pairs", None, None),  # generator: work = items yielded
    ("lattice", "seeded_lattice", None, None),
    ("lattice", "to_transversal", None, None),
    ("lattice", "slope_gaps_fast", lambda r, a, k: len(r), _exact_flag),
    ("lattice", "poisson_baseline", lambda r, a, k: len(r), None),
    ("lattice", "UnimodularLattice.enumerate_points", lambda r, a, k: len(r), None),
    ("pointcloud", "slopes_in_strip", lambda r, a, k: len(r), None),
    ("pointcloud", "hitting_times", lambda r, a, k: len(r), None),
    ("pointcloud", "is_horizontally_short", None, None),
    ("surface", "golden_l", None, None),
    ("surface", "l_shape", None, None),
    ("surface", "saddle_connections", lambda r, a, k: len(r), _surface_kind),
    ("surface", "sc_angle_gaps", None, None),
    ("surface", "sc_slope_gaps", None, None),
    ("affine", "AffineLattice.ball_points", lambda r, a, k: len(r), None),
    ("affine", "angle_gap_distribution", None, None),
    ("affine", "empirical_p", None, None),
    ("affine", "sqrt_mod1_gaps", lambda r, a, k: len(r), None),
    ("hall", "hall_cdf", lambda r, a, k: _size(a[0]), None),
    ("stats", "ks_distance", lambda r, a, k: a[0].count, None),
    ("stats", "ecdf", lambda r, a, k: r.count, None),
    ("cli", "main", None, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.task = None
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        self._developed: dict = {}  # id(surface) -> (surface, radii developed)

    def install(self):
        for module, path, work, variant in TRACED:
            mod = importlib.import_module("gapkit." + module)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            fn = getattr(owner, attr)
            name = f"{module}.{attr}"
            wrapper = (self._wrap_generator(fn, name) if path == "farey_pairs"
                       else self._wrap(fn, name, work, variant))
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def start_pass(self):
        """Forget which surfaces were developed, so repeat calls are per pass."""
        self._developed.clear()

    def _open(self):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        return sid, parent

    def _wrap(self, fn, name, work, variant_of):
        tracer = self

        def traced(*args, **kwargs):
            variant = variant_of(args, kwargs) if variant_of else ""
            if name == "surface.saddle_connections":
                variant += tracer._repeat_tag(args)
            sid, parent = tracer._open()
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (sid, parent, name, variant, start, end,
                                     tracer.task, 0)
            if work is not None:
                tracer.spans[sid] = tracer.spans[sid][:7] + (work(result, args, kwargs),)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            task = tracer.task
            inner = fn(*args, **kwargs)
            busy, items, first = 0.0, 0, time.perf_counter()
            try:
                while True:
                    t0 = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += time.perf_counter() - t0
                        return
                    busy += time.perf_counter() - t0
                    items += 1
                    yield item
            finally:
                # busy time only: the consumer's work between items is not ours
                tracer.spans[sid] = (sid, parent, name, "", first, first + busy, task, items)

        traced.__wrapped__ = fn
        return traced

    def _repeat_tag(self, args) -> str:
        surf, radius = args[0], float(args[1])
        _, radii = self._developed.setdefault(id(surf), (surf, set()))
        if radius in radii:
            return ".repeat"
        radii.add(radius)
        return ""

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, variant, start, end, task, work in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "variant": variant, "start": start, "end": end,
                                     "task": task, "work": work}) + "\n")


class LayerStats:
    """Per (name, variant): calls, busy and self seconds, work, and the
    number of direct child spans by child name."""

    def __init__(self, spans):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.work = defaultdict(int)
        self.children = defaultdict(int)
        self.child_work = defaultdict(int)
        durations = {}
        for sid, parent, name, variant, start, end, task, work in spans:
            key = (name, variant)
            durations[sid] = end - start
            self.calls[key] += 1
            self.busy[key] += end - start
            self.self_s[key] += end - start
            self.work[key] += work
        by_id = {s[0]: s for s in spans}
        for sid, parent, name, variant, start, end, task, work in spans:
            if parent is None:
                continue
            pname = by_id[parent][2]
            self.self_s[(pname, by_id[parent][3])] -= durations[sid]
            self.children[(pname, name)] += 1
            self.child_work[(pname, name)] += work

    def total(self, table, name, variants=None) -> float:
        return sum(v for (n, var), v in table.items()
                   if n == name and (variants is None or var in variants))


def _per(num, den, scale=1.0) -> float:
    return num / den * scale if den else 0.0


# name -> unit; the order is the order of BENCHMARK.json's per_layer list
LAYER_UNITS = {
    "bcz.orbit.calls": "count", "bcz.orbit.steps": "count",
    "bcz.orbit.busy_s": "s", "bcz.orbit.us_per_step": "us",
    "bcz.roof_sequence.steps": "count", "bcz.roof_sequence.us_per_step": "us",
    "farey.farey_size.busy_s": "s", "farey.farey_pairs.items": "count",
    "farey.farey_pairs.busy_s": "s",
    "lattice.seeded_lattice.busy_s": "s", "lattice.to_transversal.busy_s": "s",
    "lattice.slope_gaps_fast.exact.us_per_gap": "us",
    "lattice.enumerate_points.calls": "count", "lattice.enumerate_points.points": "count",
    "lattice.enumerate_points.us_per_point": "us",
    "lattice.enumerate_points.useful_ratio": "ratio",
    "lattice.poisson_baseline.busy_s": "s",
    "pointcloud.slopes_in_strip.busy_s": "s", "pointcloud.slopes_in_strip.slopes": "count",
    "pointcloud.slopes_in_strip.us_per_slope": "us",
    "pointcloud.slopes_in_strip.enumerations_per_call": "count",
    "pointcloud.hitting_times.busy_s": "s",
    "pointcloud.is_horizontally_short.calls": "count",
    "pointcloud.is_horizontally_short.us_per_call": "us",
    "surface.golden_l.busy_s": "s",
    "surface.saddle_connections.golden.connections": "count",
    "surface.saddle_connections.golden.busy_s": "s",
    "surface.saddle_connections.golden.us_per_connection": "us",
    "surface.saddle_connections.repeat_us": "us",
    "surface.sc_angle_gaps.self_s": "s", "surface.sc_slope_gaps.self_s": "s",
    "surface.saddle_connections.lshape.connections": "count",
    "surface.saddle_connections.lshape.us_per_connection": "us",
    "affine.ball_points.points": "count", "affine.ball_points.us_per_point": "us",
    "affine.angle_gap_distribution.self_s": "s", "affine.empirical_p.busy_s": "s",
    "affine.sqrt_mod1_gaps.busy_s": "s",
    "hall.hall_cdf.ns_per_point": "ns", "stats.ks_distance.ns_per_sample": "ns",
    "stats.ecdf.busy_s": "s",
    "cli.main.self_s": "s", "cli.main.rows": "count", "cli.main.bytes": "bytes",
    "cli.main.us_per_row": "us",
    "import.gapkit_s": "s", "import.gapkit.hall_s": "s", "import.gapkit.cli_s": "s",
    "core.exact_over_float.bcz": "ratio", "core.exact_over_float.surface": "ratio",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(spans, counters: dict) -> dict:
    """Span-derived per-layer values of one traced pass.

    Layers the workload does not reach read 0.  ``counters`` are the task
    counters of the same pass (CLI rows and bytes come from there).
    """
    st = LayerStats(spans)
    busy = lambda name, v=None: st.total(st.busy, name, v)
    work = lambda name, v=None: st.total(st.work, name, v)
    calls = lambda name, v=None: st.total(st.calls, name, v)
    selfs = lambda name, v=None: st.total(st.self_s, name, v)
    sc = "surface.saddle_connections"
    strip_slopes = work("pointcloud.slopes_in_strip")
    strip_enums = st.children[("pointcloud.slopes_in_strip", "lattice.enumerate_points")]
    strip_points = st.child_work[("pointcloud.slopes_in_strip", "lattice.enumerate_points")]
    repeats = ("golden.repeat", "lshape.repeat")
    rows = counters.get("cli_rows", 0)
    return {
        "bcz.orbit.calls": calls("bcz.orbit"),
        "bcz.orbit.steps": work("bcz.orbit"),
        "bcz.orbit.busy_s": busy("bcz.orbit"),
        "bcz.orbit.us_per_step": _per(busy("bcz.orbit"), work("bcz.orbit"), 1e6),
        "bcz.roof_sequence.steps": work("bcz.roof_sequence"),
        "bcz.roof_sequence.us_per_step": _per(busy("bcz.roof_sequence"),
                                              work("bcz.roof_sequence"), 1e6),
        "farey.farey_size.busy_s": busy("farey.farey_size"),
        "farey.farey_pairs.items": work("farey.farey_pairs"),
        "farey.farey_pairs.busy_s": busy("farey.farey_pairs"),
        "lattice.seeded_lattice.busy_s": busy("lattice.seeded_lattice"),
        "lattice.to_transversal.busy_s": busy("lattice.to_transversal"),
        "lattice.slope_gaps_fast.exact.us_per_gap": _per(
            busy("lattice.slope_gaps_fast", ("exact",)),
            work("lattice.slope_gaps_fast", ("exact",)), 1e6),
        "lattice.enumerate_points.calls": calls("lattice.enumerate_points"),
        "lattice.enumerate_points.points": work("lattice.enumerate_points"),
        "lattice.enumerate_points.us_per_point": _per(
            busy("lattice.enumerate_points"), work("lattice.enumerate_points"), 1e6),
        "lattice.enumerate_points.useful_ratio": _per(strip_slopes, strip_points),
        "lattice.poisson_baseline.busy_s": busy("lattice.poisson_baseline"),
        "pointcloud.slopes_in_strip.busy_s": busy("pointcloud.slopes_in_strip"),
        "pointcloud.slopes_in_strip.slopes": strip_slopes,
        "pointcloud.slopes_in_strip.us_per_slope": _per(
            busy("pointcloud.slopes_in_strip"), strip_slopes, 1e6),
        "pointcloud.slopes_in_strip.enumerations_per_call": _per(
            strip_enums, calls("pointcloud.slopes_in_strip")),
        "pointcloud.hitting_times.busy_s": busy("pointcloud.hitting_times"),
        "pointcloud.is_horizontally_short.calls": calls("pointcloud.is_horizontally_short"),
        "pointcloud.is_horizontally_short.us_per_call": _per(
            busy("pointcloud.is_horizontally_short"),
            calls("pointcloud.is_horizontally_short"), 1e6),
        "surface.golden_l.busy_s": busy("surface.golden_l"),
        "surface.saddle_connections.golden.connections": work(sc, ("golden",)),
        "surface.saddle_connections.golden.busy_s": busy(sc, ("golden",)),
        "surface.saddle_connections.golden.us_per_connection": _per(
            busy(sc, ("golden",)), work(sc, ("golden",)), 1e6),
        "surface.saddle_connections.repeat_us": _per(busy(sc, repeats),
                                                     calls(sc, repeats), 1e6),
        "surface.sc_angle_gaps.self_s": selfs("surface.sc_angle_gaps"),
        "surface.sc_slope_gaps.self_s": selfs("surface.sc_slope_gaps"),
        "surface.saddle_connections.lshape.connections": work(sc, ("lshape",)),
        "surface.saddle_connections.lshape.us_per_connection": _per(
            busy(sc, ("lshape",)), work(sc, ("lshape",)), 1e6),
        "affine.ball_points.points": work("affine.ball_points"),
        "affine.ball_points.us_per_point": _per(busy("affine.ball_points"),
                                                work("affine.ball_points"), 1e6),
        "affine.angle_gap_distribution.self_s": selfs("affine.angle_gap_distribution"),
        "affine.empirical_p.busy_s": busy("affine.empirical_p"),
        "affine.sqrt_mod1_gaps.busy_s": busy("affine.sqrt_mod1_gaps"),
        "hall.hall_cdf.ns_per_point": _per(busy("hall.hall_cdf"), work("hall.hall_cdf"), 1e9),
        "stats.ks_distance.ns_per_sample": _per(busy("stats.ks_distance"),
                                                work("stats.ks_distance"), 1e9),
        "stats.ecdf.busy_s": busy("stats.ecdf"),
        "cli.main.self_s": selfs("cli.main"),
        "cli.main.rows": rows,
        "cli.main.bytes": counters.get("cli_bytes", 0),
        "cli.main.us_per_row": _per(busy("cli.main"), rows, 1e6),
    }
