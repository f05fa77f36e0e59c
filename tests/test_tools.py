"""The measurement tools under tools/ still run: layers.py in its quick
mode, in a subprocess, as a user would start it; pipeline_calls.py's copy of
criterion 10's commands is still the acceptance suite's."""

import ast
import importlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from gapkit import _waves, core

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_layers_probe_quick_mode():
    # one exact and one float golden L at R = 3, one timed cli.main call
    # of each command, one timed exact and float strip of 501 slopes and
    # one timed Farey orbit at Q = 60 and 1,000 float roofs, and one fresh
    # gapkit farey-gaps --q 5, per side, about 1 s in all
    res = subprocess.run([sys.executable, str(TOOLS / "layers.py"), "--quick"],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["checkouts"]["change"] == report["checkouts"]["parent"]
    [layer] = report["layers"]["surface"].values()
    for side in ("change", "parent"):
        golden = layer[side]
        assert golden["connections"] == 72
        assert golden["exact_states"] == golden["float_states"] == 300
        assert golden["certified_waves"] == 5 and golden["uncertified_waves"] == 0
        assert golden["exact_fallbacks"] == 0  # every wave certified, no point on the sphere
        assert golden["exact_ms"]["median"] > 0 and golden["exact_float_ratio"] > 0
    commands = report["layers"]["cli"]
    assert sorted(commands) == ["hall --grid 8", "lattice-gaps --count 10000"]
    for command, rows in zip(sorted(commands), (8, 10000)):
        for side in ("change", "parent"):
            calls = commands[command][side]
            assert calls["rows"] == rows
            assert calls["call_us"]["median"] > 0 and calls["us_per_row"] > 0
    strips = report["layers"]["strip"]
    assert sorted(strips) == ["seeded(3) exact n=501", "seeded(3) float n=501"]
    for layer in strips.values():
        for side in ("change", "parent"):
            work = layer[side]
            assert work["slopes"] == 501 and work["scans"] >= 1 and work["cells"] > 501
            # the points handed to the strip loop: every slope kept, and no
            # more than the cells scanned
            assert work["cells"] >= work["rows"] >= 501
            assert work["rows_per_slope"] == round(work["rows"] / 501, 4)
            assert work["ms"]["median"] > 0 and work["us_per_slope"] > work["us_per_cell"] > 0
        # the strip below its diagonal: 634 rows, where the rectangle had 1,280
        assert layer["change"]["rows"] == 634
    orbits = report["layers"]["bcz"]
    assert sorted(orbits) == ["farey Q=60", "roof_sequence n=1000"]
    for side in ("change", "parent"):
        farey, floats = orbits["farey Q=60"][side], orbits["roof_sequence n=1000"][side]
        assert (farey["steps"], farey["distinct_roofs"]) == (1102, 513)
        assert (floats["steps"], floats["distinct_roofs"]) == (1000, None)
        assert farey["us_per_step"] > 0 and floats["us_per_step"] > 0
    [timed] = report["layers"]["startup"].values()
    for side in ("change", "parent"):
        [sample] = timed[side]["samples_s"]
        assert sample > 0
        assert timed[side]["s"]["median"] == timed[side]["s"]["q1"] == timed[side]["s"]["q3"] \
            == sample


def test_pipeline_calls_keeps_criterion_10s_commands(monkeypatch):
    # the tool runs criterion 10's commands in-process from its own copy
    monkeypatch.syspath_prepend(str(TOOLS))
    pipeline_calls = importlib.import_module("pipeline_calls")
    tree = ast.parse(pipeline_calls.ACCEPTANCE.read_text())
    [test] = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "test_criterion_10_cli_determinism"]
    [commands] = [ast.literal_eval(node.value) for node in test.body
                  if isinstance(node, ast.Assign) and node.targets[0].id == "commands"]
    assert commands == pipeline_calls.CRITERION_10


def test_layers_counts_exact_fallbacks(monkeypatch):
    # the surface layer's count: every call of zphi_sign through the gapkit
    # modules that import it, the filter's re-signs and the exact ball tests
    monkeypatch.syspath_prepend(str(TOOLS))
    layers = importlib.import_module("layers")
    a = np.array([Fraction(1, 10 ** 400), 3, 0], object)  # a float 0.0, a float, a zero
    with layers.exact_fallbacks() as calls:
        assert _waves._zphi_signs(a, np.zeros(3, object)).tolist() == [1, 1, 0]
        assert _waves._zin_ball((3, 0, 4, 0), 25, 1)  # on the sphere R = 5
    assert calls == [2]
    assert _waves.zphi_sign is core.zphi_sign
