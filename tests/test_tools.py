"""The measurement tools under tools/ still run: each in its quick mode, in
a subprocess, as a user would start it."""

import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_startup_probe_quick_mode():
    res = subprocess.run([sys.executable, str(TOOLS / "startup.py"), "--quick"],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["checkouts"]["change"] == report["checkouts"]["parent"]
    [timed] = report["commands"].values()
    for side in ("change", "parent"):
        [sample] = timed[side]["samples_s"]
        assert sample > 0
        assert timed[side]["median_s"] == timed[side]["q1_s"] == timed[side]["q3_s"] == sample


def test_layers_probe_quick_mode():
    # one exact and one float golden L at R = 3 per side, about 1 s in all
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
        assert golden["exact_ms"]["median"] > 0 and golden["exact_float_ratio"] > 0
