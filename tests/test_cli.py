import json
import subprocess
import sys
from fractions import Fraction

import pytest

from gapkit import bcz, cli


def run_cli(args, **kwargs):
    return subprocess.run([sys.executable, "-m", "gapkit.cli", *args],
                          capture_output=True, text=True, **kwargs)


def data_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


class TestFareyGaps:
    def test_level_four_exact_values(self):
        res = run_cli(["farey-gaps", "--q", "4"])
        assert res.returncode == 0
        _, rows = data_rows(res.stdout)
        assert [r[1] for r in rows] == ["3/2", "1/2", "1/1", "1/1", "1/2", "3/2"]

    def test_json_format(self):
        res = run_cli(["farey-gaps", "--q", "3", "--format", "json"])
        payload = json.loads(res.stdout)
        assert payload["columns"] == ["index", "normalized_gap"]
        assert payload["meta"]["q"] == "3"
        assert len(payload["rows"]) == 4


class TestBczOrbit:
    def test_exact_period_in_metadata(self):
        res = run_cli(["bcz-orbit", "--a", "1/4", "--b", "1", "--eta", "1",
                       "--steps", "10", "--exact"])
        assert res.returncode == 0
        assert "# period: 6" in res.stdout

    def test_exact_rows_are_bcz_step_iterates(self):
        res = run_cli(["bcz-orbit", "--a", "2/7", "--b", "3/5", "--eta", "7/10",
                       "--steps", "40", "--exact"])
        assert res.returncode == 0
        _, rows = data_rows(res.stdout)
        start = bcz.TransversalPoint(Fraction(2, 7), Fraction(3, 5), Fraction(7, 10))
        want, cur = [], start
        for i in range(40):
            want.append([cli._fmt(v) for v in (i, cur.a, cur.b, bcz.roof(cur))])
            cur = bcz.bcz_step(cur)
            if (cur.a, cur.b) == (start.a, start.b):
                break
        assert rows == want

    def test_invalid_point_is_usage_error(self):
        res = run_cli(["bcz-orbit", "--a", "1/4", "--b", "1/4", "--steps", "5"])
        assert res.returncode == 2

    def test_step_budget_is_resource_error(self):
        res = run_cli(["bcz-orbit", "--a", "1", "--b", "1",
                       "--steps", "30000000"])
        assert res.returncode == 3


class TestHall:
    def test_grid_rows(self):
        res = run_cli(["hall", "--scaling", "unnormalized", "--grid", "64"])
        cols, rows = data_rows(res.stdout)
        assert cols == ["t", "cdf", "pdf"]
        assert len(rows) == 64
        assert "# kink_low: 1.0" in res.stdout


class TestLatticeGaps:
    def test_fast_and_oracle_agree(self):
        fast = run_cli(["lattice-gaps", "--seed", "5", "--count", "100"])
        oracle = run_cli(["lattice-gaps", "--seed", "5", "--count", "100",
                          "--oracle"])
        assert fast.returncode == oracle.returncode == 0
        _, frows = data_rows(fast.stdout)
        _, orows = data_rows(oracle.stdout)
        for (_, a), (_, b) in zip(frows, orows):
            assert abs(float(a) - float(b)) <= 1e-9


class TestSurfaceSc:
    def test_golden_short_radius(self):
        res = run_cli(["surface-sc", "--shape", "golden", "--radius", "1.1"])
        assert res.returncode == 0
        _, rows = data_rows(res.stdout)
        assert len(rows) == 12
        assert "# count: 12" in res.stdout

    def test_generic_shape(self):
        res = run_cli(["surface-sc", "--shape", "l:1.7,1.9", "--radius", "2.0"])
        assert res.returncode == 0


class TestCompare:
    def test_farey_vs_hall(self, tmp_path):
        gaps_file = tmp_path / "farey_gaps.csv"
        res = run_cli(["farey-gaps", "--q", "500", "--output", str(gaps_file)])
        assert res.returncode == 0
        res = run_cli(["compare", "--left", str(gaps_file), "--cdf", "hall"])
        assert res.returncode == 0
        _, rows = data_rows(res.stdout)
        assert float(rows[0][0]) <= 0.02

    def test_two_sample(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli(["baseline-poisson", "--n", "2000", "--seed", "1",
                 "--output", str(a)])
        run_cli(["baseline-poisson", "--n", "2000", "--seed", "2",
                 "--output", str(b)])
        res = run_cli(["compare", "--left", str(a), "--right", str(b)])
        assert res.returncode == 0
        _, rows = data_rows(res.stdout)
        assert 0.0 <= float(rows[0][0]) <= 0.1

    def test_missing_reference(self, tmp_path):
        a = tmp_path / "a.csv"
        run_cli(["baseline-poisson", "--n", "100", "--seed", "1",
                 "--output", str(a)])
        res = run_cli(["compare", "--left", str(a)])
        assert res.returncode == 2


class TestContract:
    def test_unknown_flag_exits_2(self):
        res = run_cli(["farey-gaps", "--q", "4", "--bogus"])
        assert res.returncode == 2
        assert res.stderr

    def test_unknown_command_exits_2(self):
        assert run_cli(["no-such-command"]).returncode == 2

    @pytest.mark.parametrize("args", [
        ["farey-gaps", "--q", "40"],
        ["bcz-orbit", "--a", "0.3", "--b", "0.9", "--steps", "50"],
        ["hall", "--grid", "32"],
        ["lattice-gaps", "--seed", "3", "--count", "200"],
        ["affine-angles", "--shift", "0.41,0.73", "--radius", "40"],
        ["wedge-p", "--sigma", "1.0", "--radius", "30", "--samples", "400",
         "--seed", "7"],
        ["sqrtn", "--n", "3000"],
        ["surface-sc", "--shape", "golden", "--radius", "3.0"],
        ["baseline-poisson", "--n", "1000", "--seed", "11"],
    ])
    def test_byte_identical_reruns_and_worker_independence(self, args):
        first = run_cli(args)
        second = run_cli(args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        w1 = run_cli([*args, "--workers", "1"])
        w4 = run_cli([*args, "--workers", "4"])
        assert w1.stdout == w4.stdout

    def test_workers_env_default(self, monkeypatch):
        monkeypatch.setenv("GAPKIT_THREADS", "3")
        args = cli.build_parser().parse_args(["farey-gaps", "--q", "5"])
        assert args.workers == 3

    def test_main_callable_directly(self, capsys):
        assert cli.main(["farey-gaps", "--q", "1"]) == 0
        out = capsys.readouterr().out
        assert "1/1" in out


def test_import_leaves_scipy_integrate_unloaded():
    res = subprocess.run(
        [sys.executable, "-c",
         "import gapkit.cli, sys; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
