import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
            want.append([str(i)] + [f"{x.numerator}/{x.denominator}"
                                    for x in (cur.a, cur.b, bcz.roof(cur))])
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

    def test_json_input_gives_the_csv_distance(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        distances = []
        for fmt in ("csv", "json"):
            assert cli.main(["sqrtn", "--n", "2000", "--format", fmt,
                             "--output", "gaps." + fmt]) == 0
            assert cli.main(["compare", "--left", "gaps." + fmt, "--cdf", "poisson"]) == 0
            _, rows = data_rows(capsys.readouterr().out)
            distances.append(rows[0][0])
        assert distances[0] == distances[1]
        assert 0.0 < float(distances[0]) < 1.0

    @pytest.mark.parametrize("name, content, shown", [
        pytest.param("golden.csv", "index,gap\n0,1+2*phi\n1,3/2\n", "1+2*phi",
                     id="golden-cell"),
        pytest.param("zero.csv", "index,gap\n0,3/2\n1,1/0\n", "'1/0'",
                     id="csv-zero-denominator"),
        pytest.param("zero.json", '{"columns": ["index", "gap"], "rows": [["0", "1/0"]]}',
                     "'1/0'", id="json-zero-denominator"),
        pytest.param("norows.json", '{"columns": ["index", "gap"]}', "'rows'",
                     id="json-without-rows"),
        pytest.param("scalars.json", '{"rows": [1, 2]}', "'rows'", id="json-scalar-rows"),
        pytest.param("numbers.json", '{"rows": [[0, 1.5]]}', "'rows'",
                     id="json-number-cells"),
        pytest.param("empty.json", '{"rows": [[]]}', "'rows'", id="json-empty-row"),
    ])
    def test_golden_cells_are_rejected(self, tmp_path, capsys, name, content, shown):
        path = tmp_path / name
        path.write_text(content)
        assert cli.main(["compare", "--left", str(path), "--cdf", "poisson"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gapkit: ")
        assert shown in err


    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf",
                                      pytest.param("9" * 400 + "/1", id="400-nines")])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_cells_are_rejected(self, tmp_path, capsys, cell, fmt):
        path = tmp_path / ("gaps." + fmt)
        if fmt == "csv":
            path.write_text(f"index,gap\n0,0.5\n1,{cell}\n")
        else:
            path.write_text(json.dumps({"rows": [["0", "0.5"], ["1", cell]]}))
        assert cli.main(["compare", "--left", str(path), "--cdf", "poisson"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"gapkit: non-finite cell {cell!r}\n"
        assert captured.out == ""


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
        # R^2 underflows to 0: every wedge is the whole (empty) ball
        ["wedge-p", "--sigma", "1", "--radius", "1e-300", "--samples", "3"],
    ])
    def test_byte_identical_reruns_and_worker_independence(self, args):
        first = run_cli(args)
        second = run_cli(args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        w1 = run_cli([*args, "--workers", "1"])
        w4 = run_cli([*args, "--workers", "4"])
        assert w1.stdout == w4.stdout

    @pytest.mark.parametrize("args", [
        ["bcz-orbit", "--a", "1/0", "--b", "1", "--steps", "3"],
        ["surface-sc", "--shape", "foo", "--radius", "3"],
        ["compare", "--left", "{tmp}/missing.csv", "--cdf", "hall"],
        ["hall", "--grid", "4", "--output", "{tmp}/no/such/dir/x.csv"],
        # past the float range: these ended in a traceback with exit 1
        ["affine-angles", "--shift", "1e400,0", "--radius", "5"],
        ["wedge-p", "--shift", "1e400,0", "--sigma", "1", "--radius", "5", "--samples", "10"],
        ["surface-sc", "--shape", "l:1e154,1.5", "--radius", "5"],
        ["surface-sc", "--shape", "l:1e200,2", "--radius", "5"],
    ], ids=["zero-denominator", "unknown-shape", "missing-input", "unwritable-output",
            "affine-shift-1e400", "wedge-shift-1e400", "surface-l-1e154", "surface-l-1e200"])
    def test_bad_input_exits_2_without_traceback(self, args, tmp_path):
        res = run_cli([arg.format(tmp=tmp_path) for arg in args])
        assert res.returncode == 2
        assert res.stderr.startswith("gapkit:")
        assert "Traceback" not in res.stderr
        if "--shift" in args:
            assert "--shift" in res.stderr

    @pytest.mark.parametrize("args", [
        ["surface-sc", "--shape", "golden", "--radius", "inf"],
        ["lattice-gaps", "--seed", "1", "--count", "10", "--eta", "inf"],
        ["wedge-p", "--sigma", "inf", "--radius", "10", "--samples", "10"],
    ], ids=["surface-radius", "lattice-eta", "wedge-sigma"])
    def test_non_finite_float_option_exits_2(self, args):
        res = run_cli(args)
        assert res.returncode == 2
        assert "invalid finite float value: 'inf'" in res.stderr
        assert "Traceback" not in res.stderr

    def test_environment_does_not_set_workers(self):
        env = {**os.environ, "GAPKIT_THREADS": "x"}
        res = run_cli(["hall", "--grid", "4"], env=env)
        assert res.returncode == 0, res.stderr

    def test_main_callable_directly(self, capsys):
        assert cli.main(["farey-gaps", "--q", "1"]) == 0
        out = capsys.readouterr().out
        assert "1/1" in out


# one small run of every subcommand; compare reads the lattice-gaps file
WRITE_ONCE = {
    "farey-gaps": "--q 12",
    "bcz-orbit": "--a 1/4 --b 1 --eta 1 --steps 10 --exact",
    "hall": "--grid 8",
    "lattice-gaps": "--seed 3 --count 20 --output gaps.csv",
    "affine-angles": "--shift 0.41,0.73 --radius 10",
    "wedge-p": "--sigma 1.0 --radius 10 --samples 50 --seed 7",
    "sqrtn": "--n 50",
    "surface-sc": "--shape golden --radius 2.0",
    "baseline-poisson": "--n 30 --seed 11",
    "compare": "--left gaps.csv --cdf poisson",
}


def test_write_once_covers_every_subcommand():
    [sub] = [a for a in cli.build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == sorted(WRITE_ONCE)


def test_every_subcommand_writes_once_from_main(tmp_path, monkeypatch, capsys):
    """Handlers return (config, columns) and write nothing; main writes them
    with exactly one _write_output call, of equal-length columns."""
    monkeypatch.chdir(tmp_path)
    calls = []
    write = cli._write_output

    def spy(meta, columns, fmt, path):
        calls.append((meta, {name: len(col) for name, col in columns.items()}))
        write(meta, columns, fmt, path)

    monkeypatch.setattr(cli, "_write_output", spy)
    for command, options in WRITE_ONCE.items():
        argv = [command, *options.split()]
        args = cli.build_parser().parse_args(argv)
        calls.clear()
        config, columns = args.func(args)
        assert calls == []
        assert cli.main(argv) == 0
        [(meta, lengths)] = calls
        assert meta == cli._meta(args, **config)
        assert list(lengths) == list(columns)
        assert len(set(lengths.values())) == 1
    capsys.readouterr()
    calls.clear()
    assert cli.main(["surface-sc", "--shape", "foo", "--radius", "3"]) == 2
    assert calls == []


# SHA-256 of the --format csv and --format json output of one small run of
# every subcommand, in-process through cli.main.  compare reads gaps.csv and
# gaps.json, the two formats of "lattice-gaps --seed 3 --count 200".
PINNED_OUTPUT = {
    "farey-gaps --q 12":
        ("effe38d28832c785f4942948011fd3736019a7276aceb93936688767d636e500",
         "596379e0e0c8e48b8c6012fc61a5f124d55b36b16f7d800de5682891c01a2eb9"),
    "bcz-orbit --a 1/4 --b 1 --eta 1 --steps 10 --exact":
        ("d48cbf5896d272c8418dc4d6c25bfbbbcb58a6b5daba6e32f264a8cc3c4d58e2",
         "2d67f92061b7210725ce06f09b89e592fb2357d56fca56efc79bcf62b750d3d4"),
    "bcz-orbit --a 2/7 --b 3/5 --eta 7/10 --steps 40 --exact":
        ("2c027e6dae9eafed6b9ce1949fecee3c47022d9150e56f2df38d8750b3367be5",
         "65fb9840df6bb24c721f10209cac3ac09e2251d59f532898efc903253fefcf50"),
    "bcz-orbit --a 0.3 --b 0.9 --steps 50":
        ("650aa8a96edccc237eaaf43d59b291724b8ef38bf35481379eabb8286081ef44",
         "ad841bb14e4ec649df0c3d3684542a66a7018c3423af3cd800cc98201db454ef"),
    "hall --grid 64":
        ("4268b3956ed13c1d8ba52c7dda21c97bfc7699160775ff237f6866ed536361c9",
         "bbc3dd5aced1db862cfa18336a1a4517037a3d2eb736a64c3e18d9d886fce406"),
    "hall --scaling unnormalized --grid 64":
        ("8752dc2e8936f7839d5cff63bdf39a7e1a8f87e2eb5924fc667b3c10e4d02280",
         "729271472609e006fdda1b8069988c0fa9eb1415aaa301f720ad2230348ee64b"),
    "lattice-gaps --seed 3 --count 200":
        ("1c1ea31de4435ec8943a665be6ae167cebd50c9ce6899dba8aaa39e0d9cc5cea",
         "c20f703d74cf9d2f32b71328ce85e78c89aa4632369782bf9ee145f5ffa950b4"),
    "lattice-gaps --seed 5 --count 50 --oracle":
        ("8920cc6cc4601ff5d0351a3da5fbe738809dc69b0205f5fb54709a58e74d60eb",
         "10e54e5bfa97fba70459f69bac4a5c7459486ae590d017c63023c6656d39aa53"),
    "affine-angles --shift 0.41,0.73 --radius 20":
        ("2a4510a226a502af7dc97cbd2132fdcc76c52ddb3082cf5146031ca3cabda31e",
         "77e33fce8c7b8174ba5e90ca5622b05cf8a768a106359d43e074ff3f2dd1500a"),
    "wedge-p --sigma 1.0 --radius 20 --samples 300 --seed 7":
        ("e6ca8a49e0cc023488deac8c79586e1c24cad5888f20b11fdfeccea3b641ff01",
         "9a1ac9d08c42bf77b0b42bc541b6d5d59725ae87b3200faf72b3c27d66971dbe"),
    "sqrtn --n 500":
        ("25871511bcb9cfaf426e275c93144938b3a8090f4d78342749f844a10dc90a86",
         "6092232a06c4766e4ec3f8120e6ce177c15fa8adad64971a3572e4d91b2b958a"),
    "surface-sc --shape golden --radius 3.0":
        ("049f0a71c85159ec1c3e0e841aeca657bd20b15ba03acfdcef1f4c1ce70b4993",
         "db0cf6dee966fe3114157d30156ced475db6d65b9b4eeb7a1da3a7fc46490fa5"),
    "surface-sc --shape l:1.7,1.9 --radius 3.0":
        ("1fe07c9f7f7d214ab5fc0c3c85cbe30a9e54f380d9b6372fed4a5d88fb96f433",
         "0a827cdcaaf4d7819b4fd023209a4983fdd72487a00093b1de5142c8ce75070e"),
    "baseline-poisson --n 300 --seed 11":
        ("78fc3f6fa67c7cbdb57d125f874d1b808db23c52cf0fe7fa15af38fd37afbb42",
         "5f00541a280fcb96df02e4fccb339c491a66dee89de92f1209f4c1bf6a1c2914"),
    "compare --left gaps.csv --cdf hall-unnormalized":
        ("1536acbc25890dec493bd55501aa80dbe7f33ee37dec4b94be40e4865e917ae5",
         "d20c9bf0bf1c5e5d480f0577c081dbc7770a81e3d911fbec16105517143c9918"),
    "compare --left gaps.csv --right gaps.json":
        ("a77b3e785117c65ad36a3c4230fe033c28503dc6f2b14efadf84b7c8b640229b",
         "9f8c362467bed01a53374ffcffd5b6b19c6f95e6134056e098b398aa2bd4ea03"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(PINNED_OUTPUT))
def test_pinned_output_bytes(command, fmt, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if command.startswith("compare"):
        for ext in ("csv", "json"):
            assert cli.main(["lattice-gaps", "--seed", "3", "--count", "200",
                             "--format", ext, "--output", "gaps." + ext]) == 0
    assert cli.main([*command.split(), "--format", fmt]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_OUTPUT[command][fmt == "json"]


def test_import_leaves_scipy_integrate_unloaded():
    """The CLI import loads neither lazily imported module (scipy.integrate,
    the wave development); the first surface development loads the waves
    only."""
    res = subprocess.run(
        [sys.executable, "-c",
         "import gapkit.cli, sys; "
         "print('scipy.integrate' in sys.modules, 'gapkit._waves' in sys.modules); "
         "from gapkit import surface; surface.saddle_connections(surface.golden_l(), 3.0); "
         "print('scipy.integrate' in sys.modules, 'gapkit._waves' in sys.modules)"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False", "False", "False", "True"]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_cli_bytes(tmp_path, capsys, monkeypatch):
    """Every cli-float task of the benchmark, in-process, against the stdout
    digests of perfbench/reference.json; compare reads the lattice-gaps file
    of its own variant, as when the reference was made."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import CLI_GAPS_FILE, CLI_PIPELINES, CLI_VARIANTS, cli_argv
    reference = json.loads((PERFBENCH / "reference.json").read_text())["cli-float"]
    monkeypatch.chdir(tmp_path)
    wrong = []
    for variant in range(CLI_VARIANTS):
        for pipeline in CLI_PIPELINES:
            assert cli.main(cli_argv(pipeline, variant)) == 0
            out = capsys.readouterr().out.encode()
            if pipeline == "lattice-gaps":
                (tmp_path / CLI_GAPS_FILE).write_bytes(out)
            key = f"{pipeline}:{variant}"
            if hashlib.sha256(out).hexdigest() != reference[key]["stdout_sha256"]:
                wrong.append(key)
    assert wrong == []
