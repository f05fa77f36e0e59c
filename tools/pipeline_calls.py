"""List the gapkit functions that no pipeline calls.

Runs, in one process and under ``sys.setprofile``:

* one batch of each perfbench workload (``--seed``, default 1), every task
  checked against perfbench/reference.json;
* the acceptance suite, tests/test_acceptance.py, through ``pytest.main``,
  without criterion 10, whose subprocesses the profile cannot see;
* criterion 10's nine commands through ``gapkit.cli.main`` instead, with
  ``--workers 1``.

It then prints every function, method and named inner function defined in
src/gapkit whose code none of them ran, as ``module:qualname:line``.
Run it from anywhere; it imports gapkit from the src/ next to this
directory:

    python3 tools/pipeline_calls.py [--seed 1]

The profile hook slows every Python call, so the run takes a few times
as long as the same work unprofiled (about 35 s on a 2-core x86-64 host).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import io
import os
import pkgutil
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

# the commands of tests/test_acceptance.py::test_criterion_10_cli_determinism
CRITERION_10 = [
    ["farey-gaps", "--q", "60"],
    ["bcz-orbit", "--a", "1/7", "--b", "1", "--steps", "30", "--exact"],
    ["hall", "--grid", "128"],
    ["lattice-gaps", "--seed", "4", "--count", "500"],
    ["baseline-poisson", "--n", "5000", "--seed", "9"],
    ["sqrtn", "--n", "20000"],
    ["wedge-p", "--sigma", "1.0", "--radius", "50", "--samples", "2000", "--seed", "13"],
    ["surface-sc", "--shape", "golden", "--radius", "4"],
    ["affine-angles", "--shift", "0.377,0.613", "--radius", "60"],
]
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def package_functions(package) -> dict:
    """Code object -> "module:qualname:line" of every function defined in the
    package's source files: module functions, methods (static, class and
    property accessors too) and the named functions nested in them.
    Code generated at run time (dataclass methods) has no source file there
    and is left out."""
    found = {}

    def add(code, module):
        if code.co_filename != module.__file__ or code.co_name.startswith("<"):
            return
        found[code] = f"{module.__name__}:{code.co_qualname}:{code.co_firstlineno}"
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                add(const, module)

    def add_object(obj, module):
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        if isinstance(obj, property):
            for f in (obj.fget, obj.fset, obj.fdel):
                if f is not None:
                    add(f.__code__, module)
        elif inspect.isfunction(obj):
            add(obj.__code__, module)

    for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for member in vars(obj).values():
                    add_object(member, module)
            else:
                add_object(obj, module)
    return found


def run_workloads(seed: int) -> None:
    from workloads import WORKLOADS, CliFloat, load_reference
    reference = load_reference()
    for name, cls in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as tmp:
            if cls is CliFloat:
                wl = CliFloat(reference, workdir=Path(tmp), in_process=True)
            else:
                wl = cls(reference)
            gk = wl.load()
            items = wl.build(gk, wl.batch(seed))
            passed = sum(bool(wl.run(gk, item)[0]) for item in items)
        print(f"{name}: {passed} of {len(items)} tasks passed")


def run_acceptance() -> int:
    import pytest
    return pytest.main(["-q", "--tb=no", "-rf", "-p", "no:cacheprovider",
                        "--rootdir", str(ROOT), str(ACCEPTANCE),
                        "--deselect", f"{ACCEPTANCE}::test_criterion_10_cli_determinism"])


def run_criterion_10() -> None:
    from gapkit import cli
    for argv in CRITERION_10:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--workers", "1"])
        print(f"gapkit {' '.join(argv)}: exit {code}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="perfbench batch seed")
    args = parser.parse_args(argv)
    import gapkit
    functions = package_functions(gapkit)
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    cwd = os.getcwd()
    os.chdir(ROOT)
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        run_workloads(args.seed)
        run_acceptance()
        run_criterion_10()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        os.chdir(cwd)
    idle = sorted(label for code, label in functions.items() if code not in seen)
    print(f"\n{len(idle)} of {len(functions)} gapkit functions never called:")
    for label in idle:
        print("  " + label)
    return 0


if __name__ == "__main__":
    sys.exit(main())
