"""Package hygiene: every exported name resolves, every name perfbench wraps
resolves, no module or test file imports a name it never uses, and no
private module-level name of the package goes unread."""

import ast
import importlib
import pkgutil
from operator import attrgetter
from pathlib import Path

import pytest

import gapkit

SOURCES = sorted(Path(gapkit.__file__).parent.glob("*.py"))
# the acceptance suite must pass unedited, so its one unused import stays
TESTS = sorted(p for p in Path(__file__).parent.glob("*.py")
               if p.name != "test_acceptance.py")
MODULES = ["gapkit"] + [f"gapkit.{m.name}" for m in pkgutil.iter_modules(gapkit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_perfbench_traced_names_resolve(monkeypatch):
    # perfbench's tracer wraps these by name; a renamed one breaks only its
    # traced runs, which tier-1 does not make
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracer import TRACED
    missing = []
    for module, path, *_ in TRACED:
        try:
            attrgetter(path)(importlib.import_module(f"gapkit.{module}"))
        except AttributeError:
            missing.append(f"{module}.{path}")
    assert len(TRACED) > 0
    assert missing == []


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing reads; a name listed
    in ``__all__`` counts as read, since it is re-exported."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                imported[bound] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read]


@pytest.mark.parametrize("path", SOURCES + TESTS,
                         ids=[p.name for p in SOURCES] + [f"tests/{p.name}" for p in TESTS])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_a_leftover():
    source = "from typing import Optional\nimport math\n\nx = math.pi\n"
    assert unused_imports(source) == ["Optional (line 1)"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names (def, class or assignment) of the sources,
    a dict of file name to text, that no code of them reads outside the
    name's own definition; a name is read as a Name or an attribute."""
    tops = [(file, node) for file, text in sources.items() for node in ast.parse(text).body]
    reads = [{n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
              or isinstance(n, ast.Attribute)} for _, node in tops]
    unread = []
    for k, (file, node) in enumerate(tops):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        unread += [f"{file}: {name} (line {node.lineno})" for name in names
                   if name.startswith("_") and not name.startswith("__")
                   and not any(name in r for j, r in enumerate(reads) if j != k)]
    return unread


def test_no_unread_private_names():
    assert unread_private_names({p.name: p.read_text() for p in SOURCES}) == []


def test_unread_private_check_sees_a_leftover():
    sources = {"a.py": "import b\n\n\ndef _used():\n    return b._J\n\n\n"
                       "def _left(n):\n    return _left(n - 1)\n\n\n_K = 2\nx = _used()\n",
               "b.py": "_J = 1\n"}
    assert unread_private_names(sources) == ["a.py: _left (line 8)", "a.py: _K (line 12)"]
