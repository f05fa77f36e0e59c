"""Package hygiene: every exported name resolves, and no module imports a
name it never uses."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gapkit

SOURCES = sorted(Path(gapkit.__file__).parent.glob("*.py"))
MODULES = ["gapkit"] + [f"gapkit.{m.name}" for m in pkgutil.iter_modules(gapkit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


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


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_a_leftover():
    source = "from typing import Optional\nimport math\n\nx = math.pi\n"
    assert unused_imports(source) == ["Optional (line 1)"]
