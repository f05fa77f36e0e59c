"""Package hygiene: every exported name resolves, every name perfbench wraps
resolves, no module, test or tool file imports a name it never uses, no private
module-level name of the package goes unread, and every exported name is
read by a pipeline."""

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
ROOT = Path(__file__).resolve().parents[1]
TOOLS = sorted((ROOT / "tools").glob("*.py"))
# the pipelines: the acceptance suite and the benchmark
PIPELINES = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").rglob("*.py"))]
# exported names that no pipeline reads, each kept for its reason
UNREAD_PUBLIC = {
    "lattice.py: ZSQUARED": "the Z^2 lattice, the base case of the unit tests",
    "hall.py: region_area": "the closed form that the hall tests check against "
                            "quadrature on intervals criterion 3c does not reach",
}


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


@pytest.mark.parametrize("path", SOURCES + TESTS + TOOLS,
                         ids=[p.name for p in SOURCES] + [f"tests/{p.name}" for p in TESTS]
                         + [f"tools/{p.name}" for p in TOOLS])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_a_leftover():
    source = "from typing import Optional\nimport math\n\nx = math.pi\n"
    assert unused_imports(source) == ["Optional (line 1)"]


def read_names(tree, strings: bool = False) -> set[str]:
    """Names the tree reads as a Name or an attribute; with ``strings``, also
    the dotted parts of its string constants (perfbench's tracer names the
    functions it wraps)."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.update(n.value.split("."))
    return out


def defined_names(node) -> list[str]:
    """Names a top-level statement defines as a def, a class or an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names (def, class or assignment) of the sources,
    a dict of file name to text, that no code of them reads outside the
    name's own definition; a name is read as a Name or an attribute."""
    tops = [(file, node) for file, text in sources.items() for node in ast.parse(text).body]
    reads = [read_names(node) for _, node in tops]
    return [f"{file}: {name} (line {node.lineno})" for k, (file, node) in enumerate(tops)
            for name in defined_names(node)
            if name.startswith("_") and not name.startswith("__")
            and not any(name in r for j, r in enumerate(reads) if j != k)]


def unread_public_names(sources: dict[str, str], pipelines: list[str]) -> list[str]:
    """The ``__all__`` names of the sources, a dict of file name to text,
    that no pipeline text reads and no source reads outside the statement
    that defines the name in the same file."""
    outside = set().union(*(read_names(ast.parse(text), strings=True) for text in pipelines))
    tops = [(file, node) for file, text in sources.items() for node in ast.parse(text).body]
    reads = [read_names(node) for _, node in tops]
    return [f"{file}: {name}" for file, node in tops if "__all__" in defined_names(node)
            for name in ast.literal_eval(node.value)
            if name not in outside and not any(
                name in r for (f, top), r in zip(tops, reads)
                if f != file or name not in defined_names(top))]


def test_no_unread_private_names():
    assert unread_private_names({p.name: p.read_text() for p in SOURCES}) == []


def test_unread_private_check_sees_a_leftover():
    sources = {"a.py": "import b\n\n\ndef _used():\n    return b._J\n\n\n"
                       "def _left(n):\n    return _left(n - 1)\n\n\n_K = 2\nx = _used()\n",
               "b.py": "_J = 1\n"}
    assert unread_private_names(sources) == ["a.py: _left (line 8)", "a.py: _K (line 12)"]


def test_every_public_name_is_read_by_a_pipeline():
    # a name read only by its own unit tests is API that no pipeline uses
    sources = {p.name: p.read_text() for p in SOURCES}
    unread = unread_public_names(sources, [p.read_text() for p in PIPELINES])
    assert sorted(unread) == sorted(UNREAD_PUBLIC)


def test_unread_public_check_sees_a_leftover():
    sources = {"a.py": "__all__ = ['f', 'g', 'h', 'k']\n\n\ndef f():\n    return f()\n\n\n"
                       "def g():\n    return h()\n\n\ndef h():\n    return 1\n\n\nk = 2\n"}
    pipeline = "import a\n\nTRACED = ('a.k',)\nprint(a.g())\n"
    assert unread_public_names(sources, [pipeline]) == ["a.py: f"]


def test_pointcloud_binds_no_zphi_name():
    # the Z[phi] coefficient arrays live in gapkit._waves alone; pointcloud
    # is the lattice slope machinery
    from gapkit import pointcloud
    assert [name for name in vars(pointcloud) if "zphi" in name] == []
