"""Source checks that no installed linter makes: every name a sqluq module
imports is read in that module, every module-level private function or
class is referenced somewhere in src/, tests/ or scripts/, and every name
the package exports exists.

A deletion that leaves an import or a helper behind fails here."""

import ast
from pathlib import Path

import pytest

import sqluq

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "sqluq").glob("*.py"))
# every file whose references keep a private helper alive
REFERRERS = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))


def unread_imports(source: str) -> list[str]:
    """Names bound by the module's imports that it never reads; the names
    listed in its __all__ count as read, and __future__ imports are skipped."""
    tree = ast.parse(source)
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_unread_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as js\nfrom math import inf, pi\n"
        "__all__ = ['pi']\n"
        "def f(x: inf):\n    os = x\n"
    )
    # os is only assigned, json is bound as js, inf is read in an annotation
    assert unread_imports(source) == ["os", "js"]


def private_helpers(source: str) -> list[str]:
    """The module-level private functions and classes of `source`."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def names_read(source: str) -> set[str]:
    """The names `source` reads: as a name, an attribute or an imported
    name.  A module-level definition's reads of its own name do not count."""
    read = set()
    for top in ast.parse(source).body:
        here = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                here.add(node.id)
            elif isinstance(node, ast.Attribute):
                here.add(node.attr)
            elif isinstance(node, ast.alias):
                here.add(node.name)
        read |= here - {getattr(top, "name", None)}
    return read


def test_every_private_helper_is_referenced():
    read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in REFERRERS))
    orphans = [(path.name, name) for path in SOURCES
               for name in private_helpers(path.read_text(encoding="utf-8")) if name not in read]
    assert orphans == []


def test_orphaned_helpers_are_found():
    source = (
        "def _called():\n    pass\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class _Orphan:\n    pass\n"
        "def _attribute():\n    pass\n"
        "def _imported():\n    pass\n"
        "def __dunder__():\n    pass\n"
        "def public():\n    return _called()\n"
    )
    assert private_helpers(source) == ["_called", "_recursive", "_Orphan", "_attribute", "_imported"]
    read = names_read(source)
    assert [name for name in private_helpers(source) if name not in read] == [
        "_recursive", "_Orphan", "_attribute", "_imported"]
    # _recursive reads only itself; _Orphan is never read
    read |= names_read("import m\nm._attribute()\n") | names_read("from m import _imported\n")
    assert [name for name in private_helpers(source) if name not in read] == ["_recursive", "_Orphan"]


def test_every_exported_name_resolves():
    assert len(set(sqluq.__all__)) == len(sqluq.__all__)
    for name in sqluq.__all__:
        assert hasattr(sqluq, name), name
