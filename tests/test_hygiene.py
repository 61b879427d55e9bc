"""Source checks that no installed linter makes: every name a sqluq module
imports is read in that module, and every name the package exports exists.

A deletion that leaves an import behind fails here."""

import ast
from pathlib import Path

import pytest

import sqluq

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "sqluq").glob("*.py"))


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


def test_every_exported_name_resolves():
    assert len(set(sqluq.__all__)) == len(sqluq.__all__)
    for name in sqluq.__all__:
        assert hasattr(sqluq, name), name
