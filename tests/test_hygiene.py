"""Source checks that no installed linter makes: every name a sqluq module
imports is read in that module, every module-level private function or
class is referenced somewhere in src/, tests/ or scripts/, every public
module-level name is read outside tests/ or exported, no module but
ast_core binds a node kind to a name of its own, every name the
package exports exists, and importing the package loads no OpenSSL.

A deletion that leaves an import or a helper behind fails here."""

import ast
import subprocess
import sys
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


def test_importing_the_package_loads_no_openssl():
    # hashlib maps OpenSSL's libcrypto, about 3.6 MB of every process's peak RSS
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n"
            "import sqluq, sqluq.cli, sqluq.synth\n"
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def kind_member_bindings(source: str) -> list[str]:
    """The names `source` binds to a single `NodeKind` member, as a module
    constant or a local: `X = NodeKind.A` and `X, Y = NodeKind.A, NodeKind.B`."""
    def is_member(value):
        owner = getattr(value, "value", None)
        return (isinstance(value, ast.Attribute) and value.attr.isupper()
                and (getattr(owner, "id", None) == "NodeKind"
                     or getattr(owner, "attr", None) == "NodeKind"))

    bound = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            pairs = [(target, node.value) for target in node.targets]
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)):
            pairs = [(node.target, node.value)]
        else:
            continue
        while pairs:
            target, value = pairs.pop()
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs += zip(target.elts, value.elts)
            elif isinstance(target, ast.Name) and is_member(value):
                bound.append(target.id)
    return bound


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "ast_core.py"],
                         ids=[p.name for p in SOURCES if p.name != "ast_core.py"])
def test_no_module_keeps_a_copy_of_a_kind(path):
    # a kind is a plain class attribute, bound once in ast_core
    assert kind_member_bindings(path.read_text(encoding="utf-8")) == []


def test_kind_copies_are_found():
    source = (
        "A = NodeKind.SELECT\n"
        "B, (C, D) = NodeKind.AND, (NodeKind.OR, 1)\n"
        "E: object = ast_core.NodeKind.STAR\n"
        "def f(node):\n    x = NodeKind.COLUMN\n    return (y := NodeKind.IN)\n"
        "F = {NodeKind.AND}\nG = tuple(NodeKind)\nH = node.kind is NodeKind.AND\n"
        "I = NodeKind.AND.value\nJ = Other.AND\n"
    )
    assert sorted(kind_member_bindings(source)) == ["A", "B", "C", "E", "x", "y"]


# Public names that nothing outside tests/ reads, and why each stays.
TEST_ONLY_ALLOWED = {
    # click registers each command on the `main` group, which the entry point runs
    ("cli.py", "label_cmd"), ("cli.py", "featurize_cmd"), ("cli.py", "predict_cmd"),
    ("cli.py", "corpus_test_cmd"),
}
# every file whose reads keep a public name alive
PUBLIC_READERS = sorted(p for d in ("src", "scripts", "perfbench")
                        for p in (ROOT / d).rglob("*.py"))


def public_names(source: str) -> list[str]:
    """The public names `source` defines at module level: functions,
    classes and assigned names that do not start with an underscore."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def test_no_public_name_is_read_by_tests_alone():
    read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in PUBLIC_READERS))
    unread = [(path.name, name) for path in SOURCES
              for name in public_names(path.read_text(encoding="utf-8"))
              if name not in read and name not in sqluq.__all__]
    assert sorted(set(unread) - TEST_ONLY_ALLOWED) == []


def test_public_names_are_found():
    source = (
        "import os\nfrom m import imported\n"
        "KINDS = frozenset()\nA, (B, _c) = 1, (2, 3)\nD: int = 4\n_E = 5\n"
        "def tokenize(text):\n    local = 1\n    return tokenize(text)\n"
        "class Token:\n    field = 1\ndef _helper():\n    pass\n"
    )
    assert public_names(source) == ["KINDS", "A", "B", "D", "tokenize", "Token"]
    # tokenize reads only itself, so only KINDS, A and Token are read elsewhere
    read = names_read(source) | names_read("from m import KINDS, Token\nprint(m.A)\n")
    assert [n for n in public_names(source) if n not in read] == ["B", "D", "tokenize"]
