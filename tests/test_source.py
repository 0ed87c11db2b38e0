"""Source hygiene: every name that the package and its tests import is read,
and every private helper of the package is used.

The re-exports of ``src/hdgbem/__init__.py`` are its purpose, so that file is
not checked for unused imports, and an import line marked ``# noqa: F401`` is
a deliberate re-export (a writer that perfbench calls as a module attribute).
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/hdgbem/*.py"))
FILES = sorted(path for path in [*PACKAGE, *ROOT.glob("tests/*.py")]
               if path.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each name that ``source`` imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(alias.lineno, name)
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            for name in [(alias.asname or alias.name).split(".")[0]]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]]


def test_unused_imports_finds_each_unread_name():
    source = ("import os\nimport re  # noqa: F401\nimport scipy.sparse as sp\n"
              "import numpy.linalg\nfrom a import (b,\n    c)\n"
              "print(b, f'{numpy.pi}')\n")
    assert unused_imports(source) == [(1, "os"), (3, "sp"), (6, "c")]


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unused_private_helpers(sources):
    """(file, name) of each private module-level def or class, and each
    private method, in ``sources`` (file -> text) that no code in any of
    them reads outside the helper's own definition."""
    trees = {label: ast.parse(source) for label, source in sources.items()}
    reads = [(node.id if isinstance(node, ast.Name) else node.attr, node)
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for label, tree in trees.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for helper in [node, *members]:
                if isinstance(helper, (ast.FunctionDef, ast.ClassDef)) \
                        and _is_private(helper.name):
                    inside = {id(n) for n in ast.walk(helper)}
                    if not any(name == helper.name and id(n) not in inside
                               for name, n in reads):
                        unused.append((label, helper.name))
    return unused


def test_unused_private_helpers_finds_each_unread_helper():
    a = ("def _used():\n    return 1\n\ndef _recursive(n):\n    return _recursive(n - 1)\n\n"
         "class _Unused:\n    def __init__(self):\n        self._kept()\n\n"
         "    def _kept(self):\n        pass\n\n    def _dropped(self):\n        pass\n")
    b = "from a import _used\n\ndef public():\n    return _used()\n"
    assert unused_private_helpers({"a": a, "b": b}) == [
        ("a", "_recursive"), ("a", "_Unused"), ("a", "_dropped")]


def test_no_unused_private_helpers():
    sources = {str(path.relative_to(ROOT)): path.read_text() for path in PACKAGE}
    assert unused_private_helpers(sources) == []
