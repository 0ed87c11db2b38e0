"""Source hygiene: every name that the package and its tests import is read.

The re-exports of ``src/hdgbem/__init__.py`` are its purpose, so that file is
not checked, and an import line marked ``# noqa: F401`` is a deliberate
re-export (a writer that perfbench calls as a module attribute).
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(path for path in [*ROOT.glob("src/hdgbem/*.py"), *ROOT.glob("tests/*.py")]
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
