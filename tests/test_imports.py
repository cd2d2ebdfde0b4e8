"""Every name a package module imports is used in that module."""

import ast
import pathlib

import pytest

import litmusdiff

MODULES = sorted(pathlib.Path(litmusdiff.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Imported names that no expression in ``source`` reads and that its
    ``__all__`` does not export; ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


def test_scanner_finds_unused_names():
    source = "\n".join([
        "from __future__ import annotations",
        "import os, os.path as osp",
        "from a import b, c as d, e",
        "__all__ = ['e']",
        "print(b)",
    ])
    assert unused_imports(source) == ["d", "os", "osp"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []
