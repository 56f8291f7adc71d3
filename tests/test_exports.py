"""Every exported name resolves, so a deletion that leaves an export behind
fails here rather than in a user's import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import quotdeg

MODULES = sorted(m.name for m in pkgutil.iter_modules(quotdeg.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"quotdeg.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"quotdeg.{name}.__all__ names missing symbols: {missing}"


def test_package_imports_are_public_names():
    tree = ast.parse(Path(quotdeg.__file__).read_text(encoding="utf-8"))
    checked = 0
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            public = getattr(importlib.import_module(f"quotdeg.{node.module}"), "__all__", None)
            for alias in node.names:
                assert hasattr(quotdeg, alias.asname or alias.name), alias.name
                assert public is None or alias.name in public, f"{node.module}.{alias.name}"
                checked += 1
    assert checked > 0
