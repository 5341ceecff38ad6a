"""The package's public names and its dependencies: ``migtensor.__all__``
lists what it exports, and the package imports only numpy and the
standard library, as ``pyproject.toml`` declares."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import migtensor

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "migtensor").glob("*.py"))


def test_all_names_resolve_once():
    assert len(set(migtensor.__all__)) == len(migtensor.__all__)
    missing = [name for name in migtensor.__all__ if not hasattr(migtensor, name)]
    assert missing == []


def imported_modules(path) -> list:
    """The top-level name of every module the file imports; "" for a
    relative import of the package's own modules."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("" if node.level else node.module.partition(".")[0])
    return names


def test_imports_only_numpy_and_the_standard_library():
    assert SOURCES
    allowed = set(sys.stdlib_module_names) | {"numpy", "migtensor", ""}
    foreign = {f"{path.name}: {name}" for path in SOURCES for name in imported_modules(path)
               if name not in allowed}
    assert foreign == set()
