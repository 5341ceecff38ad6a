"""README drift: every ``from migtensor... import`` statement in README.md's
code blocks must import, so the README never names a deleted function."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
FENCED = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
IMPORT = re.compile(r"^from migtensor(?:\.\w+)* import (?:\([^)]*\)|[^\n]*)", re.MULTILINE)


def readme_imports() -> list[str]:
    return [stmt for block in FENCED.findall(README.read_text(encoding="utf-8"))
            for stmt in IMPORT.findall(block)]


def test_readme_imports_resolve():
    statements = readme_imports()
    assert statements, "README.md shows no migtensor import"
    for stmt in statements:
        exec(compile(stmt, str(README), "exec"), {})
