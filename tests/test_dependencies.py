"""Every third-party module the package imports is a declared dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def imported_modules(path):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_third_party_imports_are_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[\w.-]+", dep).group().lower() for dep in project["dependencies"]}
    third_party = {
        name
        for path in (ROOT / "src" / "aggdetect").glob("*.py")
        for name in imported_modules(path)
        if name not in sys.stdlib_module_names and name != "aggdetect"
    }
    assert "numpy" in third_party  # the walk sees imports at all
    assert sorted(third_party - declared) == []
