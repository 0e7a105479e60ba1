"""The library imports nothing outside the Python standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "dynindex").glob("*.py"))


def _absolute_imports(path: Path) -> list[str]:
    """Top-level package names of every absolute import in the file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_sources_found():
    assert any(path.name == "engines.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    outside = sorted(set(_absolute_imports(path)) - sys.stdlib_module_names)
    assert outside == [], f"{path.name} imports {outside}"
