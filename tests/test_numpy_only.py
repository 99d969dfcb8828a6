"""ranklab's modules import only the standard library, numpy and each other:
numpy is the one declared dependency, so any other import would fail on an
install that follows pyproject.toml."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ranklab").glob("*.py"))


def foreign_imports(source: str) -> list[str]:
    """Top-level names of the absolute imports that are neither numpy nor stdlib."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [n for n in names
            if n.partition(".")[0] != "numpy" and n.partition(".")[0] not in sys.stdlib_module_names]


def test_sources_are_found():
    assert "cli.py" in {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_numpy_and_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_guard_catches_a_stray_import():
    source = "import json\nimport numpy.linalg\nfrom . import dense\nfrom scipy import sparse\n"
    assert foreign_imports(source + "import pandas as pd\n") == ["scipy", "pandas"]
