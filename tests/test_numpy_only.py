"""ranklab's modules import only the standard library, numpy and each other:
numpy is the one declared dependency, so any other import would fail on an
install that follows pyproject.toml. Each module also imports on its own, first
in a fresh interpreter, so no import cycle hides behind an order that one entry
point happens to take."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "ranklab").glob("*.py"))


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


def _fresh_python(*argv):
    """A new interpreter that turns every warning into an error, with src on its path."""
    return subprocess.run([sys.executable, "-W", "error", *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_on_its_own(path):
    module = "ranklab" if path.stem == "__init__" else f"ranklab.{path.stem}"
    done = _fresh_python("-c", f"import {module}")
    assert (done.returncode, done.stderr) == (0, "")


def test_cli_help_exits_0_with_nothing_on_stderr():
    done = _fresh_python("-m", "ranklab.cli", "--help")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage:")
