"""Every source and test module parses as Python 3.10, the oldest version
pyproject.toml declares; this guards that leg of the CI matrix on a host
that has only a newer interpreter."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_module_parses_as_python_3_10():
    modules = sorted([*(ROOT / "src" / "ranklab").glob("*.py"), *(ROOT / "tests").glob("*.py")])
    assert len(modules) > 30
    failures = []
    for path in modules:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failures == []
