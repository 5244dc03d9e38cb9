"""The package's declared dependencies are exactly the ones its code imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def third_party_imports() -> set[str]:
    """Top-level names of absolute imports in ``src/srnf/*.py``, anywhere in
    the module (deferred imports included), less the standard library."""
    names = set()
    for path in (ROOT / "src" / "srnf").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"srnf"}


def test_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
                for spec in project["dependencies"]}
    assert declared == third_party_imports()
