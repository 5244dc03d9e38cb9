"""Every function, method and class that ``src/srnf/`` defines is used by srnf
itself, its scripts or its benchmark: what only the tests call belongs in the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "srnf"


def definitions() -> dict[str, str]:
    """Each function, method and class name defined in ``src/srnf/``, dunders
    aside, with the place of its first definition."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not (node.name.startswith("__") and node.name.endswith("__")):
                out.setdefault(node.name, f"src/srnf/{path.name}:{node.lineno}")
    return out


def references() -> set[str]:
    """The names, attribute names and string constants, each dotted part of a
    string too, in ``src/srnf/`` (its ``__init__.py`` re-exports aside),
    ``scripts/`` and ``perfbench/``, which looks functions up by name."""
    paths = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    paths += [*(ROOT / "scripts").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.update([node.value, *node.value.split(".")])
    return out


def test_every_definition_in_src_is_referenced_outside_the_tests():
    used = references()
    assert [f"{name} ({where})" for name, where in definitions().items() if name not in used] == []
