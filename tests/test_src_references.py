"""Every function, method, class and module-level constant that ``src/srnf/``
defines is used by srnf itself, its scripts or its benchmark, and every
``RunConfig`` field is read there as ``cfg.<field>``: what only the tests use
belongs in the tests, and a retired setting leaves no dead constant or field.
No method only forwards to the same method of an attribute: callers read the
attribute instead."""

import ast
import dataclasses
from pathlib import Path

from srnf.config import RunConfig

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "srnf"


def dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions() -> dict[str, str]:
    """Each function, method and class name defined in ``src/srnf/``, dunders
    aside, with the place of its first definition."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not dunder(node.name):
                out.setdefault(node.name, f"src/srnf/{path.name}:{node.lineno}")
    return out


def constants() -> dict[str, str]:
    """Each name assigned at the top level of a ``src/srnf/`` module, dunders
    aside, with the place of its first assignment."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in (n for t in targets for n in ast.walk(t)):
                    if isinstance(name, ast.Name) and not dunder(name.id):
                        out.setdefault(name.id, f"src/srnf/{path.name}:{node.lineno}")
    return out


def nodes():
    """Every AST node of ``src/srnf/`` (``__init__.py``'s re-exports aside),
    ``scripts/`` and ``perfbench/``."""
    paths = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    paths += [*(ROOT / "scripts").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    for path in paths:
        yield from ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def references() -> set[str]:
    """The names read, attribute names and string constants, each dotted part
    of a string too, in the modules of :func:`nodes`; ``perfbench/`` looks
    functions up by name."""
    out = set()
    for node in nodes():
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update([node.value, *node.value.split(".")])
    return out


def test_every_definition_in_src_is_referenced_outside_the_tests():
    used = references()
    assert [f"{name} ({where})" for name, where in definitions().items() if name not in used] == []


def test_every_module_constant_in_src_is_read_outside_the_tests():
    used = references()
    assert [f"{name} ({where})" for name, where in constants().items() if name not in used] == []


def test_every_run_config_field_is_read_outside_config():
    # a bare name or string elsewhere (a flag table, a docstring) does not count
    read = {node.attr for node in nodes() if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "cfg"}
    assert [field.name for field in dataclasses.fields(RunConfig) if field.name not in read] == []


def forwarding_methods(source: str, where: str) -> list[str]:
    """The non-dunder methods of the classes in ``source`` whose body, a
    docstring aside, is only ``return self.<attr>.<the method's own name>(...)``."""
    out = []
    for cls in (node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)):
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or dunder(method.name):
                continue
            body = method.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                body = body[1:]
            match body:
                case [ast.Return(value=ast.Call(func=ast.Attribute(
                        attr=name, value=ast.Attribute(value=ast.Name(id="self")))))] \
                        if name == method.name:
                    out.append(f"{cls.name}.{method.name} ({where}:{method.lineno})")
    return out


def test_forwarding_guard_finds_a_forwarding_method():
    source = ("class Wrapper:\n"
              "    def evaluate(self, z):\n        'doc'\n        return self.jet.evaluate(z)\n"
              "    def degree(self):\n        return self.jet.max_degree()\n")
    assert forwarding_methods(source, "x.py") == ["Wrapper.evaluate (x.py:2)"]


def test_no_method_in_src_only_forwards_to_an_attribute():
    assert [found for path in sorted(PACKAGE.glob("*.py"))
            for found in forwarding_methods(path.read_text(encoding="utf-8"),
                                            f"src/srnf/{path.name}")] == []
