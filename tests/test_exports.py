"""The package exports no test-only code.

Every public name melsplit exports must be loaded somewhere in the package
outside __init__.py and outside its own def or class: a name that only the
tests call belongs in tests/reference.py.
"""

import ast
import types
from pathlib import Path

import melsplit

PACKAGE = Path(melsplit.__file__).parent


def exported_names() -> set[str]:
    return {
        name
        for name in dir(melsplit)
        if not name.startswith("_") and not isinstance(getattr(melsplit, name), types.ModuleType)
    }


def loaded_names(tree: ast.AST, enclosing: tuple[str, ...] = ()) -> set[str]:
    """Names and attributes that `tree` loads, leaving out each load inside
    the def or class that defines the name."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found |= loaded_names(node, enclosing + (node.name,))
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            name = None
        if name is not None and name not in enclosing:
            found.add(name)
        found |= loaded_names(node, enclosing)
    return found


def test_every_export_is_used_by_the_package():
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            used |= loaded_names(ast.parse(path.read_text(encoding="utf-8")))
    exports = exported_names()
    assert exports, "melsplit exports no public names"
    assert sorted(exports - used) == []


def test_a_recursive_self_call_is_not_a_use():
    tree = ast.parse(
        "def f(n):\n    return f(n - 1) if n else g()\n"
        "class C:\n    def m(self):\n        return C, self.x\n"
        "h = mod.f\n"
    )
    assert loaded_names(tree) == {"g", "n", "self", "x", "mod", "f"}
