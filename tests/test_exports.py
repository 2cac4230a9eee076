"""The package exports no test-only code and keeps no write-only fields.

Every public name melsplit exports must be loaded somewhere in the package
outside __init__.py and outside its own def or class: a name that only the
tests call belongs in tests/reference.py. Every field of a dataclass the
package defines must be read somewhere in the package.
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


def package_trees() -> dict[str, ast.Module]:
    """{file name: parsed module} of every module of the package."""
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def test_every_export_is_used_by_the_package():
    used = set()
    for name, tree in package_trees().items():
        if name != "__init__.py":
            used |= loaded_names(tree)
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


def dataclass_fields(tree: ast.AST) -> list[tuple[str, str]]:
    """(class, field) for each annotated field of each @dataclass class in `tree`."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        names = {d.id if isinstance(d, ast.Name) else getattr(d, "attr", None) for d in decorators}
        if "dataclass" in names:
            found += [
                (node.name, stmt.target.id)
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
    return found


def test_every_dataclass_field_is_read():
    """Each field of a dataclass in the package is read as an attribute
    (an ast.Attribute in Load context) somewhere in the package; a field
    nothing reads is output nobody uses. The check matches names only, so a
    field passes when any object's attribute of the same name is read: a
    `seed` field would pass on a read of `cfg.seed` alone."""
    trees = package_trees()
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    declared = [
        (name, cls, field) for name, tree in trees.items() for cls, field in dataclass_fields(tree)
    ]
    assert declared, "the package defines no dataclass fields"
    assert [f"{name}: {cls}.{field}" for name, cls, field in declared if field not in read] == []


def test_dataclass_fields_found_in_every_decorator_form():
    tree = ast.parse(
        "@dataclass\nclass A:\n    x: int\n"
        "@dataclass(frozen=True)\nclass B:\n    y: int = 0\n    z = 1\n"
        "@dataclasses.dataclass\nclass C:\n    w: int\n"
        "class D:\n    v: int\n"
    )
    assert dataclass_fields(tree) == [("A", "x"), ("B", "y"), ("C", "w")]
