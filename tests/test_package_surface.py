"""The package holds what its CLI and its library API run, and no more.

A module-level function or class of ``src/dickeqb`` must be exported in
``dickeqb.__all__`` or be named somewhere in the package besides its own
definition.  Every method, other than a dunder method, that a package class
defines must be the attribute of some use in the package whose root is not
an imported module: ``np.linalg.norm`` does not use a method ``norm``.  Code
that only the tests call belongs in ``tests/reference.py``.  Only ``cli.py``
calls ``open``: the CLI does all the package's file I/O.
"""

import ast
import importlib
import inspect
from pathlib import Path

import dickeqb

PACKAGE = Path(dickeqb.__file__).resolve().parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parse_package():
    """Module name -> AST, and every name the package reads or calls."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return trees, used


def method_uses(trees):
    """Every attribute the package reads or calls on something other than
    a module: the root of its attribute chain is not a name bound to a
    module, at module level or by an import statement anywhere in the
    module."""
    used = set()
    for filename, tree in trees.items():
        stem = Path(filename).stem
        module = importlib.import_module("dickeqb" if stem == "__init__" else f"dickeqb.{stem}")
        modules = {name for name, value in vars(module).items() if inspect.ismodule(value)}
        modules |= {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if not (isinstance(root, ast.Name) and root.id in modules):
                    used.add(node.attr)
    return used


def test_every_definition_is_exported_or_used():
    trees, used = parse_package()
    unused = [f"{module}:{node.name}"
              for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, DEFINITIONS)
              and node.name not in dickeqb.__all__ and node.name not in used]
    assert unused == []


def test_every_method_is_used():
    trees, _ = parse_package()
    used = method_uses(trees)
    unused = [f"{module}:{cls.name}.{node.name}"
              for module, tree in trees.items()
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for node in cls.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in used]
    assert unused == []


def test_only_the_cli_opens_files():
    trees, _ = parse_package()
    openers = sorted({module for module, tree in trees.items()
                      for node in ast.walk(tree) if isinstance(node, ast.Call)
                      and "open" in (getattr(node.func, "id", None),
                                     getattr(node.func, "attr", None))})
    assert openers == ["cli.py"]
