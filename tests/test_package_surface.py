"""The package holds what its CLI and its library API run, and no more.

A module-level function or class of ``src/dickeqb`` must be exported in
``dickeqb.__all__`` or be named somewhere in the package besides its own
definition, and so must every method, other than a dunder method, that a
package class defines.  Code that only the tests call belongs in
``tests/reference.py``.
"""

import ast
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


def test_every_definition_is_exported_or_used():
    trees, used = parse_package()
    unused = [f"{module}:{node.name}"
              for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, DEFINITIONS)
              and node.name not in dickeqb.__all__ and node.name not in used]
    assert unused == []


def test_every_method_is_used():
    trees, used = parse_package()
    unused = [f"{module}:{cls.name}.{node.name}"
              for module, tree in trees.items()
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for node in cls.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in used]
    assert unused == []
