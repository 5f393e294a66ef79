"""Every module-level import in the library is used in its module, and
every private definition is used somewhere in the library.

No lint tool ships with the package, so these are small ``ast`` checks:

* a name bound by a top-level ``import`` must appear somewhere else in the
  module, as a name, the root of an attribute chain, or inside a string
  annotation.  ``__init__.py`` is skipped because it imports to re-export.
* a private (``_name``, not dunder) function, class or assignment at module
  or class level must be read somewhere in ``src/conekit``: as a name, an
  attribute, or an imported name.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "conekit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations such as "CMatrix" or "tuple[CMatrix, ...]"
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [
        f"{path.name}:{line} {name}"
        for name, line in _imported_names(tree).items()
        if name not in used
    ]
    assert not unused, f"unused imports: {unused}"


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each private def, class or assignment at module or
    class level."""
    found = []
    scopes = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found.extend((name, node.lineno) for name in names)
    return [
        (name, line)
        for name, line in found
        if name.startswith("_") and not name.startswith("__")
    ]


def _read_names(tree: ast.Module) -> set[str]:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_no_dead_private_definitions():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    read = set().union(*(_read_names(tree) for tree in trees.values()))
    dead = [
        f"{name}:{line} {symbol}"
        for name, tree in trees.items()
        for symbol, line in _private_definitions(tree)
        if symbol not in read
    ]
    assert not dead, f"private definitions nothing reads: {dead}"
