"""Every top-level function and class of ``src/fvx`` is reached by fvx itself.

A definition counts as reached when an fvx module other than ``__init__.py``,
or a script under ``scripts/``, names it outside the definition's own body:
as a name, an attribute (``md.dual``) or a string equal to the name
(``suites`` looks operators up by name when it runs, so that a mutation
reaches them).  Re-exports and tests do not count, so code that only tests
call cannot settle in ``src``.  Module-level dunder hooks (the package's
``__getattr__``) are exempt: the interpreter calls them, and no code names them.

Every name a module imports is also used in that module, so a deletion cannot
leave its imports behind.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _names(tree: ast.AST) -> Counter:
    used: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used[node.value] += 1
    return used


def _hook(node: ast.AST) -> bool:
    """A module-level dunder function such as ``__getattr__`` (PEP 562)."""
    return isinstance(node, ast.FunctionDef) and node.name.startswith("__") and node.name.endswith("__")


def unreached() -> set[str]:
    trees = {path: ast.parse(path.read_text()) for path in (ROOT / "src" / "fvx").glob("*.py")}
    scripts = [ast.parse(path.read_text()) for path in (ROOT / "scripts").glob("*.py")]
    used = sum((_names(tree) for path, tree in trees.items() if path.name != "__init__.py"), Counter())
    used += sum(map(_names, scripts), Counter())
    kinds = (ast.FunctionDef, ast.ClassDef)
    defs = [node for tree in trees.values() for node in tree.body if isinstance(node, kinds) and not _hook(node)]
    return {node.name for node in defs if used[node.name] == _names(node)[node.name]}


def test_every_definition_is_reached_outside_the_tests():
    assert unreached() == set()


def _scoped_imports(tree: ast.Module):
    """Each import statement with its scope: the innermost function around
    it, or the module (which covers ``if TYPE_CHECKING:`` blocks)."""
    stack = [(tree, tree)]
    while stack:
        node, scope = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield child, scope
            inner = child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            stack.append((child, inner))


def _loaded(scope: ast.AST) -> set[str]:
    """Names a scope uses, and the entries of ``__all__`` (the re-exports of
    ``__init__.py``).  Under ``from __future__ import annotations`` an
    annotation is still an expression, so the names of ``TYPE_CHECKING``
    imports show up in it."""
    used = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return used


def unused_imports(tree: ast.Module) -> list[str]:
    unused, loaded = [], {}
    for imp, scope in _scoped_imports(tree):
        if isinstance(imp, ast.ImportFrom) and imp.module == "__future__":
            continue
        if scope not in loaded:
            loaded[scope] = _loaded(scope)
        for alias in imp.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in loaded[scope]:
                unused.append(f"line {imp.lineno}: {name}")
    return unused


def test_unused_imports_are_found():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "from fvx.forms_core import COORD_AXES, FiveForm, wedge\n"
        "if TYPE_CHECKING:\n"
        "    from fvx.integration import ParamSurface\n"
        "    from fvx.lagrange import FieldSet\n"
        "def f(t: FiveForm, V: ParamSurface):\n"
        "    from fvx import integration as ig\n"
        "    import math\n"
        "    return ig.integrate(t, V)\n"
        "def g():\n"
        "    return math.pi\n"
        "__all__ = ['wedge']\n"
    )
    assert sorted(unused_imports(tree)) == ["line 2: COORD_AXES", "line 5: FieldSet", "line 8: math"]


def test_every_import_is_used():
    for path in sorted((ROOT / "src" / "fvx").glob("*.py")):
        assert unused_imports(ast.parse(path.read_text())) == [], path.name
