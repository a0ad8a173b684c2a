"""Every top-level function and class of ``src/fvx`` is reached by fvx itself.

A definition counts as reached when an fvx module other than ``__init__.py``,
or a script under ``scripts/``, names it outside the definition's own body:
as a name, an attribute (``md.dual``) or a string equal to the name
(``suites`` looks operators up by name when it runs, so that a mutation
reaches them).  Re-exports and tests do not count, so code that only tests
call cannot settle in ``src``.  Module-level dunder hooks (the package's
``__getattr__``) are exempt: the interpreter calls them, and no code names them.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Two-route constructs that tests still call directly; ROADMAP item 4 promotes
# them to identities of `fvx check` together with its report change.
ALLOWLIST = {"equivalence_check", "surface_multivector", "epsilon_pair"}


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
    assert unreached() == ALLOWLIST
