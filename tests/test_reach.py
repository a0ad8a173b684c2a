"""Every top-level function and class of ``src/fvx`` is reached by fvx itself.

A definition counts as reached when an fvx module other than the package's
``__init__.py`` (``fvx.suites`` is a package of its own, and counts),
or a script under ``scripts/``, names it outside the definition's own body:
as a name, an attribute (``md.dual``) or a string equal to the name
(``suites`` looks operators up by name when it runs, so that a mutation
reaches them).  Re-exports and tests do not count, so code that only tests
call cannot settle in ``src``.  Module-level dunder hooks (the package's
``__getattr__``) are exempt: the interpreter calls them, and no code names them.

The same holds for the methods and properties of every class, matched as
``Class.attr`` rather than by the bare name, so that a common name used on
another object (``args.surface``) does not keep ``OrientedFace.surface``.
Dunder methods are exempt.  The few members kept without such a use are
listed in ``KEPT_MEMBERS``, each with its reason.

Every name a module of ``src/fvx``, ``tests/`` or ``scripts/`` imports is
also used in that module, so a deletion cannot leave its imports behind.

Dunder methods escape that name search, so the operator methods are checked
at run time: each one a class of ``src/fvx`` defines is wrapped and counted
while the default check and the ``demo/`` commands run, and the ones never
called are listed in ``KEPT_OPERATORS``, each with its reason.

Immutability has one mechanism, ``polyfield.Record``: every class that
declares ``__slots__`` derives from it, no other class defines
``__setattr__`` or ``__delattr__``, and no module takes a slot's own
``__set__`` to store past them.

One place names the input a fault was found in, ``io.named``: no other
``except`` handler of ``src/fvx`` re-raises a caught ValueError or
FormatError as an f-string that ends in ``: {exc}``.

No function of ``fvx/cli.py`` calls ``print`` more than once, so a command
builds its whole text before any of it is printed.
"""

import ast
import contextlib
import importlib
import inspect
import io
import pkgutil
from collections import Counter
from pathlib import Path

import fvx
from fvx.cli import main
from fvx.suites import SuiteConfig, run_suite

from test_golden import DEMO_COMMANDS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_INIT = ROOT / "src" / "fvx" / "__init__.py"


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


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _hook(node: ast.AST) -> bool:
    """A module-level dunder function such as ``__getattr__`` (PEP 562)."""
    return isinstance(node, ast.FunctionDef) and _dunder(node.name)


def unreached() -> set[str]:
    trees = {path: ast.parse(path.read_text()) for path in (ROOT / "src" / "fvx").rglob("*.py")}
    scripts = [ast.parse(path.read_text()) for path in (ROOT / "scripts").glob("*.py")]
    used = sum((_names(tree) for path, tree in trees.items() if path != PACKAGE_INIT), Counter())
    used += sum(map(_names, scripts), Counter())
    kinds = (ast.FunctionDef, ast.ClassDef)
    defs = [node for tree in trees.values() for node in tree.body if isinstance(node, kinds) and not _hook(node)]
    return {node.name for node in defs if used[node.name] == _names(node)[node.name]}


def test_every_definition_is_reached_outside_the_tests():
    assert unreached() == set()


# Members that no fvx module or script names, and why each stays.
KEPT_MEMBERS = {
    "IndexedArray.from_function": "perfbench/run.py reads its trace counter",
    "OrientedFace.surface": "perfbench/run.py reads its trace counter; the tests' face-by-face "
    "reference for boundary_flux",
    "Poly.evaluate": "the tests' reference for compose, * and +",
    "MetricConfig.varpi": "the one computation with sigma, which the config format carries",
}


class _Receivers(ast.NodeVisitor):
    """Each ``receiver.attr`` of a module, with the classes the receiver can
    be: ``None`` when unknown (any class with the member matches), else the
    family of a class named directly (``Poly.zero``, ``ig.ParamSurface``), of
    ``self``/``cls`` in a method, or of a parameter's annotation; a parameter
    annotated with no fvx class (``args: SimpleNamespace``) matches none."""

    def __init__(self, family):
        self.family, self.scope, self.owner, self.functions = family, {}, None, []
        self.refs: list[tuple[str, set | None, list]] = []

    def _classes(self, node: ast.AST) -> set:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval")
        names = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}
        return set().union(*(self.family(name) for name in names))

    def visit_ClassDef(self, node):
        outer, self.owner = self.owner, node.name
        self.generic_visit(node)
        self.owner = outer

    def visit_FunctionDef(self, node):
        outer, self.scope = self.scope, dict(self.scope)
        params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        for k, param in enumerate(params):
            if k == 0 and self.owner is not None:
                self.scope[param.arg] = self.family(self.owner)
            elif param.annotation is not None:
                self.scope[param.arg] = self._classes(param.annotation)
            else:
                self.scope.pop(param.arg, None)
        owner, self.owner = self.owner, None
        self.functions.append(node)
        self.generic_visit(node)
        self.functions.pop()
        self.scope, self.owner = outer, owner

    def visit_Attribute(self, node):
        receiver = node.value
        if isinstance(receiver, ast.Name) and receiver.id in self.scope:
            kinds = self.scope[receiver.id]
        else:
            kinds = self.family(getattr(receiver, "id", None) or getattr(receiver, "attr", None)) or None
        self.refs.append((node.attr, kinds, list(self.functions)))
        self.generic_visit(node)


def unreached_members(defining: list[ast.Module], using: list[ast.Module]) -> set[str]:
    """``Class.attr`` of each non-dunder member that the ``using`` modules
    never reach outside the member's own body."""
    classes = {node.name: node for tree in defining for node in tree.body if isinstance(node, ast.ClassDef)}
    bases = {name: {b.id for b in node.bases if getattr(b, "id", None) in classes} for name, node in classes.items()}

    def ancestors(name: str) -> set:
        return {name}.union(*(ancestors(base) for base in bases[name]))

    def family(name) -> set:
        if name not in classes:
            return set()
        return ancestors(name) | {other for other in classes if name in ancestors(other)}

    refs = []
    for tree in using:
        receivers = _Receivers(family)
        receivers.visit(tree)
        refs += receivers.refs
    return {
        f"{name}.{member.name}"
        for name, node in classes.items()
        for member in node.body
        if isinstance(member, ast.FunctionDef) and not _dunder(member.name)
        if not any(
            attr == member.name and (kinds is None or name in kinds) and member not in functions
            for attr, kinds, functions in refs
        )
    }


def test_members_are_matched_by_class():
    tree = ast.parse(
        "import argparse\n"
        "class Base:\n"
        "    def _set(self): ...\n"
        "    def spare(self): ...\n"
        "class Face(Base):\n"
        "    def __init__(self): self._set()\n"
        "    def surface(self): return self.surface()\n"
        "    def sign(self): ...\n"
        "    def value(self): ...\n"
        "    @classmethod\n"
        "    def make(cls): ...\n"
        "class Other:\n"
        "    def spare(self): ...\n"
        "def cmd(args: argparse.Namespace, other: 'Other | None'):\n"
        "    return args.surface, args.sign, other.spare()\n"
        "def walk(face):\n"
        "    return face.value, Face.make()\n"
    )
    assert unreached_members([tree], [tree]) == {"Base.spare", "Face.surface", "Face.sign"}


def test_every_member_is_reached_outside_the_tests():
    trees = {path: ast.parse(path.read_text()) for path in (ROOT / "src" / "fvx").rglob("*.py")}
    using = [tree for path, tree in trees.items() if path != PACKAGE_INIT]
    using += [ast.parse(path.read_text()) for path in (ROOT / "scripts").glob("*.py")]
    assert unreached_members(list(trees.values()), using) == set(KEPT_MEMBERS)


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
    sources = [*(ROOT / "src" / "fvx").rglob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    for path in sorted(sources):
        assert unused_imports(ast.parse(path.read_text())) == [], path.relative_to(ROOT)


def _names_input(handler: ast.ExceptHandler) -> bool:
    """Whether ``handler`` catches ValueError or FormatError as a name and
    raises an f-string that ends in ``: {name}``."""
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    if handler.name is None or not any(getattr(t, "id", getattr(t, "attr", None)) in ("ValueError", "FormatError") for t in caught):
        return False
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
            text = node.exc.args[0]
            if isinstance(text, ast.JoinedStr) and ast.unparse(text)[:-1].endswith(f": {{{handler.name}}}"):
                return True
    return False


def hand_named_errors(trees: dict[str, ast.Module]) -> list[str]:
    """Each ``except`` handler of the modules (keyed by their path under
    ``src/fvx``) that prefixes a location to a caught ValueError by hand,
    outside ``io.named``, the one place that does it."""
    found = []
    for path, tree in trees.items():
        named = [fn for fn in tree.body if path == "io.py" and getattr(fn, "name", None) == "named"]
        exempt = {id(node) for fn in named for node in ast.walk(fn)}
        handlers = (node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler) and id(node) not in exempt)
        found += [f"{path}: line {handler.lineno}" for handler in handlers if _names_input(handler)]
    return found


def test_hand_named_errors_are_found():
    source = (
        "def named(where):\n"
        "    try:\n"
        "        yield\n"
        "    except ValueError as exc:\n"
        "        raise FormatError(f'{where}: {exc}') from None\n"
        "def load(path):\n"
        "    try:\n"
        "        return read(path)\n"
        "    except (OSError, ValueError) as exc:\n"
        "        raise FormatError(f'{path}: {exc}') from None\n"
        "    except fio.FormatError as err:\n"
        "        raise ValueError(f'{path} on box: {err}')\n"
        "    except ValueError as exc:\n"
        "        raise FormatError(f'{path}: bad rational ({exc})')\n"
        "    except OSError as exc:\n"
        "        raise ValueError(f'{path}: {exc}')\n"
        "    except ValueError:\n"
        "        raise ValueError(f'{path}: unreadable')\n"
    )
    trees = {"io.py": ast.parse(source), "cli.py": ast.parse(source)}
    assert hand_named_errors(trees) == ["io.py: line 9", "io.py: line 11", "cli.py: line 4", "cli.py: line 9", "cli.py: line 11"]


def test_only_io_named_names_the_input_of_an_error():
    package = ROOT / "src" / "fvx"
    trees = {path.relative_to(package).as_posix(): ast.parse(path.read_text()) for path in sorted(package.rglob("*.py"))}
    assert hand_named_errors(trees) == []


def repeated_prints(tree: ast.Module) -> list[str]:
    """Each function that calls ``print`` more than once, with its count: a
    command builds its whole text first, so that a fault while building it
    leaves no half-printed output."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            count = sum(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print" for node in ast.walk(fn))
            found += [f"{fn.name}: {count}"] if count > 1 else []
    return found


def test_repeated_prints_are_found():
    source = (
        "def sides(lhs, rhs):\n"
        "    print(lhs)\n"
        "    print(rhs)\n"
        "    print('EQUAL' if lhs == rhs else 'DIFFER')\n"
        "def once(lines):\n"
        "    print(*lines, sep='\\n')\n"
        "def branches(ok):\n"
        "    if ok:\n"
        "        print('yes')\n"
        "    else:\n"
        "        print('no', file=sys.stderr)\n"
        "def none():\n"
        "    return pprint(1)\n"
    )
    assert repeated_prints(ast.parse(source)) == ["sides: 3", "branches: 2"]


def test_each_cli_function_prints_once():
    assert repeated_prints(ast.parse((ROOT / "src" / "fvx" / "cli.py").read_text())) == []


_HOOKS = ("__setattr__", "__delattr__")


def hand_rolled_immutability(trees: list[ast.Module]) -> list[str]:
    """Each class with ``__slots__`` that is not a ``Record``, each
    ``__setattr__``/``__delattr__`` outside ``Record``, and each use of a
    descriptor's ``__set__``."""
    classes = {node.name: node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}

    def is_record(name: str) -> bool:
        bases = (getattr(b, "id", None) or getattr(b, "attr", None) for b in classes[name].bases)
        return name == "Record" or any(base in classes and is_record(base) for base in bases)

    found = []
    for name, node in classes.items():
        defined = {stmt.name for stmt in node.body if isinstance(stmt, ast.FunctionDef)}
        for stmt in node.body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
        if "__slots__" in defined and not is_record(name):
            found.append(f"{name}.__slots__")
        if name != "Record":
            found += [f"{name}.{hook}" for hook in _HOOKS if hook in defined]
    uses = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    return found + [f"line {node.lineno}: .__set__" for node in uses if node.attr == "__set__"]


def test_hand_rolled_immutability_is_found():
    tree = ast.parse(
        "class Record:\n"
        "    __slots__ = ()\n"
        "    def __setattr__(self, name, value): ...\n"
        "    __delattr__ = __setattr__\n"
        "class Value(Record):\n"
        "    __slots__ = ('a',)\n"
        "class Form(Value):\n"
        "    __slots__ = ('b',)\n"
        "class Bare:\n"
        "    __slots__ = ('c',)\n"
        "    def __setattr__(self, name, value): ...\n"
        "class Loose(Value):\n"
        "    __delattr__ = None\n"
        "_set_c = Bare.c.__set__\n"
    )
    assert hand_rolled_immutability([tree]) == ["Bare.__slots__", "Bare.__setattr__", "Loose.__delattr__", "line 14: .__set__"]


def test_every_value_is_immutable_through_record():
    trees = [ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "fvx").rglob("*.py"))]
    assert hand_rolled_immutability(trees) == []


# -- operators reached at run time ---------------------------------------------------------

OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__bool__", "__eq__", "__getitem__", "__len__",
)

# Operator methods that neither the default check nor a demo command calls, and why each stays.
KEPT_OPERATORS = {
    "Poly.__radd__": "the reflected half of +: a Poly takes a rational on either side",
    "Poly.__rsub__": "the reflected half of -: a Poly takes a rational on either side",
    "_Alternating.__bool__": "without it every form would be truthy",
}


def uncalled_operators(classes, run) -> set[str]:
    """``Class.op`` of each operator method the classes define in their own
    dict that ``run()`` never calls.  Each attribute name gets its own
    wrapper, so an alias (``__radd__ = __add__``) counts on its own."""
    called, originals = set(), []

    def counted(name: str, method):
        def wrapper(*args, **kwargs):
            called.add(name)
            return method(*args, **kwargs)

        return wrapper

    for cls in classes:
        for op in OPERATORS:
            if op in vars(cls):
                originals.append((cls, op, vars(cls)[op]))
                setattr(cls, op, counted(f"{cls.__qualname__}.{op}", vars(cls)[op]))
    try:
        run()
    finally:
        for cls, op, method in originals:
            setattr(cls, op, method)
    return {f"{cls.__qualname__}.{op}" for cls, op, _ in originals} - called


def test_uncalled_operators_are_found():
    class Value:
        def __add__(self, other):
            return self

        __radd__ = __add__

        def __neg__(self):
            return self

    assert uncalled_operators([Value], lambda: Value() + 1) == {
        f"{Value.__qualname__}.__radd__",
        f"{Value.__qualname__}.__neg__",
    }
    assert Value.__add__ is Value.__radd__


def _default_check_and_demo():
    assert run_suite(SuiteConfig(seed=0)).passed
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for command in DEMO_COMMANDS:
            main(command.split())


def test_every_operator_is_reached(monkeypatch):
    monkeypatch.chdir(ROOT)
    modules = [importlib.import_module(f"fvx.{info.name}") for info in pkgutil.iter_modules(fvx.__path__)]
    classes = [
        cls
        for module in modules
        for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__ == module.__name__
    ]
    assert uncalled_operators(classes, _default_check_and_demo) == set(KEPT_OPERATORS)
