"""The tests' random values have one home, ``formgen``, and keep their value sets.

``formgen`` draws rationals and exponent tuples from finite exact tables,
each built once.  These tests pin each table to the value set of the
strategy it replaced, and an ``ast`` guard keeps every other test module from
defining its own ``rationals``, ``exponents`` or ``polys`` again.  Another
keeps the tests on ``fvx.suites.draws`` and ``duality.hodge4``, not copies.
"""

import ast
import itertools
from fractions import Fraction
from pathlib import Path

import formgen
import test_polyfield
from formgen import RATIONALS, exponent_table

TESTS = Path(__file__).resolve().parent

# Names that only formgen may bind.
VALUE_STRATEGIES = {"rationals", "exponents", "polys"}


def test_rationals_are_every_small_fraction_simplest_first():
    expected = {Fraction(p, q) for q in range(1, 10) for p in range(-81, 82) if abs(p) <= 9 * q}
    assert len(expected) == 505
    assert len(RATIONALS) == 505 and set(RATIONALS) == expected
    assert RATIONALS[:3] == (0, 1, -1)
    assert all(type(r) is Fraction for r in RATIONALS)


def test_exponent_tables_are_full_products_zero_first():
    for nvars, top in itertools.product(range(1, 5), range(1, 4)):
        table = exponent_table(nvars, top)
        assert sorted(table) == sorted(itertools.product(range(top + 1), repeat=nvars))
        assert table[0] == (0,) * nvars
        assert [sum(e) for e in table] == sorted(sum(e) for e in table)


def test_poly_tests_draw_from_the_one_rationals():
    import test_sympy_oracle  # skips this test alone when sympy is missing

    assert test_polyfield.rationals is test_sympy_oracle.rationals is formgen.rationals
    assert test_polyfield.polys is test_sympy_oracle.polys is formgen.polys
    assert test_polyfield.coord_polys is test_sympy_oracle.coord_polys is formgen.polys(4, 3, 4) is formgen.coord_polys
    assert formgen.small_polys is formgen.polys(4, 2, 2)
    assert formgen.param_polys(3, 2) is formgen.param_polys(3, 2)


def _literal(node):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def _is_small_fractions(call: ast.Call) -> bool:
    """A call ``fractions(-9, 9, max_denominator=9)``, by position or keyword."""
    name = call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)
    if name != "fractions":
        return False
    args = dict(zip(("min_value", "max_value", "max_denominator"), map(_literal, call.args)))
    args.update((kw.arg, _literal(kw.value)) for kw in call.keywords)
    return args == {"min_value": -9, "max_value": 9, "max_denominator": 9}


def value_strategy_copies() -> list[str]:
    """Every place outside formgen that defines a value strategy of its own:
    a function anywhere, or a module-level name, called ``rationals``,
    ``exponents`` or ``polys`` (a local list of polynomials is no strategy),
    and every call ``fractions(-9, 9, max_denominator=9)``."""
    found = []
    for path in sorted(TESTS.glob("*.py")):
        if path.name == "formgen.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)}
                found += [f"{path.name}:{node.lineno} defines {name}" for name in sorted(names & VALUE_STRATEGIES)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in VALUE_STRATEGIES:
                found.append(f"{path.name}:{node.lineno} defines {node.name}")
            if isinstance(node, ast.Call) and _is_small_fractions(node):
                found.append(f"{path.name}:{node.lineno} calls fractions(-9, 9, max_denominator=9)")
    return found


def test_only_formgen_defines_the_value_strategies():
    assert value_strategy_copies() == []


def check_loop_copies(modules: dict[str, str]) -> list[str]:
    """Every call ``Random(f"{x}:{y}")``, which builds a suite's draw stream,
    and every function whose name contains ``hodge4``, in the sources."""
    found = []
    for name, text in modules.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "Random":
                parts = getattr(node.args[0], "values", []) if node.args else []
                if [type(p) for p in parts] == [ast.FormattedValue, ast.Constant, ast.FormattedValue] and parts[1].value == ":":
                    found.append(f"{name}:{node.lineno} builds a suite stream")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and "hodge4" in node.name:
                found.append(f"{name}:{node.lineno} defines {node.name}")
    return found


def test_no_test_module_copies_the_check_loop():
    assert check_loop_copies({path.name: path.read_text() for path in sorted(TESTS.glob("*.py"))}) == []
    probes = ('random.Random(f"{seed}:{suite}")', 'Random(f"{s}:{t}")', 'random.Random(f"faces:{dim}")', "def _hodge4_oracle(): pass")
    assert check_loop_copies(dict(enumerate(probes))) == ["0:1 builds a suite stream", "1:1 builds a suite stream", "3:1 defines _hodge4_oracle"]
