"""What the benchmark under ``perfbench/`` assumes about fvx still holds.

The benchmark keeps its own copy of the expectations it judges fvx by, so a
change to fvx that breaks one of them shows there only as a failed or an
incorrect run.  These tests read the benchmark's files, without importing or
changing them, and check each expectation against fvx itself.
"""

import ast
import functools
import importlib
from pathlib import Path

from fvx import mutations as mu
from fvx import suites as su

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def constant(filename: str, name: str):
    """The literal value assigned to ``name`` at the top level of a benchmark file."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{filename} assigns no {name}")


def test_every_benchmark_mutation_is_registered_with_its_witness():
    for name, suite, identity in constant("workloads.py", "MUTATIONS"):
        assert name in mu.REGISTRY, name
        assert mu.REGISTRY[name].caught_by == (suite, identity), name


def test_benchmark_suite_sizes_match_the_suites():
    # judge() refuses a report whose record count differs from these sizes
    # times the trials, in this order of suites.
    expected = {suite: len(su.identities(suite)) for suite in su.SUITE_NAMES}
    assert list(constant("workloads.py", "SUITE_IDENTITIES").items()) == list(expected.items())


def test_every_traced_function_resolves_in_fvx():
    unresolved = []
    for name in constant("run.py", "TRACED_FUNCTIONS"):
        module, *path = name.split(".")
        try:
            functools.reduce(getattr, path, importlib.import_module(f"fvx.{module}"))
        except (ImportError, AttributeError):
            unresolved.append(name)
    assert not unresolved
