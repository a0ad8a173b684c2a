"""Poly arithmetic against sympy as an outside oracle.

sympy is optional: without it these tests skip, and fvx itself never
imports it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fvx.polyfield import Poly, integrate_box

from formgen import coord_polys, polys, rationals

sympy = pytest.importorskip("sympy")

X = sympy.symbols("x0:4")
L = sympy.symbols("l0:2")


def rational(value: Fraction) -> "sympy.Rational":
    return sympy.Rational(value.numerator, value.denominator)


def as_sympy(p: Poly, names) -> "sympy.Expr":
    return sympy.Add(*(rational(c) * sympy.Mul(*(x**e for x, e in zip(names, expo))) for expo, c in p.terms.items()))


def same(p: Poly, names, expr) -> bool:
    return sympy.expand(as_sympy(p, names) - expr) == 0


oracle = settings(max_examples=25, deadline=None)


@oracle
@given(coord_polys, coord_polys)
def test_product(p, q):
    assert same(p * q, X, as_sympy(p, X) * as_sympy(q, X))


@oracle
@given(polys(4, 2, 3, 1), st.tuples(*(polys(2, 2, 2, 1) for _ in range(4))))
def test_compose(p, maps):
    image = {x: as_sympy(m, L) for x, m in zip(X, maps)}
    assert same(p.compose(list(maps)), L, as_sympy(p, X).subs(image, simultaneous=True))


@oracle
@given(coord_polys, st.integers(0, 3))
def test_partial(p, axis):
    assert same(p.partial(axis), X, sympy.diff(as_sympy(p, X), X[axis]))


@oracle
@given(coord_polys, st.integers(0, 3), rationals)
def test_restrict(p, axis, value):
    rest = X[:axis] + X[axis + 1 :]
    assert same(p.restrict(axis, value), rest, as_sympy(p, X).subs(X[axis], rational(value)))


@oracle
@given(coord_polys, st.lists(st.tuples(rationals, rationals), min_size=4, max_size=4))
def test_integrate_box(p, box):
    expr = as_sympy(p, X)
    for x, (a, b) in zip(X, box):
        expr = sympy.integrate(expr, (x, rational(a), rational(b)))
    assert integrate_box(p, box) == Fraction(int(expr.p), int(expr.q))
