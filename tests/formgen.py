"""Shared hypothesis strategies for random exact polynomials, forms, surfaces,
and the basis elements and index pairs that several test modules build.

This module is the one home of the tests' random values.  Each strategy is
built once, from a finite exact table where it can be: Hypothesis then draws
an index into the table instead of building and validating a new strategy
per draw, and shrinks toward the table's first entry.
"""

import functools
import itertools
from fractions import Fraction

from hypothesis import strategies as st

from fvx.forms_core import COORD_AXES, FIVE_AXES, FiveForm, FourForm, MultiVector
from fvx.integration import ParamSurface
from fvx.lagrange import FieldSet, LagrangianSpec
from fvx.polyfield import COORD_NAMES, Poly, parse_poly


def P(text: str) -> Poly:
    return parse_poly(text, COORD_NAMES)


def dx_form(axis: int) -> FourForm:
    """The coordinate one-form along one of the four coordinate labels."""
    return FourForm(1, {(axis,): 1})


def basis_vector(axis: int) -> MultiVector:
    return MultiVector(1, {(axis,): 1})


def one_vector() -> MultiVector:
    """The distinguished vector **1** spanning the E direction."""
    return basis_vector(5)


def contraction_pairs(m: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Index pairs (A, B) for the epsilon contraction identity at m free
    pairs: every pair of distinct-label tuples, and for m >= 2 three pairs
    with a repeated label, where both sides must vanish."""
    pairs = list(itertools.product(itertools.permutations(FIVE_AXES, m), repeat=2))
    if m < 2:
        return pairs
    distinct, repeated = FIVE_AXES[:m], (0, 0) + FIVE_AXES[1 : m - 1]
    return pairs + [(repeated, distinct), (distinct, repeated), (repeated, repeated)]


def rand_poly_reference(rng, nvars: int, max_degree: int, max_terms: int = 3) -> Poly:
    """``suites.rand_poly`` through the validating ``Poly(...)``: the same
    draws in the same order, kept as exponent tuples and Fractions."""
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(0, max_terms)):
        expo = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            if nvars:
                expo[rng.randrange(nvars)] += 1
        terms[tuple(expo)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Poly(nvars, terms)


# Every fraction in [-9, 9] with denominator at most 9, the value set of
# st.fractions(-9, 9, max_denominator=9), simplest first: the integers
# 0, 1, -1, ..., 9, -9, then the halves, the thirds, and so on.
RATIONALS = tuple(
    sorted(
        {Fraction(p, q) for q in range(1, 10) for p in range(-9 * q, 9 * q + 1)},
        key=lambda f: (f.denominator, abs(f), f < 0),
    )
)
rationals = st.sampled_from(RATIONALS)


@functools.cache
def exponent_table(nvars, max_exponent):
    """Every exponent tuple of ``nvars`` entries in 0..max_exponent, by total
    degree: the zero tuple first."""
    return tuple(sorted(itertools.product(range(max_exponent + 1), repeat=nvars), key=sum))


@functools.cache
def exponents(nvars, max_exponent):
    return st.sampled_from(exponent_table(nvars, max_exponent))


@functools.cache
def polys(nvars, max_exponent, max_terms, min_terms=0):
    """Polynomials in ``nvars`` variables with ``min_terms`` to ``max_terms``
    terms, each exponent at most ``max_exponent``, coefficients from RATIONALS."""
    terms = st.dictionaries(exponents(nvars, max_exponent), rationals, min_size=min_terms, max_size=max_terms)
    return st.builds(lambda terms: Poly(nvars, terms), terms)


small_polys = polys(4, 2, 2)
coord_polys = polys(4, 3, 4)


def _keyed(draw, cls, axes, rank):
    keys = list(itertools.combinations(axes, rank))
    chosen = draw(st.lists(st.sampled_from(keys), max_size=3, unique=True))
    return cls(rank, {k: draw(small_polys) for k in chosen})


@st.composite
def five_forms(draw, rank=None):
    if rank is None:
        rank = draw(st.integers(0, 5))
    return _keyed(draw, FiveForm, FIVE_AXES, rank)


@st.composite
def four_forms(draw, rank=None):
    if rank is None:
        rank = draw(st.integers(0, 4))
    return _keyed(draw, FourForm, COORD_AXES, rank)


@st.composite
def vector_fields(draw):
    return _keyed(draw, MultiVector, FIVE_AXES, 1)


@st.composite
def form_pairs_within_rank(draw, limit=5):
    ra = draw(st.integers(0, limit))
    rb = draw(st.integers(0, limit - ra))
    return draw(five_forms(rank=ra)), draw(five_forms(rank=rb))


@functools.cache
def param_polys(m, max_deg=2, max_terms=2):
    expos = st.tuples(*(st.integers(0, max_deg) for _ in range(m))).filter(
        lambda e: sum(e) <= max_deg
    )
    return st.builds(
        lambda terms: Poly(m, terms), st.dictionaries(expos, rationals, max_size=max_terms)
    )


_bound_starts = [Fraction(0), Fraction(-1, 2), Fraction(1, 3)]
_bound_widths = [Fraction(1), Fraction(1, 2), Fraction(2)]


@st.composite
def surfaces(draw, dim=None, max_deg=2):
    if dim is None:
        dim = draw(st.integers(1, 4))
    maps = tuple(draw(param_polys(dim, max_deg)) for _ in range(4))
    box = []
    for _ in range(dim):
        a = draw(st.sampled_from(_bound_starts))
        width = draw(st.sampled_from(_bound_widths))
        box.append((a, a + width))
    return ParamSurface(dim, maps, tuple(box))


@st.composite
def densities(draw, n_fields=1):
    nvars = 5 * n_fields
    total = Poly.zero(nvars)
    for _ in range(draw(st.integers(0, 3))):
        mono = Poly.const(draw(rationals), nvars)
        for axis in draw(st.lists(st.integers(0, nvars - 1), max_size=2)):
            mono = mono * Poly.variable(axis, nvars)
        total = total + mono
    return LagrangianSpec(n_fields, total)


def field_sets(n_fields=1):
    return st.builds(
        lambda polys: FieldSet(tuple(polys)),
        st.lists(small_polys, min_size=n_fields, max_size=n_fields),
    )
