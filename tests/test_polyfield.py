"""Ring axioms, formal calculus, and text round-trips for exact polynomials."""

import itertools
import time
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from fvx.polyfield import (
    COORD_NAMES,
    Poly,
    format_poly,
    integrate_box,
    param_names,
    parse_poly,
)
from fvx.suites import SuiteConfig, run_suite

from formgen import P


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
exponents = st.tuples(*(st.integers(0, 3) for _ in range(4)))
polys = st.builds(
    lambda terms: Poly(4, terms),
    st.dictionaries(exponents, rationals, max_size=4),
)
points = st.tuples(*(rationals for _ in range(4)))
axes = st.integers(0, 3)


# -- frozen examples --------------------------------------------------------


def test_additive_inverse():
    assert P("x0") + P("-x0") == Poly.zero(4)


def test_add_collects_like_terms():
    assert P("x0 x1") + P("x0 x1") == P("2 x0 x1")


def test_add_rational_coefficients():
    assert P("1/2 x2^2") + P("1/3 x2^2") == P("5/6 x2^2")


def test_mul_unit():
    p = P("3 x0^2 - x1 x3")
    assert Poly.const(1, 4) * p == p


def test_mul_variables():
    assert P("x0") * P("x1") == P("x0 x1")


def test_difference_of_squares():
    assert P("x0 + x1") * P("x0 - x1") == P("x0^2 - x1^2")


def test_partial_product():
    assert P("x0 x1").partial(1) == P("x0")


def test_partial_constant():
    for axis in range(4):
        assert Poly.const(Fraction(7, 3), 4).partial(axis).is_zero


def test_partial_cube():
    assert P("x3^3").partial(3) == P("3 x3^2")


def test_evaluate_sum():
    assert P("x0 + x1").evaluate((1, 2, 0, 0)) == 3


def test_evaluate_zero():
    assert Poly.zero(4).evaluate((5, -2, Fraction(1, 3), 9)) == 0


def test_evaluate_monomial():
    assert P("x0 x2^2").evaluate((2, 0, 3, 0)) == 18


def test_compose_identity():
    identity = [Poly.variable(i, 4) for i in range(4)]
    p = P("3/2 x0^2 x1 - x3")
    assert p.compose(identity) == p


def test_compose_projects_to_parameters():
    l1, l2 = (Poly.variable(i, 2) for i in range(2))
    zero = Poly.zero(2)
    assert P("x0 x1").compose([l1, l2, zero, zero]) == l1 * l2


def test_compose_expands_square():
    l1, l2 = (Poly.variable(i, 2) for i in range(2))
    zero = Poly.zero(2)
    expected = l1 * l1 + 2 * l1 * l2 + l2 * l2
    assert P("x0^2").compose([l1 + l2, zero, zero, zero]) == expected


def test_scale_integrate_constant():
    one = Poly.const(1, 4)
    assert one.scale_integrate(0) == one


def test_scale_integrate_linear():
    assert P("x0").scale_integrate(0) == P("1/2 x0")


def test_scale_integrate_with_power():
    assert P("x0 x1").scale_integrate(1) == P("1/4 x0 x1")


# -- ring and calculus properties -------------------------------------------


@given(polys, polys)
def test_add_commutes(p, q):
    assert p + q == q + p


@given(polys, polys, polys)
def test_add_associates(p, q, r):
    assert (p + q) + r == p + (q + r)


@given(polys, polys)
def test_mul_commutes(p, q):
    assert p * q == q * p


@given(polys, polys, polys)
def test_mul_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys, polys, polys)
def test_mul_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys)
def test_additive_identity_and_inverse(p):
    zero = Poly.zero(4)
    assert p + zero == p
    assert p + (-p) == zero


@given(polys, axes, axes)
def test_mixed_partials_commute(p, a, b):
    assert p.partial(a).partial(b) == p.partial(b).partial(a)


@given(polys, polys, axes)
def test_partial_leibniz(p, q, a):
    assert (p * q).partial(a) == p.partial(a) * q + p * q.partial(a)


@given(polys, points)
def test_evaluate_is_ring_map(p, point):
    q = P("x0 - 2 x2")
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


@given(
    polys,
    st.tuples(*(st.builds(
        lambda terms: Poly(2, terms),
        st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), rationals, max_size=3),
    ) for _ in range(4))),
    st.tuples(rationals, rationals),
)
def test_compose_commutes_with_evaluate(p, maps, lam):
    image = tuple(m.evaluate(lam) for m in maps)
    assert p.compose(list(maps)).evaluate(lam) == p.evaluate(image)


@st.composite
def restrictions(draw):
    n = draw(st.integers(1, 4))
    expo = st.tuples(*(st.integers(0, 3) for _ in range(n)))
    p = Poly(n, draw(st.dictionaries(expo, rationals, max_size=5)))
    return p, draw(st.integers(0, n - 1)), draw(st.one_of(st.integers(-3, 3), rationals))


@given(restrictions())
def test_restrict_matches_compose(case):
    # A face map: fix variable k at v and keep the others, renumbered.
    p, k, v = case
    n = p.nvars
    subs = [Poly.const(v, n - 1) if i == k else Poly.variable(i - (i > k), n - 1) for i in range(n)]
    restricted = p.restrict(k, v)
    assert restricted.nvars == n - 1
    assert restricted == p.compose(subs)
    assert restricted == Poly(n - 1, restricted.terms)


def test_restrict_one_variable_gives_a_constant():
    # The faces of a curve are points: 0-variable constants.
    p = Poly(1, {(2,): 3, (0,): 1})
    assert p.restrict(0, Fraction(1, 2)) == Poly.const(Fraction(7, 4), 0)
    assert Poly(1, {(1,): 1}).restrict(0, 0) == Poly.zero(0)


def test_restrict_rejects_out_of_range_axis():
    for p, axis in ((P("x0"), 4), (P("x0"), -1), (Poly.const(1, 0), 0)):
        with pytest.raises(ValueError, match="out of range"):
            p.restrict(axis, 1)


def test_constructors_check_nvars():
    for make in (Poly.zero, lambda n: Poly.const(1, n)):
        with pytest.raises(ValueError, match="nonnegative"):
            make(-1)
    assert Poly.const(0, 3) == Poly.zero(3) and not Poly.const(0, 3).terms


def test_zero_is_one_shared_instance_that_stays_zero():
    zero = Poly.zero(4)
    assert zero is Poly.zero(4) and zero is not Poly.zero(3)
    assert run_suite(SuiteConfig(seed=0)).passed
    assert (zero.den, zero.num) == (1, {})


scalars = st.one_of(st.integers(-3, 3), rationals)


@given(polys, polys, scalars, axes, st.integers(0, 3))
def test_arithmetic_results_are_canonical(p, q, k, a, power):
    # Arithmetic builds its results without re-validating them; each must
    # still be the canonical Poly that the checking constructor would give.
    # A zero result is the one shared zero of its variable count.
    subs = [p, q, Poly.const(k, 4), Poly.variable(a, 4)]
    zeros = (
        p - p, p * 0, Poly.zero(4) * q, (p - p).compose(subs), Poly.const(0, 4), Poly(4, {(1, 0, 0, 0): 0}),
        Poly.variable(a, 4).partial((a + 1) % 4), Poly.zero(4).restrict(a, k), -Poly.zero(4),
    )
    assert all(not zero for zero in zeros)
    results = zeros + (
        p + q, p - q, (p + q) - q, -p, p * q, p * k, k * p, p.partial(a), k - p, Poly.const(k, 4), Poly.zero(4),
        p.restrict(a, k), p.compose(subs), p.scale_integrate(power), Poly.variable(a, 4), Poly.variable(0, 1),
    )
    for result in results:
        assert result or (result is Poly.zero(result.nvars) and result.den == 1)
        assert result.den > 0
        assert gcd(result.den, *result.num.values()) == 1
        assert all(type(c) is int and c != 0 for c in result.num.values())
        assert result.num or result.den == 1
        for expo, coeff in result.terms.items():
            assert type(coeff) is Fraction and coeff != 0
            assert len(expo) == result.nvars and all(e >= 0 for e in expo)
        assert result == Poly(result.nvars, result.terms)


def test_zero_exits_keep_every_check():
    # Each operation returns the shared zero early, but only after checking its arguments.
    zero = Poly.zero(2)
    for call in (
        lambda: zero.partial(2),
        lambda: zero.restrict(2, 0),
        lambda: zero.restrict(0, "x"),
        lambda: zero.compose([Poly.zero(1)]),
        lambda: zero.compose([Poly.zero(1), Poly.zero(3)]),
        lambda: zero * Poly.zero(3),
        lambda: zero.scale_integrate(-1),
        lambda: integrate_box(zero, [(0, 1)]),
        lambda: integrate_box(zero, [(0, 1), (0, "x")]),
    ):
        with pytest.raises(ValueError):
            call()


def test_exponent_bound_at_the_constructor():
    assert Poly(1, {(32767,): 1}).terms == {(32767,): 1}
    for expo in ((32768,), (0, 100000000)):
        with pytest.raises(ValueError, match=f"exponent {max(expo)} above 32767"):
            Poly(len(expo), {expo: 1})
    with pytest.raises(ValueError, match="exponent 40000 above 32767"):
        parse_poly("x0^20000 x0^20000", COORD_NAMES)


def test_product_overflow_raises_instead_of_wrapping():
    # x0^32767 * x0 would carry into x1's field if the guard bit were not
    # checked; a field never wraps silently.
    top = Poly(2, {(32767, 0): 1})
    assert top * Poly(2, {(0, 5): 2}) == Poly(2, {(32767, 5): 2})
    for factor in (Poly.variable(0, 2), top, Poly(2, {(1, 0): 1, (0, 1): 1})):
        with pytest.raises(ValueError, match="exponent overflow"):
            top * factor
    half = Poly(1, {(20000,): 1})
    with pytest.raises(ValueError, match="exponent overflow"):
        half * half
    with pytest.raises(ValueError, match="exponent overflow"):
        Poly(1, {(2,): 1}).compose([half])
    with pytest.raises(ValueError, match="exponent overflow"):
        Poly(2, {(1, 1): 1}).compose([half, half])
    assert Poly(1, {(1,): 1}).compose([top.restrict(1, 3)]) == top.restrict(1, 0)


def test_hot_arithmetic_builds_no_fraction():
    # Poly keeps int numerators over one denominator; +, *, unary - and
    # partial work in integers and must not construct a Fraction.
    p = P("1/2 x0^2 x1 - 3/4 x2 + 5/6")
    q = P("2/3 x0 x1^3 + 7/9 x3 - 1/2")
    r = P("x0 + 3 x1^2")
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    with mock.patch.object(Fraction, "__new__", counting):
        Fraction(1, 3)
        assert made == [(1, 3)]
        made.clear()
        results = [p + q, p + r, p + p, p - q, p * q, p * r, r * r, -p, p.partial(0), q.partial(1), r.partial(3)]
    assert made == []
    assert results[0] == P("1/2 x0^2 x1 + 2/3 x0 x1^3 - 3/4 x2 + 7/9 x3 + 1/3")
    assert results[-4] == P("-1/2 x0^2 x1 + 3/4 x2 - 5/6")


@given(polys)
def test_format_parse_roundtrip(p):
    assert parse_poly(format_poly(p, COORD_NAMES), COORD_NAMES) == p


# -- box integration ---------------------------------------------------------


def test_integrate_box_unit_volume():
    box = [(0, 1)] * 4
    assert integrate_box(Poly.const(1, 4), box) == 1


def test_integrate_box_linear():
    box = [(0, 2), (0, 1), (0, 1), (0, 1)]
    assert integrate_box(P("x0"), box) == 2


def test_integrate_box_two_parameters():
    l1, l2 = (Poly.variable(i, 2) for i in range(2))
    assert integrate_box(l1 * l2, [(0, 1), (0, 1)]) == Fraction(1, 4)


def test_integrate_box_rational_bounds():
    assert integrate_box(P("x1^2"), [(0, 1), (Fraction(-1, 2), Fraction(1, 2)), (0, 1), (0, 1)]) == Fraction(1, 12)


def test_integrate_box_zero_parameters():
    assert integrate_box(Poly.const(Fraction(5, 7), 0), []) == Fraction(5, 7)


def newton_cotes_weights(n: int) -> list[Fraction]:
    """Weights of the closed rule with nodes 0, 1, ..., n on [0, n]: the
    solution of sum_j w_j j^k = n^(k+1) / (k+1) for k = 0..n."""
    rows = [[Fraction(j**k) for j in range(n + 1)] + [Fraction(n ** (k + 1), k + 1)] for k in range(n + 1)]
    for col in range(n + 1):
        pivot = next(r for r in range(col, n + 1) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n + 1):
            if r != col and rows[r][col]:
                rows[r] = [v - rows[r][col] * w for v, w in zip(rows[r], rows[col])]
    return [row[-1] for row in rows]


def test_newton_cotes_weights_are_the_classical_ones():
    assert newton_cotes_weights(1) == [Fraction(1, 2)] * 2
    assert newton_cotes_weights(2) == [Fraction(1, 3), Fraction(4, 3), Fraction(1, 3)]
    assert newton_cotes_weights(3) == [Fraction(3, 8), Fraction(9, 8), Fraction(9, 8), Fraction(3, 8)]


@st.composite
def boxed_polys(draw):
    nvars = draw(st.integers(1, 4))
    degrees = draw(st.tuples(*(st.integers(1, 3) for _ in range(nvars))))
    expo = st.tuples(*(st.integers(0, n) for n in degrees))
    p = Poly(nvars, draw(st.dictionaries(expo, rationals, max_size=5)))
    box = [draw(st.tuples(rationals, rationals)) for _ in range(nvars)]
    return p, degrees, box


@given(boxed_polys())
def test_integrate_box_matches_newton_cotes(case):
    # The closed rule with n + 1 equispaced nodes per variable is exact for
    # degree <= n in that variable, so the tensor rule must give exactly the
    # integral: a second route that evaluates the polynomial and never forms
    # an antiderivative.
    p, degrees, box = case
    axes = []
    for n, (a, b) in zip(degrees, box):
        h = (b - a) / n
        axes.append([(a + j * h, w * h) for j, w in enumerate(newton_cotes_weights(n))])
    total = Fraction(0)
    for nodes in itertools.product(*axes):
        weight = Fraction(1)
        for _, w in nodes:
            weight *= w
        total += weight * p.evaluate([x for x, _ in nodes])
    assert integrate_box(p, box) == total


# -- parser and representation edges ----------------------------------------


def test_parse_star_products_and_signs():
    names = param_names(2)
    p = parse_poly("-l1*l2 + 2l1^2 - 1/2", names)
    l1, l2 = (Poly.variable(i, 2) for i in range(2))
    assert p == -(l1 * l2) + 2 * l1 * l1 - Fraction(1, 2)


def test_parse_is_linear_in_the_number_of_terms():
    # Adding one Poly per term to a growing sum took 15 s for this text.
    n = 16_000
    text = " + ".join(["x0"] + [f"x0^{k}" for k in range(2, n)])
    start = time.perf_counter()
    p = parse_poly(text, COORD_NAMES)
    assert time.perf_counter() - start < 1
    assert p == Poly(4, {(k, 0, 0, 0): 1 for k in range(1, n)})


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.booleans(), rationals, exponents), min_size=1, max_size=8))
def test_parse_equals_the_term_by_term_sum(terms):
    chunks = [
        f"{'-' if negative else '+'} {abs(coeff)} " + " ".join(f"{n}^{e}" for n, e in zip(COORD_NAMES, expo))
        for negative, coeff, expo in terms
    ]
    total = Poly.zero(4)
    for chunk in chunks:
        total = total + parse_poly(chunk, COORD_NAMES)
    assert parse_poly(" ".join(chunks), COORD_NAMES) == total
    # A sum that cancels still names its exponents, and each is checked.
    with pytest.raises(ValueError, match="exponent 40000 above 32767"):
        parse_poly(" ".join(chunks) + " + x0^40000 - x0^40000", COORD_NAMES)


def test_parse_rejects_unknown_variable():
    with pytest.raises(ValueError, match="unknown variable"):
        parse_poly("x0 + y1", COORD_NAMES)


def test_parse_rejects_dangling_sign():
    with pytest.raises(ValueError, match="dangling sign"):
        parse_poly("x0 +", COORD_NAMES)


def test_parse_rejects_zero_denominator():
    for text in ("1/0 x0", "x1 - 3/00"):
        with pytest.raises(ValueError, match="zero denominator in '.*/0+'"):
            parse_poly(text, COORD_NAMES)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=8), st.text("0123456789x^/+- ٣²", max_size=8)))
@example("٣ x0^٢")
@example("x0^²")
def test_any_text_parses_with_ascii_digits_or_raises(text):
    try:
        p = parse_poly(text, COORD_NAMES)
    except ValueError:
        return
    assert all(ch in "0123456789" for ch in text if ch.isdigit())
    assert parse_poly(format_poly(p, COORD_NAMES), COORD_NAMES) == p


def test_parse_rejects_bad_power():
    with pytest.raises(ValueError, match="integer exponent"):
        parse_poly("x0^", COORD_NAMES)


def test_format_zero():
    assert format_poly(Poly.zero(4), COORD_NAMES) == "0"


def test_as_fraction_requires_constant():
    assert Poly.const(Fraction(-3, 4), 4).as_fraction() == Fraction(-3, 4)
    with pytest.raises(ValueError, match="not constant"):
        P("x0").as_fraction()


def test_poly_is_immutable():
    p = P("x0")
    with pytest.raises(AttributeError):
        p.nvars = 5
    with pytest.raises(AttributeError, match="Poly is immutable"):
        del p.num
    assert p == P("x0")
