"""Wedge algebra, pairings, label-5 bookkeeping, and array antisymmetrization."""

import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fvx.forms_core import (
    COORD_AXES,
    FIVE_AXES,
    FiveForm,
    FourForm,
    IndexedArray,
    MultiVector,
    basis_one_form,
    contract,
    e_part,
    j_form,
    lift,
    permutation_sign,
    project,
    s_from_t,
    signed_permutations,
    t_from_s,
    transposition_identity_check,
    wedge,
    z_part,
)
from fvx import calculus as ca
from fvx import forms_core as fc
from fvx import lagrange as lg
from fvx import metric_dual as md
from fvx import mutations as mu
from fvx import suites as su
from fvx.polyfield import Poly, _pack
from fvx.suites.appendix import conforming_array

from formgen import P, basis_vector, dx_form, five_forms, form_pairs_within_rank, one_vector


# -- wedge -------------------------------------------------------------------


def test_wedge_antisymmetry_of_basis():
    o0, o1 = basis_one_form(0), basis_one_form(1)
    assert wedge(o0, o1) == -wedge(o1, o0)


def test_wedge_repeated_factor_vanishes():
    assert wedge(j_form(), j_form()).is_zero


def test_wedge_shuffle_example():
    left = P("x0") * basis_one_form(0)
    right = wedge(basis_one_form(1), basis_one_form(5))
    assert wedge(left, right) == FiveForm(3, {(0, 1, 5): P("x0")})


def test_wedge_rank_overflow():
    three = wedge(wedge(basis_one_form(0), basis_one_form(1)), basis_one_form(2))
    with pytest.raises(ValueError, match="rank exceeds 5"):
        wedge(three, three)


def test_wedge_unit_scalar():
    one = FiveForm.from_scalar(1)
    t = FiveForm(2, {(0, 5): P("x1 - 2"), (2, 3): P("x0^2")})
    assert wedge(one, t) == t
    assert wedge(t, one) == t


@given(form_pairs_within_rank())
def test_wedge_graded_commutativity(pair):
    a, b = pair
    sign = (-1) ** (a.rank * b.rank)
    assert wedge(a, b) == sign * wedge(b, a)


@given(form_pairs_within_rank(limit=4), five_forms(rank=1))
def test_wedge_associativity(pair, c):
    a, b = pair
    if a.rank + b.rank + c.rank > 5:
        return
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@given(five_forms(rank=2), five_forms(rank=2), five_forms(rank=1))
def test_wedge_bilinearity(a, b, c):
    assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)


# -- contraction ---------------------------------------------------------------


def test_contract_j_with_one():
    assert contract(j_form(), one_vector()) == Poly.const(1, 4)


def test_contract_basis_duality():
    assert contract(basis_one_form(0), basis_vector(1)).is_zero


def test_contract_rank_two_determinant():
    t = wedge(basis_one_form(0), basis_one_form(1))
    w = wedge(basis_vector(0), basis_vector(1))
    assert contract(t, w) == Poly.const(1, 4)


def test_contract_rank_mismatch():
    with pytest.raises(ValueError, match="rank mismatch"):
        contract(j_form(), wedge(basis_vector(0), basis_vector(1)))


def test_contract_kronecker_pattern():
    # Pairing basis wedges equals the determinant of the incidence pattern.
    for ka in itertools.combinations(FIVE_AXES, 2):
        for kb in itertools.combinations(FIVE_AXES, 2):
            t = wedge(basis_one_form(ka[0]), basis_one_form(ka[1]))
            w = wedge(basis_vector(kb[0]), basis_vector(kb[1]))
            expected = 1 if ka == kb else 0
            assert contract(t, w) == Poly.const(expected, 4)


@given(five_forms(rank=2), five_forms(rank=2))
def test_contract_linear_in_form(a, b):
    w = wedge(basis_vector(1), basis_vector(5))
    assert contract(a + b, w) == contract(a, w) + contract(b, w)


# -- label-5 split -------------------------------------------------------------


def test_z_part_of_j_vanishes():
    assert z_part(j_form()).is_zero


def test_e_part_of_coordinate_form_vanishes():
    assert e_part(basis_one_form(0)).is_zero


def test_mixed_rank_keys_rejected():
    with pytest.raises(ValueError, match="rank"):
        FiveForm(1, {(0,): P("x0"), (0, 5): P("x1")})


@given(five_forms())
def test_split_reassembles(t):
    assert z_part(t) + e_part(t) == t
    assert z_part(z_part(t)) == z_part(t)
    assert e_part(z_part(t)).is_zero


def test_project_after_lift():
    S = FourForm(2, {(0, 1): P("x2"), (2, 3): P("1/3 x0")})
    assert project(lift(S)) == S


def test_lift_of_dx():
    assert lift(dx_form(0)) == basis_one_form(0)


def test_project_kills_j():
    assert project(j_form()) == FourForm.zero(1)


# -- rank shift along label 5 ---------------------------------------------------


def test_t_from_s_scalar():
    assert t_from_s(FiveForm.from_scalar(1)) == j_form()


def test_t_from_s_coordinate_form():
    assert t_from_s(basis_one_form(0)) == wedge(basis_one_form(0), j_form())


def test_t_from_s_annihilates_j():
    assert t_from_s(j_form()).is_zero


def test_s_from_t_of_j():
    assert s_from_t(j_form()) == FiveForm.from_scalar(1)


def test_s_from_t_strips_trailing_label():
    assert s_from_t(wedge(basis_one_form(0), j_form())) == basis_one_form(0)


def test_s_from_t_without_label5():
    assert s_from_t(wedge(basis_one_form(0), basis_one_form(1))).is_zero


def test_s_from_t_rank_zero_rejected():
    with pytest.raises(ValueError):
        s_from_t(FiveForm.from_scalar(1))


@given(five_forms(rank=2))
def test_round_trip_recovers_z_part(s):
    assert s_from_t(t_from_s(s)) == z_part(s)


@given(five_forms(rank=2))
def test_pairing_defines_s_from_t(t):
    # The stripped form is characterized by pairing against w wedge **1**.
    s = s_from_t(t)
    for key in itertools.combinations(FIVE_AXES, 1):
        w = MultiVector(1, {key: 1})
        assert contract(t, wedge(w, one_vector())) == contract(s, w)


# -- indexed arrays -------------------------------------------------------------


def test_indexed_array_stores_only_nonzero_entries():
    arr = IndexedArray(2, [0, 1], {(0, 1): Fraction(1, 2), (1, 0): 0})
    assert arr.values == {(0, 1): Fraction(1, 2)}
    assert arr[(0, 1)] == Fraction(1, 2)
    assert arr[(1, 0)] == 0 and arr[[1, 1]] == 0
    assert arr == IndexedArray(2, [0, 1], {(0, 1): Fraction(1, 2)})
    assert (arr * -2).values == {(0, 1): -1} and not (arr * 0).values
    for bad in [(0,), (0, 1, 1), (0, 2)]:
        with pytest.raises(ValueError, match=re.escape(f"bad index tuple {bad!r}")):
            arr[bad]
        with pytest.raises(ValueError, match=re.escape(f"bad index tuple {bad!r}")):
            IndexedArray(2, [0, 1], {bad: 0})


def assert_canonical_array(array: IndexedArray) -> None:
    """The stored form of an array: int numerators, none of them 0, over a
    positive int denominator that shares no factor with all of them, and a
    denominator of 1 when nothing is stored."""
    assert type(array.den) is int and array.den > 0
    assert all(type(c) is int and c for c in array.num.values())
    assert math.gcd(array.den, *array.num.values()) == 1
    assert array.num or array.den == 1
    assert array == IndexedArray(array.arity, array.index_set, array.values)


_LABELS = (0, 1, 5)
_tables = st.dictionaries(
    st.tuples(st.sampled_from(_LABELS), st.sampled_from(_LABELS)),
    st.one_of(st.integers(-5, 5), st.fractions(-9, 9, max_denominator=12)),
    max_size=9,
)


@settings(max_examples=50, deadline=None)
@given(_tables)
@example({})
@example({(0, 1): 0, (1, 0): Fraction(0)})
def test_indexed_array_reads_agree_with_a_fraction_reference(table):
    arr = IndexedArray(2, _LABELS, table)
    reference = {key: Fraction(value) for key, value in table.items() if value}
    assert_canonical_array(arr)
    assert arr.values == reference
    assert all(type(value) is Fraction for value in arr.values.values())
    for idx in itertools.product(_LABELS, repeat=2):
        assert type(arr[idx]) is Fraction and arr[idx] == reference.get(idx, 0)


@pytest.mark.parametrize("factor", [0, Fraction(-1), Fraction(3, 4)], ids=["zero", "minus-one", "three-quarters"])
def test_indexed_array_scales_exactly(factor):
    arr = IndexedArray(2, _LABELS, {(0, 1): Fraction(1, 2), (1, 0): Fraction(-2, 3), (5, 5): 4})
    product = arr * factor
    assert_canonical_array(product)
    assert product.values == {key: value * factor for key, value in arr.values.items() if factor}
    assert (product.arity, product.index_set) == (arr.arity, arr.index_set)


def test_indexed_array_refuses_an_inexact_factor():
    # As for Poly, only an int or a Fraction scales an array: a float would be
    # stored as it is and end exactness.
    arr = IndexedArray(2, [0, 1], {(0, 1): Fraction(1, 2)})
    assert arr.__mul__(0.5) is NotImplemented
    for factor in (0.5, "2", None):
        with pytest.raises(TypeError):
            arr * factor
    with pytest.raises(TypeError):
        0.5 * arr


@pytest.mark.parametrize("cfg", [md.DEFAULT_CFG, md.MetricConfig(xi=Fraction(1, 4)), md.MetricConfig(xi=Fraction(-9, 4))])
def test_epsilon_tables_are_canonical(cfg):
    lower = md.epsilon_lower(cfg)
    upper = md.epsilon_upper(lower, cfg)
    for table in (lower, upper, lower * Fraction(-1), lower * 0):
        assert_canonical_array(table)
    assert lower.den == cfg.kappa.denominator and upper.den == (cfg.kappa / cfg.det_h).denominator


def antisymmetrize(array: IndexedArray, positions) -> IndexedArray:
    """Average over signed permutations of the named slots, listed in
    increasing order."""
    if not positions:
        raise ValueError("positions must be nonempty")
    out = {}
    for idx in itertools.product(array.index_set, repeat=array.arity):
        total = Fraction(0)
        for perm in itertools.permutations(positions):
            permuted = list(idx)
            for slot, src in zip(positions, perm):
                permuted[slot] = idx[src]
            total += permutation_sign(perm) * array[permuted]
        out[idx] = total / math.factorial(len(positions))
    return IndexedArray(array.arity, array.index_set, out)


def test_antisymmetrize_idempotent_on_antisymmetric():
    arr = IndexedArray.from_function(2, [0, 1, 2], lambda a, b: a - b)
    assert antisymmetrize(arr, [0, 1]) == arr


def test_antisymmetrize_kills_symmetric():
    arr = IndexedArray.from_function(2, [0, 1, 2], lambda a, b: a * b + 1)
    assert not antisymmetrize(arr, [0, 1]).values


def test_antisymmetrize_matches_permutation_sum():
    values = {}
    counter = 0
    for idx in itertools.product([0, 1, 2], repeat=3):
        counter += 1
        values[idx] = Fraction(counter % 7 - 3, counter % 4 + 1)
    arr = IndexedArray(3, [0, 1, 2], values)
    averaged = antisymmetrize(arr, [0, 1, 2])
    for idx in itertools.product([0, 1, 2], repeat=3):
        explicit = sum(
            permutation_sign(perm) * arr[tuple(idx[p] for p in perm)]
            for perm in itertools.permutations(range(3))
        )
        assert averaged[idx] == Fraction(explicit, 6)


def test_antisymmetrize_requires_positions():
    arr = IndexedArray.from_function(2, [0, 1], lambda a, b: a)
    with pytest.raises(ValueError, match="nonempty"):
        antisymmetrize(arr, [])


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_transposition_identity_on_conforming_arrays(m):
    weights = [Fraction(k + 1, 2) for k in range(m)]
    assert transposition_identity_check(conforming_array(weights), m)


def test_transposition_identity_zero_array():
    for m in range(2, 6):
        assert transposition_identity_check(IndexedArray(m + 1, range(m), {}), m)


def test_transposition_identity_on_non_integer_weights():
    # The check compares the stored numerators, which share one denominator.
    for m in range(2, 6):
        weights = [Fraction(2 * k + 1, 3 * k + 2) for k in range(m)]
        arr = conforming_array(weights)
        assert arr.den == math.lcm(*(w.denominator for w in weights)) > 1
        assert transposition_identity_check(arr, m)
        assert transposition_identity_check(arr * Fraction(-5, 7), m)
        values = arr.values
        values[(0,) * (m + 1)] = Fraction(1, 11)
        with pytest.raises(ValueError, match="not antisymmetric"):
            transposition_identity_check(IndexedArray(m + 1, range(m), values), m)


# Weights with mixed denominators and zeros; the array keeps them as integers
# over their common denominator, so both must come out exact.
_weight_lists = st.integers(2, 5).flatmap(
    lambda m: st.lists(
        st.one_of(st.just(Fraction(0)), st.fractions(-9, 9, max_denominator=12)),
        min_size=m,
        max_size=m,
    )
)


@settings(max_examples=20, deadline=None)
@given(_weight_lists)
def test_transposition_identity_accepts_mixed_denominators(weights):
    m = len(weights)
    assert transposition_identity_check(conforming_array(weights), m)


@settings(max_examples=20, deadline=None)
@given(_weight_lists)
@example([Fraction(0), Fraction(0)])
def test_conforming_arrays_are_canonical(weights):
    arr = conforming_array(weights)
    assert_canonical_array(arr)
    for k, w in enumerate(weights):
        assert arr[(k,) + tuple(range(len(weights)))] == w


@settings(max_examples=20, deadline=None)
@given(_weight_lists, st.data())
def test_transposition_identity_rejects_any_broken_entry(weights, data):
    # The broken tuple ranges over every tuple, stored or not: only nonzero
    # entries are stored, so a zero entry made nonzero must be caught too.
    m = len(weights)
    arr = conforming_array(weights)
    key = data.draw(st.sampled_from(list(itertools.product(range(m), repeat=m + 1))))
    values = dict(arr.values)
    values[key] = arr[key] + data.draw(st.fractions(-9, 9, max_denominator=12).filter(bool))
    with pytest.raises(ValueError, match="not antisymmetric"):
        transposition_identity_check(IndexedArray(m + 1, range(m), values), m)


# The check regroups its sum by reindexing: for a tail tau, sigma -> tau o sigma
# runs over every ordering pi of the index set once, and the sign factors.
# Both facts hold for any index set, also one with label 5.
_index_sets = st.lists(st.sampled_from(FIVE_AXES), min_size=2, max_size=5, unique=True).map(
    lambda labels: tuple(sorted(labels))
)


@settings(max_examples=50, deadline=None)
@given(
    _index_sets.flatmap(
        lambda labels: st.tuples(st.permutations(labels), st.permutations(range(len(labels))))
    )
)
@example(((0, 2, 5, 3), (1, 0, 3, 2)))
def test_permutation_sign_is_multiplicative(perms):
    tau, sigma = map(tuple, perms)
    composed = tuple(tau[s] for s in sigma)
    assert permutation_sign(composed) == permutation_sign(tau) * permutation_sign(sigma)


@pytest.mark.parametrize("n", range(7))
def test_signed_permutations_follow_the_enumeration_order(n):
    distinct = tuple(random.Random(n).sample(range(9), n))
    for items in (tuple(range(n)), distinct, tuple(reversed(distinct)), tuple(i // 2 for i in range(n))):
        # The sign is that of the permutation of positions, so repeated
        # items still carry one.
        expected = [
            (permutation_sign(perm), tuple(items[p] for p in perm))
            for perm in itertools.permutations(range(n))
        ]
        assert list(signed_permutations(items)) == expected


# The sign routes' kill rows at seed 0 over the suites that read signs: the
# identities that fail, with their failing instance counts, when one route's
# signs are negated.  The two routes are independent, so each row is caught
# on its own; epsilon-reference compares them, and the divergence readings
# compare S with T, whose permutation_sign flips cancel.
SIGN_ROUTE_KILLS = {
    "signed_permutations": (
        "signed-perm-sign",
        {"epsilon-reference": 25, "divergence-contraction-4": 19, "divergence-contraction-5": 23},
    ),
    "permutation_sign": ("perm-sign", {"epsilon-reference": 21, "bd-lambda-residual": 7, "three-way-equivalence": 1}),
}


@pytest.mark.parametrize("name", SIGN_ROUTE_KILLS)
def test_sign_route_kill_rows(name):
    mutation, kills = SIGN_ROUTE_KILLS[name]
    original = getattr(fc, name)
    with mu.apply_mutation(mutation):
        # Patched at every binding, metric_dual's by-name import too.
        assert getattr(fc, name) is getattr(md, name) is not original
        report = su.run_suite(su.SuiteConfig(seed=0, suites=("duality", "appendix", "lagrange")))
    assert Counter(r.identity for r in report.failures) == kills


@settings(max_examples=20, deadline=None)
@given(_index_sets, st.randoms(use_true_random=False))
@example((0, 2, 3, 5), random.Random(0))
def test_reindexing_lemma_on_arbitrary_arrays(labels, rng):
    # Entries are arbitrary integers: no antisymmetry is assumed.
    orderings = list(itertools.permutations(labels))
    S = {pi + (i,): rng.randint(-99, 99) for pi in orderings for i in labels}
    signed = [(permutation_sign(sigma), sigma) for sigma in itertools.permutations(range(len(labels)))]
    for i in labels:
        G = sum(permutation_sign(pi) * S[pi + (i,)] for pi in orderings)
        for tau in orderings:
            regrouped = sum(sign * S[tuple(tau[s] for s in sigma) + (i,)] for sign, sigma in signed)
            assert regrouped == permutation_sign(tau) * G


def test_transposition_identity_over_labels_with_five():
    labels = (0, 2, 3, 5)
    weights = dict(zip(labels, (Fraction(3, 2), Fraction(-1), Fraction(0), Fraction(2, 7))))
    arr = IndexedArray.from_function(5, labels, lambda i, *j: weights[i] * permutation_sign(j))
    assert transposition_identity_check(arr, 4)


def test_transposition_identity_rejects_wrong_arity():
    arr = IndexedArray(2, [0, 1], {})
    with pytest.raises(ValueError, match="arity"):
        transposition_identity_check(arr, 2)


def test_transposition_identity_rejects_wrong_index_count():
    arr = IndexedArray(3, [0, 1, 2], {})
    with pytest.raises(ValueError, match="exactly m values"):
        transposition_identity_check(arr, 2)


def test_transposition_identity_rejects_non_antisymmetric():
    arr = IndexedArray.from_function(3, [0, 1], lambda i, a, b: 1)
    with pytest.raises(ValueError, match="not antisymmetric"):
        transposition_identity_check(arr, 2)


# -- misc -----------------------------------------------------------------------


def test_scalar_multiplication_and_linearity():
    t = FiveForm(1, {(0,): P("x0"), (5,): P("2")})
    assert Fraction(1, 2) * t + Fraction(1, 2) * t == t


def test_forms_are_immutable():
    t = j_form()
    with pytest.raises(AttributeError):
        t.rank = 3


# -- trusted paths ----------------------------------------------------------------
#
# fvx's operators build their results through the unchecked ``_new`` class
# methods; each result must equal its copy through the checking constructor
# and hold no zero coefficient.


def assert_canonical(r):
    assert all(isinstance(v, Poly) and v.nvars == 4 and not v.is_zero for v in r.coeffs.values())
    assert type(r)(r.rank, r.coeffs) == r


# A metric besides the default with xi != +-1 and eta = -1, so that the
# duality maps scale by non-unit factors.
OTHER_METRIC = md.MetricConfig(g=(1, 1, -1, 1), xi=Fraction(4, 9), eta=-1)


def _trusted_results(rng):
    """One seeded draw through every operator that builds its result with ``_new``."""
    s = su.rand_form(rng, rng.randint(0, 5), 2)
    t = su.rand_form(rng, s.rank, 2)
    u = su.rand_form(rng, rng.randint(0, 5 - s.rank), 2)
    S = su.rand_form(rng, rng.randint(1, 4), 2, cls=FourForm, axes=COORD_AXES)
    R = su.rand_form(rng, rng.randint(0, 4 - S.rank), 2, cls=FourForm, axes=COORD_AXES)
    w = su.rand_form(rng, rng.randint(0, 5), 2, cls=MultiVector)
    v = su.rand_form(rng, rng.randint(0, 5 - w.rank), 2, cls=MultiVector)
    p = su.rand_poly(rng, 4, 2)
    L, phi = su.rand_lagrangian(rng, 1, 2), su.rand_fields(rng, 1, 2)
    yield from (s, t, u, S, R, w, v)
    yield from (s + t, s - t, -s, s * p, s * Fraction(-3, 7), s * 1, s * -1, 0 * s, S + S, -w)
    yield from (wedge(s, u), wedge(u, s), wedge(w, v), wedge(S, R))
    yield from (z_part(s), e_part(s), z_part(w), e_part(w), lift(S))
    if s.rank <= 4:
        yield project(s)
    if s.rank >= 1:
        yield s_from_t(s)
    yield from (ca.d4(S), ca.d5(s), ca.bd(s), ca.bdstar(s))
    yield from (ca.poincare_potential_4(ca.d4(S)), ca.poincare_potential_5(ca.d5(s)), ca.poincare_potential_bd(ca.bd(s)))
    for metric in (md.DEFAULT_CFG, OTHER_METRIC):
        yield from (md.dual(s, metric), md.theta_h(w, metric), md.theta_h_inv(s, metric), md.theta_epsilon(w, metric))
    yield from (lg.J_form(L, phi, 0), lg.K_form(L, phi, 0), lg.Lambda_form(L, phi, 0))
    yield from lg.el_report(L, phi).lambda_forms
    # The shrinker rebuilds a form with one coefficient replaced, here by zero.
    polys, rebuild = su._parts(s)
    if polys:
        yield rebuild(polys[:-1] + [Poly.zero(4)])


@pytest.mark.parametrize("seed", range(30))
def test_trusted_results_equal_their_checked_copies(seed):
    for r in _trusted_results(random.Random(seed)):
        assert_canonical(r)


def test_project_refuses_rank_five():
    with pytest.raises(ValueError, match="rank 5 out of range"):
        project(FiveForm.zero(5))


@pytest.mark.parametrize("cfg", [md.DEFAULT_CFG, OTHER_METRIC], ids=["default", "other"])
def test_epsilon_tables_equal_their_checked_copies(cfg):
    lower = md.epsilon_lower(cfg)
    upper = md.epsilon_upper(lower, cfg)
    assert lower == IndexedArray(5, FIVE_AXES, lower.values)
    assert upper == IndexedArray(5, FIVE_AXES, upper.values)
    for table in (lower, upper):
        assert sorted(table.values) == sorted(itertools.permutations(FIVE_AXES))
        assert all(isinstance(v, Fraction) and v for v in table.values.values())
        assert table[(5, 3, 2, 1, 0)] == table[(0, 1, 2, 3, 5)] != 0
        with pytest.raises(ValueError, match="bad index tuple"):
            table[(0, 1, 2, 3, 4)]


@pytest.mark.parametrize("weights", [(Fraction(1, 2), Fraction(-3)), (Fraction(2), Fraction(0), Fraction(-1, 3), Fraction(5, 7))])
def test_conforming_array_equals_its_checked_copy(weights):
    m = len(weights)
    arr = conforming_array(weights)
    assert arr == IndexedArray(m + 1, range(m), arr.values)
    assert all(isinstance(v, Fraction) and v for v in arr.values.values())
    assert arr[(0,) + tuple(reversed(range(m)))] == weights[0] * permutation_sign(tuple(reversed(range(m))))


def _assert_canonical_poly(p):
    assert p.den > 0 and 0 not in p.num.values()
    assert math.gcd(p.den, *p.num.values()) == 1
    assert p == Poly(p.nvars, p.terms)


@pytest.mark.parametrize("seed", range(10))
def test_sign_products_stay_canonical(seed):
    rng = random.Random(seed)
    for p in (su.rand_poly(rng, 4, 3), su.rand_poly(rng, 2, 3, max_terms=5), Poly.zero(4)):
        for q in (-p, p * 1, p * -1, p * Fraction(1), p * Fraction(-1), 1 * p, -1 * p):
            _assert_canonical_poly(q)
        assert p * 1 == p == -(p * -1)
        # The shrinker drops one monomial at a time the same way.
        for expo in p.terms:
            q = su._without({"p": p}, "p", 0, _pack(expo))["p"]
            _assert_canonical_poly(q)
            assert q == Poly(p.nvars, {k: c for k, c in p.terms.items() if k != expo})
