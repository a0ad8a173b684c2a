"""Alternating-tensor algebra, metric lowerings, duals, and their identities."""

import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fvx.forms_core import (
    FIVE_AXES,
    FiveForm,
    MultiVector,
    basis_one_form,
    e_part,
    j_form,
    lift,
    permutation_sign,
    project,
    wedge,
    z_part,
)
from fvx.metric_dual import (
    DEFAULT_CFG,
    MetricConfig,
    contraction_sides,
    dual,
    dual2_zfree,
    epsilon_five_form,
    epsilon_lower,
    epsilon_upper,
    h_inner,
    permutation_delta,
    theta_epsilon,
    theta_h,
    theta_h_inv,
)
from fvx.polyfield import Poly
from fvx.suites import SuiteConfig, run_suite
from fvx.suites.duality import hodge4

from formgen import P, basis_vector, contraction_pairs, five_forms, small_polys

LORENTZ = DEFAULT_CFG
FLIPPED_XI = MetricConfig(xi=Fraction(1))
SCALED_XI = MetricConfig(xi=Fraction(-4))
NEGATIVE_ETA = MetricConfig(eta=-1)
CFGS = [LORENTZ, FLIPPED_XI, SCALED_XI, NEGATIVE_ETA]


# -- the alternating tensor ------------------------------------------------------


def test_epsilon_reference_component():
    assert epsilon_lower(LORENTZ)[(0, 1, 2, 3, 5)] == 1


def test_epsilon_antisymmetry_and_support():
    eps = epsilon_lower(LORENTZ)
    nonzero = [idx for idx, v in eps.values.items() if v]
    assert len(nonzero) == 120
    for idx in itertools.permutations(FIVE_AXES):
        swapped = (idx[1], idx[0]) + idx[2:]
        assert eps[swapped] == -eps[idx]


def test_epsilon_scaled_metric():
    assert SCALED_XI.kappa == 2
    assert epsilon_lower(SCALED_XI)[(0, 1, 2, 3, 5)] == 2
    half = MetricConfig(xi=Fraction(-1, 4))
    assert epsilon_lower(half)[(0, 1, 2, 3, 5)] == Fraction(1, 2)


def test_epsilon_rejects_irrational_normalization():
    with pytest.raises(ValueError, match="non-rational normalization"):
        epsilon_lower(MetricConfig(xi=Fraction(2)))


def test_epsilon_upper_closed_form():
    # Raising all five indices must reproduce -sign(xi) eta |det h|^(-1/2)
    # on each permutation, for metrics with det g = -1.
    for cfg in CFGS:
        upper = epsilon_upper(epsilon_lower(cfg), cfg)
        for idx in itertools.permutations(FIVE_AXES):
            expected = Fraction(-cfg.sign_xi * cfg.eta) / cfg.kappa * permutation_sign(idx)
            assert upper[idx] == expected


# Valid metrics: |det h| = |xi| must be a rational square.
_metrics = st.builds(
    MetricConfig,
    g=st.tuples(*(st.sampled_from((1, -1)) for _ in range(4))),
    xi=st.builds(
        lambda sign, p, q: sign * Fraction(p, q) ** 2,
        st.sampled_from((1, -1)),
        st.integers(1, 9),
        st.integers(1, 9),
    ),
    sigma=st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9),
    eta=st.sampled_from((1, -1)),
)


@settings(max_examples=30, deadline=None)
@given(_metrics)
def test_epsilon_upper_divides_each_entry_by_its_weight(cfg):
    lower = epsilon_lower(cfg)
    upper = epsilon_upper(lower, cfg)
    assert upper.values.keys() == lower.values.keys()
    for idx in upper.values:
        assert upper[idx] == lower[idx] / cfg.weight(idx)


def test_full_contraction_scalar():
    for cfg in CFGS:
        lower = epsilon_lower(cfg)
        upper = epsilon_upper(lower, cfg)
        total = sum(
            upper[idx] * lower[idx] for idx in itertools.permutations(FIVE_AXES)
        )
        assert total == -120 * cfg.sign_xi


@pytest.mark.parametrize("m", range(6))
@pytest.mark.parametrize("cfg", [LORENTZ, FLIPPED_XI])
def test_epsilon_contraction_identity(m, cfg):
    lower = epsilon_lower(cfg)
    upper = epsilon_upper(lower, cfg)
    for A, B in contraction_pairs(m):
        total, expected = contraction_sides(A, B, upper, lower, cfg)
        assert total == expected, (A, B)


QUARTER_XI = [MetricConfig(xi=Fraction(1, 4)), MetricConfig(g=(-1, 1, 1, 1), xi=Fraction(-1, 4), eta=-1)]


@pytest.mark.parametrize("cfg", QUARTER_XI, ids=["xi=1/4", "xi=-1/4"])
def test_contraction_sides_match_a_fraction_sum(cfg):
    # contraction_sides adds int numerators; the reference adds the Fraction
    # entries of the read views, so the two denominators are really divided.
    lower = epsilon_lower(cfg)
    upper = epsilon_upper(lower, cfg)
    assert lower.den == 2 and upper.den == 1
    up, low = upper.values, lower.values
    for m in range(6):
        by_prefix: dict[tuple, list] = {}
        for key, v in up.items():
            by_prefix.setdefault(key[:m], []).append((key[m:], v))
        for A, B in contraction_pairs(m):
            expected = sum((v * low.get(B + rest, 0) for rest, v in by_prefix.get(A, ())), Fraction(0))
            total, _ = contraction_sides(A, B, upper, lower, cfg)
            assert type(total) is Fraction and total == expected, (A, B)


def test_epsilon_contraction_spot_check():
    # One entry at m = 2, against the explicit sum over the three free labels.
    cfg = LORENTZ
    lower = epsilon_lower(cfg)
    upper = epsilon_upper(lower, cfg)
    A = B = (0, 1)
    total = sum(
        upper[A + C] * lower[B + C]
        for C in itertools.permutations((2, 3, 5), 3)
    )
    assert total == -6 * cfg.sign_xi * permutation_delta(A, B) == -6 * cfg.sign_xi


def test_permutation_delta_identity_and_antisymmetry():
    assert permutation_delta((0, 1), (0, 1)) == 1
    assert permutation_delta((0, 1), (1, 0)) == -1
    assert permutation_delta((0, 1), (0, 2)) == 0
    assert permutation_delta((0, 0), (0, 1)) == 0
    assert permutation_delta((), ()) == 1


# -- lowering maps -----------------------------------------------------------------


def test_theta_epsilon_of_unit_scalar():
    for cfg in CFGS:
        top = theta_epsilon(MultiVector.from_scalar(1), cfg)
        assert top == FiveForm(5, {(0, 1, 2, 3, 5): Poly.const(cfg.eta * cfg.kappa, 4)})


def test_theta_epsilon_of_top_multivector():
    w = MultiVector(5, {(0, 1, 2, 3, 5): 1})
    assert theta_epsilon(w, LORENTZ) == FiveForm.from_scalar(1)


@st.composite
def multivectors(draw, rank):
    keys = list(itertools.combinations(FIVE_AXES, rank))
    chosen = draw(st.lists(st.sampled_from(keys), max_size=3, unique=True))
    return MultiVector(rank, {k: draw(small_polys) for k in chosen})


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_theta_epsilon_pairing(data):
    # Lowering w by the metric and then dualizing contracts w itself into
    # the alternating tensor; dual takes its own route to the same form.
    for m in range(6):
        w = data.draw(multivectors(m))
        for cfg in CFGS:
            assert theta_epsilon(w, cfg) == dual(theta_h(w, cfg), cfg)


def test_theta_h_on_basis_vectors():
    assert theta_h(basis_vector(0), LORENTZ) == basis_one_form(0)
    assert theta_h(basis_vector(1), LORENTZ) == -basis_one_form(1)
    for cfg in CFGS:
        assert theta_h(basis_vector(5), cfg) == cfg.xi * j_form()


@given(st.integers(0, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_theta_h_inverse_roundtrip(m, data):
    w = data.draw(multivectors(m))
    for cfg in (LORENTZ, SCALED_XI):
        assert theta_h_inv(theta_h(w, cfg), cfg) == w


# -- duality --------------------------------------------------------------------------


def test_dual_is_theta_composition():
    for cfg in CFGS:
        for rank in range(6):
            for key in itertools.combinations(FIVE_AXES, rank):
                t = FiveForm(rank, {key: P("x0 - 2 x2")})
                assert dual(t, cfg) == theta_epsilon(theta_h_inv(t, cfg), cfg)


def test_dual_involution_on_basis_form():
    assert dual(dual(basis_one_form(0), LORENTZ), LORENTZ) == basis_one_form(0)
    assert dual(dual(basis_one_form(0), FLIPPED_XI), FLIPPED_XI) == -basis_one_form(0)


@given(five_forms())
@settings(max_examples=50, deadline=None)
def test_dual_involution_random(t):
    for cfg in CFGS:
        assert dual(dual(t, cfg), cfg) == -cfg.sign_xi * t


def test_dual_swaps_blocks():
    d_j = dual(j_form(), LORENTZ)
    assert z_part(d_j) == d_j and not d_j.is_zero
    d_area = dual(wedge(basis_one_form(0), basis_one_form(1)), LORENTZ)
    assert e_part(d_area) == d_area and not d_area.is_zero


@given(st.integers(0, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_wedge_dual_identity(m, data):
    s = data.draw(five_forms(rank=m))
    t = data.draw(five_forms(rank=m))
    for cfg in (LORENTZ, FLIPPED_XI, SCALED_XI):
        pairing = h_inner(s, t, cfg) * epsilon_five_form(cfg)
        assert wedge(s, dual(t, cfg)) == pairing
        assert wedge(dual(s, cfg), t) == pairing


# -- plain-block duality against the independent oracle ---------------------------------


def test_dual2_zfree_frozen_instance():
    got = dual2_zfree(wedge(basis_one_form(0), basis_one_form(1)), LORENTZ)
    assert got == -wedge(basis_one_form(2), basis_one_form(3))


@pytest.mark.parametrize("key", list(itertools.combinations(range(4), 2)))
def test_dual2_zfree_matches_hodge_on_basis(key):
    for cfg in CFGS:
        w = FiveForm(2, {key: 1})
        assert dual2_zfree(w, cfg) == lift(hodge4(project(w), cfg))


@st.composite
def zfree_two_forms(draw):
    keys = list(itertools.combinations(range(4), 2))
    chosen = draw(st.lists(st.sampled_from(keys), max_size=3, unique=True))
    return FiveForm(2, {k: draw(small_polys) for k in chosen})


@given(zfree_two_forms())
@settings(max_examples=50, deadline=None)
def test_dual2_zfree_matches_hodge_random(w):
    for cfg in (LORENTZ, FLIPPED_XI, NEGATIVE_ETA):
        assert dual2_zfree(w, cfg) == lift(hodge4(project(w), cfg))


@given(zfree_two_forms())
@settings(max_examples=30, deadline=None)
def test_dual2_zfree_double_application(w):
    for cfg in (LORENTZ, FLIPPED_XI):
        twice = dual2_zfree(dual2_zfree(w, cfg), cfg)
        oracle = lift(hodge4(hodge4(project(w), cfg), cfg))
        assert twice == oracle == -w


def test_dual2_zfree_rejects_label5_part():
    with pytest.raises(ValueError, match="label-5"):
        dual2_zfree(wedge(basis_one_form(0), j_form()), LORENTZ)


def test_dual2_zfree_rejects_wrong_rank():
    with pytest.raises(ValueError, match="rank"):
        dual2_zfree(j_form(), LORENTZ)


# -- config validation ---------------------------------------------------------------


def test_metric_config_validation():
    with pytest.raises(ValueError, match="signs"):
        MetricConfig(g=(1, -1, -1, 2))
    with pytest.raises(ValueError, match="nonzero"):
        MetricConfig(xi=Fraction(0))
    with pytest.raises(ValueError, match="positive"):
        MetricConfig(sigma=Fraction(-1))
    with pytest.raises(ValueError, match="eta"):
        MetricConfig(eta=0)
    with pytest.raises(ValueError, match="non-rational normalization"):
        MetricConfig(xi=Fraction(3, 4))


@pytest.mark.parametrize("sign", [1.0, True])
def test_metric_config_refuses_a_sign_that_is_not_an_int(sign):
    # 1.0 == 1 and True == 1, so only the type tells these from the int sign.
    with pytest.raises(ValueError, match="g must be four signs"):
        MetricConfig(g=(sign, -1, -1, -1))
    with pytest.raises(ValueError, match=r"eta must be \+1 or -1"):
        MetricConfig(eta=sign)


@pytest.mark.parametrize("cfg", [LORENTZ, MetricConfig(g=(-1, 1, -1, 1), xi=Fraction(-9, 4))], ids=["lorentz", "mixed"])
def test_weight_is_the_product_of_h(cfg):
    for rank in range(6):
        for key in itertools.permutations(FIVE_AXES, rank):
            expected = Fraction(1)
            for label in key:
                expected *= cfg.h(label)
            assert type(cfg.weight(key)) is Fraction and cfg.weight(key) == expected, key
    for bad in [(4,), (0, 7), (-1,)]:
        with pytest.raises(ValueError, match=f"no basis label {bad[-1]}"):
            cfg.weight(bad)


def test_duality_suite_guards_the_shared_weight():
    # Every metric factor goes through MetricConfig.weight, so a weight that
    # flips sign on keys containing label 1 must surface in the suite.
    weight = MetricConfig.weight

    def flipped(cfg, key):
        return -weight(cfg, key) if 1 in key else weight(cfg, key)

    with mock.patch.object(MetricConfig, "weight", flipped):
        report = run_suite(SuiteConfig(seed=0, trials=5, suites=("duality",)))
    failed = {r.identity for r in report.failures}
    assert {"dual-involution", "zfree-hodge", "epsilon-contraction"} <= failed


def test_reported_constants():
    cfg = MetricConfig(xi=Fraction(-9), sigma=Fraction(3, 2))
    assert cfg.kappa == 3
    assert cfg.varpi == 2
    assert cfg.sign_xi == -1
    assert cfg.det_h == 9
