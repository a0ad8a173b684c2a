"""Derivative operators, their structure identities, and the potentials."""


import pytest
from hypothesis import given

from fvx.calculus import (
    EDefectError,
    NotClosedError,
    bd,
    bd_via_d5,
    bdstar,
    bdstar_via_d5,
    bracket_sides,
    bullet_partial,
    bullet_partial_field,
    bullet_partial_reflected,
    commutator,
    d4,
    d5,
    poincare_potential_4,
    poincare_potential_5,
    poincare_potential_bd,
)
from fvx.forms_core import (
    FIVE_AXES,
    FiveForm,
    FourForm,
    basis_one_form,
    contract,
    j_form,
    wedge,
    z_part,
)
from fvx.polyfield import Poly

from formgen import P, basis_vector, dx_form, five_forms, form_pairs_within_rank, four_forms, small_polys, vector_fields


# -- coordinate exterior derivative -------------------------------------------


def test_d4_of_scalar():
    assert d4(FourForm.from_scalar(P("x0"))) == dx_form(0)


def test_d4_component_formula():
    assert d4(P("x1") * dx_form(0)) == -wedge(dx_form(0), dx_form(1))


@given(four_forms())
def test_d4_nilpotent(S):
    assert d4(d4(S)).is_zero


# -- five-label exterior derivative ---------------------------------------------


def test_d5_kills_j():
    assert d5(j_form()).is_zero


def test_d5_component_example():
    t = P("x0") * wedge(basis_one_form(1), basis_one_form(5))
    expected = wedge(wedge(basis_one_form(0), basis_one_form(1)), basis_one_form(5))
    assert d5(t) == expected


@given(five_forms())
def test_d5_nilpotent(t):
    assert d5(d5(t)).is_zero


# -- scalar directional derivatives ----------------------------------------------


def test_bullet_partial_label5_is_identity():
    assert bullet_partial(Poly.const(1, 4), 5) == Poly.const(1, 4)


def test_bullet_partial_coordinate():
    assert bullet_partial(P("x0"), 0) == Poly.const(1, 4)


def test_bullet_partial_reflected_flips_label5():
    assert bullet_partial_reflected(P("x0 x1"), 5) == P("-x0 x1")


def test_bullet_partial_rejects_bad_label():
    with pytest.raises(ValueError, match="label"):
        bullet_partial(P("x0"), 4)


# -- five-vector derivative and reflection ----------------------------------------


def test_bd_of_unit_is_j():
    assert bd(FiveForm.from_scalar(1)) == j_form()


def test_bd_of_coordinate_scalar():
    expected = basis_one_form(0) + P("x0") * j_form()
    assert bd(FiveForm.from_scalar(P("x0"))) == expected


@given(five_forms())
def test_bd_nilpotent(t):
    assert bd(bd(t)).is_zero


@given(five_forms())
def test_bdstar_nilpotent(t):
    assert bdstar(bdstar(t)).is_zero


def test_bdstar_of_unit():
    assert bdstar(FiveForm.from_scalar(1)) == -j_form()


def test_bdstar_of_j():
    assert bdstar(j_form()).is_zero


@given(five_forms())
def test_bd_routes_agree(t):
    assert bd(t) == bd_via_d5(t)


@given(five_forms())
def test_bdstar_routes_agree(t):
    assert bdstar(t) == bdstar_via_d5(t)


@given(five_forms(rank=2))
def test_bd_minus_bdstar_is_twice_j_wedge(t):
    assert bd(t) - bdstar(t) == 2 * wedge(j_form(), t)


@given(five_forms())
def test_plain_parts_of_bd_and_d5_agree(t):
    assert z_part(bd(t)) == z_part(d5(t))


def test_basis_one_forms_from_bd():
    # o^a = bd(x^a) - x^a bd(1) for the coordinate labels.
    for alpha in range(4):
        x = Poly.variable(alpha, 4)
        lhs = bd(FiveForm.from_scalar(x)) - x * bd(FiveForm.from_scalar(1))
        assert lhs == basis_one_form(alpha)


def test_bd_of_basis_forms():
    for label in FIVE_AXES:
        o = basis_one_form(label)
        assert bd(o) == wedge(j_form(), o)


# -- Leibniz family ----------------------------------------------------------------


@given(form_pairs_within_rank(limit=4))
def test_leibniz_d5(pair):
    s, t = pair
    sign = (-1) ** s.rank
    assert d5(wedge(s, t)) == wedge(d5(s), t) + sign * wedge(s, d5(t))


@given(form_pairs_within_rank(limit=4))
def test_leibniz_bd(pair):
    s, t = pair
    sign = (-1) ** s.rank
    lhs = bd(wedge(s, t))
    rhs = wedge(bd(s), t) + sign * wedge(s, bd(t)) - wedge(j_form(), wedge(s, t))
    assert lhs == rhs


@given(form_pairs_within_rank(limit=4))
def test_mixed_leibniz_bd_bdstar(pair):
    s, t = pair
    sign = (-1) ** s.rank
    lhs = d5(wedge(s, t))
    assert lhs == wedge(bd(s), t) + sign * wedge(s, bdstar(t))
    assert lhs == wedge(bdstar(s), t) + sign * wedge(s, bd(t))


@given(four_forms(rank=1), four_forms(rank=2))
def test_leibniz_d4(S, T):
    assert d4(wedge(S, T)) == wedge(d4(S), T) - wedge(S, d4(T))


# -- cone potentials ------------------------------------------------------------------


def test_potential_4_of_dx0():
    assert poincare_potential_4(dx_form(0)) == FourForm.from_scalar(P("x0"))


def test_potential_4_of_area_form():
    T = poincare_potential_4(wedge(dx_form(0), dx_form(1)))
    expected = P("1/2 x0") * dx_form(1) - P("1/2 x1") * dx_form(0)
    assert T == expected


def test_potential_4_rejects_non_closed():
    with pytest.raises(NotClosedError) as excinfo:
        poincare_potential_4(P("x1") * dx_form(0))
    assert excinfo.value.residual == -wedge(dx_form(0), dx_form(1))


def test_potential_4_rejects_rank_zero():
    with pytest.raises(ValueError, match="rank"):
        poincare_potential_4(FourForm.from_scalar(P("x0")))


@given(four_forms())
def test_potential_4_inverts_d4(S):
    s = d4(S)
    if s.is_zero or s.rank < 1:
        return
    assert d4(poincare_potential_4(s)) == s


def test_potential_5_frozen_instance():
    s = wedge(basis_one_form(0), j_form())
    t = poincare_potential_5(s)
    assert t == P("x0") * j_form()
    assert d5(t) == s


def test_potential_5_rank1_constant_defect():
    with pytest.raises(EDefectError, match=r"no potential: E-defect \(constant 1\)") as excinfo:
        poincare_potential_5(j_form())
    assert excinfo.value.constant == Poly.const(1, 4)


def test_potential_5_rank1_nonconstant_defect():
    with pytest.raises(EDefectError) as excinfo:
        poincare_potential_5(P("x0") * j_form())
    assert excinfo.value.constant == P("x0")


def test_potential_5_rank1_plain_branch():
    s = d5(FiveForm.from_scalar(P("x0 x1")))
    t = poincare_potential_5(s)
    assert d5(t) == s


def test_potential_5_rejects_non_closed():
    s = P("x1") * wedge(basis_one_form(0), j_form())
    with pytest.raises(NotClosedError):
        poincare_potential_5(s)


@given(five_forms())
def test_potential_5_inverts_d5(t):
    s = d5(t)
    if s.is_zero or s.rank < 1:
        return
    assert d5(poincare_potential_5(s)) == s


def test_potential_bd_of_j():
    assert poincare_potential_bd(j_form()) == FiveForm.from_scalar(1)


def test_potential_bd_frozen_instance():
    s = basis_one_form(0) + P("x0") * j_form()
    assert poincare_potential_bd(s) == FiveForm.from_scalar(P("x0"))


def test_potential_bd_rank0():
    assert poincare_potential_bd(FiveForm.zero(0)) == FiveForm.zero(0)
    with pytest.raises(NotClosedError):
        poincare_potential_bd(FiveForm.from_scalar(P("x0")))


def test_potential_bd_rejects_non_closed():
    with pytest.raises(NotClosedError) as excinfo:
        poincare_potential_bd(basis_one_form(0))
    assert excinfo.value.residual == wedge(j_form(), basis_one_form(0))


@given(five_forms())
def test_potential_bd_inverts_bd(t):
    s = bd(t)
    if s.is_zero:
        return
    assert bd(poincare_potential_bd(s)) == s


@given(small_polys)
def test_potential_bd_unique_at_rank_zero(f):
    # bd is injective on scalars, so the constructed potential is exact.
    t = FiveForm.from_scalar(f)
    s = bd(t)
    if s.is_zero:
        return
    assert poincare_potential_bd(s) == t


# -- bracket pairing identity ------------------------------------------------------


def test_bracket_constant_basis_fields():
    t = FiveForm(1, {(0,): P("x1 x2"), (1,): P("x0^2"), (5,): P("x3")})
    u, v = basis_vector(0), basis_vector(1)
    lhs = contract(bd(t), wedge(u, v))
    assert lhs == t.coeff((1,)).partial(0) - t.coeff((0,)).partial(1)
    left, right = bracket_sides(t, u, v)
    assert left == right


@given(vector_fields())
def test_bracket_equal_fields(u):
    t = FiveForm(1, {(2,): P("x2 x3"), (5,): P("x0")})
    assert commutator(u, u).is_zero
    left, right = bracket_sides(t, u, u)
    assert left == right


@given(vector_fields(), vector_fields())
def test_bracket_with_j_component_form(u, v):
    left, right = bracket_sides(j_form(), u, v)
    assert left == right


@given(five_forms(rank=1), vector_fields(), vector_fields())
def test_bracket_random(t, u, v):
    left, right = bracket_sides(t, u, v)
    assert left == right


@given(vector_fields(), small_polys)
def test_bullet_field_derivative_splits(u, f):
    expected = Poly.zero(4)
    for alpha in range(4):
        expected = expected + u.coeff((alpha,)) * f.partial(alpha)
    expected = expected + u.coeff((5,)) * f
    assert bullet_partial_field(f, u) == expected
