"""Field equations three ways: residual, current/source forms, closed form.

Frozen instances use the free massless scalar (wave operator with signs
+,-,-,-) and a pure square-of-the-field density, where every object can be
written down by hand.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from formgen import P, densities, field_sets, surfaces
from fvx.calculus import bd, bdstar, d4
from fvx.forms_core import FiveForm, FourForm, e_part, z_part
from fvx.integration import ParamSurface, five_flux, integrate_deg
from fvx.lagrange import (
    ELReport,
    FieldSet,
    J_form,
    K_form,
    Lambda_form,
    Lambda_star_form,
    LagrangianSpec,
    check_51,
    check_55,
    el_report,
    el_residual,
    jet_maps,
    lagrangian_names,
    p_index,
    substitute,
    unit_probe_box,
)
from fvx.polyfield import Poly, parse_poly


def check_51_of(L: LagrangianSpec, phi: FieldSet) -> bool:
    return check_51(J_form(L, phi, 0), K_form(L, phi, 0))


def check_55_of(L: LagrangianSpec, phi: FieldSet) -> bool:
    return check_55(Lambda_form(L, phi, 0))


def LP(text: str, n_fields: int = 1) -> LagrangianSpec:
    return LagrangianSpec(n_fields, parse_poly(text, lagrangian_names(n_fields)))


WAVE = LP("1/2*p0_0^2 - 1/2*p0_1^2 - 1/2*p0_2^2 - 1/2*p0_3^2")
MASS = LP("1/2*p0_5^2")


def fields(*texts: str) -> FieldSet:
    return FieldSet(tuple(P(t) for t in texts))


def box_probe(side: Fraction) -> ParamSurface:
    maps = tuple(Poly.variable(k, 4) for k in range(4))
    return ParamSurface(4, maps, ((0, side),) * 4)


# --- variable layout ---


def test_p_index_layout():
    assert [p_index(0, a) for a in (0, 1, 2, 3, 5)] == [0, 1, 2, 3, 4]
    assert p_index(2, 5) == 14
    assert lagrangian_names(2)[:6] == ("p0_0", "p0_1", "p0_2", "p0_3", "p0_5", "p1_0")


def test_p_index_rejects_label_four():
    with pytest.raises(ValueError, match="no basis label 4"):
        p_index(0, 4)


def test_substitute_density_value():
    value = substitute(WAVE.density, jet_maps(WAVE, fields("x0*x1")))
    assert value == P("1/2*x1^2 - 1/2*x0^2")


def test_substitute_replaces_field_slot():
    assert substitute(MASS.density, jet_maps(MASS, fields("x2 + 1"))) == P("1/2*x2^2 + x2 + 1/2")


# --- residuals ---


def test_wave_residual_harmonic():
    assert el_residual(WAVE, fields("x0*x1"), 0).is_zero
    assert el_residual(WAVE, fields("x0 + x1 + x2 + x3"), 0).is_zero
    assert el_residual(WAVE, fields("x0^2 + x1^2"), 0).is_zero


def test_wave_residual_frozen_values():
    assert el_residual(WAVE, fields("x0^2"), 0) == 2
    assert el_residual(WAVE, fields("x1^2"), 0) == -2
    assert el_residual(WAVE, fields("x0^3"), 0) == P("6*x0")


def test_mass_residual_is_minus_field():
    assert el_residual(MASS, fields("x0"), 0) == P("-x0")


def test_quartic_interaction_residual():
    dense = LP("1/2*p0_0^2 - 1/2*p0_1^2 - 1/2*p0_2^2 - 1/2*p0_3^2 - 1/4*p0_5^4")
    assert el_residual(dense, fields("3"), 0) == 27


def test_residual_index_out_of_range():
    with pytest.raises(ValueError, match="field index out of range"):
        el_residual(WAVE, fields("x0"), 1)


# --- current and source forms ---


def test_current_form_frozen():
    j = J_form(WAVE, fields("x0*x1"), 0)
    assert j == FourForm(3, {(1, 2, 3): P("x1"), (0, 2, 3): P("x0")})


def test_current_form_vanishes_without_derivatives():
    assert J_form(MASS, fields("x0*x1"), 0).is_zero


def test_source_form_frozen():
    assert K_form(MASS, fields("x3"), 0) == FourForm(4, {(0, 1, 2, 3): P("x3")})
    assert K_form(WAVE, fields("x3"), 0).is_zero


def test_check_51_verdicts():
    assert check_51_of(WAVE, fields("x0*x1"))
    assert not check_51_of(WAVE, fields("x0^2"))


def test_check_51_defect_is_residual_times_volume():
    phi = fields("x0^2")
    defect = d4(J_form(WAVE, phi, 0)) - K_form(WAVE, phi, 0)
    assert defect == FourForm(4, {(0, 1, 2, 3): Poly.const(2, 4)})


@given(densities(), densities(), field_sets())
def test_current_form_additive_in_density(a, b, phi):
    combined = J_form(LagrangianSpec(1, a.density + b.density), phi, 0)
    assert combined == J_form(a, phi, 0) + J_form(b, phi, 0)


# --- the closed form ---


def test_lambda_blocks_massless_scalar():
    lam = Lambda_form(WAVE, fields("x0*x1"), 0)
    assert lam == FiveForm(4, {(1, 2, 3, 5): P("x1"), (0, 2, 3, 5): P("x0")})
    assert z_part(lam).is_zero


def test_lambda_blocks_pure_mass():
    lam = Lambda_form(MASS, fields("x0*x1"), 0)
    assert lam == FiveForm(4, {(0, 1, 2, 3): P("-x0*x1")})
    assert e_part(lam).is_zero


def test_lambda_star_flips_plain_block():
    phi = fields("x0^2 + x2")
    dense = LagrangianSpec(1, WAVE.density + MASS.density)
    lam = Lambda_form(dense, phi, 0)
    star = Lambda_star_form(lam)
    assert z_part(star) == -z_part(lam)
    assert e_part(star) == e_part(lam)


def test_bd_lambda_top_component_is_residual_frozen():
    phi = fields("x0^2")
    lam = Lambda_form(WAVE, phi, 0)
    assert bd(lam) == FiveForm(5, {(0, 1, 2, 3, 5): Poly.const(2, 4)})


@given(densities(), field_sets())
@settings(max_examples=60)
def test_bd_lambda_top_component_is_residual(dense, phi):
    lam = Lambda_form(dense, phi, 0)
    assert bd(lam).coeff((0, 1, 2, 3, 5)) == el_residual(dense, phi, 0)


@given(densities(), field_sets())
@settings(max_examples=60)
def test_bdstar_route_same_defect(dense, phi):
    star = Lambda_star_form(Lambda_form(dense, phi, 0))
    assert bdstar(star).coeff((0, 1, 2, 3, 5)) == el_residual(dense, phi, 0)


def test_check_55_verdicts():
    assert check_55_of(WAVE, fields("x0*x1 + x3"))
    assert not check_55_of(MASS, fields("x0"))


@given(densities(), field_sets())
@settings(max_examples=60)
def test_three_formulations_agree(dense, phi):
    solved = el_residual(dense, phi, 0).is_zero
    assert check_51_of(dense, phi) is solved
    assert check_55_of(dense, phi) is solved


# --- flux formulation ---


def test_check_57_unit_box():
    assert five_flux(Lambda_form(WAVE, fields("x0*x1"), 0), unit_probe_box()) == 0
    assert five_flux(Lambda_form(WAVE, fields("x0^2"), 0), unit_probe_box()) != 0


def test_flux_equals_integrated_residual():
    assert five_flux(Lambda_form(WAVE, fields("x0^2"), 0), unit_probe_box()) == 2
    assert five_flux(Lambda_form(WAVE, fields("x0^2"), 0), box_probe(Fraction(2))) == 32


def test_flux_probe_can_miss_nonsolutions():
    # Residual 6*x0 is odd, so a box symmetric in x0 integrates it to zero
    # even though the field equation fails.  The exact checks cannot miss.
    phi = fields("x0^3")
    maps = tuple(Poly.variable(k, 4) for k in range(4))
    symmetric = ParamSurface(4, maps, ((-1, 1), (0, 1), (0, 1), (0, 1)))
    assert five_flux(Lambda_form(WAVE, phi, 0), symmetric) == 0
    assert not check_51_of(WAVE, phi)


@given(densities(), field_sets(), surfaces(dim=4, max_deg=1))
@settings(max_examples=10, deadline=None)
def test_flux_route_matches_derivative_route(dense, phi, V):
    lam = Lambda_form(dense, phi, 0)
    assert five_flux(lam, V) == integrate_deg(bd(lam), V)


# --- several fields ---


COUPLED = LagrangianSpec(
    2,
    parse_poly(
        "1/2*p0_0^2 - 1/2*p0_1^2 - 1/2*p0_2^2 - 1/2*p0_3^2"
        " + 1/2*p1_0^2 - 1/2*p1_1^2 - 1/2*p1_2^2 - 1/2*p1_3^2"
        " - p0_5*p1_5",
        lagrangian_names(2),
    ),
)


def test_coupled_residuals():
    phi = fields("x0*x1", "0")
    assert el_residual(COUPLED, phi, 0).is_zero
    assert el_residual(COUPLED, phi, 1) == P("x0*x1")


def test_report_collects_everything():
    phi = fields("x0*x1", "0")
    report = el_report(COUPLED, phi)
    assert isinstance(report, ELReport)
    assert len(report.residuals) == 2
    assert report.residuals[0].is_zero
    assert not report.is_solution
    assert report.j_forms[0].coeff((1, 2, 3)) == P("x1")
    assert report.k_forms[1] == FourForm(4, {(0, 1, 2, 3): P("-x0*x1")})
    assert report.flux_values[0] == 0
    assert report.flux_values[1] == Fraction(1, 4)


def test_report_solution_flag():
    assert el_report(COUPLED, fields("0", "0")).is_solution
    assert el_report(WAVE, fields("x0^2 + x1^2")).is_solution


def test_report_builds_one_jet_per_call(monkeypatch):
    # One jet serves every field's residual, current and source; Lambda is
    # assembled from the current and the source forms already built.
    from fvx import lagrange

    calls = []
    build = lagrange.jet_maps
    monkeypatch.setattr(lagrange, "jet_maps", lambda *args: calls.append(args) or build(*args))
    phi = fields("x0*x1", "x2^2")
    report = el_report(COUPLED, phi)
    assert len(calls) == 1
    monkeypatch.undo()
    indices = range(COUPLED.n_fields)
    assert report.residuals == tuple(el_residual(COUPLED, phi, ell) for ell in indices)
    assert report.j_forms == tuple(J_form(COUPLED, phi, ell) for ell in indices)
    assert report.k_forms == tuple(K_form(COUPLED, phi, ell) for ell in indices)
    assert report.lambda_forms == tuple(Lambda_form(COUPLED, phi, ell) for ell in indices)


# --- validation ---


def test_density_variable_count_enforced():
    with pytest.raises(ValueError, match="five variables per field"):
        LagrangianSpec(1, Poly.zero(4))
    with pytest.raises(ValueError, match="at least one field"):
        LagrangianSpec(0, Poly.zero(0))


def test_field_set_validation():
    with pytest.raises(ValueError, match="at least one field"):
        FieldSet(())
    with pytest.raises(ValueError, match="four coordinates"):
        FieldSet((Poly.zero(5),))


def test_field_count_must_match_density():
    with pytest.raises(ValueError, match="field count does not match"):
        el_residual(COUPLED, fields("x0"), 0)
