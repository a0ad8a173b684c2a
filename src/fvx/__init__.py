"""Exact five-vector exterior calculus on a flat coordinate patch.

Forms carry polynomial coefficients with rational terms over the four
coordinates; every operator and every integral below is exact, so identity
checks are plain equality with no tolerance anywhere.
"""

from fvx.calculus import (
    EDefectError,
    NotClosedError,
    bd,
    bdstar,
    d4,
    d5,
    poincare_potential_4,
    poincare_potential_5,
    poincare_potential_bd,
)
from fvx.forms_core import (
    FiveForm,
    FourForm,
    MultiVector,
    basis_one_form,
    contract,
    e_part,
    j_form,
    lift,
    project,
    wedge,
    z_part,
)
from fvx.integration import (
    ParamSurface,
    boundary_flux,
    five_flux,
    integrate_deg,
    integrate_full_frame,
    integrate_m,
    reparametrized,
)
from fvx.lagrange import (
    ELReport,
    FieldSet,
    LagrangianSpec,
    check_51,
    check_55,
    el_report,
    el_residual,
    unit_probe_box,
)
from fvx.metric_dual import DEFAULT_CFG, MetricConfig, dual, dual2_zfree, h_inner
from fvx.polyfield import Poly, format_poly, parse_poly
from fvx.suites import SuiteConfig, run_suite

__all__ = [
    "DEFAULT_CFG",
    "EDefectError",
    "ELReport",
    "FieldSet",
    "FiveForm",
    "FourForm",
    "LagrangianSpec",
    "MetricConfig",
    "MultiVector",
    "NotClosedError",
    "ParamSurface",
    "Poly",
    "SuiteConfig",
    "basis_one_form",
    "bd",
    "bdstar",
    "boundary_flux",
    "check_51",
    "check_55",
    "contract",
    "d4",
    "d5",
    "dual",
    "dual2_zfree",
    "e_part",
    "el_report",
    "el_residual",
    "five_flux",
    "format_poly",
    "h_inner",
    "integrate_deg",
    "integrate_full_frame",
    "integrate_m",
    "j_form",
    "lift",
    "parse_poly",
    "poincare_potential_4",
    "poincare_potential_5",
    "poincare_potential_bd",
    "project",
    "reparametrized",
    "run_suite",
    "unit_probe_box",
    "wedge",
    "z_part",
]
