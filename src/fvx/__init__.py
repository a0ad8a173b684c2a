"""Exact five-vector exterior calculus on a flat coordinate patch.

Forms carry polynomial coefficients with rational terms over the four
coordinates; every operator and every integral below is exact, so identity
checks are plain equality with no tolerance anywhere.

``import fvx`` loads the polynomial kernel, the form algebra and the
exterior derivatives; the integration, Lagrangian, duality and suite layers
load on first use of one of their names.
"""

import importlib

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
from fvx.polyfield import Poly, format_poly, parse_poly

# The layers loaded on first use, and the names each one exports.
_LAZY = {
    name: module
    for module, names in (
        ("integration", "ParamSurface boundary_flux five_flux integrate_deg integrate_full_frame"
                        " integrate_m reparametrized"),
        ("lagrange", "ELReport FieldSet LagrangianSpec check_51 check_55 el_report el_residual unit_probe_box"),
        ("metric_dual", "DEFAULT_CFG MetricConfig dual dual2_zfree h_inner"),
        ("suites", "SuiteConfig run_suite"),
    )
    for name in names.split()
}


def __getattr__(name: str):
    """Resolve a name of a lazily loaded layer from its module, every time,
    so that a patch of that module is always seen."""
    if name not in _LAZY:
        raise AttributeError(f"module 'fvx' has no attribute {name!r}")
    return getattr(importlib.import_module(f"fvx.{_LAZY[name]}"), name)


__all__ = [
    "EDefectError", "NotClosedError", "bd", "bdstar", "d4", "d5",
    "poincare_potential_4", "poincare_potential_5", "poincare_potential_bd",
    "FiveForm", "FourForm", "MultiVector", "basis_one_form", "contract", "e_part", "j_form", "lift",
    "project", "wedge", "z_part",
    "Poly", "format_poly", "parse_poly",
    *_LAZY,
]
