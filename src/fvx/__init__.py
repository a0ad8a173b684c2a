"""Exact five-vector exterior calculus on a flat coordinate patch.

Forms carry polynomial coefficients with rational terms over the four
coordinates; every operator and every integral below is exact, so identity
checks are plain equality with no tolerance anywhere.

``import fvx`` loads no layer: each public name below loads its layer on
first use (PEP 562), and is looked up afresh there every time.
"""

import importlib

# Each layer and the names it exports.
_LAZY = {
    name: module
    for module, names in (
        ("calculus", "EDefectError NotClosedError bd bdstar d4 d5"
                     " poincare_potential_4 poincare_potential_5 poincare_potential_bd"),
        ("forms_core", "FiveForm FourForm MultiVector basis_one_form contract e_part j_form lift project wedge z_part"),
        ("polyfield", "Poly format_poly parse_poly"),
        ("integration", "ParamSurface boundary_flux five_flux integrate_deg integrate_full_frame"
                        " integrate_m reparametrized"),
        ("lagrange", "ELReport FieldSet LagrangianSpec check_51 check_55 el_report el_residual unit_probe_box"),
        ("metric_dual", "DEFAULT_CFG MetricConfig dual dual2_zfree h_inner"),
        ("suites", "SuiteConfig run_suite"),
    )
    for name in names.split()
}


def __getattr__(name: str):
    """Resolve a public name from its layer, every time, so that a patch of
    that layer is always seen."""
    if name not in _LAZY:
        raise AttributeError(f"module 'fvx' has no attribute {name!r}")
    return getattr(importlib.import_module(f"fvx.{_LAZY[name]}"), name)


__all__ = list(_LAZY)
