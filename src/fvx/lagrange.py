"""Euler-Lagrange machinery for N scalar fields, in three formulations.

A Lagrangian density is an autonomous polynomial in 5N formal variables:
for field l, the variables p{l}_0..p{l}_3 stand for the coordinate
derivatives of the field and p{l}_5 stands for the field itself (the label-5
directional derivative of a scalar is the scalar).  Substituting a concrete
polynomial field turns every expression below into an exact polynomial in
the coordinates.

The three formulations checked against each other:

* the scalar residual of the field equation (divergence of the momenta
  minus the p5-derivative);
* the exterior equation d4(J) = K between the current 3-form and the source
  4-form;
* the closedness bd(Lambda) = 0 of the rank-4 form whose plain block holds
  minus the p5-derivative and whose label-5 block holds the current.

The top component of bd(Lambda) is literally the residual, which is the
content of the agreement theorems.
"""

from __future__ import annotations

from fractions import Fraction

from fvx.calculus import bd, bdstar, d4
from fvx.forms_core import FiveForm, FourForm, e_part, permutation_sign, z_part
from fvx.integration import ParamSurface, five_flux
from fvx.polyfield import COORD_NAMES, Poly, Record, format_poly

P_LABELS = (0, 1, 2, 3, 5)


def p_index(ell: int, label: int) -> int:
    """Flat variable index of p{ell}_{label} in the density's variable list."""
    if label not in P_LABELS:
        raise ValueError(f"no basis label {label}")
    return 5 * ell + (4 if label == 5 else label)


def lagrangian_names(n_fields: int) -> tuple[str, ...]:
    return tuple(f"p{ell}_{label}" for ell in range(n_fields) for label in P_LABELS)


class LagrangianSpec(Record):
    """Autonomous density polynomial over the 5N formal field variables."""

    __slots__ = ("n_fields", "density")

    def __init__(self, n_fields: int, density: Poly):
        if n_fields < 1:
            raise ValueError("need at least one field")
        if density.nvars != 5 * n_fields:
            raise ValueError("density must use exactly five variables per field")
        self._set(n_fields, density)


class FieldSet(Record):
    """Concrete polynomial fields on the patch."""

    __slots__ = ("fields",)

    def __init__(self, fields: tuple[Poly, ...]):
        fields = tuple(fields)
        if not fields:
            raise ValueError("need at least one field")
        for phi in fields:
            if not isinstance(phi, Poly) or phi.nvars != 4:
                raise ValueError("fields must be polynomials in the four coordinates")
        self._set(fields)

    def __len__(self) -> int:
        return len(self.fields)


def lagrangian_to_dict(L: LagrangianSpec) -> dict:
    """The JSON view that ``io.lagrangian_from_dict`` reads back."""
    return {"N": L.n_fields, "density": format_poly(L.density, lagrangian_names(L.n_fields))}


def fields_to_list(phi: FieldSet) -> list[str]:
    """The JSON list that ``io.fields_from_list`` reads back."""
    return [format_poly(p, COORD_NAMES) for p in phi.fields]


def jet_maps(L: LagrangianSpec, phi: FieldSet) -> list[Poly]:
    """What replaces each formal variable: per field, its four coordinate
    partials and the field itself."""
    if len(phi) != L.n_fields:
        raise ValueError("field count does not match the density")
    maps: list[Poly] = []
    for field in phi.fields:
        maps.extend(field.partial(mu) for mu in range(4))
        maps.append(field)
    return maps


def substitute(expr: Poly, jet: list[Poly]) -> Poly:
    """Replace the formal variables by the fields and their derivatives,
    given as ``jet_maps``; every pullback of a density term goes through here."""
    return expr.compose(jet)


def _check_index(L: LagrangianSpec, ell: int) -> None:
    if not 0 <= ell < L.n_fields:
        raise ValueError("field index out of range")


def el_residual(L: LagrangianSpec, phi: FieldSet, ell: int) -> Poly:
    """Field-equation residual: div of momenta minus the p5-derivative."""
    _check_index(L, ell)
    return _residual(L, jet_maps(L, phi), ell)


def _residual(L: LagrangianSpec, jet: list[Poly], ell: int) -> Poly:
    total = Poly.zero(4)
    for mu in range(4):
        total = total + substitute(L.density.partial(p_index(ell, mu)), jet).partial(mu)
    return total - substitute(L.density.partial(p_index(ell, 5)), jet)


def J_form(L: LagrangianSpec, phi: FieldSet, ell: int) -> FourForm:
    """Current 3-form: the momentum for the missing coordinate, with the
    sign of inserting it in front."""
    _check_index(L, ell)
    return _current(L, jet_maps(L, phi), ell)


def _current(L: LagrangianSpec, jet: list[Poly], ell: int) -> FourForm:
    out = {}
    for missing in range(4):
        key = tuple(a for a in range(4) if a != missing)
        momentum = substitute(L.density.partial(p_index(ell, missing)), jet)
        if momentum.is_zero:
            continue
        out[key] = momentum if permutation_sign((missing,) + key) > 0 else -momentum
    return FourForm._new(3, out)


def K_form(L: LagrangianSpec, phi: FieldSet, ell: int) -> FourForm:
    """Source 4-form: the p5-derivative of the density on the volume key."""
    _check_index(L, ell)
    return _source(L, jet_maps(L, phi), ell)


def _source(L: LagrangianSpec, jet: list[Poly], ell: int) -> FourForm:
    return FourForm._new(4, {(0, 1, 2, 3): substitute(L.density.partial(p_index(ell, 5)), jet)})


def check_51(J: FourForm, K: FourForm) -> bool:
    """The exterior field equation d4(J) = K, given a field's current and source forms."""
    return d4(J) == K


def Lambda_form(L: LagrangianSpec, phi: FieldSet, ell: int) -> FiveForm:
    """Rank-4 form whose closedness under bd is the field equation.

    Plain block: minus the p5-derivative on (0,1,2,3).  Label-5 block: the
    current components with the label-5 slot appended.
    """
    return _lambda_from(J_form(L, phi, ell), K_form(L, phi, ell))


def _lambda_from(J: FourForm, K: FourForm) -> FiveForm:
    """Lambda from a field's current and source forms."""
    out = {(0, 1, 2, 3): -K.coeff((0, 1, 2, 3))}
    for key, comp in J.coeffs.items():
        out[key + (5,)] = comp
    return FiveForm._new(4, out)


def Lambda_star_form(lam: FiveForm) -> FiveForm:
    """Lambda with the plain block negated; closed under bdstar instead."""
    return e_part(lam) - z_part(lam)


def check_55(lam: FiveForm) -> bool:
    """Closedness of a field's Lambda under bd, cross-checked against the
    reflected route on the sign-flipped form; the two can never disagree."""
    route_bd = bd(lam).is_zero
    route_bdstar = bdstar(Lambda_star_form(lam)).is_zero
    if route_bd != route_bdstar:
        raise RuntimeError("bd and bdstar routes disagree")
    return route_bd


def unit_probe_box() -> ParamSurface:
    """Identity embedding of the unit 4-cube."""
    maps = tuple(Poly.variable(k, 4) for k in range(4))
    return ParamSurface(4, maps, ((0, 1),) * 4)


class ELReport(Record):
    """Everything the three formulations produce for one (L, phi) pair."""

    __slots__ = ("residuals", "j_forms", "k_forms", "lambda_forms", "flux_values")

    def __init__(
        self,
        residuals: tuple[Poly, ...],
        j_forms: tuple[FourForm, ...],
        k_forms: tuple[FourForm, ...],
        lambda_forms: tuple[FiveForm, ...],
        flux_values: tuple[Fraction, ...],
    ):
        self._set(residuals, j_forms, k_forms, lambda_forms, flux_values)

    @property
    def is_solution(self) -> bool:
        return all(r.is_zero for r in self.residuals)


def el_report(L: LagrangianSpec, phi: FieldSet, V: ParamSurface | None = None) -> ELReport:
    if V is None:
        V = unit_probe_box()
    # One jet for every field's residual, current and source.
    jet = jet_maps(L, phi)
    indices = range(L.n_fields)
    j_forms = tuple(_current(L, jet, ell) for ell in indices)
    k_forms = tuple(_source(L, jet, ell) for ell in indices)
    lambda_forms = tuple(map(_lambda_from, j_forms, k_forms))
    return ELReport(
        residuals=tuple(_residual(L, jet, ell) for ell in indices),
        j_forms=j_forms,
        k_forms=k_forms,
        lambda_forms=lambda_forms,
        flux_values=tuple(five_flux(lam, V) for lam in lambda_forms),
    )
