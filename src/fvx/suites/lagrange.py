"""The lagrange suite: the field equations read through ``bd``, the forms and a flux."""

from __future__ import annotations

from fvx import calculus as ca
from fvx import integration as ig
from fvx import lagrange as lg
from fvx.integration import ParamSurface
from fvx.suites import Identity, _redraw, rand_box, rand_fields, rand_lagrangian, rand_poly


def _make_el(rng, cfg):
    return {
        "L": rand_lagrangian(rng, 1, cfg.max_degree),
        "phi": rand_fields(rng, 1, cfg.max_degree),
    }


# Fields that happen to solve the drawn equations make the residual
# comparison vacuous; redraw until the instance sits off shell.
_make_el_off_shell = _redraw(
    _make_el, lambda i, cfg: not lg.el_residual(i["L"], i["phi"], 0).is_zero, tries=200
)


def _make_el_flux(rng, cfg):
    deg = min(1, cfg.max_degree)
    maps = tuple(rand_poly(rng, 4, deg, max_terms=2) for _ in range(4))
    return {
        "L": rand_lagrangian(rng, 1, cfg.max_degree),
        "phi": rand_fields(rng, 1, cfg.max_degree),
        "V": ParamSurface(4, maps, rand_box(rng, 4)),
    }


def _bd_lambda_residual(i, cfg):
    L, phi = i["L"], i["phi"]
    lam = lg.Lambda_form(L, phi, 0)
    yield ca.bd(lam).coeff((0, 1, 2, 3, 5)), lg.el_residual(L, phi, 0)


def _three_way(i, cfg):
    L, phi = i["L"], i["phi"]
    solved = lg.el_residual(L, phi, 0).is_zero
    yield lg.check_51(lg.J_form(L, phi, 0), lg.K_form(L, phi, 0)), solved
    yield lg.check_55(lg.Lambda_form(L, phi, 0)), solved


def _el_flux_route(i, cfg):
    yield ig.flux_sides(lg.Lambda_form(i["L"], i["phi"], 0), i["V"])


IDENTITIES = (
    Identity("bd-lambda-residual", _make_el_off_shell, _bd_lambda_residual),
    Identity("three-way-equivalence", _make_el, _three_way),
    Identity("el-flux-route", _make_el_flux, _el_flux_route),
)
