"""The stokes suite: boundary against interior, and reparametrization invariance."""

from __future__ import annotations

from fvx import calculus as ca
from fvx import forms_core as fc
from fvx import integration as ig
from fvx.forms_core import FourForm
from fvx.suites import Identity, _make_stokes, rand_form, rand_surface


def _make_four_vector_stokes(rng, cfg):
    dim = rng.randint(1, 4)
    return {
        "S": rand_form(rng, dim - 1, cfg.max_degree, cls=FourForm, axes=fc.COORD_AXES),
        "V": rand_surface(rng, dim, cfg.max_degree),
    }


def _make_reparam(rng, cfg):
    dim = rng.randint(1, 4)
    return {
        "t": rand_form(rng, dim, cfg.max_degree),
        "V": rand_surface(rng, dim, cfg.max_degree),
        "target": rand_surface(rng, dim, cfg.max_degree),
    }


def _stokes(i, cfg):
    yield ig.stokes_sides(i["t"], i["V"])


def _four_vector_stokes(i, cfg):
    S, V = i["S"], i["V"]
    yield ig.boundary_flux(fc.lift(S), V), ig.integrate_m(fc.lift(ca.d4(S)), V)


def _reparam(i, cfg):
    t, V = i["t"], i["V"]
    stretched = ig.reparametrized(V, i["target"].box)
    yield ig.integrate_m(t, V), ig.integrate_m(t, stretched)


IDENTITIES = (
    Identity("boundary-interior-plain", _make_stokes(1), _stokes),
    Identity("boundary-interior-five", _make_stokes(0), _stokes),
    Identity("four-vector-stokes", _make_four_vector_stokes, _four_vector_stokes),
    Identity("reparametrization-invariance", _make_reparam, _reparam),
)
