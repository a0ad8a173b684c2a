"""The flux suite: the two five-flux routes and integration by parts."""

from __future__ import annotations

from functools import partial

from fvx import integration as ig
from fvx.suites import Identity, _make_stokes, _redraw, rand_form, rand_surface


def _flux_nonzero(i, cfg) -> bool:
    """Whether the interior term and the five-flux total are both nonzero.
    The total is the boundary flux plus (-1)^m times the interior term, so
    it is nonzero exactly when the boundary flux differs from
    (-1)^(m+1) times it; the interior integral is computed once."""
    t, V = i["t"], i["V"]
    interior = ig.integrate_m(t, V)
    return interior != 0 and ig.boundary_flux(t, V) != (-1) ** (t.rank + 1) * interior


# A zero interior term or zero total satisfies the route comparison for the
# wrong reasons; redraw so both routes meet on nonzero numbers.
_make_flux = _redraw(_make_stokes(0), _flux_nonzero)


def _make_by_parts(shift: int):
    def make(rng, cfg):
        dim = rng.randint(1, 4)
        m = rng.randint(0, dim - shift)
        n = dim - shift - m
        return {
            "s": rand_form(rng, m, cfg.max_degree),
            "t": rand_form(rng, n, cfg.max_degree),
            "V": rand_surface(rng, dim, cfg.max_degree),
        }

    return make


def _flux(i, cfg):
    yield ig.flux_sides(i["t"], i["V"])


def _by_parts(flavor: str, i, cfg):
    yield ig.by_parts_sides(i["s"], i["t"], i["V"], flavor)


IDENTITIES = (
    Identity("five-flux-routes", _make_flux, _flux),
    Identity("by-parts-d5", _make_by_parts(1), partial(_by_parts, "d5")),
    Identity("by-parts-bd-left", _make_by_parts(0), partial(_by_parts, "bd_left")),
    Identity("by-parts-bdstar-left", _make_by_parts(0), partial(_by_parts, "bdstar_left")),
)
