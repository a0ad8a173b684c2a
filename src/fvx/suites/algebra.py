"""The algebra suite: wedge laws, the block split and the label-5 transfer."""

from __future__ import annotations

from fvx import forms_core as fc
from fvx.suites import _ONE, Identity, _make_one_form, _make_pair, _redraw, rand_form

# The unit law on the zero form cannot see a sign error in the product;
# redraw until something survives.
_make_nonzero_form = _redraw(_make_one_form, lambda i, cfg: not i["t"].is_zero)


def _make_wedge_triple(rng, cfg):
    ra = rng.randint(0, 3)
    rb = rng.randint(0, 3 - ra)
    rc = rng.randint(0, 5 - ra - rb)
    return {
        "s": rand_form(rng, ra, cfg.max_degree),
        "t": rand_form(rng, rb, cfg.max_degree),
        "u": rand_form(rng, rc, cfg.max_degree),
    }


def _wedge_unit(i, cfg):
    t = i["t"]
    yield fc.wedge(_ONE, t), t
    yield fc.wedge(t, _ONE), t


def _graded_commutativity(i, cfg):
    s, t = i["s"], i["t"]
    yield fc.wedge(s, t), fc.wedge(t, s) * (-1) ** (s.rank * t.rank)


def _associativity(i, cfg):
    s, t, u = i["s"], i["t"], i["u"]
    yield fc.wedge(fc.wedge(s, t), u), fc.wedge(s, fc.wedge(t, u))


def _block_split(i, cfg):
    t = i["t"]
    yield fc.z_part(t) + fc.e_part(t), t
    yield fc.e_part(fc.z_part(t)), t.zero(t.rank)


def _make_transfer(rng, cfg):
    return {
        "s": rand_form(rng, rng.randint(0, 4), cfg.max_degree, axes=fc.COORD_AXES),
        "t": rand_form(rng, rng.randint(1, 5), cfg.max_degree),
    }


def _transfer(i, cfg):
    s, e = i["s"], fc.e_part(i["t"])
    yield fc.s_from_t(fc.t_from_s(s)), s
    yield fc.t_from_s(fc.s_from_t(e)), e


IDENTITIES = (
    Identity("wedge-unit", _make_nonzero_form, _wedge_unit),
    Identity("wedge-graded-commutativity", _make_pair(5), _graded_commutativity),
    Identity("wedge-associativity", _make_wedge_triple, _associativity),
    Identity("block-split", _make_one_form, _block_split),
    Identity("label-five-transfer", _make_transfer, _transfer),
)
