"""The calculus suite: nilpotency, derivative routes, Leibniz rules, potentials."""

from __future__ import annotations

from functools import partial

from fvx import calculus as ca
from fvx import forms_core as fc
from fvx.forms_core import FIVE_AXES, FourForm
from fvx.polyfield import Poly
from fvx.suites import _ONE, Identity, _make_form, _make_one_form, _make_pair, _redraw, rand_form, rand_vector

_FOUR_LABELS = {"cls": FourForm, "axes": fc.COORD_AXES}

# Identities that wedge the input with another label, or differentiate it,
# need rank room.
_make_subtop_form = _make_form(4)


def _make_axis(rng, cfg):
    return {"axis": rng.choice(FIVE_AXES)}


# Room for one more label: the derivative of an (m + n)-form must fit.
_make_leibniz_pair4 = _make_pair(3, **_FOUR_LABELS)
_make_leibniz_pair5 = _make_pair(4)

# A closed input gives the roundtrip nothing to recover; redraw until the
# derivative is visible.
_make_inexact_source_4 = _redraw(
    _make_form(3, **_FOUR_LABELS), lambda i, cfg: not ca.d4(i["t"]).is_zero
)

# Route comparisons through the coordinate derivative need an input the
# coordinate derivative does not annihilate.
_make_coord_active_form = _redraw(_make_subtop_form, lambda i, cfg: not ca.d5(i["t"]).is_zero)


def _make_bracket(rng, cfg):
    return {
        "t": rand_form(rng, 1, cfg.max_degree),
        "u": rand_vector(rng, cfg.max_degree),
        "v": rand_vector(rng, cfg.max_degree),
    }


# A family of identities that differ only in their operators is one function
# bound to the operators' names with ``partial``; it looks them up in
# ``calculus`` on every call: a captured function object would slip past a
# mutation or a tracer, both of which rebind the module-level name.


def _nilpotent(op: str, i, cfg):
    d = getattr(ca, op)
    twice = d(d(i["t"]))
    yield twice, twice.zero(twice.rank)


def _routes(op: str, route: str, i, cfg):
    yield getattr(ca, op)(i["t"]), getattr(ca, route)(i["t"])


def _bd_unit(i, cfg):
    yield ca.bd(_ONE), fc.j_form()
    yield ca.bdstar(_ONE), -fc.j_form()


def _reflection_gap(i, cfg):
    t = i["t"]
    yield ca.bd(t) - ca.bdstar(t), fc.wedge(fc.j_form(), t) * 2


def _basis_derivative(i, cfg):
    axis = i["axis"]
    o_axis = fc.basis_one_form(axis)
    yield ca.bd(o_axis), fc.wedge(fc.j_form(), o_axis)
    if axis == 5:
        yield ca.bd(_ONE), o_axis
    else:
        x = Poly.variable(axis, 4)
        yield ca.bd(_ONE * x) - ca.bd(_ONE) * x, o_axis


def _leibniz(op: str, i, cfg):
    d = getattr(ca, op)
    s, t = i["s"], i["t"]
    yield d(fc.wedge(s, t)), fc.wedge(d(s), t) + fc.wedge(s, d(t)) * (-1) ** s.rank


def _leibniz_bd(i, cfg):
    s, t = i["s"], i["t"]
    sign = (-1) ** s.rank
    expected = (
        fc.wedge(ca.bd(s), t)
        + fc.wedge(s, ca.bd(t)) * sign
        - fc.wedge(fc.j_form(), fc.wedge(s, t))
    )
    yield ca.bd(fc.wedge(s, t)), expected


def _leibniz_mixed(i, cfg):
    s, t = i["s"], i["t"]
    sign = (-1) ** s.rank
    lhs = ca.d5(fc.wedge(s, t))
    yield lhs, fc.wedge(ca.bd(s), t) + fc.wedge(s, ca.bdstar(t)) * sign
    yield lhs, fc.wedge(ca.bdstar(s), t) + fc.wedge(s, ca.bd(t)) * sign


def _potential(op: str, potential: str, i, cfg):
    d = getattr(ca, op)
    s = d(i["t"])
    yield d(getattr(ca, potential)(s)), s


def _bracket(i, cfg):
    yield ca.bracket_sides(i["t"], i["u"], i["v"])


IDENTITIES = (
    Identity("d4-nilpotent", _make_form(4, **_FOUR_LABELS), partial(_nilpotent, "d4")),
    Identity("d5-nilpotent", _make_one_form, partial(_nilpotent, "d5")),
    Identity("bd-nilpotent", _make_one_form, partial(_nilpotent, "bd")),
    Identity("bdstar-nilpotent", _make_one_form, partial(_nilpotent, "bdstar")),
    Identity("bd-unit", _make_axis, _bd_unit),
    Identity("bd-from-d5", _make_coord_active_form, partial(_routes, "bd", "bd_via_d5")),
    Identity(
        "bdstar-from-d5", _make_coord_active_form, partial(_routes, "bdstar", "bdstar_via_d5")
    ),
    Identity("reflection-gap", _make_subtop_form, _reflection_gap),
    Identity("basis-derivative", _make_axis, _basis_derivative),
    Identity("leibniz-d4", _make_leibniz_pair4, partial(_leibniz, "d4")),
    Identity("leibniz-d5", _make_leibniz_pair5, partial(_leibniz, "d5")),
    Identity("leibniz-bd", _make_leibniz_pair5, _leibniz_bd),
    Identity("leibniz-mixed", _make_leibniz_pair5, _leibniz_mixed),
    Identity(
        "potential-d4", _make_inexact_source_4, partial(_potential, "d4", "poincare_potential_4")
    ),
    Identity("potential-d5", _make_subtop_form, partial(_potential, "d5", "poincare_potential_5")),
    Identity(
        "potential-bd", _make_subtop_form, partial(_potential, "bd", "poincare_potential_bd")
    ),
    Identity("bracket-pairing", _make_bracket, _bracket),
)
