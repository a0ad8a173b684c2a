"""Seeded randomized identity suites behind the command-line checker.

Every identity draws exact random instances (rational coefficients with
numerator and denominator bounded by 9) from a per-suite deterministic
stream and yields the pairs of exact values it equates, one route on each
side.  One rule decides every verdict, ``Identity.holds``: an instance
passes when every pair is equal.  On failure the instance is shrunk by
greedily dropping monomials while the failure persists, then serialized.
A patched (mutated) operator is exercised everywhere: the patch rebinds
every name of it in the fvx modules, including the by-name imports of
``integration`` and ``lagrange``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from functools import partial
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

from fvx import calculus as ca
from fvx import forms_core as fc
from fvx import integration as ig
from fvx import io as fio
from fvx import lagrange as lg
from fvx import metric_dual as md
from fvx.forms_core import FIVE_AXES, FiveForm, FourForm, IndexedArray, MultiVector
from fvx.integration import ParamSurface
from fvx.lagrange import FieldSet, LagrangianSpec
from fvx.metric_dual import DEFAULT_CFG, MetricConfig
from fvx.polyfield import _BITS, COORD_NAMES, Poly, Record, _pack, default_names, format_poly

SUITE_NAMES = ("algebra", "calculus", "stokes", "flux", "duality", "lagrange", "appendix")

# The largest --max-degree.  Pullbacks grow fast with the degree (2 CPUs,
# CPython 3.11): by_parts_sides on coefficients of three degree-D monomials over
# a 4-parameter map of degree-2 terms took 0.08 s at D = 8, 1.3 s at 12, 3.6 s
# at 16; `--suite stokes --max-degree 120 --trials 2` ran past 20 s inside
# Poly.compose.  At the cap the default check takes 1.1-1.6 s (seeds 0-4).
MAX_DEGREE = 8

# The largest --trials.  The full check at 100 trials takes 1.8 s at degree 3
# and 3.5 s at degree 8, so a run at the cap lasts about 35 s; run_suite keeps
# every record, so an uncapped count also grows memory without bound.
MAX_TRIALS = 1000


class SuiteConfig(Record):
    __slots__ = ("seed", "trials", "max_degree", "metric", "suites")

    def __init__(self, seed=0, trials=25, max_degree=3, metric=DEFAULT_CFG, suites=SUITE_NAMES):
        suites = tuple(suites)
        if trials < 1:
            raise ValueError("trials must be at least 1")
        if trials > MAX_TRIALS:
            raise ValueError(f"--trials {trials} above the cap of {MAX_TRIALS}")
        if max_degree < 1:
            raise ValueError("max degree must be at least 1")
        if max_degree > MAX_DEGREE:
            raise ValueError(f"--max-degree {max_degree} above the cap of {MAX_DEGREE}")
        if not suites:
            raise ValueError("no suites selected")
        for name in suites:
            if name not in SUITE_NAMES:
                raise ValueError(f"unknown suite {name!r}")
        self._set(seed, trials, max_degree, metric, suites)


class InstanceRecord(Record):
    __slots__ = ("suite", "identity", "index", "passed", "counterexample")

    def __init__(self, suite: str, identity: str, index: int, passed: bool, counterexample: str | None = None):
        self._set(suite, identity, index, passed, counterexample)


class Report(Record):
    __slots__ = ("records",)

    def __init__(self, records: tuple[InstanceRecord, ...]):
        self._set(records)

    @property
    def failures(self) -> tuple[InstanceRecord, ...]:
        return tuple(r for r in self.records if not r.passed)

    @property
    def passed(self) -> bool:
        return not self.failures


# -- deterministic instance generation ----------------------------------------------


def _below(getrandbits, n: int) -> int:
    """``rng.randrange(n)`` for n > 0, leaving the rng in the same state:
    CPython's ``Random._randbelow_with_getrandbits`` takes n.bit_length()
    bits and redraws while the value is at least n.  ``rng.randint(a, b)``
    is ``a + _below(getrandbits, b - a + 1)``.  One Python frame where
    ``randint`` takes three."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def rand_fraction(rng: random.Random) -> Fraction:
    """``Fraction(rng.randint(-9, 9), rng.randint(1, 9))``."""
    bits = rng.getrandbits
    return Fraction(_below(bits, 19) - 9, 1 + _below(bits, 9))


def rand_poly(rng: random.Random, nvars: int, max_degree: int, max_terms: int = 3) -> Poly:
    """Up to ``max_terms`` monomials of degree up to ``max_degree``, each
    coefficient drawn as ``rand_fraction`` draws it; a later draw of a
    monomial replaces the earlier one.  Built in integers, past the checks
    of ``Poly(...)``: callers pass at most MAX_DEGREE, so no exponent can
    leave its 16-bit field.  Each draw is the ``_below`` form of
    ``randint(0, max_terms)``, ``randint(0, max_degree)``,
    ``randrange(nvars)`` or a coefficient's ``randint``, so the stream is
    that of those calls."""
    bits = rng.getrandbits
    drawn: dict[int, tuple[int, int]] = {}
    for _ in range(_below(bits, max_terms + 1)):
        monomial = 0
        for _ in range(_below(bits, max_degree + 1)):
            if nvars:
                monomial += 1 << _BITS * _below(bits, nvars)
        drawn[monomial] = _below(bits, 19) - 9, 1 + _below(bits, 9)
    den = math.lcm(*(q for _, q in drawn.values()))
    return Poly._new(nvars, den, {m: p * (den // q) for m, (p, q) in drawn.items()})


def rand_form(
    rng: random.Random,
    rank: int,
    max_degree: int,
    cls=FiveForm,
    axes: Sequence[int] = FIVE_AXES,
) -> FiveForm:
    keys = list(itertools.combinations(axes, rank))
    chosen = rng.sample(keys, min(len(keys), rng.randint(1, 3)))
    return cls._new(rank, {k: rand_poly(rng, 4, max_degree) for k in chosen})


def rand_vector(rng: random.Random, max_degree: int) -> MultiVector:
    return rand_form(rng, 1, max_degree, cls=MultiVector)


_BOX_STARTS = (Fraction(0), Fraction(-1, 2), Fraction(1, 3))
_BOX_WIDTHS = (Fraction(1), Fraction(1, 2), Fraction(2))


def rand_box(rng: random.Random, dim: int) -> tuple[tuple[Fraction, Fraction], ...]:
    box = []
    for _ in range(dim):
        a = rng.choice(_BOX_STARTS)
        box.append((a, a + rng.choice(_BOX_WIDTHS)))
    return tuple(box)


def rand_surface(rng: random.Random, dim: int, max_degree: int) -> ParamSurface:
    deg = min(2, max_degree)
    maps = [rand_poly(rng, dim, deg, max_terms=2) for _ in range(4)]
    # Pin a shuffled coordinate block to the parameters so the patch is an
    # immersion; fully random sparse maps make most tangent minors vanish.
    axes = rng.sample(range(4), dim)
    for k in range(dim):
        maps[axes[k]] = maps[axes[k]] + Poly.variable(k, dim)
    return ParamSurface(dim, tuple(maps), rand_box(rng, dim))


def rand_lagrangian(rng: random.Random, n_fields: int, max_degree: int) -> LagrangianSpec:
    return LagrangianSpec(
        n_fields, rand_poly(rng, 5 * n_fields, min(3, max_degree), max_terms=3)
    )


def rand_fields(rng: random.Random, n_fields: int, max_degree: int) -> FieldSet:
    deg = min(2, max_degree)
    return FieldSet(tuple(rand_poly(rng, 4, deg, max_terms=2) for _ in range(n_fields)))


# -- counterexample serialization and shrinking --------------------------------------


def _serialize(value) -> str:
    if isinstance(value, fc._Alternating):
        return json.dumps(fio.form_to_dict(value), sort_keys=True)
    if isinstance(value, Poly):
        names = COORD_NAMES if value.nvars == 4 else default_names(value.nvars)
        return format_poly(value, names)
    if isinstance(value, ParamSurface):
        return json.dumps(fio.surface_to_dict(value), sort_keys=True)
    if isinstance(value, LagrangianSpec):
        return json.dumps(fio.lagrangian_to_dict(value), sort_keys=True)
    if isinstance(value, FieldSet):
        return json.dumps(fio.fields_to_list(value))
    if isinstance(value, Fraction):
        return str(value)
    return repr(value)


def describe_instance(inst: Mapping[str, object]) -> str:
    return "; ".join(f"{k}={_serialize(inst[k])}" for k in sorted(inst))


def _poly_without(p: Poly, key: tuple[int, ...]) -> Poly:
    packed = _pack(key)
    return Poly._new(p.nvars, p.den, {m: c for m, c in p.num.items() if m != packed})


def _parts(value) -> tuple[list[Poly], Callable[[list[Poly]], object] | None]:
    """The polynomials a value is built from, in shrink order, and the
    function that rebuilds the value from a replacement list."""
    if isinstance(value, Poly):
        return [value], lambda polys: polys[0]
    if isinstance(value, fc._Alternating):
        keys = sorted(value.coeffs)
        rebuild = lambda polys: type(value)._new(value.rank, dict(zip(keys, polys)))
        return [value.coeffs[k] for k in keys], rebuild
    if isinstance(value, ParamSurface):
        return list(value.map), lambda polys: ParamSurface(value.dim, tuple(polys), value.box)
    if isinstance(value, LagrangianSpec):
        return [value.density], lambda polys: LagrangianSpec(value.n_fields, polys[0])
    if isinstance(value, FieldSet):
        return list(value.fields), lambda polys: FieldSet(tuple(polys))
    return [], None


def _monomials(inst: dict):
    """(slot, poly index, exponent) of every monomial of the instance, in
    shrink order: sorted slots, each value's polys in order, sorted terms."""
    for slot in sorted(inst):
        for n, poly in enumerate(_parts(inst[slot])[0]):
            for term in sorted(poly.terms):
                yield slot, n, term


def shrink_instance(inst: dict, still_fails: Callable[[dict], bool]) -> dict:
    """Greedily drop monomials from the instance while the failure persists."""
    changed = True
    while changed:
        changed = False
        for slot, n, term in _monomials(inst):
            polys, rebuild = _parts(inst[slot])
            candidate = dict(inst)
            try:
                polys[n] = _poly_without(polys[n], term)
                candidate[slot] = rebuild(polys)
                bad = still_fails(candidate)
            except Exception:
                bad = False
            if bad:
                inst = candidate
                changed = True
                break
    return inst


# -- identity registry ----------------------------------------------------------------


class Identity(Record):
    """A named identity: ``make`` draws an instance, ``sides`` yields the
    ``(lhs, rhs)`` pairs it equates, lazily, so a failing pair stops the
    comparison before the next one is computed."""

    __slots__ = ("name", "make", "sides")

    def __init__(self, name: str, make: Callable[..., dict], sides: Callable[..., Iterator[tuple]]):
        self._set(name, make, sides)

    def holds(self, inst: dict, cfg: SuiteConfig) -> bool:
        return all(lhs == rhs for lhs, rhs in self.sides(inst, cfg))


def run_single(ident: Identity, rng: random.Random, cfg: SuiteConfig) -> tuple[bool, str | None]:
    inst = ident.make(rng, cfg)
    try:
        if ident.holds(inst, cfg):
            return True, None
    except Exception as exc:
        return False, f"{describe_instance(inst)} | raised {type(exc).__name__}: {exc}"

    def still_fails(candidate: dict) -> bool:
        return not ident.holds(candidate, cfg)

    return False, describe_instance(shrink_instance(inst, still_fails))


_ONE = FiveForm.from_scalar(1)


def _metric_for_dual(cfg: SuiteConfig) -> MetricConfig:
    # The uniform involution constant needs an odd number of minus signs
    # in the coordinate block; fall back to the reference metric otherwise.
    return cfg.metric if math.prod(cfg.metric.g) < 0 else DEFAULT_CFG


def _redraw(make, nonzero, tries: int = 40):
    """Draw from ``make`` until ``nonzero(instance, cfg)`` holds, at most
    ``tries`` times; the last draw stands when none does."""

    def redrawn(rng, cfg):
        for _ in range(tries):
            i = make(rng, cfg)
            if nonzero(i, cfg):
                break
        return i

    return redrawn


def _make_form(top: int, **kind):
    """One form ``t`` of rank at most ``top``."""

    def make(rng, cfg):
        return {"t": rand_form(rng, rng.randint(0, top), cfg.max_degree, **kind)}

    return make


def _make_pair(top: int, **kind):
    """Forms ``s`` and ``t`` whose ranks add up to at most ``top``."""

    def make(rng, cfg):
        ra = rng.randint(0, top)
        rb = rng.randint(0, top - ra)
        return {
            "s": rand_form(rng, ra, cfg.max_degree, **kind),
            "t": rand_form(rng, rb, cfg.max_degree, **kind),
        }

    return make


_FOUR_LABELS = {"cls": FourForm, "axes": fc.COORD_AXES}


# algebra ------------------------------------------------------------------------


_make_one_form = _make_form(5)

# The unit law on the zero form cannot see a sign error in the product;
# redraw until something survives.
_make_nonzero_form = _redraw(_make_one_form, lambda i, cfg: not i["t"].is_zero)

# Identities that wedge the input with another label, or differentiate it,
# need rank room.
_make_subtop_form = _make_form(4)


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


ALGEBRA = (
    Identity("wedge-unit", _make_nonzero_form, _wedge_unit),
    Identity("wedge-graded-commutativity", _make_pair(5), _graded_commutativity),
    Identity("wedge-associativity", _make_wedge_triple, _associativity),
    Identity("block-split", _make_one_form, _block_split),
    Identity("label-five-transfer", _make_transfer, _transfer),
)


# calculus -----------------------------------------------------------------------


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


CALCULUS = (
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


# stokes -------------------------------------------------------------------------


def _make_stokes(shift: int):
    def make(rng, cfg):
        dim = rng.randint(1, 4)
        return {
            "t": rand_form(rng, dim - shift, cfg.max_degree),
            "V": rand_surface(rng, dim, cfg.max_degree),
        }

    return make


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


STOKES = (
    Identity("boundary-interior-plain", _make_stokes(1), _stokes),
    Identity("boundary-interior-five", _make_stokes(0), _stokes),
    Identity("four-vector-stokes", _make_four_vector_stokes, _four_vector_stokes),
    Identity("reparametrization-invariance", _make_reparam, _reparam),
)


# flux ---------------------------------------------------------------------------


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


FLUX = (
    Identity("five-flux-routes", _make_flux, _flux),
    Identity("by-parts-d5", _make_by_parts(1), partial(_by_parts, "d5")),
    Identity("by-parts-bd-left", _make_by_parts(0), partial(_by_parts, "bd_left")),
    Identity("by-parts-bdstar-left", _make_by_parts(0), partial(_by_parts, "bdstar_left")),
)


# duality ------------------------------------------------------------------------


def _make_epsilon_key(rng, cfg):
    labels = [rng.choice(FIVE_AXES) for _ in range(5)]
    if rng.random() < 0.7:
        labels = rng.sample(FIVE_AXES, 5)
    return {"key": tuple(labels)}


def _epsilon_reference(i, cfg):
    eps = md.epsilon_lower(DEFAULT_CFG)
    yield eps[(0, 1, 2, 3, 5)], 1
    yield eps[i["key"]], fc.permutation_sign(i["key"])


def _make_contraction(rng, cfg):
    m = rng.randint(0, 5)
    upper = tuple(rng.sample(FIVE_AXES, m))
    if m >= 2 and rng.random() < 0.25:
        lower = (upper[0],) + upper[:-1]
    else:
        lower = tuple(rng.sample(FIVE_AXES, m))
    return {"upper": upper, "lower": lower}


def _contraction(i, cfg):
    # Each side is a product of two signs (a raised times a lowered entry, and delta's
    # two permutation_sign values), so no uniform flip of a sign route changes it.
    for metric in (cfg.metric, MetricConfig(cfg.metric.g, -cfg.metric.xi, cfg.metric.sigma, cfg.metric.eta)):
        # epsilon-sign reaches both tables: raised is built from this lowered one.
        lowered = md.epsilon_lower(metric)
        raised = md.epsilon_upper(lowered, metric)
        yield md.contraction_sides(i["upper"], i["lower"], raised, lowered, metric)


def _make_multivector(rng, cfg):
    return {"w": rand_form(rng, rng.randint(0, 5), cfg.max_degree, cls=MultiVector)}


def _theta_roundtrip(i, cfg):
    w = i["w"]
    yield md.theta_h_inv(md.theta_h(w, cfg.metric), cfg.metric), w


def _dual_involution(i, cfg):
    metric = _metric_for_dual(cfg)
    w = i["t"]
    yield md.dual(md.dual(w, metric), metric), w * (-metric.sign_xi)


def _make_same_rank_pair(rng, cfg):
    rank = rng.randint(0, 5)
    return {
        "s": rand_form(rng, rank, cfg.max_degree),
        "t": rand_form(rng, rank, cfg.max_degree),
    }


# Forms with disjoint components pair to zero and the comparison degenerates
# to 0 == 0; redraw until the inner product survives.
_make_pairing_pair = _redraw(
    _make_same_rank_pair, lambda i, cfg: not md.h_inner(i["s"], i["t"], cfg.metric).is_zero
)


def _wedge_dual_pairing(i, cfg):
    s, t = i["s"], i["t"]
    metric = cfg.metric
    paired = md.epsilon_five_form(metric) * md.h_inner(s, t, metric)
    yield fc.wedge(s, md.dual(t, metric)), paired
    yield fc.wedge(md.dual(s, metric), t), paired


def _hodge4(W: FourForm, metric: MetricConfig) -> FourForm:
    """Four-label Hodge dual of a rank-2 form, straight from the index
    formula; the reference route for the label-5-free duality check."""
    out = {}
    for key in itertools.combinations(range(4), 2):
        comp = W.coeff(key)
        if comp.is_zero:
            continue
        rest = tuple(a for a in range(4) if a not in key)
        sign = metric.eta * fc.permutation_sign(key + rest)
        out[rest] = comp * (sign * Fraction(1, metric.g[key[0]] * metric.g[key[1]]))
    return FourForm(2, out)


def _make_zfree(rng, cfg):
    return {"w": rand_form(rng, 2, cfg.max_degree, axes=fc.COORD_AXES)}


def _zfree_hodge(i, cfg):
    metric = _metric_for_dual(cfg)
    w = i["w"]
    yield md.dual2_zfree(w, metric), fc.lift(_hodge4(fc.project(w), metric))


DUALITY = (
    Identity("epsilon-reference", _make_epsilon_key, _epsilon_reference),
    Identity("epsilon-contraction", _make_contraction, _contraction),
    Identity("theta-roundtrip", _make_multivector, _theta_roundtrip),
    Identity("dual-involution", _make_one_form, _dual_involution),
    Identity("wedge-dual-pairing", _make_pairing_pair, _wedge_dual_pairing),
    Identity("zfree-hodge", _make_zfree, _zfree_hodge),
)


# lagrange -----------------------------------------------------------------------


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


LAGRANGE = (
    Identity("bd-lambda-residual", _make_el_off_shell, _bd_lambda_residual),
    Identity("three-way-equivalence", _make_el, _three_way),
    Identity("el-flux-route", _make_el_flux, _el_flux_route),
)


# appendix -----------------------------------------------------------------------


def conforming_array(weights: Sequence[Fraction]) -> IndexedArray:
    """Array with S[(i,) + j] = weights[i] * sign(j), the shape for which the
    transposition identity is stated."""
    m = len(weights)
    signed = list(fc.signed_permutations(range(m)))
    den = math.lcm(*(w.denominator for w in weights))
    scaled = [w.numerator * (den // w.denominator) for w in weights]
    num = {(i,) + perm: n if sign > 0 else -n for i, n in enumerate(scaled) for sign, perm in signed}
    return IndexedArray._new(m + 1, tuple(range(m)), den, num)


def _make_transposition(rng, cfg):
    m = rng.randint(2, 5)
    return {"m": m, "weights": tuple(rand_fraction(rng) for _ in range(m))}


def _transposition(i, cfg):
    # Quadratic in the signs as well: the check multiplies each sign by a signed
    # sum, and a flipped conforming array is conforming with negated weights.
    yield fc.transposition_identity_check(conforming_array(i["weights"]), i["m"]), True


def divergence_sides(
    weights: Sequence[Poly], probes: Sequence[tuple[int, ...]], labels: Sequence[int]
) -> Iterator[tuple[Poly, Poly]]:
    """Contracted-divergence reading of the transposition identity for a
    vector-valued volume form over ``labels``: the four coordinate labels,
    or all five, where the label-5 directional derivative acts as the
    identity.  ``weights`` holds one polynomial per label.  Yields one
    ``(lhs, rhs)`` pair per probe: the divergence read from S, and the
    re-antisymmetrized derivative of its contraction T."""
    n = len(labels)
    weight = dict(zip(labels, weights))
    contractions: dict[tuple[int, ...], dict[int, int]] = {}

    def T(key: tuple[int, ...]) -> dict[int, int]:
        # The contraction sum over h of S(h, (h,) + key), as the integer
        # multiple of each weight w_h; a label h in key repeats, giving 0.
        if key not in contractions:
            contractions[key] = {h: fc.permutation_sign((h,) + key) for h in labels if h not in key}
        return contractions[key]

    derivatives: dict[tuple[int, int], Poly] = {}
    lead = Fraction(1, math.factorial(n))
    tail = Fraction(1, math.factorial(n - 1))
    for idx in probes:
        # S(h, idx) for every label h: the sign depends on idx alone.
        sign = fc.permutation_sign(idx)
        lhs = Poly.zero(4)
        for h in labels:
            lhs = lhs + ca.bullet_partial(weight[h] * sign, h)
        # Reorderings that give the same sequence add their signs first; a
        # probe with a repeated label cancels to all-zero counts this way.
        counts: dict[tuple[int, ...], int] = {}
        for sign, reordered in fc.signed_permutations(idx):
            counts[reordered] = counts.get(reordered, 0) + sign
        # The derivative is linear, so the right side is a sum of integer
        # multiples of bullet_partial(w_h, axis), added up per (axis, h)
        # before any Poly work.
        multiples: dict[tuple[int, int], int] = {}
        for reordered, count in counts.items():
            if count:
                for h, multiple in T(reordered[1:]).items():
                    pair = (reordered[0], h)
                    multiples[pair] = multiples.get(pair, 0) + count * multiple
        rhs = Poly.zero(4)
        for (axis, h), multiple in multiples.items():
            if multiple:
                if (axis, h) not in derivatives:
                    derivatives[axis, h] = ca.bullet_partial(weight[h], axis)
                rhs = rhs + derivatives[axis, h] * multiple
        yield lhs * lead, rhs * (tail * lead)


def _make_divergence(labels: tuple[int, ...]):
    # The weight keys w0..w3 (and w5) name the labels in counterexamples.
    def make(rng, cfg):
        n = len(labels)
        probes = [tuple(rng.sample(labels, n)) for _ in range(2)]
        probes += [tuple(rng.choice(labels) for _ in range(n)) for _ in range(2)]
        inst = {f"w{h}": rand_poly(rng, 4, cfg.max_degree) for h in labels}
        inst["probes"] = tuple(probes)
        return inst

    return make


def _divergence(labels: tuple[int, ...], i, cfg):
    yield from divergence_sides([i[f"w{h}"] for h in labels], i["probes"], labels)


APPENDIX = (
    Identity("transposition-identity", _make_transposition, _transposition),
    Identity(
        "divergence-contraction-4",
        _make_divergence(fc.COORD_AXES),
        partial(_divergence, fc.COORD_AXES),
    ),
    Identity(
        "divergence-contraction-5", _make_divergence(FIVE_AXES), partial(_divergence, FIVE_AXES)
    ),
)


IDENTITIES: dict[str, tuple[Identity, ...]] = {
    "algebra": ALGEBRA,
    "calculus": CALCULUS,
    "stokes": STOKES,
    "flux": FLUX,
    "duality": DUALITY,
    "lagrange": LAGRANGE,
    "appendix": APPENDIX,
}


def run_suite(cfg: SuiteConfig) -> Report:
    records = []
    for suite in SUITE_NAMES:
        if suite not in cfg.suites:
            continue
        rng = random.Random(f"{cfg.seed}:{suite}")
        for ident in IDENTITIES[suite]:
            for index in range(cfg.trials):
                passed, counterexample = run_single(ident, rng, cfg)
                records.append(InstanceRecord(suite, ident.name, index, passed, counterexample))
    records.sort(key=lambda r: (SUITE_NAMES.index(r.suite), r.identity, r.index))
    return Report(tuple(records))


def emit_report(report: Report, format: str = "text") -> str:
    if format == "jsonl":
        lines = [
            json.dumps(
                {
                    "suite": r.suite,
                    "identity": r.identity,
                    "instance": r.index,
                    "pass": r.passed,
                    "counterexample": r.counterexample,
                },
                sort_keys=True,
            )
            for r in report.records
        ]
        return "\n".join(lines) + "\n"
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")

    grouped: dict[tuple[str, str], list[InstanceRecord]] = {}
    for record in report.records:
        grouped.setdefault((record.suite, record.identity), []).append(record)
    lines = []
    for (suite, name), records in grouped.items():
        bad = [r for r in records if not r.passed]
        if bad:
            lines.append(f"FAIL {suite}/{name} ({len(records)} instances, {len(bad)} failed)")
            lines.append(f"    counterexample: {bad[0].counterexample}")
        else:
            lines.append(f"PASS {suite}/{name} ({len(records)} instances)")
    total = len(report.records)
    lines.append(
        f"{len(grouped)} identities, {total} instances, {len(report.failures)} failures"
    )
    return "\n".join(lines) + "\n"
