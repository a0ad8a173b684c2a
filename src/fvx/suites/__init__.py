"""Seeded randomized identity suites behind the command-line checker.

Every identity draws exact random instances (rational coefficients with
numerator and denominator bounded by 9) from a per-suite deterministic
stream and yields the pairs of exact values it equates, one route on each
side.  One rule decides every verdict, ``Identity.holds``: an instance
passes when every pair is equal.  On failure the instance is shrunk by
dropping monomials while the failure persists, then serialized.
A patched (mutated) operator is exercised everywhere: the patch rebinds
every name of it in the fvx modules, including the by-name imports of
``integration`` and ``lagrange``.

This package holds what the suites share; the identities of each suite live
in ``fvx.suites.<name>``, which imports only the layers that suite calls,
and a run imports the modules of its selected suites alone.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

from fvx import forms_core as fc
from fvx.forms_core import FIVE_AXES, FiveForm, MultiVector
from fvx.polyfield import _BITS, COORD_NAMES, Poly, Record, _unpack, default_names, format_poly

if TYPE_CHECKING:
    from fvx.integration import ParamSurface
    from fvx.lagrange import FieldSet, LagrangianSpec

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
    """A run's settings.  ``metric`` None is the reference metric, which
    only the duality suite reads: a run without a metric file loads
    ``metric_dual`` only for that suite."""

    __slots__ = ("seed", "trials", "max_degree", "metric", "suites")

    def __init__(self, seed=0, trials=25, max_degree=3, metric=None, suites=SUITE_NAMES):
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
    from fvx.integration import ParamSurface

    deg = min(2, max_degree)
    maps = [rand_poly(rng, dim, deg, max_terms=2) for _ in range(4)]
    # Pin a shuffled coordinate block to the parameters so the patch is an
    # immersion; fully random sparse maps make most tangent minors vanish.
    axes = rng.sample(range(4), dim)
    for k in range(dim):
        maps[axes[k]] = maps[axes[k]] + Poly.variable(k, dim)
    return ParamSurface(dim, tuple(maps), rand_box(rng, dim))


def rand_lagrangian(rng: random.Random, n_fields: int, max_degree: int) -> LagrangianSpec:
    from fvx.lagrange import LagrangianSpec

    return LagrangianSpec(
        n_fields, rand_poly(rng, 5 * n_fields, min(3, max_degree), max_terms=3)
    )


def rand_fields(rng: random.Random, n_fields: int, max_degree: int) -> FieldSet:
    from fvx.lagrange import FieldSet

    deg = min(2, max_degree)
    return FieldSet(tuple(rand_poly(rng, 4, deg, max_terms=2) for _ in range(n_fields)))


# -- counterexample serialization and shrinking --------------------------------------


# The records of integration and lagrange that instances hold, told by class
# name (an isinstance test would load those layers in every run): the name of
# its JSON printer in the record's own module, its polys in shrink order, and
# its rebuild from a replacement list.
_RECORDS = {
    "ParamSurface": ("surface_to_dict", lambda s: s.map, lambda s, polys: type(s)(s.dim, tuple(polys), s.box)),
    "LagrangianSpec": ("lagrangian_to_dict", lambda s: [s.density], lambda s, polys: type(s)(s.n_fields, polys[0])),
    "FieldSet": ("fields_to_list", lambda s: s.fields, lambda s, polys: type(s)(tuple(polys))),
}


def _serialize(value) -> str:
    if isinstance(value, fc._Alternating):
        return json.dumps(fc.form_to_dict(value), sort_keys=True)
    if isinstance(value, Poly):
        names = COORD_NAMES if value.nvars == 4 else default_names(value.nvars)
        return format_poly(value, names)
    if type(value).__name__ in _RECORDS:
        printer = getattr(sys.modules[type(value).__module__], _RECORDS[type(value).__name__][0])
        return json.dumps(printer(value), sort_keys=True)
    if isinstance(value, Fraction):
        return str(value)
    return repr(value)


def describe_instance(inst: Mapping[str, object]) -> str:
    return "; ".join(f"{k}={_serialize(inst[k])}" for k in sorted(inst))


def _parts(value) -> tuple[list[Poly], Callable[[list[Poly]], object] | None]:
    """The polynomials a value is built from, in shrink order, and the
    function that rebuilds the value from a replacement list: a Poly is its
    own one part, a form its coefficients by sorted key, and a record reads
    ``_RECORDS``; any other value has none."""
    if isinstance(value, Poly):
        return [value], lambda polys: polys[0]
    if isinstance(value, fc._Alternating):
        keys = sorted(value.coeffs)
        return [value.coeffs[k] for k in keys], lambda polys: type(value)._new(value.rank, dict(zip(keys, polys)))
    if type(value).__name__ in _RECORDS:
        _, parts, rebuild = _RECORDS[type(value).__name__]
        return list(parts(value)), lambda polys: rebuild(value, polys)
    return [], None


def _monomials(inst: dict) -> list[tuple[str, int, int]]:
    """(slot, poly index, packed monomial) of every monomial of the instance,
    in shrink order: sorted slots, each value's polys in order, each poly's
    monomials by exponent tuple."""
    return [
        (slot, n, monomial)
        for slot in sorted(inst)
        for n, poly in enumerate(_parts(inst[slot])[0])
        for monomial in sorted(poly.num, key=lambda m: _unpack(m, poly.nvars))
    ]


def _without(inst: dict, slot: str, n: int, monomial: int) -> dict:
    """The instance without the one monomial that ``_monomials`` names."""
    polys, rebuild = _parts(inst[slot])
    p = polys[n]
    polys[n] = Poly._new(p.nvars, p.den, {m: c for m, c in p.num.items() if m != monomial})
    return {**inst, slot: rebuild(polys)}


def shrink_instance(inst: dict, still_fails: Callable[[dict], bool]) -> dict:
    """Drop monomials from the instance while the failure persists, walking
    the monomials in shrink order as a ring.

    After a drop the walk goes on with the monomial that followed the
    dropped one, wrapping past the last; it stops once every monomial of the
    instance was kept in a row, so dropping any one monomial of the result
    makes it pass or raise: the result is 1-minimal (Zeller & Hildebrandt,
    IEEE TSE 28(2), 2002)."""
    monomials, position, kept = _monomials(inst), 0, 0
    while kept < len(monomials):
        position %= len(monomials)
        candidate = _without(inst, *monomials[position])
        try:
            bad = still_fails(candidate)
        except Exception:
            bad = False
        if bad:
            # A drop that empties a form's coefficient removes it and shifts
            # the poly indices after it, so enumerate again; the monomial
            # that followed the dropped one is now at `position`.
            inst, monomials, kept = candidate, _monomials(candidate), 0
        else:
            position, kept = position + 1, kept + 1
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


def run_single(ident: Identity, inst: dict, cfg: SuiteConfig) -> tuple[bool, str | None]:
    try:
        if ident.holds(inst, cfg):
            return True, None
    except Exception as exc:
        return False, f"{describe_instance(inst)} | raised {type(exc).__name__}: {exc}"
    return False, describe_instance(shrink_instance(inst, lambda candidate: not ident.holds(candidate, cfg)))


_ONE = FiveForm.from_scalar(1)


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


_make_one_form = _make_form(5)


def _make_stokes(shift: int):
    """A surface ``V`` and a form ``t`` of rank ``dim - shift``."""

    def make(rng, cfg):
        dim = rng.randint(1, 4)
        return {
            "t": rand_form(rng, dim - shift, cfg.max_degree),
            "V": rand_surface(rng, dim, cfg.max_degree),
        }

    return make


def identities(suite: str) -> tuple[Identity, ...]:
    """The identities of one suite, from ``fvx.suites.<suite>``: a run loads
    the modules of its selected suites, and the layers they call, alone."""
    return importlib.import_module(f"fvx.suites.{suite}").IDENTITIES


def draws(cfg: SuiteConfig) -> Iterator[tuple[str, Identity, int, dict]]:
    """Every instance a run checks, as ``(suite, identity, index, instance)``:
    one ``Random(f"{seed}:{suite}")`` per selected suite, in ``SUITE_NAMES``
    order, then the suite's identities in order, then the trials."""
    for suite in SUITE_NAMES:
        if suite in cfg.suites:
            rng = random.Random(f"{cfg.seed}:{suite}")
            for ident in identities(suite):
                for index in range(cfg.trials):
                    yield suite, ident, index, ident.make(rng, cfg)


def run_suite(cfg: SuiteConfig) -> Report:
    records = [
        InstanceRecord(suite, ident.name, index, *run_single(ident, inst, cfg))
        for suite, ident, index, inst in draws(cfg)
    ]
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
