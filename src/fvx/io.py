"""Readers of the structured-text file formats for forms, surfaces,
Lagrangians, fields and metrics, and the budgets of the integral commands.

All payloads are JSON with polynomial values in the canonical text grammar.
Index subsets are digit strings in increasing order ("015" for the key
(0, 1, 5)); the digit 4 never appears.  Rational scalars may be written as
JSON integers or as strings of ASCII digits like "-3/2" or "0.25".  Errors
carry enough context to locate the offending entry.

Each value's printer lives with the value (``forms_core.form_to_dict``, ...),
so that ``fvx check`` without ``--config`` never loads this module.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import re
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Collection, Mapping, Sequence

from fvx.forms_core import FIVE_AXES, FiveForm
from fvx.polyfield import COORD_NAMES, Poly, param_names, parse_poly

# The converters below import the layer whose objects they build, so that a
# command that reads only forms loads none of them.
if TYPE_CHECKING:
    from fvx.integration import ParamSurface
    from fvx.lagrange import FieldSet, LagrangianSpec
    from fvx.metric_dual import MetricConfig


class FormatError(ValueError):
    """A structured-text payload that does not match its schema."""


@contextlib.contextmanager
def named(where: str):
    """Re-raise any ValueError of the block as a FormatError that starts with
    ``where``: the one place that names the input a fault was found in."""
    try:
        yield
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from None


_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def parse_rational(value: Any, where: str) -> Fraction:
    """A JSON integer, or a string of ASCII digits with an optional sign and
    an optional ``/digits`` or ``.digits`` part ("-3/2", "0.25")."""
    if isinstance(value, bool):
        raise FormatError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        shown = repr(value if len(value) <= 40 else value[:40] + "...")
        if not _RATIONAL.fullmatch(value):
            raise FormatError(f"{where}: bad rational {shown} (expected [+-]digits[/digits or .digits])")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"{where}: bad rational {shown} ({exc})") from None
    raise FormatError(f"{where}: expected a rational, got {type(value).__name__}")


def _expect_mapping(data: Any, where: str, fields: Collection[str] | None = None) -> Mapping:
    """``data`` if it is an object whose keys all come from ``fields`` (any keys when None)."""
    if not isinstance(data, Mapping):
        raise FormatError(f"{where}: expected an object, got {type(data).__name__}")
    unknown = set(data).difference(fields) if fields is not None else ()
    if unknown:
        raise FormatError(f"{where}: unknown fields {sorted(unknown)}")
    return data


def _parse_poly(text: Any, names: Sequence[str], where: str) -> Poly:
    if not isinstance(text, str):
        raise FormatError(f"{where}: expected a polynomial string")
    with named(where):
        return parse_poly(text, names)


def _parse_key(key: str, rank: int) -> tuple[int, ...]:
    where = f"coeffs key {key!r}"
    if not isinstance(key, str) or not all(ch in "0123456789" for ch in key):
        raise FormatError(f"{where}: keys are digit strings")
    labels = tuple(int(ch) for ch in key)
    if any(a not in FIVE_AXES for a in labels):
        raise FormatError(f"{where}: labels must come from 0,1,2,3,5")
    if list(labels) != sorted(set(labels)):
        raise FormatError(f"{where}: labels must be strictly increasing")
    if len(labels) != rank:
        raise FormatError(f"{where}: has {len(labels)} labels but rank is {rank}")
    return labels


def form_from_dict(data: Any) -> FiveForm:
    data = _expect_mapping(data, "form", ("rank", "coeffs"))
    rank = data.get("rank")
    if not isinstance(rank, int) or isinstance(rank, bool) or not 0 <= rank <= 5:
        raise FormatError("form: rank must be an integer between 0 and 5")
    coeffs = _expect_mapping(data.get("coeffs", {}), "form coeffs")
    out = {}
    for key, text in coeffs.items():
        labels = _parse_key(key, rank)
        out[labels] = _parse_poly(text, COORD_NAMES, f"coeffs[{key!r}]")
    return FiveForm(rank, out)


def bound_pairs(data: Sequence, where: str) -> tuple[tuple[Fraction, Fraction], ...]:
    """Rational [a, b] bound pairs, one per box parameter."""
    box = []
    for k, pair in enumerate(data):
        if not isinstance(pair, Sequence) or isinstance(pair, str) or len(pair) != 2:
            raise FormatError(f"{where}: box[{k}] must be a pair [a, b]")
        a, b = parse_rational(pair[0], f"box[{k}][0]"), parse_rational(pair[1], f"box[{k}][1]")
        if not a < b:
            raise FormatError(f"{where}: box[{k}] must satisfy a < b, got [{a}, {b}]")
        box.append((a, b))
    return tuple(box)


def surface_from_dict(data: Any) -> ParamSurface:
    from fvx.integration import ParamSurface

    data = _expect_mapping(data, "surface", ("dim", "map", "box"))
    dim = data.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or not 0 <= dim <= 4:
        raise FormatError("surface: dim must be an integer between 0 and 4")
    maps = data.get("map")
    if not isinstance(maps, Sequence) or isinstance(maps, str) or len(maps) != 4:
        raise FormatError("surface: map must list four coordinate polynomials")
    names = param_names(dim)
    polys = tuple(_parse_poly(entry, names, f"map[{k}]") for k, entry in enumerate(maps))
    box_data = data.get("box", [])
    if not isinstance(box_data, Sequence) or isinstance(box_data, str) or len(box_data) != dim:
        raise FormatError(f"surface: box must list {dim} bound pairs")
    return ParamSurface(dim, polys, bound_pairs(box_data, "surface"))


# The largest field count N of a Lagrangian file, checked before the 5N
# variable names are built.  `fvx el` grows faster than N^2 (2 CPUs, CPython
# 3.11): N fields x0 x1 with one p{l}_0^2 term each took 3.5-4.6 s at the cap
# and 31 s at N = 300; N = 2,000,000 spent 14 s building names without it.
MAX_FIELDS = 100


def lagrangian_from_dict(data: Any) -> LagrangianSpec:
    from fvx.lagrange import LagrangianSpec, lagrangian_names

    data = _expect_mapping(data, "lagrangian", ("N", "density"))
    n_fields = data.get("N")
    if not isinstance(n_fields, int) or isinstance(n_fields, bool) or n_fields < 1:
        raise FormatError("lagrangian: N must be a positive integer")
    if n_fields > MAX_FIELDS:
        raise FormatError(f"lagrangian: N = {n_fields} above the cap of {MAX_FIELDS}")
    density = _parse_poly(data.get("density"), lagrangian_names(n_fields), "density")
    return LagrangianSpec(n_fields, density)


def fields_from_list(data: Any) -> FieldSet:
    from fvx.lagrange import FieldSet

    if not isinstance(data, Sequence) or isinstance(data, str):
        raise FormatError("fields: expected a list of coordinate polynomials")
    polys = tuple(_parse_poly(entry, COORD_NAMES, f"fields[{k}]") for k, entry in enumerate(data))
    with named("fields"):
        return FieldSet(polys)


def metric_from_dict(data: Any) -> MetricConfig:
    from fvx.metric_dual import MetricConfig

    data = _expect_mapping(data, "cfg", ("g", "xi", "sigma", "eta"))
    kwargs: dict[str, Any] = {}
    if "g" in data:
        g = data["g"]
        if not isinstance(g, Sequence) or isinstance(g, str) or len(g) != 4:
            raise FormatError("cfg: g must list four signs")
        signs = [parse_rational(entry, f"g[{k}]") for k, entry in enumerate(g)]
        if any(sign not in (1, -1) for sign in signs):
            raise FormatError("cfg: g must list four signs")
        kwargs["g"] = tuple(int(sign) for sign in signs)
    if "xi" in data:
        kwargs["xi"] = parse_rational(data["xi"], "xi")
    if "sigma" in data:
        kwargs["sigma"] = parse_rational(data["sigma"], "sigma")
    if "eta" in data:
        kwargs["eta"] = data["eta"]
    with named("cfg"):
        return MetricConfig(**kwargs)


# The budgets of an integral command, checked before any work (exit 2).  An
# integrand is a coefficient's pullback times a frame minor, each of at most
# PULLBACK_TERM_BUDGET terms: x0^200 on the map l1 + l2 + 1 pulls back to
# 20,301 and took seconds.  A product of polynomials of s and t terms costs up
# to s * t monomial products (Johnson, ACM SIGSAM Bull. 8(3), 1974); building
# the minors by cofactors and multiplying each by its pullback may cost
# INTEGRAL_PRODUCT_BUDGET products over the integrals of one command.  As
# children (2 CPUs, CPython 3.11.7), the three commands run at about 0.35 s
# per million products after a 0.15 s start, so the budget admits about
# 0.85 s: `flux` of the volume form on four dense degree-5 maps (1,978,650
# products) runs in 0.8 s, while `integrate` of it where three of the maps
# have degree 6 (2,714,607) took 1.1 s and `flux` of x0^2 on four dense
# degree-4 maps (2,208,080) 1.1 s.
PULLBACK_TERM_BUDGET = 10_000
INTEGRAL_PRODUCT_BUDGET = 2_000_000


def _shape(p: Poly) -> tuple[int, int]:
    return len(p.num), max(map(sum, p.terms), default=0)  # terms, degree


def _pullback_terms(p: Poly, shape: Sequence[tuple[int, int]], nvars: int) -> int:
    """check_pullback's estimate for p along maps of these (terms, degree)."""
    terms = 0
    for expo in p.terms:
        count = 1
        for e, (t, deg) in zip(expo, shape):
            if e:
                count *= min(math.comb(e + t - 1, e), math.comb(e * deg + nvars, nvars))
        terms += count
    return terms


def check_pullback(p: Poly, maps: Sequence[Poly], nvars: int, where: str) -> int:
    """The number of terms the pullback of p along ``maps`` (polynomials in
    ``nvars`` variables) may need; above PULLBACK_TERM_BUDGET, a FormatError.
    Per monomial, a power e of a map with t terms and degree deg has at most
    C(e + t - 1, t - 1) terms (multisets of its terms) and at most
    C(e * deg + nvars, nvars) (monomials of bounded degree); the estimate is
    the sum over the monomials of the product over the variables."""
    terms = _pullback_terms(p, list(map(_shape, maps)), nvars)
    if terms > PULLBACK_TERM_BUDGET:
        raise FormatError(f"{where}: pullback needs about {terms} terms, above {PULLBACK_TERM_BUDGET}")
    return terms


def _minor_terms(rows: Sequence[tuple[int, int]], dim: int) -> int:
    """The terms of a minor over ``rows`` of (degree, terms) in ``dim``
    parameters: at most C(sum of degrees + dim, dim) and at most k! times the
    product of the term counts for k rows."""
    by_degree = math.comb(sum(d for d, _ in rows) + dim, dim)
    return min(by_degree, math.factorial(len(rows)) * math.prod(t for _, t in rows))


def _cofactor_products(rows: Sequence[tuple[int, int]], dim: int) -> int:
    """The monomial products ``integration._poly_det`` makes on ``rows``: the
    minor on each set of rows multiplies each of its rows' entries by the
    minor on the other rows of the set."""
    return sum(
        t * _minor_terms(chosen[:i] + chosen[i + 1 :], dim)
        for k in range(1, len(rows) + 1)
        for chosen in itertools.combinations(rows, k)
        for i, (_, t) in enumerate(chosen)
    )


def check_integral(form: FiveForm, V: ParamSurface, form_path: str, surface_path: str, route: str) -> int:
    """The monomial products that the integrals of ``route`` (``integrate``,
    ``stokes`` or ``flux``) may need on ``form`` over ``V``.  Per pullback
    that ``integration.pullbacks`` lists, per component it keeps and per
    column set: building the frame minor by cofactors, plus the
    coefficient's pullback bound (check_pullback) times the minor's term
    bound.  A minor is the determinant of tangent-frame rows: a map's
    partials, of degree deg - 1 with at most t terms and at most
    C(deg - 1 + dim, dim), or the parameter values, of degree 1 with one
    term.  Every coefficient of ``form`` must be within the pullback budget,
    and every minor of ``dim`` rows within the term budget, kept or not."""
    from fvx import integration as ig

    dim, shape = V.dim, list(map(_shape, V.map))
    partials = [(max(deg - 1, 0), t) for t, deg in shape]
    rows = dict(enumerate((d, min(t, math.comb(d + dim, dim))) for d, t in partials))
    rows[5] = (1, 1)
    minor = max(_minor_terms(chosen, dim) for chosen in itertools.combinations(rows.values(), dim))
    if minor > PULLBACK_TERM_BUDGET:
        raise FormatError(f"{surface_path}: frame minor needs about {minor} terms, above {PULLBACK_TERM_BUDGET}")
    names = {key: f"{form_path}: coeffs[{''.join(map(str, key))!r}]" for key in form.coeffs}
    pulled = {key: check_pullback(coeff, V.map, V.dim, names[key]) for key, coeff in form.coeffs.items()}
    products = 0
    for integrated, frame_rows, column_sets in ig.pullbacks(route, form, V):
        for key, coeff in integrated.coeffs.items():
            labels = frame_rows(key)
            if labels is not None:
                chosen = [rows[axis] for axis in labels]
                terms = _pullback_terms(coeff, shape, dim) * _minor_terms(chosen, dim)
                products += len(column_sets) * (_cofactor_products(chosen, dim) + terms)
    if products > INTEGRAL_PRODUCT_BUDGET:
        worst = names[max(pulled, key=pulled.get)]  # the largest pullback
        message = f"integral needs about {products} products, above {INTEGRAL_PRODUCT_BUDGET}"
        raise FormatError(f"{worst} on {surface_path}: {message}")
    return products


def parse_json(text: str, where: str) -> Any:
    """The JSON value of ``text``; any fault is a FormatError that starts with
    ``where`` (a syntax error names its line and column)."""
    with named(where):  # also an integer literal over the digit limit
        try:
            return json.loads(text)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None


# The largest input file, in bytes.  Reading stops one byte past it, so that
# an endless file such as /dev/zero costs no more.  As children (2 CPUs,
# CPython 3.11.7), a 1 MiB form of 37,537 terms ran `bd` and `d` in 2.2-2.3 s
# and `dual` in 1.1 s, with at most 56 MB resident.
MAX_INPUT_BYTES = 1 << 20


def load_json(path: str) -> Any:
    """The JSON value of the UTF-8 file at ``path``, of at most MAX_INPUT_BYTES."""
    with named(path):  # also a NUL in the path and bytes that do not decode
        try:
            with open(path, "rb") as handle:
                data = handle.read(MAX_INPUT_BYTES + 1)
        except OSError as exc:
            raise ValueError(exc.strerror or exc) from None
        if len(data) > MAX_INPUT_BYTES:
            raise ValueError(f"above {MAX_INPUT_BYTES} bytes")
        text = data.decode()
    return parse_json(text, path)


def _load(path: str, fn):
    """``fn`` of the JSON value of the file at ``path``, its faults named by the path."""
    data = load_json(path)
    with named(path):
        return fn(data)


def box_from_list(data: Any) -> ParamSurface:
    """The identity map of four coordinates over four [a, b] bound pairs."""
    from fvx.integration import ParamSurface

    if not isinstance(data, list) or len(data) != 4:
        raise FormatError("box: expected four [a, b] pairs")
    maps = tuple(Poly.variable(k, 4) for k in range(4))
    return ParamSurface(4, maps, bound_pairs(data, "box"))


def load_form(path: str) -> FiveForm:
    return _load(path, form_from_dict)


def load_surface(path: str) -> ParamSurface:
    return _load(path, surface_from_dict)


def load_box(arg: str) -> ParamSurface:
    """The probe box of ``fvx el --box``: inline JSON when the text starts
    with ``[`` (its errors start with ``box``), else the file at ``arg``."""
    text = arg.strip()
    return box_from_list(parse_json(text, "box")) if text.startswith("[") else _load(arg, box_from_list)


def load_lagrangian(path: str) -> LagrangianSpec:
    return _load(path, lagrangian_from_dict)


def load_fields(path: str) -> FieldSet:
    return _load(path, fields_from_list)


def load_metric(path: str) -> MetricConfig:
    return _load(path, metric_from_dict)
