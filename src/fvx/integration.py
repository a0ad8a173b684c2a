"""Exact integrals of forms over polynomial surfaces, and the flux identities.

A surface is a polynomial map from a rational parameter box into the patch.
Pulling a form back along such a map gives a polynomial in the parameters,
so every integral here is an exact rational number and every Stokes-type
identity is a decidable equality.

Two integral types coexist:

* ``integrate_m``    -- rank equals dimension; tangent vectors enter through
  their coordinate parts only, so label-5 components of the form are ignored.
* ``integrate_deg``  -- rank exceeds dimension by one; the tangent frame is
  completed with the distinguished vector **1**, so only label-5 components
  of the form survive.

Boundaries are the oriented faces of the parameter box with the outward
convention: fixing parameter k (0-based) at its upper end carries sign
(-1)^k, the lower end the opposite.  The Stokes checks validate the
convention rather than assuming it.

``boundary_flux`` pulls the form back once per surface.  Restricting a
polynomial to a face is a ring homomorphism that commutes with ``compose``
and with ``partial`` along the other parameters, so a face's integrand is
the parent integrand with the fixed parameter's Jacobian column left out,
restricted to the face's bound (the identity that makes the boundary of a
singular cube the sum of its restricted faces; Spivak, *Calculus on
Manifolds*, ch. 4).  Both faces of a parameter read their integrand off one
polynomial, and since the restricted polynomial is the canonical ``Poly`` of
the face's own pullback, every face value is the same ``Fraction`` as
``integrate(form, face.surface())`` gives.  The two faces of a parameter are
paired: one ``integrate_box`` call takes the difference of their restricted
integrands over the box they share, which is the signed sum of the two face
integrals by linearity.  ``OrientedFace.surface`` is the face-by-face
reference route; the tests compare the two.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from fvx.calculus import bd, bdstar, d5
from fvx.forms_core import FiveForm, wedge
from fvx.polyfield import Poly, RationalLike, Record, format_poly, format_rational, integrate_box, param_names

Interval = tuple[Fraction, Fraction]


def _fraction(value: RationalLike) -> Fraction:
    """``value`` as a Fraction.  A Fraction is returned as it is: ``Fraction(q)``
    would rebuild it past the ``numbers.Rational`` check, and bounds that are
    already exact (draws, reparametrizations, the shrinker's rebuilds) are
    the common case."""
    return value if type(value) is Fraction else Fraction(value)


class ParamSurface(Record):
    """Polynomial map from a rational box into the patch.

    ``dim`` may be 0 (a point, used for the faces of curves); public surfaces
    have dim 1..4.  Map components are polynomials in the parameters.
    """

    __slots__ = ("dim", "map", "box")

    def __init__(self, dim: int, map: tuple[Poly, Poly, Poly, Poly], box: tuple[Interval, ...]):
        if not 0 <= dim <= 4:
            raise ValueError("surface dimension must be between 0 and 4")
        map = tuple(map)
        if len(map) != 4:
            raise ValueError("surface map needs exactly four components")
        for comp in map:
            if not isinstance(comp, Poly) or comp.nvars != dim:
                raise ValueError("map components must be polynomials in the parameters")
        box = tuple((_fraction(a), _fraction(b)) for a, b in box)
        if len(box) != dim:
            raise ValueError("box needs one interval per parameter")
        for a, b in box:
            if not a < b:
                raise ValueError("box intervals must satisfy a < b")
        self._set(dim, map, box)


def surface_to_dict(V: ParamSurface) -> dict:
    """The JSON view that ``io.surface_from_dict`` reads back."""
    names = param_names(V.dim)
    return {
        "dim": V.dim,
        "map": [format_poly(p, names) for p in V.map],
        "box": [[format_rational(a), format_rational(b)] for a, b in V.box],
    }


class OrientedFace(Record):
    """One face of the parameter box, with its induced orientation sign."""

    __slots__ = ("parent", "fixed", "end")

    def __init__(self, parent: ParamSurface, fixed: int, end: str):
        if not 0 <= fixed < parent.dim:
            raise ValueError("fixed parameter index out of range")
        if end not in ("low", "high"):
            raise ValueError("end must be 'low' or 'high'")
        self._set(parent, fixed, end)

    @property
    def sign(self) -> int:
        outward = (-1) ** self.fixed
        return outward if self.end == "high" else -outward

    @property
    def value(self) -> Fraction:
        """The bound the fixed parameter takes on this face."""
        return self.parent.box[self.fixed][0 if self.end == "low" else 1]

    @property
    def box(self) -> tuple[Interval, ...]:
        """The parent box without the fixed parameter's interval."""
        return self.parent.box[: self.fixed] + self.parent.box[self.fixed + 1 :]

    def surface(self) -> ParamSurface:
        """The face as a surface of its own: the reference route that
        ``boundary_flux`` must agree with face by face."""
        new_map = tuple(comp.restrict(self.fixed, self.value) for comp in self.parent.map)
        return ParamSurface(self.parent.dim - 1, new_map, self.box)


def faces(V: ParamSurface) -> list[OrientedFace]:
    if V.dim < 1:
        raise ValueError("a point has no boundary faces")
    return [
        OrientedFace(V, k, end)
        for k in range(V.dim)
        for end in ("low", "high")
    ]


# -- determinants of polynomial matrices ---------------------------------------


def _poly_det(rows: list[list[Poly]], nvars: int) -> Poly:
    """Determinant by cofactor expansion down the columns.  The minor of the
    trailing columns on a set of rows is computed once per row set (a
    bitmask), and zero entries and zero minors are skipped; see Gentleman &
    Johnson, ACM TOMS 2(3), 1976."""
    return _minor(rows, (1 << len(rows)) - 1, {0: Poly.const(1, nvars)}, nvars)


def _minor(rows: list[list[Poly]], mask: int, minors: dict[int, Poly], nvars: int) -> Poly:
    """The minor of ``rows`` on the row set ``mask`` and as many trailing
    columns, kept in ``minors``.  A module function rather than a closure:
    a closure that calls itself is a reference cycle, which would keep every
    minor alive until the cyclic collector runs."""
    if mask not in minors:
        n = len(rows)
        col, total, sign = n - bin(mask).count("1"), Poly.zero(nvars), 1
        for r in (r for r in range(n) if mask >> r & 1):
            rest = mask ^ (1 << r)
            if rows[r][col] and _minor(rows, rest, minors, nvars):
                term = rows[r][col] * minors[rest]
                total = total + term if sign > 0 else total - term
            sign = -sign
        minors[mask] = total
    return minors[mask]


# -- the two integral types ------------------------------------------------------


def _pullback_integrands(form: FiveForm, V: ParamSurface, frame_rows, column_sets) -> list[Poly]:
    """For each set of Jacobian columns, the sum over the kept components of
    the pulled-back coefficient times its frame minor on those columns.
    ``frame_rows(key)`` names the minor's rows for one component key
    (coordinate axes, and 5 for the parameter values), or returns None to
    drop the component.  A row is built the first time a kept key names it,
    and a coefficient is pulled back the first time one of its minors is
    nonzero, once for all the column sets."""
    built: dict[int, list[Poly]] = {}

    def row(axis: int) -> list[Poly]:
        if axis not in built:
            built[axis] = [
                Poly.variable(k, V.dim) if axis == 5 else V.map[axis].partial(k) for k in range(V.dim)
            ]
        return built[axis]

    maps = list(V.map)
    totals = [Poly.zero(V.dim) for _ in column_sets]
    for key, coeff in form.coeffs.items():
        labels = frame_rows(key)
        if labels is None:
            continue
        rows = [row(axis) for axis in labels]
        pulled = None
        for i, columns in enumerate(column_sets):
            minor = _poly_det([[r[c] for c in columns] for r in rows], V.dim)
            if minor.is_zero:
                continue
            if pulled is None:
                pulled = coeff.compose(maps)
            totals[i] = totals[i] + pulled * minor
    return totals


def _pullback_integral(form: FiveForm, V: ParamSurface, frame_rows) -> Fraction:
    """Integral over the box of each pulled-back coefficient times its full
    frame minor."""
    (integrand,) = _pullback_integrands(form, V, frame_rows, [range(V.dim)])
    return integrate_box(integrand, V.box)


def _plain_rows(key: tuple) -> tuple | None:
    """The plain integral's minor: the key's coordinate rows; label-5
    components drop."""
    return None if 5 in key else key


def _completed_rows(key: tuple) -> tuple | None:
    """The frame-completed integral's minor: only label-5 components count,
    and **1** fills their label-5 slot, so the rows are the rest of the key."""
    return key[:-1] if key[-1] == 5 else None


def _volume(form: FiveForm, V: ParamSurface) -> tuple:
    """The frame rows and column sets of ``integrate``'s pullback: frame-completed
    at rank dim + 1, plain otherwise, on all the columns."""
    return _completed_rows if form.rank == V.dim + 1 else _plain_rows, [range(V.dim)]


def _boundary(form: FiveForm, V: ParamSurface) -> tuple:
    """The frame rows and column sets of ``boundary_flux``'s pullback:
    frame-completed at rank dim, plain otherwise, on the columns of each
    parameter's faces."""
    columns = [[c for c in range(V.dim) if c != k] for k in range(V.dim)]
    return _completed_rows if form.rank == V.dim else _plain_rows, columns


def pullbacks(route: str, form: FiveForm, V: ParamSurface) -> list[tuple]:
    """The ``_pullback_integrands`` calls that ``integrate``, ``stokes_sides``
    (route ``stokes``) or ``flux_sides`` (route ``flux``) make on ``form`` and
    ``V``, each as (form, frame_rows, column sets): the cost model of
    ``io.check_integral`` reads them.  None where the rank does not fit, as
    the route then raises before any work."""
    m, rank = V.dim, form.rank
    if route == "integrate":
        return [(form, *_volume(form, V))] if rank in (m, m + 1) else []
    if route == "stokes" and m and rank in (m - 1, m):
        volumes = [d5(form)]
    elif route == "flux" and m and rank == m:
        volumes = [form, bd(form)]
    else:
        return []
    return [(form, *_boundary(form, V))] + [(f, *_volume(f, V)) for f in volumes]


def integrate_m(form: FiveForm, V: ParamSurface) -> Fraction:
    """Integral of a rank-m form over an m-surface; label-5 components drop."""
    if not isinstance(form, FiveForm):
        raise TypeError("integrate_m expects a FiveForm")
    if form.rank != V.dim:
        raise ValueError("rank must equal surface dimension")
    return _pullback_integral(form, V, _plain_rows)


def integrate_deg(form: FiveForm, V: ParamSurface) -> Fraction:
    """Integral of a rank-(m+1) form over an m-surface with the frame
    completed by **1**; only label-5 components contribute."""
    if not isinstance(form, FiveForm):
        raise TypeError("integrate_deg expects a FiveForm")
    if form.rank != V.dim + 1:
        raise ValueError("rank must exceed surface dimension by one")
    return _pullback_integral(form, V, _completed_rows)


def integrate(form: FiveForm, V: ParamSurface) -> Fraction:
    """The integral the rank picks: frame-completed when rank = dim + 1,
    plain otherwise (which refuses any rank but dim).  Both names are looked
    up at call time, so a patched ``integrate_m`` is the one called."""
    if isinstance(form, FiveForm) and form.rank == V.dim + 1:
        return integrate_deg(form, V)
    return integrate_m(form, V)


def integrate_full_frame(form: FiveForm, V: ParamSurface) -> Fraction:
    """Contraction with the bare tangent frame, no completion by **1**.

    The label-5 row of the frame is the parameter value itself, so this
    number depends on the parametrization; it exists to demonstrate that
    dependence, not to define an invariant.
    """
    if not isinstance(form, FiveForm):
        raise TypeError("integrate_full_frame expects a FiveForm")
    if form.rank != V.dim:
        raise ValueError("rank must equal surface dimension")
    return _pullback_integral(form, V, lambda key: key)


# -- boundary fluxes and the integral identities ----------------------------------


def boundary_flux(form: FiveForm, V: ParamSurface) -> Fraction:
    """Oriented sum of face integrals; the integral type follows the rank
    (frame-completed when rank = dim, plain when rank = dim - 1).

    Restriction commutes with pulling back, so the integrand of each face
    fixing parameter k is the integrand on V with Jacobian column k left
    out, restricted to the face's bound: one pullback for both faces of k.
    The two faces of k share their box and have opposite signs, so by
    linearity one box integral of the high face's integrand minus the low
    face's, times the high face's sign, is their sum.
    """
    if V.dim < 1:
        raise ValueError("surface has no boundary")
    if form.rank not in (V.dim - 1, V.dim):
        raise ValueError("rank incompatible with boundary flux")
    integrands = _pullback_integrands(form, V, *_boundary(form, V))
    total = Fraction(0)
    pairs = faces(V)
    for low, high in zip(pairs[::2], pairs[1::2]):
        k, integrand = high.fixed, integrands[high.fixed]
        paired = integrand.restrict(k, high.value) - integrand.restrict(k, low.value)
        total += high.sign * integrate_box(paired, high.box)
    return total


def stokes_sides(form: FiveForm, V: ParamSurface) -> tuple[Fraction, Fraction]:
    """The boundary integral and the volume integral of the derivative.

    With rank + 1 = dim both sides are plain integrals; with rank = dim both
    are frame-completed.
    """
    return boundary_flux(form, V), integrate(d5(form), V)


def five_flux(form: FiveForm, V: ParamSurface) -> Fraction:
    """Boundary flux plus signed volume term; equals the integral of bd(form)."""
    if form.rank != V.dim:
        raise ValueError("rank must equal surface dimension")
    return boundary_flux(form, V) + (-1) ** form.rank * integrate_m(form, V)


def flux_sides(form: FiveForm, V: ParamSurface) -> tuple[Fraction, Fraction]:
    """The five-vector flux by both routes: boundary plus interior, and the
    frame-completed integral of bd(form)."""
    return five_flux(form, V), integrate_deg(bd(form), V)


def by_parts_sides(
    s: FiveForm, t: FiveForm, V: ParamSurface, flavor: str
) -> tuple[Fraction, Fraction]:
    """Both sides of integration by parts, each integral computed independently.

    The flavor names the derivative pair: ``d5`` on both factors, ``bd_left``
    bd on the left and bdstar on the right, ``bdstar_left`` the swap.  The
    integral type follows the rank, so each flavor holds at rank(s) + rank(t)
    + 1 = dim (plain) and at rank(s) + rank(t) = dim (frame-completed).
    """
    # Built per call, so a patched derivative is the one used.
    pairs = {"d5": (d5, d5), "bd_left": (bd, bdstar), "bdstar_left": (bdstar, bd)}
    if flavor not in pairs:
        raise ValueError(f"unknown flavor {flavor!r}")
    first, second = pairs[flavor]
    lhs = integrate(wedge(first(s), t), V)
    return lhs, boundary_flux(wedge(s, t), V) - (-1) ** s.rank * integrate(wedge(s, second(t)), V)


def reparametrized(V: ParamSurface, new_box: Sequence[Sequence[RationalLike]]) -> ParamSurface:
    """Same surface over a different box via increasing affine changes."""
    new_box = tuple((Fraction(a), Fraction(b)) for a, b in new_box)
    if len(new_box) != V.dim:
        raise ValueError("box needs one interval per parameter")
    subs: list[Poly] = []
    for k, ((a, b), (c, d)) in enumerate(zip(V.box, new_box)):
        if not c < d:
            raise ValueError("box intervals must satisfy a < b")
        scale = (b - a) / (d - c)
        shift = a - scale * c
        subs.append(scale * Poly.variable(k, V.dim) + Poly.const(shift, V.dim))
    new_map = tuple(comp.compose(subs) for comp in V.map)
    return ParamSurface(V.dim, new_map, new_box)
