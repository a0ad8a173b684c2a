"""Exterior derivatives on the patch and their constructive inverses.

Three derivative operators act on forms over the five labels:

* ``d4``  -- the coordinate exterior derivative of four-label forms;
* ``d5``  -- the same derivative on five-label forms, where no coefficient
  depends on a fifth coordinate, so the label-5 direction contributes
  nothing;
* ``bd`` / ``bdstar`` -- the five-vector derivative and its reflection,
  whose label-5 action on scalars is +f and -f respectively.  In the fixed
  passive regular basis these collapse to d5(t) +/- j ^ t, and both routes
  are implemented independently so the equality stays testable.

The potentials invert closed forms on the star-shaped patch via the cone
construction anchored at the origin, with the label-5 components handled
blockwise the way the closedness equations split.
"""

from __future__ import annotations


from fvx.forms_core import (
    COORD_AXES,
    FIVE_AXES,
    FiveForm,
    FourForm,
    MultiVector,
    _Alternating,
    contract,
    e_part,
    j_form,
    lift,
    merge_sign,
    project,
    s_from_t,
    wedge,
    z_part,
)
from fvx.polyfield import Poly


class NotClosedError(ValueError):
    """Raised when a potential is requested for a non-closed form."""

    def __init__(self, message: str, residual):
        super().__init__(message)
        self.residual = residual


class EDefectError(ValueError):
    """Raised when a rank-1 form has a label-5 obstruction to a potential."""

    def __init__(self, constant: Poly):
        message = "no potential: E-defect"
        if all(not any(e) for e in constant.terms):
            message += f" (constant {constant.as_fraction()})"
        super().__init__(message)
        self.constant = constant


def bullet_partial(f: Poly, axis: int) -> Poly:
    """Directional scalar derivative: coordinate partial, or +f along label 5."""
    if axis == 5:
        return f
    if axis in COORD_AXES:
        return f.partial(axis)
    raise ValueError(f"no basis label {axis}")


def bullet_partial_reflected(f: Poly, axis: int) -> Poly:
    """Reflected variant: the label-5 branch flips sign."""
    return -f if axis == 5 else bullet_partial(f, axis)


def _derivative(t: _Alternating, cls, name: str, scalar_rule) -> _Alternating:
    """Exterior derivative of a ``cls`` form whose scalar action along each
    label is ``scalar_rule(coefficient, axis)``; zero at top rank."""
    if not isinstance(t, cls):
        raise TypeError(f"{name} expects a {cls.__name__}")
    top = len(cls.AXES)
    if t.rank == top:
        return cls.zero(top)
    out: dict[tuple, Poly] = {}
    for key, coeff in t.coeffs.items():
        taken = set(key)
        for axis in t.AXES:
            if axis in taken:
                continue
            value = scalar_rule(coeff, axis)
            if value.is_zero:
                continue
            sign, merged = merge_sign((axis,), key)
            if sign < 0:
                value = -value
            out[merged] = out[merged] + value if merged in out else value
    return cls._new(t.rank + 1, out)


def d4(S: FourForm) -> FourForm:
    return _derivative(S, FourForm, "d4", lambda c, a: c.partial(a))


def d5(t: FiveForm) -> FiveForm:
    rule = lambda c, a: c.partial(a) if a != 5 else Poly.zero(4)
    return _derivative(t, FiveForm, "d5", rule)


def bd(t: FiveForm) -> FiveForm:
    """Five-vector exterior derivative, computed componentwise."""
    return _derivative(t, FiveForm, "bd", bullet_partial)


def bdstar(t: FiveForm) -> FiveForm:
    """Reflected five-vector exterior derivative, computed componentwise."""
    return _derivative(t, FiveForm, "bdstar", bullet_partial_reflected)


def bd_via_d5(t: FiveForm) -> FiveForm:
    """Independent route: d5(t) + j ^ t (identically zero wedge at top rank)."""
    if t.rank == 5:
        return FiveForm.zero(5)
    return d5(t) + wedge(j_form(), t)


def bdstar_via_d5(t: FiveForm) -> FiveForm:
    """Independent route: d5(t) - j ^ t."""
    if t.rank == 5:
        return FiveForm.zero(5)
    return d5(t) - wedge(j_form(), t)


# -- potentials ---------------------------------------------------------------


def _homotopy(S: FourForm) -> FourForm:
    """Cone operator anchored at the origin; inverts d4 on closed forms.

    For a rank-m input, each output component is
        sum_b  x^b * (sign of inserting b) * scale_integrate(S_{sort(b,K)}, m-1),
    the exact integral over the radial scaling parameter.
    """
    m = S.rank
    if m < 1:
        raise ValueError("homotopy needs rank at least 1")
    out: dict[tuple, Poly] = {}
    for key, coeff in S.coeffs.items():
        scaled = coeff.scale_integrate(m - 1)
        for i, beta in enumerate(key):
            rest = key[:i] + key[i + 1 :]
            term = Poly.variable(beta, 4) * scaled
            if merge_sign((beta,), rest)[0] < 0:
                term = -term
            out[rest] = out[rest] + term if rest in out else term
    return FourForm._new(m - 1, out)


def poincare_potential_4(S: FourForm) -> FourForm:
    """T with d4(T) = S, for closed S of rank >= 1."""
    if not isinstance(S, FourForm):
        raise TypeError("poincare_potential_4 expects a FourForm")
    if S.rank < 1:
        raise ValueError("rank must be at least 1")
    residual = d4(S)
    if not residual.is_zero:
        raise NotClosedError("input is not closed", residual)
    return _homotopy(S)


def _plain_potential(s: FiveForm) -> FiveForm:
    """Cone potential of the label-5-free block of s, lifted; a rank-5 form
    has no such block."""
    if s.rank <= 4:
        return lift(_homotopy(project(z_part(s))))
    return FiveForm.zero(4)


def poincare_potential_5(s: FiveForm) -> FiveForm:
    """t with d5(t) = s, for closed s; the two label blocks invert separately.

    The label-5 components of s factor as W ^ j with W free of label 5;
    closedness makes both the plain block and W closed under d4, so the cone
    operator applies to each and the j factor is carried through.
    """
    if not isinstance(s, FiveForm):
        raise TypeError("poincare_potential_5 expects a FiveForm")
    if s.rank < 1:
        raise ValueError("rank must be at least 1")
    if s.rank == 1:
        defect = e_part(s)
        if not defect.is_zero:
            raise EDefectError(defect.coeff((5,)))
    residual = d5(s)
    if not residual.is_zero:
        raise NotClosedError("input is not closed", residual)
    t_plain = _plain_potential(s)
    W = s_from_t(e_part(s))
    if W.is_zero:
        return t_plain
    t_five = wedge(lift(_homotopy(project(W))), j_form())
    return t_plain + t_five


def poincare_potential_bd(s: FiveForm) -> FiveForm:
    """t with bd(t) = s, for bd-closed s, assembled blockwise.

    The plain block of t comes from the cone potential of the plain block of
    s.  Writing the label-5 block of the answer as r ^ j, the remaining
    equation is d5(r) = W with W = (strip of s's label-5 block) + (-1)^m t^Z,
    and W is closed exactly when bd(s) = 0, so the cone operator finishes it.
    At rank 1 the answer is forced to be the label-5 coefficient itself,
    reached here as cone potential plus the constant shift.
    """
    if not isinstance(s, FiveForm):
        raise TypeError("poincare_potential_bd expects a FiveForm")
    m = s.rank
    residual = bd(s)
    if not residual.is_zero:
        raise NotClosedError("input is not closed", residual)
    if m == 0:
        return FiveForm.zero(0)
    t_plain = _plain_potential(s)
    if m == 1:
        t_scalar = t_plain.coeff(())
        shift = s.coeff((5,)) - t_scalar
        return FiveForm.from_scalar(t_scalar + shift)
    W = s_from_t(e_part(s)) + (-1) ** m * t_plain
    if W.is_zero:
        return t_plain
    r = lift(_homotopy(project(W)))
    return t_plain + wedge(r, j_form())


# -- vector fields and the bracket identity -----------------------------------


def bullet_partial_field(f: Poly, u: MultiVector) -> Poly:
    """Derivative of a scalar along a five-vector field: u^a d_a f + u^5 f."""
    if u.rank != 1:
        raise ValueError("field must have rank 1")
    total = Poly.zero(4)
    for (axis,), comp in u.coeffs.items():
        total = total + comp * bullet_partial(f, axis)
    return total


def commutator(u: MultiVector, v: MultiVector) -> MultiVector:
    """Coordinate commutator of five-vector fields.

    All five components transport along the coordinate part only: the label-5
    direction acts on scalars without moving points, so it drops out of the
    bracket.  This is the unique extension under which the pairing identity
    below closes for every polynomial input.
    """
    if u.rank != 1 or v.rank != 1:
        raise ValueError("fields must have rank 1")
    comps: dict[tuple, Poly] = {}
    for target in FIVE_AXES:
        total = Poly.zero(4)
        for alpha in COORD_AXES:
            total = total + u.coeff((alpha,)) * v.coeff((target,)).partial(alpha)
            total = total - v.coeff((alpha,)) * u.coeff((target,)).partial(alpha)
        if not total.is_zero:
            comps[(target,)] = total
    return MultiVector(1, comps)


def bracket_sides(t: FiveForm, u: MultiVector, v: MultiVector) -> tuple[Poly, Poly]:
    """Both sides of the exact pairing identity for bd of a 1-form against a field pair."""
    if t.rank != 1:
        raise ValueError("form must have rank 1")
    left = contract(bd(t), wedge(u, v))
    right = (
        bullet_partial_field(contract(t, v), u)
        - bullet_partial_field(contract(t, u), v)
        - contract(t, commutator(u, v))
    )
    return left, right
