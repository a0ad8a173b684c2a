"""Surface integrals, boundary orientation and the Stokes identities."""

import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvx import integration as ig
from fvx.calculus import bd, d4, d5
from fvx.forms_core import (
    COORD_AXES,
    FiveForm,
    basis_one_form,
    j_form,
    lift,
    permutation_sign,
    s_from_t,
    wedge,
)
from fvx.integration import (
    ParamSurface,
    boundary_flux,
    by_parts_sides,
    faces,
    five_flux,
    integrate_deg,
    integrate_full_frame,
    integrate_m,
    reparametrized,
    stokes_sides,
)
from fvx.mutations import apply_mutation
from fvx.polyfield import Poly, param_names, parse_poly
from fvx.suites import SuiteConfig, rand_form, rand_poly, rand_surface, run_suite

from formgen import P, five_forms, four_forms, surfaces


def surf(dim, texts, box):
    names = param_names(dim)
    maps = tuple(parse_poly(t, names) for t in texts)
    return ParamSurface(dim, maps, box)


UNIT_SQUARE = surf(2, ["l1", "l2", "0", "0"], [(0, 1), (0, 1)])
X_SEGMENT = surf(1, ["l1", "0", "0", "0"], [(0, 1)])


def unit_cube(dim):
    names = ["l1", "l2", "l3", "l4"][:dim]
    texts = names + ["0"] * (4 - dim)
    return surf(dim, texts, [(0, 1)] * dim)


def test_surface_bounds_become_fractions():
    # A Fraction bound is kept as it is; an int or a rational string is
    # converted, and the box must still be a list of intervals a < b.
    low, high = Fraction(-1, 3), Fraction(2)
    maps = UNIT_SQUARE.map
    box = ParamSurface(2, maps, [(low, high), (0, "5/2")]).box
    assert box[0][0] is low and box[0][1] is high
    assert box[1] == (0, Fraction(5, 2)) and all(type(v) is Fraction for v in box[1])
    with pytest.raises(ValueError, match="a < b"):
        ParamSurface(2, maps, [(high, low), (0, 1)])
    with pytest.raises(ValueError, match="a < b"):
        ParamSurface(2, maps, [(0, 1), (1, Fraction(1))])


# -- plain integrals ---------------------------------------------------------------


def test_integrate_area_form():
    form = wedge(basis_one_form(0), basis_one_form(1))
    assert integrate_m(form, UNIT_SQUARE) == 1


def test_integrate_ignores_label5_components():
    base = wedge(basis_one_form(0), basis_one_form(1))
    noisy = base + P("x1 - 3") * wedge(basis_one_form(2), j_form())
    assert integrate_m(noisy, UNIT_SQUARE) == integrate_m(base, UNIT_SQUARE) == 1


def test_integrate_weighted_area_form():
    form = P("x0") * wedge(basis_one_form(0), basis_one_form(1))
    assert integrate_m(form, UNIT_SQUARE) == Fraction(1, 2)


def test_integrate_rank_mismatch():
    with pytest.raises(ValueError, match="rank"):
        integrate_m(j_form(), UNIT_SQUARE)


def test_integrate_deg_point_contraction():
    point = ParamSurface(0, tuple(Poly.const(c, 0) for c in (2, 0, 0, 0)), ())
    assert integrate_deg(j_form(), point) == 1
    assert integrate_deg(P("x0") * j_form(), point) == 2


def test_integrate_deg_needs_label5():
    form = wedge(basis_one_form(0), basis_one_form(1))
    assert integrate_deg(form, X_SEGMENT) == 0


def test_integrate_deg_segment():
    form = wedge(basis_one_form(0), j_form())
    assert integrate_deg(form, X_SEGMENT) == 1


@given(five_forms(rank=2), surfaces(dim=1))
@settings(max_examples=50, deadline=None)
def test_integrate_deg_matches_stripped_form(t, V):
    assert integrate_deg(t, V) == integrate_m(s_from_t(t), V)


@given(five_forms(rank=2), surfaces(dim=2))
@settings(max_examples=30, deadline=None)
def test_reparametrization_invariance(form, V):
    other = reparametrized(V, [(0, 3), (Fraction(-1, 2), Fraction(1, 2))])
    assert integrate_m(form, V) == integrate_m(form, other)


# -- boundary fluxes ------------------------------------------------------------------


def test_face_signs_one_dimension():
    low, high = faces(X_SEGMENT)
    assert (low.fixed, low.end, low.sign) == (0, "low", -1)
    assert (high.fixed, high.end, high.sign) == (0, "high", 1)


def test_face_map_is_the_restricted_map():
    V = surf(2, ["l1 l2^2", "l2 - l1", "1/2", "l1^2"], [(Fraction(-1, 2), 1), (1, 3)])
    for face in faces(V):
        value = V.box[face.fixed][0 if face.end == "low" else 1]
        subs = [Poly.variable(0, 1), Poly.variable(0, 1)]
        subs[face.fixed] = Poly.const(value, 1)
        W = face.surface()
        assert W.box == V.box[1 - face.fixed : 2 - face.fixed]
        assert W.map == tuple(comp.compose(subs) for comp in V.map)


def test_broken_restrict_fails_the_boundary_identities():
    # Every face integrand goes through Poly.restrict, so its sign must reach
    # the boundary side of the Stokes, flux and by-parts identities.
    with apply_mutation("restrict-sign"):
        report = run_suite(SuiteConfig(seed=0, trials=5, suites=("stokes", "flux")))
    assert {(r.suite, r.identity) for r in report.failures} == {
        ("stokes", "four-vector-stokes"),
        ("stokes", "boundary-interior-five"),
        ("stokes", "boundary-interior-plain"),
        ("flux", "by-parts-bd-left"),
        ("flux", "by-parts-bdstar-left"),
        ("flux", "by-parts-d5"),
        ("flux", "five-flux-routes"),
    }


def test_broken_compose_fails_reparametrization_invariance():
    # Both Stokes sides pull back through compose, so a uniform sign cancels
    # there; the reparametrized integral compares one pullback with another.
    with apply_mutation("compose-sign"):
        report = run_suite(SuiteConfig(seed=0, trials=5, suites=("stokes",)))
    assert ("stokes", "reparametrization-invariance") in {(r.suite, r.identity) for r in report.failures}


def test_boundary_flux_matches_volume_derivative():
    form = P("x0") * basis_one_form(1)
    assert boundary_flux(form, UNIT_SQUARE) == 1
    assert integrate_m(d5(form), UNIT_SQUARE) == 1


def test_boundary_flux_of_constant_form():
    assert boundary_flux(basis_one_form(0), UNIT_SQUARE) == 0


def test_boundary_flux_segment_endpoint_contractions():
    form = P("x0^2") * j_form()
    V = surf(1, ["l1", "0", "0", "0"], [(Fraction(1, 2), 2)])
    assert boundary_flux(form, V) == 4 - Fraction(1, 4)


def test_boundary_flux_rank_incompatible():
    with pytest.raises(ValueError, match="incompatible"):
        boundary_flux(wedge(basis_one_form(0), wedge(basis_one_form(1), j_form())), UNIT_SQUARE)


def face_by_face(form, V):
    """The reference route: each face as a surface of its own."""
    return sum((face.sign * ig.integrate(form, face.surface()) for face in faces(V)), Fraction(0))


def _all_dropped(rng, rank, dim):
    """A form the face rule drops entirely: no label-5 key where the faces
    are frame-completed (rank = dim), only label-5 keys where they are plain."""
    if rank == dim:
        return rand_form(rng, rank, 2, axes=COORD_AXES)
    inner = rand_form(rng, rank - 1, 2, axes=COORD_AXES)
    return FiveForm(rank, {key + (5,): coeff for key, coeff in inner.coeffs.items()})


@pytest.mark.parametrize("dim", range(1, 5))
def test_boundary_flux_matches_the_face_by_face_route(dim):
    rng = random.Random(f"faces:{dim}")
    nonzero = 0
    for _ in range(40):
        V = rand_surface(rng, dim, 2)
        for rank in (dim - 1, dim):
            form = rand_form(rng, rank, 2)
            flux = boundary_flux(form, V)
            assert flux == face_by_face(form, V)
            nonzero += flux != 0
            if rank:
                dropped = _all_dropped(rng, rank, dim)
                assert boundary_flux(dropped, V) == 0 == face_by_face(dropped, V)
    assert nonzero >= 10


def test_boundary_flux_pulls_back_once_per_surface(monkeypatch):
    V = surf(3, ["l1 + l2^2", "l2 - l1 l3", "l3 + l1 l2", "l1 l2 l3 + l3^2"], [(0, 1), (Fraction(-1, 2), 1), (1, 2)])
    plain = FiveForm(2, {(0, 1): P("x0 x2"), (1, 3): P("x1 + 2"), (0, 5): P("x3")})
    completed = FiveForm(3, {(0, 1, 5): P("x2^2"), (2, 3, 5): P("x0 - x1"), (0, 1, 2): P("x3")})
    cases = [(form, face_by_face(form, V)) for form in (plain, completed)]
    calls = {}

    def count(owner, name):
        method = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return method(*args)

        calls[name] = 0
        monkeypatch.setattr(owner, name, counted)

    owners = ((Poly, "compose"), (Poly, "partial"), (ig.OrientedFace, "surface"), (Poly, "restrict"), (ig, "integrate_box"))
    for owner, name in owners:
        count(owner, name)
    for form, reference in cases:
        calls.update(dict.fromkeys(calls, 0))
        assert boundary_flux(form, V) == reference != 0
        # Two of the three components are kept, each pulled back once.
        assert calls["compose"] == 2
        assert calls["partial"] <= 4 * V.dim
        assert calls["surface"] == 0
        # Both faces of a parameter are restricted, and integrated together.
        assert calls["restrict"] == 2 * V.dim
        assert calls["integrate_box"] == V.dim


# -- Stokes, at rank dim - 1 and rank dim -----------------------------------------------


@given(five_forms(rank=1), surfaces(dim=2))
@settings(max_examples=40, deadline=None)
def test_stokes_classic_square(form, V):
    boundary, interior = stokes_sides(form, V)
    assert boundary == interior


@given(five_forms(rank=2), surfaces(dim=2))
@settings(max_examples=40, deadline=None)
def test_stokes_degenerate_variant(form, V):
    boundary, interior = stokes_sides(form, V)
    assert boundary == interior


@given(four_forms(rank=1), surfaces(dim=2))
@settings(max_examples=30, deadline=None)
def test_stokes_reduces_to_coordinate_form(S, V):
    assert boundary_flux(lift(S), V) == integrate_m(lift(d4(S)), V)


def test_stokes_rejects_rank_mismatch():
    # Rank 3 on a 2-surface fits neither rank + 1 = dim nor rank = dim.
    with pytest.raises(ValueError, match="rank incompatible"):
        stokes_sides(FiveForm(3, {(0, 1, 2): P("1")}), UNIT_SQUARE)


# -- the rank picks the integral --------------------------------------------------------


def test_integrate_follows_the_rank():
    area = FiveForm(2, {(0, 1): P("1"), (0, 5): P("1")})
    assert ig.integrate(area, UNIT_SQUARE) == integrate_m(area, UNIT_SQUARE) == 1
    completed = FiveForm(3, {(0, 1, 5): P("x0")})
    assert ig.integrate(completed, UNIT_SQUARE) == integrate_deg(completed, UNIT_SQUARE) == Fraction(1, 2)
    with pytest.raises(ValueError, match="rank must equal surface dimension"):
        ig.integrate(j_form(), UNIT_SQUARE)


def test_integrate_sign_mutation_reaches_the_rank_rule():
    # integrate looks integrate_m up when called, so the patched one runs;
    # integrate_deg is not mutated.
    area = FiveForm(2, {(0, 1): P("1")})
    completed = FiveForm(3, {(0, 1, 5): P("x0")})
    with apply_mutation("integrate-sign"):
        assert ig.integrate(area, UNIT_SQUARE) == -1
        assert ig.integrate(completed, UNIT_SQUARE) == Fraction(1, 2)
    assert ig.integrate(area, UNIT_SQUARE) == 1


# -- five-vector flux ---------------------------------------------------------------------


def test_five_flux_of_j_on_segment():
    assert five_flux(j_form(), X_SEGMENT) == 0
    assert integrate_deg(bd(j_form()), X_SEGMENT) == 0


def test_five_flux_frozen_sign_instance():
    form = P("x0") * basis_one_form(0)
    assert five_flux(form, X_SEGMENT) == Fraction(-1, 2)
    assert integrate_deg(bd(form), X_SEGMENT) == Fraction(-1, 2)


def test_five_flux_coordinate_one_form():
    assert five_flux(basis_one_form(0), X_SEGMENT) == -1
    assert integrate_deg(bd(basis_one_form(0)), X_SEGMENT) == -1


def test_five_flux_depends_on_label5_part():
    form = P("x0") * basis_one_form(0)
    perturbed = form + P("x0") * j_form()
    assert five_flux(form, X_SEGMENT) != five_flux(perturbed, X_SEGMENT)


@given(five_forms(rank=1), surfaces(dim=1))
@settings(max_examples=50, deadline=None)
def test_five_flux_equals_bd_integral_curves(form, V):
    assert five_flux(form, V) == integrate_deg(bd(form), V)


@given(five_forms(rank=2), surfaces(dim=2))
@settings(max_examples=30, deadline=None)
def test_five_flux_equals_bd_integral_squares(form, V):
    assert five_flux(form, V) == integrate_deg(bd(form), V)


# -- integration by parts --------------------------------------------------------------------


@given(five_forms(rank=1))
@settings(max_examples=30, deadline=None)
def test_by_parts_with_unit_right_factor(s):
    V = unit_cube(2)
    lhs, rhs = by_parts_sides(s, FiveForm.from_scalar(1), V, "d5")
    assert lhs == rhs


@given(five_forms(rank=1), five_forms(rank=0), surfaces(dim=2))
@settings(max_examples=30, deadline=None)
def test_by_parts_plain(s, t, V):
    lhs, rhs = by_parts_sides(s, t, V, "d5")
    assert lhs == rhs


@given(five_forms(rank=1), five_forms(rank=1), surfaces(dim=2))
@settings(max_examples=30, deadline=None)
def test_by_parts_five_vector_both_orders(s, t, V):
    for flavor in ("bd_left", "bdstar_left"):
        lhs, rhs = by_parts_sides(s, t, V, flavor)
        assert lhs == rhs, flavor


@pytest.mark.parametrize("flavor", ["d5", "bd_left", "bdstar_left"])
@pytest.mark.parametrize("extra", [0, 1], ids=["rank-eq-dim", "rank-plus-one-eq-dim"])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_by_parts_every_flavor_at_both_ranks(flavor, extra, data):
    # rank(s) + rank(t) + extra = dim: frame-completed integrals at extra 0,
    # plain ones at extra 1, for every pair of derivatives.
    dim = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(0, dim - extra))
    s = data.draw(five_forms(rank=m))
    t = data.draw(five_forms(rank=dim - extra - m))
    lhs, rhs = by_parts_sides(s, t, data.draw(surfaces(dim=dim)), flavor)
    assert lhs == rhs


def test_by_parts_rejects_bad_flavor():
    with pytest.raises(ValueError, match="unknown flavor"):
        by_parts_sides(j_form(), j_form(), UNIT_SQUARE, "sideways")


# -- parametrization-dependent contraction -----------------------------------------------------


def test_full_frame_contraction_is_not_invariant():
    a = integrate_full_frame(j_form(), X_SEGMENT)
    slower = surf(1, ["1/2 l1", "0", "0", "0"], [(0, 2)])
    b = integrate_full_frame(j_form(), slower)
    assert a == Fraction(1, 2)
    assert b == 2
    assert integrate_m(basis_one_form(0), X_SEGMENT) == integrate_m(
        basis_one_form(0), slower
    )


# -- frame minors ---------------------------------------------------------------------------


def leibniz_det(rows, nvars):
    """The determinant as the signed sum over all permutations."""
    total = Poly.zero(nvars)
    for perm in itertools.permutations(range(len(rows))):
        term = Poly.const(permutation_sign(perm), nvars)
        for row, col in zip(rows, perm):
            term = term * row[col]
        total = total + term
    return total


def random_minor_matrix(rng, n):
    """An n x n matrix of polynomials in n variables, as a frame minor is:
    sparse random entries, some forced to zero, and at times one row of
    parameter values, the row that integrate_full_frame puts in."""
    rows = [
        [Poly.zero(n) if rng.random() < 0.3 else rand_poly(rng, n, 2) for _ in range(n)]
        for _ in range(n)
    ]
    if n and rng.random() < 0.5:
        rows[rng.randrange(n)] = [Poly.variable(k, n) for k in range(n)]
    return rows


@pytest.mark.parametrize("n", range(5))
def test_poly_det_matches_leibniz(n):
    rng = random.Random(n)
    for _ in range(60):
        rows = random_minor_matrix(rng, n)
        assert ig._poly_det(rows, n) == leibniz_det(rows, n)


def test_the_check_path_leaves_no_reference_cycles():
    # A cycle would hold its objects, minors among them, until the cyclic
    # collector ran; a recursive closure in _poly_det was one.
    gc.collect()
    gc.disable()
    try:
        run_suite(SuiteConfig(seed=0, trials=5))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dropped_components_build_no_jacobian_row(monkeypatch):
    calls = []
    partial = Poly.partial

    def counted(self, axis):
        calls.append(axis)
        return partial(self, axis)

    monkeypatch.setattr(Poly, "partial", counted)
    labelled = FiveForm(2, {(0, 5): P("x0 + 1"), (1, 5): P("x1"), (2, 5): P("3")})
    assert integrate_m(labelled, UNIT_SQUARE) == 0
    assert calls == []
    assert integrate_deg(FiveForm(2, {(0, 5): P("x0")}), X_SEGMENT) == Fraction(1, 2)
    assert calls == [0]
