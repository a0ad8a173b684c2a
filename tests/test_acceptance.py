"""Acceptance gate: every release requirement, one verdict line each.

Each test prints ``[criterion NN] PASS/FAIL`` through the capture guard so
the verdicts stay visible in normal pytest runs.  All equalities are exact;
there are no tolerances anywhere in this file.
"""

import itertools
import random
import shutil
import subprocess
import time
from fractions import Fraction

from fvx import calculus as ca
from fvx import forms_core as fc
from fvx import integration as ig
from fvx import lagrange as lg
from fvx import metric_dual as md
from fvx import mutations as mu
from fvx import suites as su
from fvx.forms_core import FiveForm, FourForm
from fvx.integration import ParamSurface
from fvx.metric_dual import MetricConfig
from fvx.polyfield import Poly, parse_poly
from fvx.suites import (
    rand_fields,
    rand_form,
    rand_fraction,
    rand_lagrangian,
    rand_poly,
    rand_surface,
)
from fvx.suites.appendix import conforming_array, divergence_sides
from fvx.suites.duality import hodge4

from children import child_env, run_python
from formgen import P, contraction_pairs

ONE = FiveForm.from_scalar(1)


def verdict(capsys, number: int, label: str, fn):
    ok = False
    try:
        ok = bool(fn())
    finally:
        with capsys.disabled():
            print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} {label}")
    assert ok, f"criterion {number} failed: {label}"


# -- 1: nilpotency -----------------------------------------------------------------


def test_criterion_01_nilpotency(capsys):
    def run():
        rng = random.Random("acceptance:1")
        start = time.monotonic()
        for k in range(200):
            S = rand_form(rng, k % 5, 3, cls=FourForm, axes=fc.COORD_AXES)
            if not ca.d4(ca.d4(S)).is_zero:
                return False
        for op in (ca.d5, ca.bd, ca.bdstar):
            for k in range(200):
                t = rand_form(rng, k % 6, 3)
                if not op(op(t)).is_zero:
                    return False
        return time.monotonic() - start < 30

    verdict(capsys, 1, "nilpotency of all four derivatives (200 per operator, <30 s)", run)


# -- 2: structure identities ----------------------------------------------------------


def test_criterion_02_structure_identities(capsys):
    def run():
        rng = random.Random("acceptance:2")
        j = fc.j_form()
        for k in range(100):
            t = rand_form(rng, k % 5, 3)
            if ca.bd(t) != ca.d5(t) + fc.wedge(j, t):
                return False
            if ca.bdstar(t) != ca.d5(t) - fc.wedge(j, t):
                return False
        for _ in range(100):
            if ca.bd(ONE) != j or ca.bd(ONE) != fc.basis_one_form(5):
                return False
        for k in range(100):
            axis = fc.FIVE_AXES[k % 5]
            o_axis = fc.basis_one_form(axis)
            if ca.bd(o_axis) - fc.wedge(ca.bd(ONE), o_axis) != FiveForm.zero(2):
                return False
        return True

    verdict(capsys, 2, "derivative structure and basis identities (100 each)", run)


# -- 3: Leibniz rules --------------------------------------------------------------------


def test_criterion_03_leibniz_rules(capsys):
    def run():
        rng = random.Random("acceptance:3")
        j = fc.j_form()
        for _ in range(100):
            ra = rng.randint(0, 3)
            rb = rng.randint(0, 3 - ra)
            s = rand_form(rng, ra, 3, cls=FourForm, axes=fc.COORD_AXES)
            t = rand_form(rng, rb, 3, cls=FourForm, axes=fc.COORD_AXES)
            sign = (-1) ** s.rank
            if ca.d4(fc.wedge(s, t)) != fc.wedge(ca.d4(s), t) + fc.wedge(s, ca.d4(t)) * sign:
                return False
        for _ in range(100):
            ra = rng.randint(0, 4)
            rb = rng.randint(0, 4 - ra)
            s = rand_form(rng, ra, 3)
            t = rand_form(rng, rb, 3)
            sign = (-1) ** s.rank
            st = fc.wedge(s, t)
            if ca.d5(st) != fc.wedge(ca.d5(s), t) + fc.wedge(s, ca.d5(t)) * sign:
                return False
            if ca.bd(st) != fc.wedge(ca.bd(s), t) + fc.wedge(s, ca.bd(t)) * sign - fc.wedge(j, st):
                return False
            mixed = fc.wedge(ca.bd(s), t) + fc.wedge(s, ca.bdstar(t)) * sign
            reflected = fc.wedge(ca.bdstar(s), t) + fc.wedge(s, ca.bd(t)) * sign
            if ca.d5(st) != mixed or ca.d5(st) != reflected:
                return False
        return True

    verdict(capsys, 3, "Leibniz family, five rules (100 pairs each)", run)


# -- 4: boundary versus interior -----------------------------------------------------------


def test_criterion_04_stokes_suite(capsys):
    def run():
        rng = random.Random("acceptance:4")
        start = time.monotonic()
        for dim in range(1, 5):
            for _ in range(50):
                t = rand_form(rng, dim - 1, 3)
                V = rand_surface(rng, dim, 3)
                boundary, interior = ig.stokes_sides(t, V)
                if boundary != interior:
                    return False
            for _ in range(50):
                t = rand_form(rng, dim, 3)
                V = rand_surface(rng, dim, 3)
                boundary, interior = ig.stokes_sides(t, V)
                if boundary != interior:
                    return False
            for _ in range(50):
                S = rand_form(rng, dim - 1, 3, cls=FourForm, axes=fc.COORD_AXES)
                V = rand_surface(rng, dim, 3)
                boundary = Fraction(0)
                for face in ig.faces(V):
                    boundary += face.sign * ig.integrate_m(fc.lift(S), face.surface())
                if boundary != ig.integrate_m(fc.lift(ca.d4(S)), V):
                    return False
        return time.monotonic() - start < 60

    verdict(capsys, 4, "boundary/interior identities at rank dim - 1 and dim and the plain route (50 per dimension and rank, <60 s)", run)


# -- 5: five-vector flux ----------------------------------------------------------------------


def test_criterion_05_flux_routes(capsys):
    def run():
        rng = random.Random("acceptance:5")
        for dim in range(1, 5):
            for _ in range(50):
                t = rand_form(rng, dim, 3)
                V = rand_surface(rng, dim, 3)
                if ig.five_flux(t, V) != ig.integrate_deg(ca.bd(t), V):
                    return False
        for flavor, shift in (("d5", 1), ("bd_left", 0), ("bdstar_left", 0)):
            for _ in range(50):
                dim = rng.randint(1, 4)
                m = rng.randint(0, dim - shift)
                n = dim - shift - m
                s = rand_form(rng, m, 3)
                t = rand_form(rng, n, 3)
                V = rand_surface(rng, dim, 3)
                lhs, rhs = ig.by_parts_sides(s, t, V, flavor)
                if lhs != rhs:
                    return False
        return True

    verdict(capsys, 5, "flux route equality (50 per dimension) and by-parts checks (50 per flavor)", run)


# -- 6: potentials ------------------------------------------------------------------------------


def test_criterion_06_poincare_constructions(capsys):
    def run():
        rng = random.Random("acceptance:6")
        for source_rank in range(4):
            for _ in range(25):
                s = ca.d4(rand_form(rng, source_rank, 3, cls=FourForm, axes=fc.COORD_AXES))
                if ca.d4(ca.poincare_potential_4(s)) != s:
                    return False
        for source_rank in range(1, 5):
            for _ in range(25):
                s = ca.d5(rand_form(rng, source_rank, 3))
                if ca.d5(ca.poincare_potential_5(s)) != s:
                    return False
        # rank-1 sources live in the coordinate block alone
        for _ in range(25):
            s = ca.d5(FiveForm.from_scalar(rand_poly(rng, 4, 3)))
            if ca.d5(ca.poincare_potential_5(s)) != s:
                return False
        for source_rank in range(5):
            for _ in range(25):
                s = ca.bd(rand_form(rng, source_rank, 3))
                if ca.bd(ca.poincare_potential_bd(s)) != s:
                    return False
        # rank-1 recovery keeps the constant part of the potential
        for _ in range(25):
            t = FiveForm.from_scalar(rand_poly(rng, 4, 3) + Poly.const(rand_fraction(rng), 4))
            s = ca.bd(t)
            if ca.poincare_potential_bd(s) != t:
                return False
        if ca.poincare_potential_bd(FiveForm.zero(0)) != FiveForm.zero(0):
            return False
        # a constant label-5 component admits no coordinate potential
        for _ in range(25):
            c = rand_fraction(rng)
            if c == 0:
                continue
            blocked = ca.d5(FiveForm.from_scalar(rand_poly(rng, 4, 3))) + fc.j_form() * c
            try:
                ca.poincare_potential_5(blocked)
            except ca.EDefectError as exc:
                if exc.constant != Poly.const(c, 4):
                    return False
            else:
                return False
        return True

    verdict(capsys, 6, "potential constructions for all three derivatives, all rank branches, and the obstruction constant", run)


# -- 7: duality ------------------------------------------------------------------------------------


def test_criterion_07_duality(capsys):
    def run():
        rng = random.Random("acceptance:7")
        orthonormal = MetricConfig(g=(1, 1, 1, 1), xi=Fraction(1), sigma=Fraction(1), eta=1)
        if md.epsilon_lower(orthonormal)[(0, 1, 2, 3, 5)] != 1:
            return False
        lorentz = MetricConfig()
        flipped = MetricConfig(xi=Fraction(1))
        for cfg in (lorentz, flipped):
            sign_xi = 1 if cfg.xi > 0 else -1
            lower = md.epsilon_lower(cfg)
            upper = md.epsilon_upper(lower, cfg)
            total = sum(
                upper[idx] * lower[idx]
                for idx in itertools.product(fc.FIVE_AXES, repeat=5)
            )
            if total != -120 * sign_xi:
                return False
            for m in range(6):
                sides = (md.contraction_sides(A, B, upper, lower, cfg) for A, B in contraction_pairs(m))
                if any(summed != expected for summed, expected in sides):
                    return False
            for rank in range(6):
                for _ in range(25):
                    t = rand_form(rng, rank, 3)
                    if md.dual(md.dual(t, cfg), cfg) != t * (-sign_xi):
                        return False
        for _ in range(100):
            rank = rng.randint(0, 5)
            s = rand_form(rng, rank, 3)
            t = rand_form(rng, rank, 3)
            paired = md.epsilon_five_form(lorentz) * md.h_inner(s, t, lorentz)
            if fc.wedge(s, md.dual(t, lorentz)) != paired:
                return False
            if fc.wedge(md.dual(s, lorentz), t) != paired:
                return False
        for key in itertools.combinations(range(4), 2):
            basis = FiveForm(2, {key: Poly.const(1, 4)})
            if md.dual2_zfree(basis, lorentz) != fc.lift(hodge4(fc.project(basis), lorentz)):
                return False
        for _ in range(50):
            w = rand_form(rng, 2, 3, axes=fc.COORD_AXES)
            if md.dual2_zfree(w, lorentz) != fc.lift(hodge4(fc.project(w), lorentz)):
                return False
        return True

    verdict(capsys, 7, "orientation reference, contraction identities, involution, pairing (100), and the plain-block Hodge oracle (6 basis + 50 random)", run)


# -- 8: field equations -------------------------------------------------------------------------------


def test_criterion_08_euler_lagrange(capsys):
    def current_matches(L, phi):
        return lg.check_51(lg.J_form(L, phi, 0), lg.K_form(L, phi, 0))

    def closed(L, phi):
        return lg.check_55(lg.Lambda_form(L, phi, 0))

    def run():
        wave = lg.LagrangianSpec(
            1,
            parse_poly(
                "1/2 p0_0^2 - 1/2 p0_1^2 - 1/2 p0_2^2 - 1/2 p0_3^2",
                lg.lagrangian_names(1),
            ),
        )
        solution = lg.FieldSet((P("x0 x1"),))
        box = lg.unit_probe_box()
        if not (
            current_matches(wave, solution)
            and closed(wave, solution)
            and ig.five_flux(lg.Lambda_form(wave, solution, 0), box) == 0
        ):
            return False
        off = lg.FieldSet((P("x0^2"),))
        if current_matches(wave, off) or closed(wave, off):
            return False
        # each defect is exactly twice the respective unit volume quantity
        volume_form_4 = FourForm(4, {(0, 1, 2, 3): Poly.const(1, 4)})
        if ca.d4(lg.J_form(wave, off, 0)) - lg.K_form(wave, off, 0) != volume_form_4 * 2:
            return False
        volume_form_5 = FiveForm(5, {(0, 1, 2, 3, 5): Poly.const(1, 4)})
        if ca.bd(lg.Lambda_form(wave, off, 0)) != volume_form_5 * 2:
            return False
        if ca.bdstar(lg.Lambda_star_form(lg.Lambda_form(wave, off, 0))) != volume_form_5 * 2:
            return False
        if ig.five_flux(lg.Lambda_form(wave, off, 0), box) != 2:
            return False
        rng = random.Random("acceptance:8")
        for _ in range(50):
            L = rand_lagrangian(rng, 1, 3)
            phi = rand_fields(rng, 1, 3)
            solved = lg.el_residual(L, phi, 0).is_zero
            if current_matches(L, phi) is not solved or closed(L, phi) is not solved:
                return False
        return True

    verdict(capsys, 8, "field-equation checks agree on and off shell, with the exact doubled defect (50 random pairs)", run)


# -- 9: index gymnastics -------------------------------------------------------------------------------


def test_criterion_09_transposition_identity(capsys):
    def run():
        rng = random.Random("acceptance:9")
        for m in range(2, 6):
            for _ in range(20):
                weights = tuple(rand_fraction(rng) for _ in range(m))
                if not fc.transposition_identity_check(conforming_array(weights), m):
                    return False
        for _ in range(20):
            weights = [rand_poly(rng, 4, 2) for _ in range(4)]
            probes = [tuple(rng.sample(range(4), 4)), tuple(rng.choice(range(4)) for _ in range(4))]
            if any(lhs != rhs for lhs, rhs in divergence_sides(weights, probes, fc.COORD_AXES)):
                return False
        for _ in range(20):
            weights = [rand_poly(rng, 4, 2) for _ in range(5)]
            probes = [
                tuple(rng.sample(fc.FIVE_AXES, 5)),
                tuple(rng.choice(fc.FIVE_AXES) for _ in range(5)),
            ]
            if any(lhs != rhs for lhs, rhs in divergence_sides(weights, probes, fc.FIVE_AXES)):
                return False
        return True

    verdict(capsys, 9, "index transposition identity (20 arrays per arity) and both divergence-contraction readings", run)


# -- 10: parametrization -------------------------------------------------------------------------------


def test_criterion_10_parametrization(capsys):
    def run():
        rng = random.Random("acceptance:10")
        for _ in range(50):
            dim = rng.randint(1, 4)
            t = rand_form(rng, dim, 3)
            V = rand_surface(rng, dim, 3)
            target = su.rand_box(rng, dim)
            if ig.integrate_m(t, V) != ig.integrate_m(t, ig.reparametrized(V, target)):
                return False
        # the same segment traced at unit and double speed
        zero = Poly.zero(1)
        slow = ParamSurface(1, (Poly.variable(0, 1), zero, zero, zero), ((Fraction(0), Fraction(1)),))
        fast = ParamSurface(
            1,
            (Poly.variable(0, 1) * 2, zero, zero, zero),
            ((Fraction(0), Fraction(1, 2)),),
        )
        plain = FiveForm(1, {(0,): P("x0")})
        if ig.integrate_m(plain, slow) != Fraction(1, 2):
            return False
        if ig.integrate_m(plain, fast) != Fraction(1, 2):
            return False
        full = fc.j_form()
        left = ig.integrate_full_frame(full, slow)
        right = ig.integrate_full_frame(full, fast)
        return left == Fraction(1, 2) and right == Fraction(1, 8) and left != right

    verdict(capsys, 10, "affine reparametrization invariance (50) and the explicit full-frame dependence example", run)


# -- 11: end to end -------------------------------------------------------------------------------------


def test_criterion_11_end_to_end(capsys):
    def run():
        installed = shutil.which("fvx")
        start = time.monotonic()
        if installed:
            result = subprocess.run([installed, "check"], capture_output=True, text=True, env=child_env())
        else:
            result = run_python("-m", "fvx.cli", "check")
        elapsed = time.monotonic() - start
        if result.returncode != 0 or elapsed >= 180:
            return False
        if "0 failures" not in result.stdout:
            return False
        for mutation in mu.MUTATIONS:
            suite, _ = mutation.caught_by
            with mu.apply_mutation(mutation.name):
                report = su.run_suite(su.SuiteConfig(seed=0, trials=25, suites=(suite,)))
            if mutation.caught_by not in {(r.suite, r.identity) for r in report.failures}:
                return False
        return True

    verdict(capsys, 11, "checker exits clean in under 3 minutes and every sign mutation is caught", run)
