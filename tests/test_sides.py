"""The comparison protocol: identities yield their sides, one rule decides.

Every identity yields the ``(lhs, rhs)`` pairs it equates, and
``Identity.holds`` is the one pass/fail rule.  With the sides visible, a
comparison of zero against zero shows: such an instance passes whatever
the routes compute.  The census below counts, per identity, the instances
where every pair is zero on both sides, and pins the counts as ceilings so
that they can only fall.

To print the census table (seed 0, 25 trials, as ``fvx check`` runs it):

    PYTHONPATH=src python tests/test_sides.py
"""

import itertools
import math
import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from fvx import suites as su
from fvx.calculus import bullet_partial
from fvx.forms_core import COORD_AXES, FIVE_AXES, permutation_sign
from fvx.polyfield import Poly, parse_poly
from fvx.suites import Identity, SuiteConfig
from fvx.suites import appendix as appendix_suite
from fvx.suites import flux as flux_suite

from formgen import P, small_polys

# The nilpotency identities state a zero right side; their count says how
# often the left side is zero too, which is no defect.
NILPOTENT = {"d4-nilpotent", "d5-nilpotent", "bd-nilpotent", "bdstar-nilpotent"}

# Identities whose pairs are verdicts of a library check against the
# expected verdict, not two computed values; a bool is never zero.
BOOL_PAIRS = {
    "three-way-equivalence",
    "transposition-identity",
}

# Vacuous instances per identity at seed 0 and 25 trials, as measured when
# the identity began to yield its sides.  A generator fix lowers a ceiling; no
# ceiling may be raised.
VACUOUS_CEILINGS = {
    "wedge-unit": 0,
    "wedge-graded-commutativity": 12,
    "wedge-associativity": 12,
    "block-split": 5,
    "label-five-transfer": 1,
    "bd-unit": 0,
    "bd-from-d5": 0,
    "bdstar-from-d5": 0,
    "reflection-gap": 11,
    "basis-derivative": 0,
    "leibniz-d4": 13,
    "leibniz-d5": 12,
    "leibniz-bd": 7,
    "leibniz-mixed": 12,
    "potential-d4": 0,
    "potential-d5": 8,
    "potential-bd": 9,
    "bracket-pairing": 18,
    "boundary-interior-plain": 15,
    "boundary-interior-five": 13,
    "four-vector-stokes": 9,
    "reparametrization-invariance": 16,
    "five-flux-routes": 0,
    "by-parts-d5": 18,
    "by-parts-bd-left": 17,
    "by-parts-bdstar-left": 15,
    "epsilon-reference": 0,
    "epsilon-contraction": 18,
    "theta-roundtrip": 7,
    "dual-involution": 5,
    "wedge-dual-pairing": 0,
    "zfree-hodge": 4,
    "bd-lambda-residual": 0,
    "el-flux-route": 25,
    "divergence-contraction-4": 6,
    "divergence-contraction-5": 2,
}


def is_zero(value) -> bool:
    """Zero for the exact values the identities compare: a Poly, a form, a
    Fraction or an int.  A bool verdict is never zero."""
    return not isinstance(value, bool) and not value


def vacuity_census(seed: int = 0, trials: int = 25) -> dict[str, int]:
    """Per identity, the number of instances ``run_suite`` draws at which
    every pair the identity yields is zero on both sides."""
    cfg = SuiteConfig(seed=seed, trials=trials)
    counts: dict[str, int] = {}
    for _, ident, _, inst in su.draws(cfg):
        vacuous = all(is_zero(lhs) and is_zero(rhs) for lhs, rhs in ident.sides(inst, cfg))
        counts[ident.name] = counts.get(ident.name, 0) + vacuous
    return counts


def test_every_identity_yields_a_pair():
    cfg = SuiteConfig(trials=1)
    for suite, ident, _, inst in su.draws(cfg):
        pairs = list(ident.sides(inst, cfg))
        assert pairs, f"{suite}/{ident.name} yields no pair"
        assert all(len(pair) == 2 for pair in pairs), f"{suite}/{ident.name}"


def test_a_differing_pair_ends_the_comparison():
    """The first pair differs and the second raises: the verdict is a
    failure with a shrunk counterexample, because the second pair is never
    computed.  An eager comparison would report ``raised RuntimeError``."""
    p = parse_poly("x0 + x1", ("x0", "x1", "x2", "x3"))

    def sides(i, cfg):
        yield i["p"], Poly.zero(4)
        raise RuntimeError("the pair after a differing one was computed")

    stub = Identity("stub", lambda rng, cfg: {"p": p}, sides)
    cfg = SuiteConfig(trials=1)
    assert not stub.holds({"p": p}, cfg)
    passed, counterexample = su.run_single(stub, {"p": p}, cfg)
    assert not passed
    # Shrinking drops x1, then stops: without x0 the first pair is equal and
    # the second raises, which the shrinker counts as no longer failing.
    assert counterexample == "p=x0"


def reference_divergence_sides(weights, probes, labels):
    """Both sides as the literal sums state them: S and the contraction T as
    polynomials, and one T and one derivative per signed reordering of the
    probe, with every sign ranked by permutation_sign."""
    n = len(labels)

    def S(h, key):
        return weights[labels.index(h)] * permutation_sign(key)

    def T(key):
        total = Poly.zero(4)
        for h in labels:
            total = total + S(h, (h,) + key)
        return total

    for idx in probes:
        lhs = Poly.zero(4)
        for h in labels:
            lhs = lhs + bullet_partial(S(h, idx), h)
        rhs = Poly.zero(4)
        for perm in itertools.permutations(range(n)):
            reordered = tuple(idx[p] for p in perm)
            rhs = rhs + bullet_partial(T(reordered[1:]), reordered[0]) * permutation_sign(perm)
        yield lhs * Fraction(1, math.factorial(n)), rhs * Fraction(1, math.factorial(n - 1) * math.factorial(n))


def _probes(labels):
    n = len(labels)
    distinct = st.permutations(labels).map(tuple)
    repeated = st.lists(st.sampled_from(labels), min_size=n, max_size=n).map(tuple)
    return st.lists(st.one_of(distinct, repeated), min_size=1, max_size=3)


_divergence_cases = st.sampled_from((COORD_AXES, FIVE_AXES)).flatmap(
    lambda labels: st.tuples(
        st.just(labels),
        st.lists(small_polys, min_size=len(labels), max_size=len(labels)),
        _probes(labels),
    )
)


@settings(max_examples=25, deadline=None)
@given(_divergence_cases)
@example((FIVE_AXES, [P("x0 x1"), P("x2"), P("1/2"), P("x3^2"), P("x0 - 3")], [(5, 0, 5, 1, 2)]))
# n = 4 and 5, each with a probe of distinct labels and one with repeats.
@example((COORD_AXES, [P("x0 x1 - 2"), P("x2^2"), P("1/3 x3"), P("x1 x3")], [(3, 1, 0, 2), (2, 2, 0, 1)]))
@example(
    (
        FIVE_AXES,
        [P("x0 x1 - 2"), P("x2^2"), P("1/3 x3"), P("x1 x3"), P("-x2 + 5/2")],
        [(5, 3, 1, 0, 2), (2, 1, 2, 1, 5)],
    )
)
def test_grouped_divergence_rhs_matches_the_permutation_loop(case):
    labels, weights, probes = case
    sides = list(appendix_suite.divergence_sides(weights, probes, labels))
    assert sides == list(reference_divergence_sides(weights, probes, labels))
    assert all(lhs == rhs for lhs, rhs in sides)


def test_flux_redraw_integrates_each_draw_once(monkeypatch):
    """The five-flux-routes redraw computes the interior integral once per
    draw, and decides as the test of both routes' terms did: the total is
    nonzero exactly when the boundary flux differs from (-1)^(m+1) times
    the interior term."""
    from fvx import integration as ig

    cfg = SuiteConfig()
    make = su._make_stokes(0)
    rng = random.Random(0)
    for i in (make(rng, cfg) for _ in range(20)):
        t, V = i["t"], i["V"]
        assert flux_suite._flux_nonzero(i, cfg) == (ig.integrate_m(t, V) != 0 and ig.five_flux(t, V) != 0)
    integrals, surfaces = [], []
    integrate_m, rand_surface = ig.integrate_m, su.rand_surface
    monkeypatch.setattr(ig, "integrate_m", lambda *args: integrals.append(args) or integrate_m(*args))
    monkeypatch.setattr(su, "rand_surface", lambda *args: surfaces.append(args) or rand_surface(*args))
    for seed in range(5, 8):  # seed 5 takes 19 draws, 6 takes 3, 7 takes 2
        flux_suite._make_flux(random.Random(seed), cfg)
    assert len(integrals) == len(surfaces) == 24


def test_vacuous_comparisons_only_decrease():
    counts = vacuity_census()
    names = {ident.name for suite in su.SUITE_NAMES for ident in su.identities(suite)}
    assert set(counts) == names
    assert set(VACUOUS_CEILINGS) == names - NILPOTENT - BOOL_PAIRS
    over = {
        name: (counts[name], ceiling)
        for name, ceiling in VACUOUS_CEILINGS.items()
        if counts[name] > ceiling
    }
    assert not over, f"more vacuous instances than pinned (count, ceiling): {over}"
    for name in BOOL_PAIRS:
        assert counts[name] == 0, name


if __name__ == "__main__":
    counts = vacuity_census()
    width = max(map(len, counts))
    print(f"{'identity':<{width}}  vacuous/25  ceiling")
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        if name in NILPOTENT:
            note = "rhs zero by statement"
        elif name in BOOL_PAIRS:
            note = "bool pairs"
        else:
            note = str(VACUOUS_CEILINGS[name])
        print(f"{name:<{width}}  {count:>10}  {note}")
