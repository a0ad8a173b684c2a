"""The shrinker: a ring walk over the monomials, and a 1-minimal result.

``shrink_instance`` walks the monomials in shrink order as a ring: after a
drop it goes on with the monomial that followed the dropped one, wrapping
past the last, and it stops once every monomial of the instance was kept in
a row.  The tests pin the work it does on the registered mutations, check
that every counterexample it returns is 1-minimal, check on a form whose
coefficient vanishes in mid-walk that each candidate drops exactly one
monomial of the current instance, and check that the ring stops where
repeated sweeps would only repeat tries.
"""

import functools
from unittest import mock

from fvx import mutations as mu
from fvx import suites as su
from fvx.forms_core import FiveForm

from formgen import P

# The still_fails calls of all shrinks over the registered mutations, each
# run on its witness suite at seed 0 with 5 trials.  Sweeps that repeated
# until one dropped nothing took 839; restarting from the first monomial
# after each drop took 1,044.
STILL_FAILS_CALLS = 755


def _single_drops(inst: dict):
    """Each instance that drops one monomial of ``inst``."""
    return (su._without(inst, *entry) for entry in su._monomials(inst))


@functools.cache
def _shrinks() -> tuple[int, int, list[str]]:
    """Run every registered mutation on its witness suite at seed 0 with 5
    trials; return the still_fails calls, the shrinks, and each shrunk
    counterexample that is not 1-minimal, checked under the mutation."""
    calls, shrinks, faults = 0, 0, []
    shrink = su.shrink_instance

    def counted(inst, still_fails):
        nonlocal calls, shrinks

        def counting(candidate):
            nonlocal calls
            calls += 1
            return still_fails(candidate)

        shrinks += 1
        result = shrink(inst, counting)
        if not still_fails(result):
            faults.append(f"passes: {su.describe_instance(result)}")
        for smaller in _single_drops(result):
            try:
                if still_fails(smaller):
                    faults.append(f"not 1-minimal: {su.describe_instance(result)}")
            except Exception:
                pass
        return result

    with mock.patch.object(su, "shrink_instance", counted):
        for mutation in mu.MUTATIONS:
            with mutation.applied():
                su.run_suite(su.SuiteConfig(seed=0, trials=5, suites=(mutation.caught_by[0],)))
    return calls, shrinks, faults


def test_the_ring_makes_the_pinned_number_of_calls():
    calls, shrinks, _ = _shrinks()
    assert shrinks == 153
    assert calls == STILL_FAILS_CALLS


def test_every_shrunk_counterexample_is_one_minimal():
    assert _shrinks()[2] == []


def _terms(inst: dict) -> set:
    """Every monomial of a one-form instance, named by key and exponent."""
    return {(key, expo) for key, poly in inst["t"].coeffs.items() for expo in poly.terms}


def test_a_coefficient_that_vanishes_in_mid_sweep():
    # Dropping x0 empties the (0,) coefficient and removes it, so the poly of
    # (1,) moves from index 1 to 0.  The failure needs x1 at (1,).
    x0, x1, x2, x3 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    t = FiveForm(1, {(0,): P("x0"), (1,): P("x1 + x2"), (2,): P("x3")})
    current = {"t": t}
    tried = []

    def still_fails(candidate):
        # Record, not assert: the shrinker counts a raise as a pass.
        nonlocal current
        tried.append((_terms(current) - _terms(candidate), _terms(candidate) <= _terms(current)))
        if x1 in candidate["t"].coeff((1,)).terms:
            current = candidate
            return True
        return False

    assert su.shrink_instance({"t": t}, still_fails) == {"t": FiveForm(1, {(1,): P("x1")})}
    # Each candidate drops one monomial of the current instance.  The walk
    # drops x0, x2 and x3 and keeps x1, in shrink order, then wraps and tries
    # x1 alone.
    assert tried == [
        ({((0,), x0)}, True),
        ({((1,), x2)}, True),
        ({((1,), x1)}, True),
        ({((2,), x3)}, True),
        ({((1,), x1)}, True),
    ]


def test_the_ring_stops_where_the_sweeps_would_repeat():
    # In shrink order x3, x2 and x1 each drop and x0 is kept; that is every
    # monomial of {x0} kept in a row, so the walk stops.  Sweeps would try
    # x0 once more against the same instance.
    x0 = (1, 0, 0, 0)
    calls = 0

    def still_fails(candidate):
        nonlocal calls
        calls += 1
        return x0 in candidate["t"].coeff((0,)).terms

    inst = {"t": FiveForm(1, {(0,): P("x0 + x1 + x2 + x3")})}
    assert su.shrink_instance(inst, still_fails) == {"t": FiveForm(1, {(0,): P("x0")})}
    assert calls == 4
