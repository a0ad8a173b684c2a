"""The appendix suite: the transposition identity and its divergence readings."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import Iterator, Sequence

from fvx import calculus as ca
from fvx import forms_core as fc
from fvx.forms_core import FIVE_AXES, IndexedArray
from fvx.polyfield import Poly
from fvx.suites import Identity, rand_fraction, rand_poly


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


IDENTITIES = (
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
