"""Metric data, the five-index alternating tensor, and the duality maps.

The metric is block-diagonal over the five labels: four signs on the
coordinate block and a nonzero rational xi on the label-5 direction.  All
normalizations are kept rational by restricting |det h| to perfect rational
squares; outside that family the alternating tensor has no rational
components and the constructors refuse.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from fvx.forms_core import (
    FIVE_AXES,
    FiveForm,
    IndexedArray,
    MultiVector,
    e_part,
    permutation_sign,
    s_from_t,
    signed_permutations,
)
from fvx.polyfield import Poly, Record


class MetricConfig(Record):
    """Diagonal metric with signs g on the coordinate block and h_55 = xi.

    sigma is the scale constant of the distinguished basis vector; it only
    enters the reported constants kappa and varpi, never the component
    formulas in the fixed basis used here.  eta is the orientation flag.
    """

    __slots__ = ("g", "xi", "sigma", "eta")

    def __init__(self, g=(1, -1, -1, -1), xi=-1, sigma=1, eta=1):
        g = tuple(g)
        if len(g) != 4 or any(type(s) is not int or s not in (1, -1) for s in g):
            raise ValueError("g must be four signs")
        xi = Fraction(xi)
        if not xi:
            raise ValueError("xi must be nonzero")
        sigma = Fraction(sigma)
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        if type(eta) is not int or eta not in (1, -1):
            raise ValueError("eta must be +1 or -1")
        self._set(g, xi, sigma, eta)
        # kappa raises when |det h| is not a rational square: refuse such a
        # metric here, not at its first use.
        self.kappa

    def h(self, label: int) -> Fraction | int:
        if label == 5:
            return self.xi
        if label in (0, 1, 2, 3):
            return self.g[label]
        raise ValueError(f"no basis label {label}")

    def weight(self, key: Sequence[int]) -> Fraction:
        """Product of the diagonal metric entries h over the labels of key:
        the coordinate signs multiplied as ints, times one power of xi."""
        sign, power = 1, 0
        for label in key:
            entry = self.h(label)  # refuses a label outside the five
            if label == 5:
                power += 1
            else:
                sign *= entry
        return Fraction(sign * self.xi.numerator**power, self.xi.denominator**power)

    @property
    def sign_xi(self) -> int:
        return 1 if self.xi > 0 else -1

    @property
    def det_h(self) -> Fraction:
        return self.weight(FIVE_AXES)

    @property
    def kappa(self) -> Fraction:
        """|det h|^(1/2); must be rational for the tensor components to be."""
        mag = abs(self.det_h)
        rn, rd = math.isqrt(mag.numerator), math.isqrt(mag.denominator)
        if rn * rn != mag.numerator or rd * rd != mag.denominator:
            raise ValueError("non-rational normalization")
        return Fraction(rn, rd)

    @property
    def varpi(self) -> Fraction:
        return self.kappa / self.sigma


DEFAULT_CFG = MetricConfig()


def _complement(key: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The labels missing from key, in increasing order, and the sign of
    key followed by them."""
    rest = tuple(a for a in FIVE_AXES if a not in key)
    return rest, permutation_sign(key + rest)


def epsilon_lower(cfg: MetricConfig = DEFAULT_CFG) -> IndexedArray:
    """Totally antisymmetric array with eps_{01235} = eta * |det h|^(1/2)."""
    scale = cfg.eta * cfg.kappa
    top = scale.numerator
    # Only the 120 permutations of the labels are nonzero.
    num = {idx: top if sign > 0 else -top for sign, idx in signed_permutations(FIVE_AXES)}
    return IndexedArray._new(5, FIVE_AXES, scale.denominator, num)


def epsilon_upper(lower: IndexedArray, cfg: MetricConfig) -> IndexedArray:
    """The alternating tensor ``lower`` of cfg with all five indices raised by
    the inverse metric, one factor per slot.  Every stored key of ``lower``
    must list each of the five labels once, as the alternating tensor's do,
    so every entry is divided by the same weight, ``cfg.det_h``."""
    return lower * (1 / cfg.det_h)


def permutation_delta(upper: Sequence[int], lower: Sequence[int]) -> int:
    """Generalized Kronecker symbol: sign(upper) * sign(lower) when both list
    the same distinct labels, 0 otherwise."""
    if len(upper) != len(lower):
        raise ValueError("index lists of different length")
    if sorted(upper) != sorted(lower):
        return 0
    return permutation_sign(upper) * permutation_sign(lower)


def contraction_sides(
    A: Sequence[int],
    B: Sequence[int],
    upper: IndexedArray,
    lower: IndexedArray,
    cfg: MetricConfig,
) -> tuple[Fraction, int]:
    """Both sides of one entry of the contraction identity: the sum of
    upper[A + C] * lower[B + C] over every label tuple C, and -(5-m)! *
    sign(xi) * delta(A, B), where m = len(A) and upper/lower are the raised
    and lowered alternating tensors of cfg.  Only the stored (nonzero)
    entries of upper that start with A contribute to the sum, which adds
    int numerators and divides by the two denominators once."""
    A, B, m = tuple(A), tuple(B), len(A)
    total = 0
    lower_num = lower.num
    for key, c in upper.num.items():
        if key[:m] == A:
            total += c * lower_num.get(B + key[m:], 0)
    expected = -math.factorial(5 - m) * cfg.sign_xi * permutation_delta(A, B)
    return Fraction(total, upper.den * lower.den), expected


# -- the two lowering maps and the dual ----------------------------------------


def theta_epsilon(w: MultiVector, cfg: MetricConfig = DEFAULT_CFG) -> FiveForm:
    """Contract a rank-m multivector into the alternating tensor, leaving a
    rank-(5-m) form."""
    if not isinstance(w, MultiVector):
        raise TypeError("theta_epsilon expects a MultiVector")
    scale = cfg.eta * cfg.kappa
    out: dict[tuple, Poly] = {}
    for key, comp in w.coeffs.items():
        rest, sign = _complement(key)
        out[rest] = comp * (scale * sign)
    return FiveForm._new(5 - w.rank, out)


def theta_h(w: MultiVector, cfg: MetricConfig = DEFAULT_CFG) -> FiveForm:
    """Lower every index with the diagonal metric."""
    return FiveForm._new(w.rank, {key: comp * cfg.weight(key) for key, comp in w.coeffs.items()})


def theta_h_inv(t: FiveForm, cfg: MetricConfig = DEFAULT_CFG) -> MultiVector:
    """Raise every index with the inverse diagonal metric."""
    raised = {key: comp * (1 / cfg.weight(key)) for key, comp in t.coeffs.items()}
    return MultiVector._new(t.rank, raised)


def h_inner(s: FiveForm, t: FiveForm, cfg: MetricConfig = DEFAULT_CFG) -> Poly:
    """Inner product of equal-rank forms: s_K t^K over sorted keys."""
    if s.rank != t.rank:
        raise ValueError("forms of different rank")
    total = Poly.zero(4)
    for key, comp in s.coeffs.items():
        other = t.coeffs.get(key)
        if other is not None:
            total = total + comp * other * (1 / cfg.weight(key))
    return total


def epsilon_five_form(cfg: MetricConfig = DEFAULT_CFG) -> FiveForm:
    """The alternating tensor as a rank-5 form."""
    return theta_epsilon(MultiVector.from_scalar(1), cfg)


def dual(w: FiveForm, cfg: MetricConfig = DEFAULT_CFG) -> FiveForm:
    """Rank-m form to rank-(5-m) form: raise all indices, then contract into
    the alternating tensor.  Swaps the plain and label-5 blocks."""
    if not isinstance(w, FiveForm):
        raise TypeError("dual expects a FiveForm")
    scale = cfg.eta * cfg.kappa
    out: dict[tuple, Poly] = {}
    for key, comp in w.coeffs.items():
        rest, sign = _complement(key)
        out[rest] = comp * (scale * sign / cfg.weight(key))
    return FiveForm._new(5 - w.rank, out)


def dual2_zfree(w: FiveForm, cfg: MetricConfig = DEFAULT_CFG) -> FiveForm:
    """Duality of plain rank-2 forms induced by stripping the label-5 block
    of the full dual; normalized to match the four-label Hodge dual."""
    if w.rank != 2:
        raise ValueError("rank must be 2")
    if not e_part(w).is_zero:
        raise ValueError("nonzero label-5 part")
    return s_from_t(dual(w, cfg)) * (Fraction(1) / cfg.kappa)
