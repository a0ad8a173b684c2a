"""The duality suite: permutation tensors, the dual, and the plain-block Hodge check."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from fvx import forms_core as fc
from fvx import metric_dual as md
from fvx.forms_core import FIVE_AXES, FourForm, MultiVector
from fvx.metric_dual import DEFAULT_CFG, MetricConfig
from fvx.suites import Identity, _make_one_form, _redraw, rand_form


def _metric(cfg) -> MetricConfig:
    """The run's metric: the reference metric unless the run names one."""
    return cfg.metric or DEFAULT_CFG


def _metric_for_dual(cfg) -> MetricConfig:
    # The uniform involution constant needs an odd number of minus signs
    # in the coordinate block; fall back to the reference metric otherwise.
    metric = _metric(cfg)
    return metric if math.prod(metric.g) < 0 else DEFAULT_CFG


def _make_epsilon_key(rng, cfg):
    labels = [rng.choice(FIVE_AXES) for _ in range(5)]
    if rng.random() < 0.7:
        labels = rng.sample(FIVE_AXES, 5)
    return {"key": tuple(labels)}


def _epsilon_reference(i, cfg):
    eps = md.epsilon_lower(DEFAULT_CFG)
    yield eps[(0, 1, 2, 3, 5)], 1
    yield eps[i["key"]], fc.permutation_sign(i["key"])


def _make_contraction(rng, cfg):
    m = rng.randint(0, 5)
    upper = tuple(rng.sample(FIVE_AXES, m))
    if m >= 2 and rng.random() < 0.25:
        lower = (upper[0],) + upper[:-1]
    else:
        lower = tuple(rng.sample(FIVE_AXES, m))
    return {"upper": upper, "lower": lower}


def _contraction(i, cfg):
    # Each side is a product of two signs (a raised times a lowered entry, and delta's
    # two permutation_sign values), so no uniform flip of a sign route changes it.
    base = _metric(cfg)
    for metric in (base, MetricConfig(base.g, -base.xi, base.sigma, base.eta)):
        # epsilon-sign reaches both tables: raised is built from this lowered one.
        lowered = md.epsilon_lower(metric)
        raised = md.epsilon_upper(lowered, metric)
        yield md.contraction_sides(i["upper"], i["lower"], raised, lowered, metric)


def _make_multivector(rng, cfg):
    return {"w": rand_form(rng, rng.randint(0, 5), cfg.max_degree, cls=MultiVector)}


def _theta_roundtrip(i, cfg):
    w, metric = i["w"], _metric(cfg)
    yield md.theta_h_inv(md.theta_h(w, metric), metric), w


def _dual_involution(i, cfg):
    metric = _metric_for_dual(cfg)
    w = i["t"]
    yield md.dual(md.dual(w, metric), metric), w * (-metric.sign_xi)


def _make_same_rank_pair(rng, cfg):
    rank = rng.randint(0, 5)
    return {
        "s": rand_form(rng, rank, cfg.max_degree),
        "t": rand_form(rng, rank, cfg.max_degree),
    }


# Forms with disjoint components pair to zero and the comparison degenerates
# to 0 == 0; redraw until the inner product survives.
_make_pairing_pair = _redraw(
    _make_same_rank_pair, lambda i, cfg: not md.h_inner(i["s"], i["t"], _metric(cfg)).is_zero
)


def _wedge_dual_pairing(i, cfg):
    s, t = i["s"], i["t"]
    metric = _metric(cfg)
    paired = md.epsilon_five_form(metric) * md.h_inner(s, t, metric)
    yield fc.wedge(s, md.dual(t, metric)), paired
    yield fc.wedge(md.dual(s, metric), t), paired


def hodge4(W: FourForm, metric: MetricConfig) -> FourForm:
    """Four-label Hodge dual of a rank-2 form, straight from the index
    formula; the reference route for the label-5-free duality check."""
    out = {}
    for key in itertools.combinations(range(4), 2):
        comp = W.coeff(key)
        if comp.is_zero:
            continue
        rest = tuple(a for a in range(4) if a not in key)
        sign = metric.eta * fc.permutation_sign(key + rest)
        out[rest] = comp * (sign * Fraction(1, metric.g[key[0]] * metric.g[key[1]]))
    return FourForm(2, out)


def _make_zfree(rng, cfg):
    return {"w": rand_form(rng, 2, cfg.max_degree, axes=fc.COORD_AXES)}


def _zfree_hodge(i, cfg):
    metric = _metric_for_dual(cfg)
    w = i["w"]
    yield md.dual2_zfree(w, metric), fc.lift(hodge4(fc.project(w), metric))


IDENTITIES = (
    Identity("epsilon-reference", _make_epsilon_key, _epsilon_reference),
    Identity("epsilon-contraction", _make_contraction, _contraction),
    Identity("theta-roundtrip", _make_multivector, _theta_roundtrip),
    Identity("dual-involution", _make_one_form, _dual_involution),
    Identity("wedge-dual-pairing", _make_pairing_pair, _wedge_dual_pairing),
    Identity("zfree-hodge", _make_zfree, _zfree_hodge),
)
