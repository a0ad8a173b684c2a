"""Deliberate single-sign corruptions of core operators.

Each mutation temporarily replaces one operator with its negation.  Running
the checker under a mutation must produce at least one failure; the
``caught_by`` field names a suite identity whose two routes disagree once
that particular sign is wrong.  Identities that are insensitive to a
uniform sign (nilpotency, Leibniz rules, involutions) cannot catch these,
which is why the registry records a specific sensitive witness.
"""

from __future__ import annotations

import contextlib
import sys
from fractions import Fraction
from types import ModuleType

from fvx import calculus, forms_core, integration, lagrange, metric_dual
from fvx.polyfield import Record


class Mutation(Record):
    __slots__ = ("name", "module", "attribute", "caught_by")

    def __init__(self, name: str, module: ModuleType, attribute: str, caught_by: tuple[str, str]):
        self._set(name, module, attribute, caught_by)


MUTATIONS: tuple[Mutation, ...] = (
    Mutation("wedge-sign", forms_core, "wedge", ("algebra", "wedge-unit")),
    Mutation("d4-sign", calculus, "d4", ("calculus", "potential-d4")),
    Mutation("d5-sign", calculus, "d5", ("calculus", "bd-from-d5")),
    Mutation("bd-sign", calculus, "bd", ("calculus", "bd-unit")),
    Mutation("bdstar-sign", calculus, "bdstar", ("calculus", "bdstar-from-d5")),
    Mutation("integrate-sign", integration, "integrate_m", ("flux", "five-flux-routes")),
    Mutation("flux-sign", integration, "five_flux", ("flux", "five-flux-routes")),
    Mutation("epsilon-sign", metric_dual, "epsilon_lower", ("duality", "epsilon-reference")),
    Mutation("dual-sign", metric_dual, "dual", ("duality", "wedge-dual-pairing")),
    Mutation("el-sign", lagrange, "el_residual", ("lagrange", "bd-lambda-residual")),
)

REGISTRY = {mutation.name: mutation for mutation in MUTATIONS}


def _sign_flipped(fn):
    def mutated(*args, **kwargs):
        return fn(*args, **kwargs) * Fraction(-1)

    return mutated


@contextlib.contextmanager
def rebound(original, replacement):
    """Rebind every module-level name of ``original`` in every loaded fvx
    module to ``replacement`` for the duration of the block, and yield the
    ``(namespace, name)`` pairs patched.

    fvx modules import operators by name (``from fvx.calculus import d5``),
    so patching only the defining module would leave the calls made through
    the other names unpatched.
    """
    bindings = [
        (namespace, attr)
        for module_name, module in list(sys.modules.items())
        if module_name == "fvx" or module_name.startswith("fvx.")
        for namespace in (vars(module),)
        for attr, value in namespace.items()
        if value is original
    ]
    for namespace, attr in bindings:
        namespace[attr] = replacement
    try:
        yield bindings
    finally:
        for namespace, attr in bindings:
            namespace[attr] = original


@contextlib.contextmanager
def apply_mutation(name: str):
    """Patch the named operator with its negation, at every binding, for the
    duration of the block."""
    if name not in REGISTRY:
        raise ValueError(f"unknown mutation {name!r}")
    mutation = REGISTRY[name]
    original = getattr(mutation.module, mutation.attribute)
    with rebound(original, _sign_flipped(original)):
        yield mutation
