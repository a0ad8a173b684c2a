"""Deliberate single-sign corruptions of core operators.

Each mutation temporarily replaces one operator, a module function or a class
member, with a corrupted copy: by default its negation.  Running the checker
under a mutation must produce at least one failure; the ``caught_by`` field
names a suite identity whose two routes disagree once that particular sign is
wrong.  Identities that are insensitive to a uniform sign (nilpotency, Leibniz
rules, involutions) cannot catch these, which is why the registry records a
specific sensitive witness.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from fractions import Fraction

from fvx.polyfield import Record


def _sign_flipped(fn):
    def mutated(*args, **kwargs):
        return fn(*args, **kwargs) * Fraction(-1)

    return mutated


def _signs_flipped(fn):
    """Negate the sign of each ``(sign, perm)`` pair that ``fn`` yields."""
    return lambda *args: ((-sign, perm) for sign, perm in fn(*args))


class Mutation(Record):
    """``owner`` is the dotted path of a module or class under ``fvx``
    (``"calculus"``, ``"polyfield.Poly"``); it is imported when the mutation
    is applied, so the registry loads no layer."""

    __slots__ = ("name", "owner", "attribute", "caught_by", "corrupt")

    def __init__(self, name: str, owner: str, attribute: str, caught_by: tuple[str, str], corrupt=_sign_flipped):
        self._set(name, owner, attribute, caught_by, corrupt)

    @property
    def target(self):
        """The module or class that ``owner`` names; reading it imports the module."""
        module, _, cls = self.owner.partition(".")
        target = importlib.import_module(f"fvx.{module}")
        return getattr(target, cls) if cls else target

    @contextlib.contextmanager
    def applied(self):
        """Patch the operator with its corruption, at every binding, for the
        duration of the block.  The corruption is rebuilt by the member's
        kind: a property around its corrupted getter, a classmethod or
        staticmethod around its corrupted function."""
        original = vars(self.target)[self.attribute]
        if isinstance(original, property):
            replacement = property(self.corrupt(original.fget), doc=original.__doc__)
        elif isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(self.corrupt(original.__func__))
        else:
            replacement = self.corrupt(original)
        with rebound(original, replacement):
            yield self


MUTATIONS: tuple[Mutation, ...] = (
    Mutation("wedge-sign", "forms_core", "wedge", ("algebra", "wedge-unit")),
    Mutation("d4-sign", "calculus", "d4", ("calculus", "potential-d4")),
    Mutation("d5-sign", "calculus", "d5", ("calculus", "bd-from-d5")),
    Mutation("bd-sign", "calculus", "bd", ("calculus", "bd-unit")),
    Mutation("bdstar-sign", "calculus", "bdstar", ("calculus", "bdstar-from-d5")),
    Mutation("integrate-sign", "integration", "integrate_m", ("flux", "five-flux-routes")),
    Mutation("flux-sign", "integration", "five_flux", ("flux", "five-flux-routes")),
    Mutation("epsilon-sign", "metric_dual", "epsilon_lower", ("duality", "epsilon-reference")),
    Mutation("dual-sign", "metric_dual", "dual", ("duality", "wedge-dual-pairing")),
    Mutation("el-sign", "lagrange", "el_residual", ("lagrange", "bd-lambda-residual")),
    Mutation("partial-sign", "polyfield.Poly", "partial", ("calculus", "basis-derivative")),
    Mutation("restrict-sign", "polyfield.Poly", "restrict", ("stokes", "boundary-interior-plain")),
    Mutation("compose-sign", "polyfield.Poly", "compose", ("stokes", "reparametrization-invariance")),
    Mutation("perm-sign", "forms_core", "permutation_sign", ("duality", "epsilon-reference")),
    Mutation(
        "signed-perm-sign", "forms_core", "signed_permutations", ("appendix", "divergence-contraction-5"), _signs_flipped
    ),
)
# No face-sign: OrientedFace.sign's one reader multiplies the integral of a
# restricted face integrand, so flipping it is the same mutant as restrict-sign.

REGISTRY = {mutation.name: mutation for mutation in MUTATIONS}


def _bindings(value) -> list[tuple[object, str]]:
    """The ``(owner, name)`` pairs bound to ``value`` in every loaded fvx
    module and in every class those modules define."""
    modules = [module for name, module in list(sys.modules.items()) if name == "fvx" or name.startswith("fvx.")]
    classes = [v for m in modules for v in vars(m).values() if isinstance(v, type) and v.__module__ == m.__name__]
    return [(owner, attr) for owner in modules + classes for attr, v in vars(owner).items() if v is value]


@contextlib.contextmanager
def rebound(original, replacement):
    """Rebind ``original`` to ``replacement`` wherever it is bound, for the
    duration of the block, and yield the ``(owner, name)`` pairs patched.

    fvx modules import operators by name (``from fvx.calculus import d5``),
    so patching only the defining module would leave the calls made through
    the other names unpatched; a class may bind one method under several
    names (``__radd__ = __add__``).  A module first imported inside the block
    binds the replacement by name, so the exit restores every binding of the
    replacement as well as those patched.
    """
    bindings = _bindings(original)
    for owner, attr in bindings:
        setattr(owner, attr, replacement)
    try:
        yield bindings
    finally:
        for owner, attr in bindings + _bindings(replacement):
            setattr(owner, attr, original)


def apply_mutation(name: str):
    """The registered mutation ``name``, applied for the duration of a
    ``with`` block."""
    if name not in REGISTRY:
        raise ValueError(f"unknown mutation {name!r}")
    return REGISTRY[name].applied()
