"""Mutations of every member kind, and the floors under each witness's catches."""

import pytest

from fvx import integration as ig
from fvx import metric_dual as md
from fvx import mutations as mu
from fvx import suites as su
from fvx.polyfield import Poly

from children import run_python


def _stokes_report(patch) -> str:
    with patch:
        return su.emit_report(su.run_suite(su.SuiteConfig(seed=0, trials=5, suites=("stokes",))), "jsonl")


def test_a_property_mutation_negates_the_getter():
    face_sign = mu.Mutation("face-sign", "integration.OrientedFace", "sign", ("stokes", "boundary-interior-plain"))
    plane = (Poly.variable(0, 2), Poly.variable(1, 2), Poly.zero(2), Poly.zero(2))
    square = ig.ParamSurface(2, plane, ((0, 1), (0, 1)))
    original, signs = vars(ig.OrientedFace)["sign"], [face.sign for face in ig.faces(square)]
    with face_sign.applied():
        assert [face.sign for face in ig.faces(square)] == [-s for s in signs]
    assert vars(ig.OrientedFace)["sign"] is original
    assert [face.sign for face in ig.faces(square)] == signs
    # The face sign's one reader multiplies a restricted face integral, so
    # this mutant gives restrict-sign's report and stays unregistered.
    report = _stokes_report(face_sign.applied())
    assert report == _stokes_report(mu.apply_mutation("restrict-sign"))
    assert '"pass": false' in report


def test_a_property_of_a_metric_mutation_negates_it():
    det_h = md.DEFAULT_CFG.det_h
    with mu.Mutation("det-sign", "metric_dual.MetricConfig", "det_h", ("duality", "epsilon-reference")).applied():
        assert md.DEFAULT_CFG.det_h == -det_h
        assert md.MetricConfig(xi=-4).det_h == -4 * det_h
    assert md.DEFAULT_CFG.det_h == det_h


def test_a_classmethod_mutation_is_rebuilt_and_restored_after_a_raise():
    original = vars(Poly)["variable"]
    with pytest.raises(RuntimeError, match="inside"):
        with mu.Mutation("variable-sign", "polyfield.Poly", "variable", ("calculus", "basis-derivative")).applied():
            assert isinstance(vars(Poly)["variable"], classmethod)
            assert Poly.variable(0, 1).evaluate([3]) == -3
            raise RuntimeError("inside")
    assert vars(Poly)["variable"] is original
    assert Poly.variable(0, 1).evaluate([3]) == 3


# -- witness floors -------------------------------------------------------------

# For each registered mutation and seeds 0 and 1 at 10 trials, the instances of
# its witness identity whose two sides differ.  A floor may rise, never fall.
WITNESS_FLOORS = {
    "wedge-sign": (10, 10),
    "d4-sign": (10, 10),
    "d5-sign": (10, 10),
    "bd-sign": (10, 10),
    "bdstar-sign": (10, 10),
    "integrate-sign": (10, 10),
    "flux-sign": (10, 10),
    "epsilon-sign": (10, 10),
    "dual-sign": (10, 10),
    "el-sign": (10, 10),
    "partial-sign": (7, 6),
    "restrict-sign": (6, 5),
    "compose-sign": (5, 1),
    "perm-sign": (9, 7),
    "signed-perm-sign": (10, 10),
}


def witness_catches(mutation: mu.Mutation, seed: int, trials: int = 10) -> tuple[int, int]:
    """The witness instances whose sides differ, and those that raise, when
    the witness suite is drawn under the mutation as ``fvx check --suite``
    draws it.  A raise is no catch: it shows only that the code ran."""
    suite, witness = mutation.caught_by
    cfg = su.SuiteConfig(seed=seed, trials=trials, suites=(suite,))
    differ = raised = 0
    with mutation.applied():
        for _, ident, _, inst in su.draws(cfg):
            if ident.name != witness:
                continue
            try:
                differ += not ident.holds(inst, cfg)
            except Exception:
                raised += 1
    return differ, raised


def test_every_registered_mutation_has_a_floor():
    assert set(WITNESS_FLOORS) == set(mu.REGISTRY)


@pytest.mark.parametrize("name", list(WITNESS_FLOORS))
def test_witness_catches_stay_above_their_floor(name):
    counts = [witness_catches(mu.REGISTRY[name], seed) for seed in (0, 1)]
    assert [raised for _, raised in counts] == [0, 0]
    assert all(differ >= floor for (differ, _), floor in zip(counts, WITNESS_FLOORS[name]))


def test_a_raise_is_counted_apart_from_a_catch():
    def crash(fn):
        def crashed(*args, **kwargs):
            raise ZeroDivisionError("crash")

        return crashed

    mutation = mu.Mutation("wedge-crash", "forms_core", "wedge", ("algebra", "wedge-unit"), crash)
    assert witness_catches(mutation, 0, trials=3) == (0, 3)


# A suite module first imported under a patch binds the patched operator by
# name (``from fvx.integration import five_flux`` in ``fvx.lagrange``); the
# patch must restore that binding too.
LATE_IMPORT = """
import sys
from fvx import mutations as mu
from fvx import suites as su
assert "fvx.lagrange" not in sys.modules
cfg = su.SuiteConfig(seed=0, trials=5, suites=("lagrange",))
with mu.apply_mutation("flux-sign"):
    su.run_suite(cfg)
from fvx import integration, lagrange
print(lagrange.five_flux is integration.five_flux, su.run_suite(cfg).passed)
"""


def test_a_binding_made_inside_a_patch_is_restored():
    result = run_python("-c", LATE_IMPORT)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["True", "True"]
