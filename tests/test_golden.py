"""Golden digests: the drawn instances, computed values and output stay fixed.

A passing jsonl record carries no computed values, so a change that shifts
the random stream or a computed number can leave every report byte-identical.
These digests pin what the reports do not: every instance the suites draw,
both sides of every comparison the identities make, the shrunk
counterexamples of the mutation runs, the exact integral values and the
demo command output.

To print the current digests (after a change that is meant to alter them):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import itertools
import os
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from fvx import integration as ig
from fvx import mutations as mu
from fvx import suites as su
from fvx.cli import main

from formgen import rand_poly_reference

ROOT = Path(__file__).resolve().parent.parent


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- instance stream -------------------------------------------------------------------


def instance_digest(seed: int, trials: int = 25) -> str:
    """Hash of every instance that ``run_suite`` draws, in draw order."""
    draws = su.draws(su.SuiteConfig(seed=seed, trials=trials))
    return _sha("\n".join(su.describe_instance(inst) for _, _, _, inst in draws))


INSTANCE_DIGESTS = {
    0: 'daba5c900a3075c0721cbe9f9a5ae6d0bc27540dd3eeebb9634623f3e15a8133',
    1: 'fcc6425f3dea1786106bfee41baf6d6b22f0ccbb2994547440778c53fab0ea34',
    2: '96d42048ffc2280fb3e854ada3e142b1919ddfabe4d46975d41928adb71723ae',
    3: 'b916037034ac02e153b6a311d808303f111da01821d9ad920acd79296dc8297d',
    4: '79d5ea644e7cdaf25159c670f8afd3283d7090299ac8f66882e752a383bb13a7',
}


def test_instance_stream_is_unchanged():
    for seed, expected in INSTANCE_DIGESTS.items():
        assert instance_digest(seed) == expected, f"seed {seed}"


def sides_digest(seed: int = 0, trials: int = 5) -> str:
    """Hash of both sides of every pair that every identity compares, in draw order."""
    cfg = su.SuiteConfig(seed=seed, trials=trials)
    lines = []
    for _, ident, _, inst in su.draws(cfg):
        for lhs, rhs in ident.sides(inst, cfg):
            lines.extend((su._serialize(lhs), su._serialize(rhs)))
    return _sha("\n".join(lines))


SIDES_DIGEST = '150a07526fd9d6ad195e3b10193a24febd2788178a21df08e335a329250f9abc'


def test_identity_sides_are_unchanged():
    assert sides_digest() == SIDES_DIGEST


def test_rand_poly_draws_are_unchanged():
    for seed, nvars, max_terms, max_degree in itertools.product(range(200), (0, 1, 4, 10), (0, 2, 3), (1, 3, 8)):
        rng, reference = random.Random(seed), random.Random(seed)
        drawn = su.rand_poly(rng, nvars, max_degree, max_terms)
        assert drawn == rand_poly_reference(reference, nvars, max_degree, max_terms)
        assert rng.getstate() == reference.getstate()


def test_rand_fraction_draws_are_unchanged():
    for seed in range(200):
        rng, reference = random.Random(seed), random.Random(seed)
        assert su.rand_fraction(rng) == Fraction(reference.randint(-9, 9), reference.randint(1, 9))
        assert rng.getstate() == reference.getstate()


# -- mutation runs ------------------------------------------------------------------------


def mutation_digest(name: str) -> str:
    """Hash of the jsonl report of one mutation against its witness suite."""
    suite = mu.REGISTRY[name].caught_by[0]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.jsonl")
        argv = ["check", "--mutate", name, "--suite", suite, "--seed", "0", "--trials", "5"]
        assert main(argv + ["--format", "jsonl", "--out", out]) == 1
        return _sha(Path(out).read_text())


MUTATION_DIGESTS = {
    'wedge-sign': 'dec63e2ba5fdfe89d8bfc0c89e913ce02118689dcc0668520ffa01d470311e96',
    'd4-sign': '11a02b96f6e6b1ea4a66e54325a7187b7f6f73417ae1c524454bb2899a16d22c',
    'd5-sign': 'a003eba847dd6fc4e8ad8df36642c99fb30e86006efd840079fdb076b4ca79bd',
    'bd-sign': '65d18f21541af5518cb902b23af783cae9be73463f63139b7d1049364462ee95',
    'bdstar-sign': '47d7e180a44bdef7590b34fc7229f9a9f23b28c88995b6ff649abb2f1026a8f3',
    'integrate-sign': '10144b926414d30c328b5a6c390d85f949c018ba534fe9daeb1cc57ae1cd7272',
    'flux-sign': '46a15aa8eab9571e8490dd4f1910813c9ebae6009a4fdbe2a3718d16c10bb4b6',
    'epsilon-sign': 'e2a2cffc16b4fc2e6d2ef11e6afcb6023cab2ebbbf5458722e3a86fbf19b5387',
    'dual-sign': '7630123194a38237623b3bbb7351d6f32cf06b3fbd0bd52352d29ef761d2e386',
    'el-sign': 'c70812a0afecd5348faf28b3afc491dc84415d7bca2119a2f6f692486133221a',
    'partial-sign': '4c9882644bb1a5fdbab4b916d0b5581fe3006f1d35ed16b8fae52fe5ca916dd6',
    'restrict-sign': 'fe5287e6a31f7e7859bec1ebcd72ca1ac882cbd8c17ea22953d9e06a488d28a9',
    'compose-sign': '0faf37e83c6443279685d6392f4e7d34c479249b4b1db10c9c48ae1932f3f23b',
    'perm-sign': 'b6ac2741beab4fad7d5c1804cee92a0de11f01d670002cce4d7742cefee6729f',
    'signed-perm-sign': '6c8841d8c43f92509601c09bbc07bbb310a1261b166d621c83bf15816c5f91d6',
}


def test_mutation_reports_are_unchanged():
    assert set(MUTATION_DIGESTS) == set(mu.REGISTRY)
    for name, expected in MUTATION_DIGESTS.items():
        assert mutation_digest(name) == expected, name


def test_mutations_reach_a_warm_process():
    """No result computed before a mutation may outlive it.  Run the duality
    and flux suites unmutated in this process first; the mutations they
    witness must then still give their pinned reports, and afterwards the
    unmutated suites must pass again."""
    warm = [["check", "--suite", suite, "--seed", "0", "--trials", "5"] for suite in ("duality", "flux")]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in warm:
            assert main(argv) == 0
        for name in ("epsilon-sign", "dual-sign", "integrate-sign"):
            assert mutation_digest(name) == MUTATION_DIGESTS[name], name
        for argv in warm:
            assert main(argv) == 0


# -- integration values -----------------------------------------------------------------


def _outcome(fn, *args) -> str:
    try:
        return str(fn(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


def integral_values() -> list[str]:
    """Both integral types, the full-frame contraction and both boundary
    fluxes on seeded random forms and surfaces of every dimension."""
    rng = random.Random("golden:integrals")
    values = []
    for dim in range(1, 5):
        for _ in range(6):
            V = su.rand_surface(rng, dim, 3)
            t = su.rand_form(rng, dim, 3)
            values.append(_outcome(ig.integrate_m, t, V))
            values.append(_outcome(ig.integrate_full_frame, t, V))
            values.append(_outcome(ig.boundary_flux, t, V))
            values.append(_outcome(ig.integrate_deg, su.rand_form(rng, dim + 1, 3), V))
            values.append(_outcome(ig.boundary_flux, su.rand_form(rng, dim - 1, 3), V))
    return values


INTEGRAL_DIGEST = '39ef80807c290af956a50dc6b9b059fd5ba9a5bf1b49e0c229fdd8d3ba788630'


def test_integral_values_are_unchanged():
    assert _sha("\n".join(integral_values())) == INTEGRAL_DIGEST


# -- demo output -----------------------------------------------------------------------------

DEMO_COMMANDS = (
    "bd --form demo/const1.form",
    "bdstar --form demo/mixed.form",
    "d --form demo/radial.form",
    "dual --form demo/j.form --config demo/lorentz.cfg",
    "integrate --form demo/mixed.form --surface demo/square.surf",
    "stokes --form demo/shear.form --surface demo/square.surf",
    "flux --form demo/mixed.form --surface demo/square.surf",
    "el --lagrangian demo/free_scalar.lag --fields demo/wave_solution.json",
    "el --lagrangian demo/free_scalar.lag --fields demo/not_solution.json",
    "integrate --form demo/shear.form --surface demo/cube4.surf",
    "stokes --form demo/shear.form --surface demo/cube4.surf",
)


def demo_run(command: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one demo command, run from the root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command.split())
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


DEMO_OUTPUT = {
    'bd --form demo/const1.form': (0, 'rank 1\n5: 1\n', ''),
    'bdstar --form demo/mixed.form': (0, 'rank 3\n013: -1\n015: -3/2 x0^2 x1 + x1 + x3\n025: -1\n235: 2/5\n', ''),
    'd --form demo/radial.form': (0, 'rank 2\n(zero)\n', ''),
    'dual --form demo/j.form --config demo/lorentz.cfg': (0, 'rank 4\n0123: -1\n', ''),
    'integrate --form demo/mixed.form --surface demo/square.surf': (0, '1/4\n', ''),
    'stokes --form demo/shear.form --surface demo/square.surf': (0, 'boundary: 1\ninterior: 1\nEQUAL\n', ''),
    'flux --form demo/mixed.form --surface demo/square.surf': (0, 'boundary+interior: 1/4\nderivative route: 1/4\nEQUAL\n', ''),
    'el --lagrangian demo/free_scalar.lag --fields demo/wave_solution.json': (0, 'field 0:\n  residual: 0\n  current/source match: yes\n  closed-form check: yes\n  probe flux: 0\nsolution\n', ''),
    'el --lagrangian demo/free_scalar.lag --fields demo/not_solution.json': (1, 'field 0:\n  residual: 2\n  current/source match: no\n  closed-form check: no\n  probe flux: 2\nnot a solution\n', ''),
    'integrate --form demo/shear.form --surface demo/cube4.surf': (2, '', 'fvx: demo/shear.form on demo/cube4.surf: rank must equal surface dimension\n'),
    'stokes --form demo/shear.form --surface demo/cube4.surf': (2, '', 'fvx: demo/shear.form on demo/cube4.surf: rank incompatible with boundary flux\n'),
}


def test_demo_output_is_unchanged():
    assert set(DEMO_OUTPUT) == set(DEMO_COMMANDS)
    for command in DEMO_COMMANDS:
        assert demo_run(command) == DEMO_OUTPUT[command], command


if __name__ == "__main__":
    print("INSTANCE_DIGESTS =", {seed: instance_digest(seed) for seed in range(5)})
    print("SIDES_DIGEST =", repr(sides_digest()))
    print("MUTATION_DIGESTS =", {m.name: mutation_digest(m.name) for m in mu.MUTATIONS})
    print("INTEGRAL_DIGEST =", repr(_sha("\n".join(integral_values()))))
    print("DEMO_OUTPUT =", {command: demo_run(command) for command in DEMO_COMMANDS})
