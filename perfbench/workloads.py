"""The benchmark's workloads and the outputs each fvx invocation must give.

The expectations live here, not in fvx, so that a defect in fvx cannot also
move the bar it is judged against.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

# Identities per suite at the commit that defined this benchmark.
SUITE_IDENTITIES = {
    "algebra": 5,
    "calculus": 17,
    "stokes": 4,
    "flux": 4,
    "duality": 6,
    "lagrange": 3,
    "appendix": 3,
}
INTEGRAL_SUITES = ("calculus", "stokes", "flux", "lagrange")

# Every entry of fvx.mutations.MUTATIONS: (name, suite, identity that must catch it).
MUTATIONS = (
    ("wedge-sign", "algebra", "wedge-unit"),
    ("d4-sign", "calculus", "potential-d4"),
    ("d5-sign", "calculus", "bd-from-d5"),
    ("bd-sign", "calculus", "bd-unit"),
    ("bdstar-sign", "calculus", "bdstar-from-d5"),
    ("integrate-sign", "flux", "five-flux-routes"),
    ("flux-sign", "flux", "five-flux-routes"),
    ("epsilon-sign", "duality", "epsilon-reference"),
    ("dual-sign", "duality", "wedge-dual-pairing"),
    ("el-sign", "lagrange", "bd-lambda-residual"),
)

# Every demo/ command: (argv, exit code, exact stdout).
DEMO = (
    (("bd", "--form", "demo/const1.form"), 0, "rank 1\n5: 1\n"),
    (
        ("bdstar", "--form", "demo/mixed.form"),
        0,
        "rank 3\n013: -1\n015: -3/2 x0^2 x1 + x1 + x3\n025: -1\n235: 2/5\n",
    ),
    (("d", "--form", "demo/radial.form"), 0, "rank 2\n(zero)\n"),
    (("dual", "--form", "demo/j.form", "--config", "demo/lorentz.cfg"), 0, "rank 4\n0123: -1\n"),
    (("integrate", "--form", "demo/mixed.form", "--surface", "demo/square.surf"), 0, "1/4\n"),
    (
        ("stokes", "--form", "demo/shear.form", "--surface", "demo/square.surf"),
        0,
        "boundary: 1\ninterior: 1\nEQUAL\n",
    ),
    (
        ("flux", "--form", "demo/mixed.form", "--surface", "demo/square.surf"),
        0,
        "boundary+interior: 1/4\nderivative route: 1/4\nEQUAL\n",
    ),
    (
        ("el", "--lagrangian", "demo/free_scalar.lag", "--fields", "demo/wave_solution.json"),
        0,
        "field 0:\n  residual: 0\n  current/source match: yes\n  closed-form check: yes\n"
        "  probe flux: 0\nsolution\n",
    ),
    (
        ("el", "--lagrangian", "demo/free_scalar.lag", "--fields", "demo/not_solution.json"),
        1,
        "field 0:\n  residual: 2\n  current/source match: no\n  closed-form check: no\n"
        "  probe flux: 2\nnot a solution\n",
    ),
    (("integrate", "--form", "demo/shear.form", "--surface", "demo/cube4.surf"), 2, ""),
    (("stokes", "--form", "demo/shear.form", "--surface", "demo/cube4.surf"), 2, ""),
)

WORKLOADS = ("check-default", "check-integrals", "mutation-sweep", "cli-demo")

# fvx seeds per pass of the two green workloads.  The work of one seed
# varies by about 15 %, too much to compare runs made with different seeds,
# so a pass covers a panel of seeds.
DEFAULT_PANEL = 3
INTEGRAL_PANEL = 2
# check-integrals: trials per identity, so that a pass lasts about as long
# as a check-default pass would without the panel.
INTEGRAL_TRIALS = 100
# Passes a run makes at least, beyond filling --seconds: cli-demo needs 100
# commands so that its p90 latency has ten samples beyond it.
MIN_PASSES = {"cli-demo": 10}


@dataclass(frozen=True)
class Invocation:
    """One fvx command and what it must produce."""

    argv: tuple[str, ...]
    code: int
    stdout: str | None = None
    records: int = 0
    caught_by: tuple[str, str] | None = None
    suites: tuple[str, ...] = ()


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    digest: str | None = None
    suite_instances: dict[str, int] = field(default_factory=dict)


def _check(seed: int, suites: tuple[str, ...], trials: int | None) -> Invocation:
    argv = ["check", "--seed", str(seed), "--format", "jsonl"]
    if suites != tuple(SUITE_IDENTITIES):
        for suite in suites:
            argv += ["--suite", suite]
    if trials is not None:
        argv += ["--trials", str(trials)]
    records = sum(SUITE_IDENTITIES[s] for s in suites) * (trials or 25)
    return Invocation(tuple(argv), 0, records=records, suites=suites)


def invocations(workload: str, seed: int, tiny: bool = False) -> list[Invocation]:
    """The fvx commands of one pass over the workload, made from the seed.

    ``tiny`` shrinks every pass for the benchmark's own smoke test.
    """
    if workload == "check-default":
        panel = 1 if tiny else DEFAULT_PANEL
        trials = 1 if tiny else None
        return [_check(seed * panel + j, tuple(SUITE_IDENTITIES), trials) for j in range(panel)]
    if workload == "check-integrals":
        panel = 1 if tiny else INTEGRAL_PANEL
        trials = 2 if tiny else INTEGRAL_TRIALS
        return [_check(seed * panel + j, INTEGRAL_SUITES, trials) for j in range(panel)]
    if workload == "mutation-sweep":
        # One fvx seed per mutation: mutations that share a witness suite
        # would otherwise run the same instances, doubling the seed's swing.
        result = []
        for k, (name, suite, ident) in enumerate(MUTATIONS):
            fvx_seed = seed * len(MUTATIONS) + k
            argv = ("check", "--mutate", name, "--suite", suite, "--seed", str(fvx_seed), "--format", "jsonl")
            if tiny:
                argv += ("--trials", "2")
            trials = 2 if tiny else 25
            result.append(
                Invocation(argv, 1, records=SUITE_IDENTITIES[suite] * trials, caught_by=(suite, ident), suites=(suite,))
            )
        return result
    if workload == "cli-demo":
        commands = [Invocation(argv, code, stdout=out) for argv, code, out in DEMO]
        random.Random(seed).shuffle(commands)
        return commands
    raise ValueError(f"unknown workload {workload!r}")


def report_digest(records: list[dict]) -> str:
    """sha256 over the fields that define a verdict, in report order.

    Fields a later report may add (timings, sizes) are left out, so the
    digest compares verdicts and counterexamples only.
    """
    digest = hashlib.sha256()
    for r in records:
        key = [r["suite"], r["identity"], r["instance"], r["pass"], r["counterexample"]]
        digest.update(json.dumps(key).encode() + b"\n")
    return digest.hexdigest()


def judge(inv: Invocation, code: int, stdout: str, stderr: str) -> Verdict:
    """Decide whether one invocation gave the outcome it must give."""
    if inv.stdout is not None:
        if code != inv.code:
            return Verdict(False, f"exit {code}, expected {inv.code}")
        if stdout != inv.stdout:
            return Verdict(False, "stdout differs from the expected output")
        if code == 2 and (not stderr.startswith("fvx: ") or "Traceback" in stderr):
            return Verdict(False, "exit 2 without a plain fvx: message")
        return Verdict(True, suite_instances={"demo": 1})
    if code != inv.code:
        return Verdict(False, f"exit {code}, expected {inv.code}")
    try:
        records = [json.loads(line) for line in stdout.splitlines()]
    except json.JSONDecodeError:
        return Verdict(False, "report is not json lines")
    if len(records) != inv.records:
        return Verdict(False, f"{len(records)} records, expected {inv.records}")
    counts: dict[str, int] = {}
    for r in records:
        counts[r["suite"]] = counts.get(r["suite"], 0) + 1
    if set(counts) != set(inv.suites):
        return Verdict(False, f"report covers suites {sorted(counts)}")
    if inv.caught_by is None:
        if not all(r["pass"] for r in records):
            return Verdict(False, "a green run has failing records")
    elif not any(not r["pass"] and (r["suite"], r["identity"]) == inv.caught_by for r in records):
        return Verdict(False, f"mutation not caught by {'/'.join(inv.caught_by)}")
    return Verdict(True, digest=report_digest(records), suite_instances=counts)
