"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench

They use ``--tiny`` passes, so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3"]
    cmd += ["--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_gate_trips_on_a_swapped_caught_by(tmp_path):
    d4, d5 = (inv for inv in wl.invocations("mutation-sweep", 0, tiny=True) if inv.argv[2] in ("d4-sign", "d5-sign"))
    swapped = [replace(d4, caught_by=d5.caught_by), replace(d5, caught_by=d4.caught_by)]
    attempted, failed, reasons = run.gate([run.untraced_pass(swapped, tmp_path)])
    assert (attempted, failed) == (2, 2)
    assert all("not caught by" in r for r in reasons)


def test_gate_trips_on_an_altered_demo_output():
    argv, code, stdout = wl.DEMO[4]
    good = wl.Invocation(argv, code, stdout=stdout)
    assert wl.judge(good, code, stdout, "").ok
    assert not wl.judge(replace(good, stdout=stdout.replace("1/4", "1/5")), code, stdout, "").ok
    assert not wl.judge(replace(good, code=1), code, stdout, "").ok


def test_exit_two_needs_a_plain_message():
    argv, code, stdout = wl.DEMO[-1]
    inv = wl.Invocation(argv, code, stdout=stdout)
    assert wl.judge(inv, 2, "", "fvx: variant needs rank + 1 = dim\n").ok
    assert not wl.judge(inv, 2, "", "Traceback (most recent call last):\n").ok


def test_gate_trips_when_a_report_changes_between_passes():
    inv = wl.invocations("check-integrals", 0, tiny=True)[0]
    first = run.Outcome(inv, wl.Verdict(True, digest="a"), 1.0)
    second = run.Outcome(inv, wl.Verdict(True, digest="b"), 1.0)
    assert run.gate([[first], [second]])[:2] == (2, 1)


def test_tracer_patches_every_binding_and_restores_it():
    import fvx
    from fvx import calculus, forms_core, integration, lagrange, polyfield

    originals = (calculus.d5, forms_core.wedge, polyfield.integrate_box, polyfield.Poly.__init__)
    tracer = Tracer()
    with tracer:
        assert integration.d5 is calculus.d5 is fvx.d5
        assert lagrange.bd is calculus.bd
        assert calculus.d5.__wrapped__ is originals[0]
        assert tracer.bindings["calculus.d5"] >= 3
        assert tracer.bindings["forms_core.wedge"] >= 3
        integration.d5(forms_core.FiveForm.from_scalar(1))
    assert tracer.calls["calculus.d5"] == 1
    assert (calculus.d5, forms_core.wedge, polyfield.integrate_box, polyfield.Poly.__init__) == originals
    assert integration.d5 is originals[0] and fvx.d5 is originals[0]


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("cli-demo", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
