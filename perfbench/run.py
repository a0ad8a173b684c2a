"""fvx benchmark: end-to-end metrics from fvx child processes, per-layer
metrics from one traced in-process pass.

    python3 perfbench/run.py --workload check-default --seed 0 --seconds 10 --trace 0

Run it from the root of a source checkout; fvx is imported from ``src``.
With ``--trace 0`` the benchmark times untraced passes for ``--seconds``
seconds (at least one pass, ten on cli-demo) and reports the bounded
end-to-end metrics.
With ``--trace 1`` it runs one untraced pass and the same pass traced
through ``fvx.cli.main`` and reports the per-layer metrics.  Every
invocation is checked against the expectations in ``workloads.py``.  The
last line of stdout is the JSON result; the line before it holds the run's
context: machine, work and sample counts, and the raw timings (wall, CPU,
throughput, command latency) that are reported but not bounded.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

# setup_s is the median of at least SETUP_MIN samples, spread over the run
# (one every SETUP_SPACING_S seconds at most) so that they see the same
# machine-speed phases as the passes.
SETUP_MIN = 7
SETUP_SPACING_S = 2.0
REFERENCE_STEPS = 50
REFERENCE_SUM = 308
PROBE_INTERVAL_S = 0.05
# setup_s is reported at the speed where the reference loop takes this long
# (about its time on the 2-CPU machine this benchmark was written on, in a
# fast phase); the raw set-up time is in the context as setup_raw_s.
REFERENCE_NOMINAL_S = 0.0005
CHILD_TIMEOUT_S = 150

# Per-layer functions reported by name; each gets <name>.calls and <name>.self_s.
TRACED_FUNCTIONS = (
    "polyfield.Poly.__init__",
    "polyfield.Poly.__mul__",
    "polyfield.Poly.__add__",
    "polyfield.Poly.compose",
    "polyfield.Poly.partial",
    "polyfield.integrate_box",
    "polyfield.parse_poly",
    "forms_core.wedge",
    "forms_core.permutation_sign",
    "forms_core.transposition_identity_check",
    "forms_core.IndexedArray.from_function",
    "calculus.d4",
    "calculus.d5",
    "calculus.bd",
    "calculus.bdstar",
    "integration.integrate_m",
    "integration.integrate_deg",
    "integration.boundary_flux",
    "integration.five_flux",
    "integration.OrientedFace.surface",
    "metric_dual.epsilon_lower",
    "metric_dual.epsilon_upper",
    "metric_dual.dual",
    "metric_dual.h_inner",
    "lagrange.el_residual",
    "lagrange.el_report",
    "suites.run_single",
    "suites.shrink_instance",
    "io.load_form",
    "io.load_surface",
    "io.load_lagrangian",
    "io.load_fields",
    "io.load_metric",
    "cli.main",
)


@dataclass
class Outcome:
    inv: wl.Invocation
    verdict: wl.Verdict
    wall_s: float
    cpu_s: float = 0.0
    rss_kb: int = 0
    start: float = 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def reference_loop(steps: int) -> None:
    """A fixed pure-Python Fraction loop: the machine-speed yardstick."""
    total = 0
    for i in range(steps):
        a = Fraction(i % 97 + 1, i % 89 + 1)
        b = Fraction(i % 13 + 2, 7)
        total += (a * b + a / b - b).numerator
    if total != REFERENCE_SUM:
        raise RuntimeError("reference loop gave a wrong sum")


class SpeedProbe:
    """Times the reference loop every PROBE_INTERVAL_S, on the CPU the fvx
    children run on, while they run.

    This machine's speed moves by up to 2x within seconds, and differently on
    each CPU, so a reference timed between passes does not see the speed a
    pass ran at.  The probe shares the children's CPU and takes about 1 % of
    it.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            start = time.perf_counter()
            reference_loop(REFERENCE_STEPS)
            self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mean_s(self, start: float, end: float) -> float:
        """Mean loop time over [start, end], without the outer fifths.

        A mean, because a long span mixes fast and slow phases; trimmed,
        because a probe that was preempted or waited for the interpreter
        lock reads long.
        """
        pad = PROBE_INTERVAL_S
        window = sorted(d for t, d in self.samples if start - pad <= t <= end + pad)
        if not window:
            raise RuntimeError("no speed probe ran during an invocation")
        cut = len(window) // 5
        kept = window[cut : len(window) - cut]
        return sum(kept) / len(kept)


def steal_ticks() -> int | None:
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_child(cmd: list[str], tmp_dir: Path) -> tuple[int, str, str, float, float, int, float]:
    """Run one child to completion; return code, stdout, stderr, wall, cpu, max-RSS, start."""
    out_path, err_path = tmp_dir / "stdout", tmp_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        proc.returncode,
        out_path.read_text(),
        err_path.read_text(),
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss,
        start,
    )


def fvx_command(argv: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "fvx.cli", *argv]


def untraced_pass(invs: list[wl.Invocation], tmp_dir: Path, between=lambda: None) -> list[Outcome]:
    """Run each invocation as a child; ``between`` runs after each one, untimed."""
    outcomes = []
    for inv in invs:
        code, out, err, wall, cpu, rss, start = run_child(fvx_command(inv.argv), tmp_dir)
        outcomes.append(Outcome(inv, wl.judge(inv, code, out, err), wall, cpu, rss, start))
        between()
    return outcomes


def traced_pass(invs: list[wl.Invocation], tracer: Tracer) -> list[Outcome]:
    """Run the pass in this process through fvx.cli.main under the tracer."""
    outcomes = []
    with tracer:
        main = sys.modules["fvx.cli"].main
        for inv in invs:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(list(inv.argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
            wall = time.perf_counter() - start
            outcomes.append(Outcome(inv, wl.judge(inv, code, out.getvalue(), err.getvalue()), wall))
    return outcomes


def gate(passes: list[list[Outcome]]) -> tuple[int, int, list[str]]:
    """Count outcomes and failures; a report digest that changes between passes fails."""
    seen: dict[tuple[str, ...], str] = {}
    attempted = failed = 0
    reasons = []
    for outcomes in passes:
        for o in outcomes:
            attempted += 1
            reason = o.verdict.reason if not o.verdict.ok else ""
            if o.verdict.digest is not None:
                first = seen.setdefault(o.inv.argv, o.verdict.digest)
                if first != o.verdict.digest:
                    reason = "report differs from an earlier pass"
            if reason:
                failed += 1
                reasons.append(f"{' '.join(o.inv.argv)}: {reason}")
    return attempted, failed, reasons


def work_counts(outcomes: list[Outcome]) -> dict[str, object]:
    suites: dict[str, int] = {}
    for o in outcomes:
        for suite, n in o.verdict.suite_instances.items():
            suites[suite] = suites.get(suite, 0) + n
    return {"instances": sum(suites.values()), "invocations": len(outcomes), "suite_instances": suites}


def setup_times(tmp_dir: Path, repeats: int) -> list[tuple[float, float]]:
    """(start, wall) of children that start and import fvx.cli, doing no work."""
    cmd = [sys.executable, "-c", "import fvx.cli"]
    times = []
    for _ in range(repeats):
        code, _, err, wall, _, _, start = run_child(cmd, tmp_dir)
        if code != 0:
            raise RuntimeError(f"importing fvx.cli failed: {err.strip()}")
        times.append((start, wall))
    return times


def measure(
    invs: list[wl.Invocation], seconds: int, min_passes: int, tmp_dir: Path
) -> tuple[dict, dict, list]:
    """Untraced passes for ``seconds`` seconds and at least ``min_passes``
    passes, with the speed probe on.

    Returns the bounded end-to-end metrics, the context (which carries the
    raw timings too) and the passes for the gate.
    """
    # Children inherit this CPU, so the probe shares it with them.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    passes: list[list[Outcome]] = []
    with SpeedProbe() as probe:
        setup = setup_times(tmp_dir, 3)
        last_setup = [time.perf_counter()]

        def sample_setup() -> None:
            if time.perf_counter() - last_setup[0] >= SETUP_SPACING_S:
                setup.extend(setup_times(tmp_dir, 1))
                last_setup[0] = time.perf_counter()

        start = time.perf_counter()
        while len(passes) < min_passes or time.perf_counter() - start < seconds:
            passes.append(untraced_pass(invs, tmp_dir, sample_setup))
        setup.extend(setup_times(tmp_dir, SETUP_MIN - len(setup)))

    def in_loops(start: float, wall: float) -> float:
        return wall / probe.mean_s(start, start + wall)

    walls = [sum(o.wall_s for o in p) for p in passes]
    instances = [work_counts(p)["instances"] for p in passes]
    latencies_ms = [o.wall_s * 1000 for p in passes for o in p]
    metrics = {
        "setup_s": (statistics.median(in_loops(t, w) for t, w in setup) * REFERENCE_NOMINAL_S, "s"),
        "wall_ref_x": (statistics.median(sum(in_loops(o.start, o.wall_s) for o in p) for p in passes), "x"),
        "peak_rss_mb": (statistics.median(max(o.rss_kb for o in p) / 1024 for p in passes), "MB"),
    }
    raw = {
        "setup_raw_s": (statistics.median(w for _, w in setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(sum(o.cpu_s for o in p) for p in passes), "s"),
        "instances_per_s": (statistics.median(n / w for n, w in zip(instances, walls)), "1/s"),
        "cmd_p50_ms": (percentile(latencies_ms, 50), "ms"),
        "cmd_p90_ms": (percentile(latencies_ms, 90), "ms"),
    }
    context = {
        "unbounded_metrics": {name: {"value": v, "unit": u} for name, (v, u) in raw.items()},
        "samples": {
            "setup": len(setup),
            "passes": len(passes),
            "invocations": len(latencies_ms),
            "reference": len(probe.samples),
        },
        "reference_median_s": statistics.median(d for _, d in probe.samples),
        "pass_work": [work_counts(p) for p in passes],
    }
    return metrics, context, passes


def trace(invs: list[wl.Invocation], tmp_dir: Path) -> tuple[dict, dict, list]:
    """One untraced pass, then the same pass traced; the gate compares their reports."""
    untraced = untraced_pass(invs, tmp_dir)
    tracer = Tracer(keep_durations=("suites.run_single",))
    traced = traced_pass(invs, tracer)

    metrics: dict[str, tuple[float, str]] = {}
    for name in TRACED_FUNCTIONS:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name], "s")
    spans_ms = [d * 1000 for d in tracer.durations["suites.run_single"]] or [0.0]
    metrics["suites.run_single.p50_ms"] = (percentile(spans_ms, 50), "ms")
    metrics["suites.run_single.p99_ms"] = (percentile(spans_ms, 99), "ms")
    for layer in LAYERS:
        names = [n for n in tracer.calls if n.startswith(layer + ".")]
        metrics[f"{layer}.calls"] = (sum(tracer.calls[n] for n in names), "count")
        metrics[f"{layer}.self_s"] = (sum(tracer.self_s[n] for n in names), "s")
    metrics["trace.traced_wall_s"] = (sum(o.wall_s for o in traced), "s")
    metrics["trace.untraced_wall_s"] = (sum(o.wall_s for o in untraced), "s")
    context = {
        "samples": {"run_single": len(tracer.durations["suites.run_single"])},
        "bindings_patched": tracer.bindings,
        "pass_work": [work_counts(untraced), work_counts(traced)],
    }
    return metrics, context, [untraced, traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every pass (smoke test)")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running child is killed and reaped and
    # the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "fvx" / "cli.py").is_file() or not (ROOT / "demo").is_dir():
        print(f"perfbench: no fvx source tree (src/fvx, demo/) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    invs = wl.invocations(args.workload, args.seed, tiny=args.tiny)
    load_before, steal_before = os.getloadavg(), steal_ticks()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.trace:
            metrics, context, passes = trace(invs, Path(tmp))
        else:
            min_passes = 1 if args.tiny else wl.MIN_PASSES.get(args.workload, 1)
            metrics, context, passes = measure(invs, args.seconds, min_passes, Path(tmp))
    attempted, failed, reasons = gate(passes)
    if args.trace:
        metrics["failed_frac"] = (failed / attempted, "fraction")

    context.update(
        workload=args.workload,
        seed=args.seed,
        python=platform.python_version(),
        nproc=os.cpu_count(),
        loadavg_before=load_before,
        loadavg_after=os.getloadavg(),
        steal_ticks_before=steal_before,
        steal_ticks_after=steal_ticks(),
        child_command=fvx_command(invs[0].argv),
        child_pythonpath=str(ROOT / "src"),
        failures=reasons,
    )
    print(json.dumps({"context": context}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
