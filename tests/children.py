"""Child interpreters for the tests.

pytest's ``pythonpath`` setting puts ``src`` on the path of the test process
only; a spawned ``python -m fvx.cli`` does not see it.  Every test that
starts a child goes through ``run_python``, which puts this checkout's
``src`` first on the child's ``PYTHONPATH``, so the suite runs the same
with and without an installed fvx.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_python(
    *args: str, stdout=subprocess.PIPE, env: dict[str, str] | None = None, **kwargs
) -> subprocess.CompletedProcess:
    """``python *args`` with ``src`` on the path and ``env`` over the
    environment; stderr, and stdout unless it is given, captured as text."""
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={**child_env(), **(env or {})},
        **kwargs,
    )
