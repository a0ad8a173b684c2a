"""The experiment scripts named in the README run and print their findings."""

import pytest

from children import ROOT, run_python


def run_script(name: str):
    return run_python(str(ROOT / "scripts" / name), timeout=60)


@pytest.mark.parametrize(
    "name, lines",
    [
        (
            "field_equation_walkthrough.py",
            [
                "solution: phi = x0 x1",
                "off shell: phi = x0^2",
                "  residual                 2",
                "  current matches source   False",
                "  flux over side-2 cube    32",
                "  flux over side-3 cube    162",
            ],
        ),
        (
            "parametrization_dependence.py",
            [
                "          plain pullback of x0 dx0         1/2           1/2",
                " full-frame value of the unit slot         1/2           1/8",
                "the full-frame number follows the parametrization, not the segment",
            ],
        ),
    ],
)
def test_script_runs_and_prints_its_findings(name, lines):
    result = run_script(name)
    assert result.returncode == 0
    assert result.stderr == ""
    printed = result.stdout.splitlines()
    for line in lines:
        assert line in printed
