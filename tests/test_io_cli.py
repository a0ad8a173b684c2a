"""File formats and the command-line driver."""

import contextlib
import copy
import functools
import gc
import importlib
import io
import itertools
import json
import math
import os
import pkgutil
import random
import signal
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import fvx
from fvx import forms_core as fc
from fvx import integration as ig
from fvx import io as fio
from fvx import lagrange as lg
from fvx import mutations as mu
from fvx import suites as su
from fvx.cli import COMMANDS, main, parse_args
from fvx.forms_core import FiveForm
from fvx.metric_dual import MetricConfig
from fvx.polyfield import COORD_NAMES, Poly, format_rational, parse_poly

from children import run_python

DEMO = Path(__file__).resolve().parent.parent / "demo"


# -- rationals ---------------------------------------------------------------


def test_parse_rational_accepts_int_and_string():
    assert fio.parse_rational(7, "x") == Fraction(7)
    assert fio.parse_rational("-3/4", "x") == Fraction(-3, 4)


def test_parse_rational_rejects_bool_and_float():
    with pytest.raises(fio.FormatError, match="boolean"):
        fio.parse_rational(True, "x")
    with pytest.raises(fio.FormatError, match="expected a rational"):
        fio.parse_rational(0.5, "x")
    with pytest.raises(fio.FormatError, match="bad rational"):
        fio.parse_rational("3//4", "x")


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=8), st.text("0123456789+-/._e ٣²", max_size=8)))
@example("٣/٣")
@example("1e1000000")
@example("1e10000000")
@example("1_000")
@example(" 1/2 ")
@example("-0.25")
@example("9" * 5000)
def test_any_text_rational_loads_or_raises_format_error(text):
    surface = {"dim": 1, "map": ["l1", "0", "0", "0"], "box": [["-1", text]]}
    try:
        value = fio.parse_rational(text, "xi")
    except fio.FormatError as exc:
        assert str(exc).startswith("xi: bad rational")
        with pytest.raises(fio.FormatError, match=r"box\[0\]\[1\]"):
            fio.surface_from_dict(surface)
        return
    sign, body = (text[0], text[1:]) if text[0] in "+-" else ("", text)
    assert sign + body == text and body and set(body) <= set("0123456789/.")
    assert value == Fraction(text)


def test_format_rational_prefers_plain_int():
    assert format_rational(Fraction(4)) == 4
    assert format_rational(Fraction(1, 3)) == "1/3"


# -- form files --------------------------------------------------------------


def test_form_roundtrip():
    data = {"rank": 2, "coeffs": {"01": "3/2 x0^2 x1 - x3", "15": "x0 x1"}}
    form = fio.form_from_dict(data)
    assert form.rank == 2
    assert form.coeff((0, 1)) == parse_poly("3/2 x0^2 x1 - x3", ("x0", "x1", "x2", "x3"))
    assert fc.form_to_dict(form) == data
    # Counterexamples print drawn forms through form_to_dict; read them back.
    rng = random.Random("roundtrip:form")
    for rank in range(6):
        for _ in range(50):
            drawn = su.rand_form(rng, rank, 3)
            assert fio.form_from_dict(json.loads(json.dumps(fc.form_to_dict(drawn)))) == drawn


def test_scalar_form_uses_empty_key():
    form = fio.form_from_dict({"rank": 0, "coeffs": {"": "5"}})
    assert form.coeff(()) == parse_poly("5", ("x0", "x1", "x2", "x3"))
    assert fc.form_to_dict(form) == {"rank": 0, "coeffs": {"": "5"}}


def test_form_zero_coefficients_are_dropped_on_write():
    form = fio.form_from_dict({"rank": 1, "coeffs": {"0": "0", "5": "1"}})
    assert fc.form_to_dict(form) == {"rank": 1, "coeffs": {"5": "1"}}


def test_form_key_validation():
    with pytest.raises(fio.FormatError, match="digit strings"):
        fio.form_from_dict({"rank": 1, "coeffs": {"a": "1"}})
    with pytest.raises(fio.FormatError, match="labels must come from 0,1,2,3,5"):
        fio.form_from_dict({"rank": 1, "coeffs": {"4": "1"}})
    with pytest.raises(fio.FormatError, match="strictly increasing"):
        fio.form_from_dict({"rank": 2, "coeffs": {"10": "1"}})
    with pytest.raises(fio.FormatError, match="has 2 labels but rank is 3"):
        fio.form_from_dict({"rank": 3, "coeffs": {"01": "1"}})


# Non-ASCII digits ("٣" is Arabic-Indic three, "²" a superscript two) are
# digits to str.isdigit() and, for the first, to int(); keys take only ASCII.
@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=5), st.text("0123456789٣²", max_size=5)), st.integers(0, 5))
@example("٣", 1)
@example("²", 1)
@example("0٣", 2)
def test_any_text_key_loads_or_raises_format_error(key, rank):
    try:
        form = fio.form_from_dict({"rank": rank, "coeffs": {key: "1"}})
    except fio.FormatError:
        return
    assert set(key) <= set("01235")
    assert list(form.coeffs) == [tuple(int(ch) for ch in key)]


def test_form_rank_and_field_validation():
    with pytest.raises(fio.FormatError, match="rank must be an integer"):
        fio.form_from_dict({"rank": 6, "coeffs": {}})
    with pytest.raises(fio.FormatError, match="unknown fields"):
        fio.form_from_dict({"rank": 0, "coeffs": {}, "extra": 1})
    with pytest.raises(fio.FormatError, match="polynomial string"):
        fio.form_from_dict({"rank": 1, "coeffs": {"0": 7}})


def test_form_to_text_lists_components_in_order():
    form = fio.form_from_dict({"rank": 2, "coeffs": {"15": "x0", "01": "1"}})
    assert fc.form_to_text(form) == "rank 2\n01: 1\n15: x0"
    zero = FiveForm.zero(3)
    assert fc.form_to_text(zero) == "rank 3\n(zero)"


# -- surface files -----------------------------------------------------------


def test_surface_roundtrip():
    data = {"dim": 2, "map": ["l1", "l2", "l1 l2", "0"], "box": [[0, 1], ["-1/2", "1/2"]]}
    V = fio.surface_from_dict(data)
    assert V.dim == 2
    assert V.box[1] == (Fraction(-1, 2), Fraction(1, 2))
    back = ig.surface_to_dict(V)
    assert back["dim"] == 2
    assert fio.surface_from_dict(back) == V
    rng = random.Random("roundtrip:surface")
    for dim in range(1, 5):
        for _ in range(75):
            drawn = su.rand_surface(rng, dim, 3)
            data = json.loads(json.dumps(ig.surface_to_dict(drawn)))
            assert fio.surface_from_dict(data) == drawn


def test_surface_validation():
    with pytest.raises(fio.FormatError, match="dim must be an integer"):
        fio.surface_from_dict({"dim": 5, "map": ["0"] * 4, "box": []})
    with pytest.raises(fio.FormatError, match="four coordinate polynomials"):
        fio.surface_from_dict({"dim": 1, "map": ["l1"], "box": [[0, 1]]})
    with pytest.raises(fio.FormatError, match="2 bound pairs"):
        fio.surface_from_dict({"dim": 2, "map": ["0"] * 4, "box": [[0, 1]]})
    with pytest.raises(fio.FormatError, match="pair"):
        fio.surface_from_dict({"dim": 1, "map": ["0"] * 4, "box": [[0, 1, 2]]})


# -- lagrangian and field files ------------------------------------------------


def test_lagrangian_roundtrip():
    data = {"N": 2, "density": "1/2 p0_5^2 - p0_5 p1_5"}
    L = fio.lagrangian_from_dict(data)
    assert L.n_fields == 2
    assert fio.lagrangian_from_dict(lg.lagrangian_to_dict(L)) == L
    rng = random.Random("roundtrip:lagrangian")
    for n_fields in (1, 2):
        for _ in range(150):
            drawn = su.rand_lagrangian(rng, n_fields, 3)
            data = json.loads(json.dumps(lg.lagrangian_to_dict(drawn)))
            assert fio.lagrangian_from_dict(data) == drawn
    with pytest.raises(fio.FormatError, match="positive integer"):
        fio.lagrangian_from_dict({"N": 0, "density": "0"})
    assert fio.lagrangian_from_dict({"N": fio.MAX_FIELDS, "density": "0"}).n_fields == fio.MAX_FIELDS
    with pytest.raises(fio.FormatError, match=f"N = {fio.MAX_FIELDS + 1} above the cap"):
        fio.lagrangian_from_dict({"N": fio.MAX_FIELDS + 1, "density": "0"})


def test_fields_roundtrip():
    phi = fio.fields_from_list(["x0 x1", "x2^2"])
    assert lg.fields_to_list(phi) == ["x0 x1", "x2^2"]
    rng = random.Random("roundtrip:fields")
    for n_fields in (1, 2):
        for _ in range(150):
            drawn = su.rand_fields(rng, n_fields, 3)
            assert fio.fields_from_list(json.loads(json.dumps(lg.fields_to_list(drawn)))) == drawn
    with pytest.raises(fio.FormatError, match="expected a list"):
        fio.fields_from_list({"0": "x0"})


# -- metric files --------------------------------------------------------------


def test_metric_roundtrip_and_partial_keys():
    cfg = fio.metric_from_dict({"g": [1, 1, 1, -1], "xi": "-1/1", "sigma": "2", "eta": -1})
    assert cfg == MetricConfig(g=(1, 1, 1, -1), xi=Fraction(-1), sigma=Fraction(2), eta=-1)
    # omitted keys fall back to the defaults
    assert fio.metric_from_dict({"xi": 1}).g == (1, -1, -1, -1)
    with pytest.raises(fio.FormatError, match="four signs"):
        fio.metric_from_dict({"g": [1, -1]})
    with pytest.raises(fio.FormatError, match="eta"):
        fio.metric_from_dict({"eta": 2})


# -- file loading ---------------------------------------------------------------


def test_load_json_reports_path_and_position(tmp_path):
    missing = tmp_path / "missing.form"
    with pytest.raises(fio.FormatError, match="missing.form"):
        fio.load_json(str(missing))
    bad = tmp_path / "bad.form"
    bad.write_text('{"rank": 1,,}')
    with pytest.raises(fio.FormatError, match=r"bad.form: Expecting .*: line 1 column 12 "):
        fio.load_json(str(bad))


def test_load_form_prefixes_path_on_content_errors(tmp_path):
    path = tmp_path / "x.form"
    path.write_text(json.dumps({"rank": 1, "coeffs": {"4": "1"}}))
    with pytest.raises(fio.FormatError, match="x.form.*labels must come from"):
        fio.load_form(str(path))


# -- suite configuration ---------------------------------------------------------


def test_suite_config_validation():
    with pytest.raises(ValueError, match="trials"):
        su.SuiteConfig(trials=0)
    with pytest.raises(ValueError, match="--trials 1001 above the cap of 1000"):
        su.SuiteConfig(trials=1001)
    assert su.SuiteConfig(trials=1000).trials == 1000
    with pytest.raises(ValueError, match="max degree"):
        su.SuiteConfig(max_degree=0)
    with pytest.raises(ValueError, match="--max-degree 9 above the cap of 8"):
        su.SuiteConfig(max_degree=9)
    assert su.SuiteConfig(max_degree=8).max_degree == 8
    with pytest.raises(ValueError, match="no suites selected"):
        su.SuiteConfig(suites=())
    with pytest.raises(ValueError, match="unknown suite"):
        su.SuiteConfig(suites=("algebra", "nope"))


def test_check_refuses_max_degree_above_the_exponent_bound(capsys):
    assert main(["check", "--max-degree", "40000"]) == 2
    assert capsys.readouterr().err == "fvx: --max-degree 40000 above the cap of 8\n"


def test_check_refuses_a_high_degree_before_any_work(capsys):
    # Degree 120 used to run for over a minute inside Poly.compose.
    start = time.monotonic()
    assert main(["check", "--suite", "stokes", "--max-degree", "120", "--trials", "2", "--seed", "0"]) == 2
    assert time.monotonic() - start < 1
    assert capsys.readouterr().err == "fvx: --max-degree 120 above the cap of 8\n"


@pytest.mark.parametrize("trials", ["1001", "99999999999999999999999"])
def test_check_refuses_a_trial_count_above_the_cap(capsys, trials):
    # An oversized count used to run until killed, keeping every record.
    start = time.monotonic()
    assert main(["check", "--suite", "algebra", "--trials", trials]) == 2
    assert time.monotonic() - start < 1
    assert capsys.readouterr().err == f"fvx: --trials {trials} above the cap of 1000\n"


def test_reports_are_deterministic_for_a_seed():
    cfg = su.SuiteConfig(seed=13, trials=2)
    first = su.emit_report(su.run_suite(cfg), "jsonl")
    second = su.emit_report(su.run_suite(cfg), "jsonl")
    assert first == second


def test_counterexamples_are_deterministic_for_a_seed():
    # Failing records embed the shrunk instance, so a repeated mutated run
    # must reproduce the same counterexample text byte for byte.
    cfg = su.SuiteConfig(seed=13, trials=2, suites=("calculus",))
    with mu.apply_mutation("d5-sign"):
        first = su.emit_report(su.run_suite(cfg), "jsonl")
    with mu.apply_mutation("d5-sign"):
        second = su.emit_report(su.run_suite(cfg), "jsonl")
    assert first == second
    assert any(json.loads(line)["counterexample"] for line in first.splitlines())


def test_jsonl_has_one_record_per_instance():
    cfg = su.SuiteConfig(seed=1, trials=3, suites=("algebra", "flux"))
    lines = su.emit_report(su.run_suite(cfg), "jsonl").splitlines()
    expected = 3 * (len(su.identities("algebra")) + len(su.identities("flux")))
    assert len(lines) == expected
    record = json.loads(lines[0])
    assert set(record) == {"suite", "identity", "instance", "pass", "counterexample"}


def test_emit_report_rejects_unknown_format():
    report = su.run_suite(su.SuiteConfig(trials=1, suites=("algebra",)))
    with pytest.raises(ValueError, match="format"):
        su.emit_report(report, "xml")


# -- mutation registry ------------------------------------------------------------


# Each mutation against its registered witness, plus identities that see the
# patch only through a by-name import of the operator in integration.
@pytest.mark.parametrize(
    "name, suite, identity",
    [pytest.param(m.name, *m.caught_by, id=m.name) for m in mu.MUTATIONS]
    + [
        pytest.param("d5-sign", "stokes", "boundary-interior-plain", id="d5-sign-stokes-plain"),
        pytest.param("d5-sign", "stokes", "boundary-interior-five", id="d5-sign-stokes-five"),
        pytest.param("bd-sign", "flux", "by-parts-bd-left", id="bd-sign-by-parts"),
        pytest.param("bdstar-sign", "flux", "by-parts-bdstar-left", id="bdstar-sign-by-parts"),
    ],
)
def test_mutation_is_caught_by_its_witness(name, suite, identity):
    cfg = su.SuiteConfig(seed=11, trials=10, suites=(suite,))
    with mu.apply_mutation(name):
        report = su.run_suite(cfg)
    failed = {(r.suite, r.identity) for r in report.failures}
    assert (suite, identity) in failed


def test_mutation_reaches_every_binding():
    # A module that imported the operator by name must see the patch too, and
    # so must a class member under each name its class binds it to.
    modules = [fvx] + [
        importlib.import_module(f"fvx.{info.name}") for info in pkgutil.iter_modules(fvx.__path__)
    ]
    classes = [c for m in modules for c in vars(m).values() if isinstance(c, type) and c.__module__ == m.__name__]
    for mutation in mu.MUTATIONS:
        original = getattr(mutation.target, mutation.attribute)
        bound = [(o, a) for o in modules + classes for a, v in vars(o).items() if v is original]
        assert (mutation.target, mutation.attribute) in bound, mutation.name
        with mu.apply_mutation(mutation.name):
            stale = [f"{o.__name__}.{a}" for o, a in bound if vars(o)[a] is original]
        assert not stale, f"{mutation.name} misses {stale}"
        assert all(vars(o)[a] is original for o, a in bound)


def test_class_member_patch_is_restored_when_the_block_raises():
    original = Poly.partial
    with pytest.raises(RuntimeError, match="inside"):
        with mu.apply_mutation("partial-sign"):
            assert Poly.partial is not original
            raise RuntimeError("inside")
    assert Poly.partial is original


def test_nested_mutations_restore_the_original():
    x = Poly.variable(0, 1)
    original = Poly.restrict
    with mu.apply_mutation("restrict-sign"):
        assert x.restrict(0, 2) == -2
        with mu.apply_mutation("restrict-sign"):
            assert x.restrict(0, 2) == 2
        assert x.restrict(0, 2) == -2
    assert Poly.restrict is original
    assert x.restrict(0, 2) == 2


def test_rebound_rebinds_every_alias_in_a_class():
    original = Poly.__add__
    assert Poly.__radd__ is original
    x = Poly.variable(0, 1)
    with mu.rebound(original, lambda self, other: "patched") as bindings:
        assert {attr for owner, attr in bindings if owner is Poly} == {"__add__", "__radd__"}
        assert x + 1 == 1 + x == "patched"
    assert Poly.__add__ is Poly.__radd__ is original
    assert (x + 1).evaluate([2]) == (1 + x).evaluate([2]) == 3


def test_mutation_restores_the_operator():
    from fvx import calculus

    original = calculus.bd
    with mu.apply_mutation("bd-sign"):
        assert calculus.bd is not original
    assert calculus.bd is original
    with pytest.raises(ValueError, match="unknown mutation"):
        with mu.apply_mutation("nope"):
            pass


def test_clean_run_passes_every_identity():
    report = su.run_suite(su.SuiteConfig(seed=2, trials=2))
    assert report.passed
    identities = {(r.suite, r.identity) for r in report.records}
    assert len(identities) == sum(len(su.identities(suite)) for suite in su.SUITE_NAMES)


# -- command line: check -----------------------------------------------------------


def test_check_exits_zero_and_prints_summary(capsys):
    assert main(["check", "--suite", "algebra", "--trials", "2", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS algebra/wedge-unit (2 instances)" in out
    assert "5 identities, 10 instances, 0 failures" in out


def test_check_output_is_reproducible(capsys):
    args = ["check", "--suite", "calculus", "--trials", "2", "--seed", "9"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_check_jsonl_to_file(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    rc = main(
        ["check", "--suite", "algebra", "--trials", "2", "--format", "jsonl", "--out", str(out)]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    lines = out.read_text().splitlines()
    assert len(lines) == 2 * len(su.identities("algebra"))
    assert all(json.loads(line)["pass"] for line in lines)


def test_check_mutate_exits_nonzero(capsys):
    rc = main(
        ["check", "--suite", "duality", "--trials", "3", "--seed", "11", "--mutate", "dual-sign"]
    )
    assert rc == 1
    assert "FAIL duality/wedge-dual-pairing" in capsys.readouterr().out


@pytest.mark.parametrize("flag, kind", [("--suite", "suite"), ("--mutate", "mutation")])
def test_check_unknown_name_exits_two_naming_it(flag, kind):
    result = run_python("-m", "fvx.cli", "check", flag, "nope")
    assert result.returncode == 2
    assert result.stderr == f"fvx: unknown {kind} 'nope'\n"
    assert result.stdout == ""


def test_check_rejects_bad_trials(capsys):
    assert main(["check", "--trials", "0"]) == 2
    assert "trials" in capsys.readouterr().err


def test_check_accepts_metric_config(capsys):
    rc = main(
        ["check", "--suite", "duality", "--trials", "2", "--config", str(DEMO / "lorentz.cfg")]
    )
    assert rc == 0


# -- command line: operators ---------------------------------------------------------


def test_bd_of_unit_prints_distinguished_direction(capsys):
    assert main(["bd", "--form", str(DEMO / "const1.form")]) == 0
    assert capsys.readouterr().out == "rank 1\n5: 1\n"


def test_d_rejects_label_five_components(capsys):
    assert main(["d", "--form", str(DEMO / "mixed.form")]) == 2
    assert "without label-5 components" in capsys.readouterr().err


@pytest.mark.parametrize("coeffs", [{}, {"01235": "x0"}], ids=["no-coefficients", "label-five"])
def test_d_refuses_rank_five_naming_the_file(tmp_path, capsys, coeffs):
    form = tmp_path / "x.form"
    form.write_text(json.dumps({"rank": 5, "coeffs": coeffs}))
    assert main(["d", "--form", str(form)]) == 2
    assert capsys.readouterr().err == f"fvx: {form}: d takes forms of rank at most 4 without label-5 components\n"


def test_d_of_closed_form_is_zero(capsys):
    assert main(["d", "--form", str(DEMO / "radial.form")]) == 0
    assert "(zero)" in capsys.readouterr().out


def test_operator_writes_json_result(tmp_path, capsys):
    out = tmp_path / "result.form"
    assert main(["bdstar", "--form", str(DEMO / "mixed.form"), "--out", str(out)]) == 0
    capsys.readouterr()
    written = fio.load_form(str(out))
    assert written.rank == 3


def test_dual_respects_config(tmp_path, capsys):
    euclid = tmp_path / "euclid.cfg"
    euclid.write_text(json.dumps({"g": [1, 1, 1, 1], "xi": 1}))
    assert main(["dual", "--form", str(DEMO / "radial.form")]) == 0
    default_out = capsys.readouterr().out
    assert main(["dual", "--form", str(DEMO / "radial.form"), "--config", str(euclid)]) == 0
    assert capsys.readouterr().out != default_out


def test_dual_of_distinguished_direction_has_plain_block_only(capsys):
    assert main(["dual", "--form", str(DEMO / "j.form")]) == 0
    assert capsys.readouterr().out == "rank 4\n0123: -1\n"


def test_missing_file_exits_two(capsys):
    assert main(["bd", "--form", str(DEMO / "nope.form")]) == 2
    assert "nope.form" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, name, payload, message",
    [
        (["bd", "--form"], "x.form", {"rank": 1, "coeffs": {"٣": "1"}}, "coeffs key '٣': keys are digit strings"),
        (["bd", "--form"], "x.form", {"rank": 1, "coeffs": {"²": "1"}}, "coeffs key '²': keys are digit strings"),
        (["check", "--suite", "algebra", "--config"], "x.cfg", {"xi": 2}, "cfg: non-rational normalization"),
        (
            ["dual", "--form", str(DEMO / "j.form"), "--config"],
            "x.cfg",
            {"xi": "٣/٣"},
            "xi: bad rational '٣/٣' (expected [+-]digits[/digits or .digits])",
        ),
        (
            ["integrate", "--form", str(DEMO / "radial.form"), "--surface"],
            "x.surf",
            {"dim": 1, "map": ["l1", "0", "0", "0"], "box": [[0, "1e1000000"]]},
            "box[0][1]: bad rational '1e1000000' (expected [+-]digits[/digits or .digits])",
        ),
        (
            ["integrate", "--form", str(DEMO / "radial.form"), "--surface"],
            "x.surf",
            {"dim": 2, "map": ["l1", "l2", "0", "0"], "box": [[0, 1], [1, "1/2"]]},
            "surface: box[1] must satisfy a < b, got [1, 1/2]",
        ),
        (["bd", "--form"], "x.form", {"rank": 0, "coeffs": {"": "٣ x0^٢"}}, "coeffs['']: unexpected character '٣' at position 0"),
        (["dual", "--form", str(DEMO / "j.form"), "--config"], "x.cfg", {"g": ["1.5", 1, 1, 1]}, "cfg: g must list four signs"),
        (
            ["integrate", "--surface", str(DEMO / "square.surf"), "--form"],
            "x.form",
            {"rank": 2, "coeffs": {"01": "x0^100000000"}},
            "coeffs['01']: exponent 100000000 above 32767",
        ),
        (
            ["integrate", "--surface", str(DEMO / "square.surf"), "--form"],
            "x.form",
            {"rank": 2, "coeffs": {"01": "x0^20000 x0^20000"}},
            "coeffs['01']: exponent 40000 above 32767",
        ),
    ],
    ids=[
        "arabic-indic-key",
        "superscript-key",
        "irrational-metric",
        "arabic-indic-xi",
        "exponent-bound",
        "empty-box-interval",
        "arabic-indic-coefficient",
        "fractional-sign",
        "huge-exponent",
        "exponent-sum",
    ],
)
def test_bad_entry_exits_two_naming_file_and_entry(tmp_path, capsys, argv, name, payload, message):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    assert main([*argv, str(path)]) == 2
    assert capsys.readouterr().err == f"fvx: {path}: {message}\n"


def test_oversized_json_integer_exits_two_naming_the_input(tmp_path, capsys):
    # json refuses integer literals over the interpreter's digit limit with
    # a plain ValueError, not a JSONDecodeError.
    path = tmp_path / "x.cfg"
    path.write_text('{"xi": 1' + "0" * 5000 + "}")
    assert main(["dual", "--form", str(DEMO / "j.form"), "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"fvx: {path}: ")
    box = "[[0, 1" + "0" * 5000 + "], [0, 1], [0, 1], [0, 1]]"
    el = ["el", "--lagrangian", str(DEMO / "free_scalar.lag"), "--fields", str(DEMO / "wave_solution.json")]
    assert main([*el, "--box", box]) == 2
    assert capsys.readouterr().err.startswith("fvx: box: ")


NESTED = {"open": "[" * 200_000, "balanced": "[" * 2_000 + "]" * 2_000}


@pytest.mark.parametrize("text", NESTED.values(), ids=NESTED)
@pytest.mark.parametrize("command", ["bd --form", "check --config"])
def test_nested_json_file_exits_two_without_traceback(tmp_path, command, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    result = run_python("-m", "fvx.cli", *command.split(), str(path))
    assert result.returncode == 2
    assert result.stderr.startswith(f"fvx: {path}: JSON nested too deeply")
    assert "Traceback" not in result.stderr


def test_nested_inline_box_exits_two_without_traceback():
    # An inline argument stays below the kernel's 128 KiB limit per argument.
    el = ["el", "--lagrangian", str(DEMO / "free_scalar.lag"), "--fields", str(DEMO / "wave_solution.json")]
    result = run_python("-m", "fvx.cli", *el, "--box", "[" * 100_000)
    assert result.returncode == 2
    assert result.stderr.startswith("fvx: box: JSON nested too deeply")
    assert "Traceback" not in result.stderr


def test_zero_denominator_exits_two_without_traceback(tmp_path):
    path = tmp_path / "bad.form"
    path.write_text(json.dumps({"rank": 0, "coeffs": {"": "1/0 x0"}}))
    result = run_python("-m", "fvx.cli", "bd", "--form", str(path))
    assert result.returncode == 2
    assert result.stderr.startswith("fvx: ")
    assert "coeffs['']" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "argv",
    [["check", "--suite", "algebra", "--trials", "1"], ["bd", "--form", str(DEMO / "const1.form")]],
    ids=["check", "bd"],
)
def test_unwritable_out_exits_two_without_traceback(tmp_path, argv):
    path = tmp_path / "missing" / "out"
    result = run_python("-m", "fvx.cli", *argv, "--out", str(path))
    assert result.returncode == 2
    assert result.stderr.startswith(f"fvx: {path}: ")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_check_opens_out_before_running_any_suite(tmp_path, monkeypatch, capsys):
    def no_run(cfg):
        raise AssertionError("a suite ran before --out was opened")

    monkeypatch.setattr(su, "run_suite", no_run)
    assert main(["check", "--out", str(tmp_path / "missing" / "out")]) == 2
    assert str(tmp_path / "missing" / "out") in capsys.readouterr().err


# -- command line: integrals -----------------------------------------------------------


def test_integrate_dispatches_on_rank(capsys):
    assert main(["integrate", "--form", str(DEMO / "mixed.form"), "--surface", str(DEMO / "square.surf")]) == 0
    assert capsys.readouterr().out == "1/4\n"


def test_integrate_rank_mismatch_exits_two(capsys):
    rc = main(["integrate", "--form", str(DEMO / "shear.form"), "--surface", str(DEMO / "cube4.surf")])
    assert rc == 2
    assert "rank" in capsys.readouterr().err


def test_stokes_reports_both_sides(capsys):
    rc = main(["stokes", "--form", str(DEMO / "shear.form"), "--surface", str(DEMO / "square.surf")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "boundary: 1" in out
    assert "interior: 1" in out
    assert "EQUAL" in out


def test_flux_routes_agree(capsys):
    rc = main(["flux", "--form", str(DEMO / "mixed.form"), "--surface", str(DEMO / "square.surf")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "boundary+interior: 1/4" in out
    assert "derivative route: 1/4" in out
    assert "EQUAL" in out


# x0^e on the affine map l1 + l2 + 1 pulls back to C(e + 2, 2) terms: 5,151
# at e = 100, under the budget of 10,000, and 20,301 at e = 200, over it.
# x2^32000 on demo/square.surf meets the monomial map l1 l2: one term.
AFFINE = {"dim": 2, "map": ["l1 + l2 + 1", "l2", "0", "0"], "box": [[0, 1], [0, 1]]}


@pytest.mark.parametrize("command", ["integrate", "stokes", "flux"])
@pytest.mark.parametrize("e", [200, 400, 32767])
def test_dense_pullback_exits_two_before_any_work(tmp_path, capsys, command, e):
    form, surface = tmp_path / "x.form", tmp_path / "x.surf"
    form.write_text(json.dumps({"rank": 2, "coeffs": {"01": f"x0^{e}"}}))
    surface.write_text(json.dumps(AFFINE))
    start = time.monotonic()
    assert main([command, "--form", str(form), "--surface", str(surface)]) == 2
    assert time.monotonic() - start < 1
    message = f"coeffs['01']: pullback needs about {math.comb(e + 2, 2)} terms, above 10000"
    assert capsys.readouterr().err == f"fvx: {form}: {message}\n"


@pytest.mark.parametrize(
    "coeff, surface, value",
    [
        ("x0^100", AFFINE, "2319198843294050984593472683032378121172671027501/5151"),
        ("x2^32000", DEMO / "square.surf", "1/1024064001"),
    ],
    ids=["dense-under-budget", "monomial-map"],
)
def test_pullback_within_budget_integrates(tmp_path, capsys, coeff, surface, value):
    form = tmp_path / "x.form"
    form.write_text(json.dumps({"rank": 2, "coeffs": {"01": coeff}}))
    if isinstance(surface, dict):
        (tmp_path / "x.surf").write_text(json.dumps(surface))
        surface = tmp_path / "x.surf"
    assert main(["integrate", "--form", str(form), "--surface", str(surface)]) == 0
    assert capsys.readouterr().out == f"{value}\n"


def dense_surface(d: int) -> dict:
    """A 4-surface whose four maps each hold every monomial of degree <= d in
    l1..l4, with integer coefficients 1-9.  The frame minor has up to
    C(4(d - 1) + 4, 4) terms: 4,845 at d = 5 and 35,960 at d = 8, which took
    12 s as a child without the frame-minor budget (2 CPUs, CPython 3.11.7)."""
    rng = random.Random(1)
    expos = [e for e in itertools.product(range(d + 1), repeat=4) if sum(e) <= d]
    monomial = lambda e: " ".join(f"l{k + 1}^{p}" for k, p in enumerate(e) if p)
    maps = [" + ".join(f"{rng.randint(1, 9)} {monomial(e)}".strip() for e in expos) for _ in range(4)]
    return {"dim": 4, "map": maps, "box": [[0, 1]] * 4}


VOLUME = {"rank": 4, "coeffs": {"0123": "1"}}


@pytest.mark.parametrize("command", ["integrate", "stokes", "flux"])
def test_dense_frame_minor_exits_two_before_any_work(tmp_path, command):
    form, surface = tmp_path / "x.form", tmp_path / "x.surf"
    form.write_text(json.dumps(VOLUME))
    surface.write_text(json.dumps(dense_surface(8)))
    start = time.monotonic()
    result = run_python("-m", "fvx.cli", command, "--form", str(form), "--surface", str(surface))
    assert time.monotonic() - start < 1
    assert result.returncode == 2
    assert result.stderr == f"fvx: {surface}: frame minor needs about {math.comb(32, 4)} terms, above 10000\n"


def test_frame_minor_estimate_covers_every_set_of_rows(tmp_path, capsys):
    # The two highest-degree maps are monomials, but the minor on the rows of
    # the two dense maps of degree 75 has up to C(2 * 74 + 2, 2) terms.
    dense = " + ".join(f"l1^{i} l2^{j}" for i in range(76) for j in range(76 - i))
    form, surface = tmp_path / "x.form", tmp_path / "x.surf"
    form.write_text(json.dumps({"rank": 2, "coeffs": {"23": "1"}}))
    surface.write_text(json.dumps({"dim": 2, "map": ["l1^1000", "l2^999", dense, f"2 {dense}"], "box": [[0, 1]] * 2}))
    assert main(["integrate", "--form", str(form), "--surface", str(surface)]) == 2
    assert capsys.readouterr().err == f"fvx: {surface}: frame minor needs about {math.comb(150, 2)} terms, above 10000\n"


@pytest.mark.parametrize(
    "form, surface, value",
    [
        (VOLUME, dense_surface(5), "-28164057608556983/77189112000"),
        ({"rank": 2, "coeffs": {"01": "1"}}, {"dim": 2, "map": ["l1^1000", "l2", "l1 l2", "0"], "box": [[0, 1]] * 2}, "1"),
    ],
    ids=["dense-under-budget", "sparse-high-degree"],
)
def test_frame_minor_within_budget_integrates(tmp_path, capsys, form, surface, value):
    (tmp_path / "x.form").write_text(json.dumps(form))
    (tmp_path / "x.surf").write_text(json.dumps(surface))
    assert main(["integrate", "--form", str(tmp_path / "x.form"), "--surface", str(tmp_path / "x.surf")]) == 0
    assert capsys.readouterr().out == f"{value}\n"


# The product of a pullback and a frame minor of s and t terms costs up to
# s * t monomial products.  On dense_surface(5) the minor bound is C(20, 4) =
# 4,845 and x0^e pulls back to at most C(5e + 4, 4) terms: 1,001 at e = 2 and
# 3,876 at e = 3, each under the term budget, but the products are above the
# budget.  These ran 2.9-25 s as children without the product budget.
# Building a minor by cofactors costs, over the k-row sets of its n rows of
# partials (70 terms each), k entries times a minor of C(4k, 4) terms.
def dense_5_cofactors(n: int) -> int:
    return sum(math.comb(n, k) * k * 70 * math.comb(4 * k, 4) for k in range(1, n + 1))


DENSE_5_COFACTORS = dense_5_cofactors(4)


# `integrate` builds one minor on four rows.  `flux` builds it twice: for the
# form and for bd(form), whose 01235 component is the same x0^e; its boundary
# drops the component.  `stokes` of a 012 component builds four minors on
# three rows of C(16, 4) = 1,820 terms, one per parameter, and d5 of x0^e
# dl012 is zero.
@pytest.mark.parametrize(
    "command, key, e, products",
    [
        ("integrate", "0123", 2, DENSE_5_COFACTORS + 1_001 * 4_845),
        ("integrate", "0123", 3, DENSE_5_COFACTORS + 3_876 * 4_845),
        ("flux", "0123", 2, 2 * (DENSE_5_COFACTORS + 1_001 * 4_845)),
        ("flux", "0123", 3, 2 * (DENSE_5_COFACTORS + 3_876 * 4_845)),
        ("stokes", "012", 2, 4 * (dense_5_cofactors(3) + 1_001 * 1_820)),
        ("stokes", "012", 3, 4 * (dense_5_cofactors(3) + 3_876 * 1_820)),
    ],
    ids=["integrate-0123-2", "integrate-0123-3", "flux-0123-2", "flux-0123-3", "stokes-012-2", "stokes-012-3"],
)
def test_dense_integral_product_exits_two_before_any_work(tmp_path, command, key, e, products):
    form, surface = tmp_path / "x.form", tmp_path / "x.surf"
    form.write_text(json.dumps({"rank": len(key), "coeffs": {key: f"x0^{e}"}}))
    surface.write_text(json.dumps(dense_surface(5)))
    start = time.monotonic()
    result = run_python("-m", "fvx.cli", command, "--form", str(form), "--surface", str(surface))
    assert time.monotonic() - start < 1
    assert result.returncode == 2
    message = f"integral needs about {products} products, above {fio.INTEGRAL_PRODUCT_BUDGET}"
    assert result.stderr == f"fvx: {form}: coeffs[{key!r}] on {surface}: {message}\n"


def mixed_dense_surface() -> dict:
    """Three maps of dense_surface(6) and the last of dense_surface(5): a
    frame minor of C(23, 4) = 8,855 terms, under the term budget, whose
    cofactors cost 2,705,752 products."""
    return {"dim": 4, "map": dense_surface(6)["map"][:3] + dense_surface(5)["map"][3:], "box": [[0, 1]] * 4}


# A command may make INTEGRAL_PRODUCT_BUDGET products over the integrals it
# builds; above that it exits 2 in under a second.  Counted without the
# budget, as children (2 CPUs, CPython 3.11.7): the volume form on the mixed
# surface ran 1.1 s in `integrate` and 2.0 s in `flux`, x0 on dense_surface(5)
# 1.2 s in `flux` and x0^2 on dense_surface(4) 1.1 s; the accepted cases run
# in 0.7 s (integrate-x0), 0.8 s (flux-volume) and 0.1 s (stokes-volume, whose
# integrals both drop the component).
@pytest.mark.parametrize(
    "command, key, coeff, surface, products, out",
    [
        ("integrate", "0123", "1", mixed_dense_surface(), 2_705_752 + 8_855, None),
        ("flux", "0123", "1", mixed_dense_surface(), 2 * (2_705_752 + 8_855), None),
        ("flux", "0123", "x0", dense_surface(5), 2 * (DENSE_5_COFACTORS + 126 * 4_845), None),
        ("flux", "0123", "x0^2", dense_surface(4), 2 * (203_140 + 495 * 1_820), None),
        ("integrate", "0123", "x0", dense_surface(5), DENSE_5_COFACTORS + 126 * 4_845, ""),
        ("flux", "0123", "1", dense_surface(5), 2 * (DENSE_5_COFACTORS + 4_845), ""),
        ("stokes", "0123", "1", dense_surface(5), 0, "boundary: 0\ninterior: 0\nEQUAL\n"),
    ],
    ids=["integrate-mixed", "flux-mixed", "flux-x0", "flux-x0-squared", "integrate-x0", "flux-volume", "stokes-volume"],
)
def test_integral_budget_counts_the_integrals_each_command_builds(tmp_path, command, key, coeff, surface, products, out):
    form, surf = tmp_path / "x.form", tmp_path / "x.surf"
    form.write_text(json.dumps({"rank": len(key), "coeffs": {key: coeff}}))
    surf.write_text(json.dumps(surface))
    start = time.monotonic()
    result = run_python("-m", "fvx.cli", command, "--form", str(form), "--surface", str(surf))
    if out is not None:
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.startswith(out)
        loaded = fio.load_form(str(form)), fio.load_surface(str(surf))
        assert fio.check_integral(*loaded, "x.form", "x.surf", command) == products <= fio.INTEGRAL_PRODUCT_BUDGET
        return
    assert time.monotonic() - start < 1
    assert result.returncode == 2
    message = f"integral needs about {products} products, above {fio.INTEGRAL_PRODUCT_BUDGET}"
    assert result.stderr == f"fvx: {form}: coeffs[{key!r}] on {surf}: {message}\n"


FORM_AND_SURFACE = (("--form", {"rank": 1, "coeffs": {"0": "x0^20000"}}), ("--surface", {"dim": 1, "map": ["l1^2", "0", "0", "0"], "box": [[0, 1]]}))
LAGRANGIAN_AND_FIELDS = (("--lagrangian", {"N": 1, "density": "p0_0^20000"}), ("--fields", ["x0^3"]))


@pytest.mark.parametrize("command", ["integrate", "flux", "el"])
def test_exponent_overflow_names_both_files(tmp_path, command):
    # Within every budget, but the pullback of x0^20000 along l1^2 has an
    # exponent of 40,000, and p0_0^20000 at the field x0^3 one of 60,000:
    # above what a packed monomial holds.
    args = []
    for flag, content in LAGRANGIAN_AND_FIELDS if command == "el" else FORM_AND_SURFACE:
        path = tmp_path / flag[2:]
        path.write_text(json.dumps(content))
        args += [flag, str(path)]
    result = run_python("-m", "fvx.cli", command, *args)
    assert result.returncode == 2
    assert result.stderr == f"fvx: {args[1]} on {args[3]}: exponent overflow: a product has an exponent above 32767\n"


def test_a_factor_above_its_budget_keeps_its_message(tmp_path):
    # x0^4 pulls back to C(24, 4) = 10,626 terms, which is refused as a
    # pullback before its product with the minor is counted.
    form = FiveForm(4, {(0, 1, 2, 3): parse_poly("x0^4", COORD_NAMES)})
    with pytest.raises(fio.FormatError, match=r"^x.form: coeffs\['0123'\]: pullback needs about 10626 terms"):
        fio.check_integral(form, fio.surface_from_dict(dense_surface(5)), "x.form", "x.surf", "integrate")


def counted_det(rows: list[list[Poly]], nvars: int) -> tuple[Poly, int]:
    """``integration._poly_det`` of the rows, and the monomial products its
    cofactor expansion makes, counted at ``Poly.__mul__``."""
    mul, count = Poly.__mul__, [0]

    def counted(a, b):
        count[0] += len(a.num) * len(b.num) if isinstance(b, Poly) else 0
        return mul(a, b)

    with mu.rebound(mul, counted):
        minor = ig._poly_det(rows, nvars)
    return minor, count[0]


def integrate_products(form: FiveForm, V) -> int:
    """The monomial products `integrate` makes: for each kept coefficient,
    building its frame minor on all the columns and multiplying the minor by
    the coefficient's pullback."""
    frame_rows = ig._completed_rows if form.rank == V.dim + 1 else ig._plain_rows
    total = 0
    for key, coeff in form.coeffs.items():
        labels = frame_rows(key)
        if labels is not None:
            minor, build = counted_det([[V.map[a].partial(k) for k in range(V.dim)] for a in labels], V.dim)
            total += build + len(coeff.compose(list(V.map)).num) * len(minor.num)
    return total


def route_products(route: str, form: FiveForm, V) -> int:
    """The monomial products the integrals of ``route`` make, counted at
    ``Poly.__mul__`` outside ``compose`` (the pullback, which the term
    budget bounds); none when the route refuses the rank."""
    mul, compose, count, composing = Poly.__mul__, Poly.compose, [0], [0]

    def counted_mul(a, b):
        if isinstance(b, Poly) and not composing[0]:
            count[0] += len(a.num) * len(b.num)
        return mul(a, b)

    def uncounted_compose(p, maps):
        composing[0] += 1
        try:
            return compose(p, maps)
        finally:
            composing[0] -= 1

    sides = {"integrate": ig.integrate, "stokes": ig.stokes_sides, "flux": ig.flux_sides}[route]
    with mu.rebound(mul, counted_mul), mu.rebound(compose, uncounted_compose):
        try:
            sides(form, V)
        except ValueError:  # a rank that does not fit, refused before any work
            assert count[0] == 0
    return count[0]


def integral_cases():
    """Forms of ranks dim - 1 to dim + 1 on the demo surfaces, then 50 seeded draws."""
    rng = random.Random(0)
    for surface in sorted(DEMO.glob("*.surf")):
        V = fio.load_surface(str(surface))
        forms = [fio.load_form(str(path)) for path in sorted(DEMO.glob("*.form"))]
        ranks = [rank for rank in (V.dim - 1, V.dim, V.dim + 1) if rank >= 0]
        forms += [su.rand_form(rng, rank, 3) for rank in ranks for _ in range(3)]
        yield from ((form, V) for form in forms if form.rank in ranks)
    for seed in range(50):
        rng = random.Random(seed)
        dim = rng.randint(0, 4)
        yield su.rand_form(rng, rng.choice((max(dim - 1, 0), dim, dim + 1)), 3), su.rand_surface(rng, dim, 3)


def assert_estimate_bounds_the_products(route: str):
    counts = [
        (fio.check_integral(form, V, "x.form", "x.surf", route), route_products(route, form, V))
        for form, V in integral_cases()
    ]
    assert all(estimate >= actual for estimate, actual in counts)
    assert sum(actual > 0 for _, actual in counts) >= 20


def test_integral_estimate_bounds_the_products_integrate_makes():
    assert_estimate_bounds_the_products("integrate")


@pytest.mark.parametrize("route", ["stokes", "flux"])
def test_integral_estimate_bounds_the_products_stokes_and_flux_make(route):
    assert_estimate_bounds_the_products(route)


def test_integral_estimate_is_exact_on_a_dense_surface():
    # The pullback times the minor is exact (4,849,845); the cofactor count
    # is 984,480 against 983,360 made.
    form = FiveForm(4, {(0, 1, 2, 3): parse_poly("x0^2", COORD_NAMES)})
    V = fio.surface_from_dict(dense_surface(5))
    message = r"^x.form: coeffs\['0123'\] on x.surf: integral needs about 5834325 products"
    with pytest.raises(fio.FormatError, match=message):
        fio.check_integral(form, V, "x.form", "x.surf", "integrate")
    assert DENSE_5_COFACTORS == 984_480
    assert integrate_products(form, V) == 4_849_845 + 983_360


# -- command line: field equations -------------------------------------------------------


def test_el_accepts_solution(capsys):
    rc = main(
        [
            "el",
            "--lagrangian",
            str(DEMO / "free_scalar.lag"),
            "--fields",
            str(DEMO / "wave_solution.json"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "residual: 0" in out
    assert out.strip().endswith("solution")


def test_el_rejects_non_solution(capsys):
    rc = main(
        [
            "el",
            "--lagrangian",
            str(DEMO / "free_scalar.lag"),
            "--fields",
            str(DEMO / "not_solution.json"),
        ]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "residual: 2" in out
    assert "probe flux: 2" in out
    assert "not a solution" in out


def test_el_builds_no_forms_beyond_its_report(monkeypatch, capsys):
    lag, fields = DEMO / "free_scalar.lag", DEMO / "not_solution.json"
    built = {"J_form": 0, "K_form": 0, "Lambda_form": 0}
    for name in built:
        def counted(*args, _fn=getattr(lg, name), _name=name):
            built[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(lg, name, counted)
    lg.el_report(fio.load_lagrangian(str(lag)), fio.load_fields(str(fields)))
    by_report = dict(built)
    assert main(["el", "--lagrangian", str(lag), "--fields", str(fields)]) == 1
    assert {name: count - by_report[name] for name, count in built.items()} == by_report


def test_el_takes_inline_box(capsys):
    rc = main(
        [
            "el",
            "--lagrangian",
            str(DEMO / "free_scalar.lag"),
            "--fields",
            str(DEMO / "not_solution.json"),
            "--box",
            "[[0, 2], [0, 2], [0, 2], [0, 2]]",
        ]
    )
    assert rc == 1
    assert "probe flux: 32" in capsys.readouterr().out


def test_el_box_validation(capsys):
    rc = main(
        [
            "el",
            "--lagrangian",
            str(DEMO / "free_scalar.lag"),
            "--fields",
            str(DEMO / "wave_solution.json"),
            "--box",
            "[[0, 1]]",
        ]
    )
    assert rc == 2
    assert "four" in capsys.readouterr().err


def test_el_names_the_fields_file_on_a_count_mismatch(tmp_path, capsys):
    fields = tmp_path / "two.json"
    fields.write_text(json.dumps(["x0", "x1"]))
    assert main(["el", "--lagrangian", str(DEMO / "free_scalar.lag"), "--fields", str(fields)]) == 2
    lag = DEMO / "free_scalar.lag"
    assert capsys.readouterr().err == f"fvx: {fields}: 2 fields, but {lag} has N = 1\n"


def test_el_refuses_a_huge_field_count_before_building_names(tmp_path):
    # 5N variable names would take about 14 s to build at this N.
    lag = tmp_path / "huge.lag"
    lag.write_text(json.dumps({"N": 2_000_000, "density": "p0_0"}))
    start = time.monotonic()
    result = run_python("-m", "fvx.cli", "el", "--lagrangian", str(lag), "--fields", str(DEMO / "wave_solution.json"))
    assert time.monotonic() - start < 1
    assert result.returncode == 2
    assert result.stderr == f"fvx: {lag}: lagrangian: N = 2000000 above the cap of {fio.MAX_FIELDS}\n"


def test_el_refuses_a_dense_jet_pullback_before_any_work(tmp_path):
    # p0_5^60 on a field of five affine terms pulls back to C(64, 4) terms;
    # the report ran past 30 s without the budget.
    lag, fields = tmp_path / "dense.lag", tmp_path / "affine.json"
    lag.write_text(json.dumps({"N": 1, "density": "p0_5^60"}))
    fields.write_text(json.dumps(["x0 + x1 + x2 + x3 + 1"]))
    start = time.monotonic()
    result = run_python("-m", "fvx.cli", "el", "--lagrangian", str(lag), "--fields", str(fields))
    assert time.monotonic() - start < 1
    assert result.returncode == 2
    message = f"density: pullback needs about {math.comb(64, 4)} terms, above {fio.PULLBACK_TERM_BUDGET}"
    assert result.stderr == f"fvx: {lag}: {message}\n"


@pytest.mark.parametrize(
    "box, message",
    [
        ("[1, 2, 3, 4]", "fvx: box: box[0] must be a pair"),
        ("[[0], [0], [0], [0]]", "fvx: box: box[0] must be a pair"),
        ("[[0, 1], [0, 1], [0, 1], [0, 1]", "fvx: box: Expecting ','"),
        ("[[0, 1], [0, 1], [0, 1], [1, 1]]", "fvx: box: box[3] must satisfy a < b, got [1, 1]"),
        ("[[0, 1], [2, -1], [0, 1], [0, 1]]", "fvx: box: box[1] must satisfy a < b, got [2, -1]"),
    ],
)
def test_el_rejects_malformed_box_pairs(capsys, box, message):
    rc = main(
        [
            "el",
            "--lagrangian",
            str(DEMO / "free_scalar.lag"),
            "--fields",
            str(DEMO / "wave_solution.json"),
            "--box",
            box,
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith(message)


# -- command line: usage and help ----------------------------------------------------

# Each usage error, and the first line it prints: the problem, after the
# command when there is one, naming the offending token.
USAGE_ERRORS = {
    "none": ([], "missing command"),
    "unknown-command": (["nope"], "unknown command 'nope'"),
    "missing-option": (["bd"], "bd: missing --form"),
    "missing-value": (["bd", "--form"], "bd: --form needs a value"),
    "not-an-int": (["check", "--seed", "x"], "check: --seed: invalid int value 'x'"),
    "not-a-choice": (["check", "--format", "xml"], "check: --format: 'xml' is not one of text, jsonl"),
    "unknown-option": (["bd", "--form", "F", "--bogus", "1"], "bd: unrecognized argument '--bogus'"),
    "abbreviation": (["bd", "--fo", "F"], "bd: unrecognized argument '--fo'"),
    "positional": (["bd", "--form", "F", "extra"], "bd: unrecognized argument 'extra'"),
}


@pytest.mark.parametrize("argv, problem", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_a_usage_error_exits_two_naming_the_token(capsys, argv, problem):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    first, usage = err.splitlines()
    assert first == f"fvx: {problem}"
    assert usage.startswith(f"usage: fvx {argv[0]} " if argv and argv[0] in COMMANDS else "usage: fvx {check,d,")


# The values each command's handler reads, for the forms of argv the demo,
# the tests, the scripts and the benchmark use.
PARSED = {
    "defaults": (
        ["check"],
        {"suite": None, "seed": 0, "trials": 25, "max_degree": 3, "config": None, "format": "text", "mutate": None},
    ),
    "negative-seed": (["check", "--seed", "-2"], {"seed": -2}),
    "negative-seed-inline": (["check", "--seed=-2"], {"seed": -2}),
    "repeated-suite": (
        ["check", "--suite", "flux", "--suite=duality", "--format", "jsonl"],
        {"suite": ["flux", "duality"], "format": "jsonl"},
    ),
    "last-wins": (["check", "--trials", "3", "--trials=4", "--max-degree", "2"], {"trials": 4, "max_degree": 2}),
    "operator": (["dual", "--form", "j.form", "--config", "c.cfg"], {"handler": "cmd_operator", "config": "c.cfg", "out": None}),
    "integral": (["flux", "--surface", "s.surf", "--form", "f.form"], {"handler": "cmd_integral", "form": "f.form"}),
    "el": (["el", "--lagrangian", "l.lag", "--fields", "f.json", "--box", "[[0,1]]"], {"handler": "cmd_el", "box": "[[0,1]]"}),
}


@pytest.mark.parametrize("argv, values", PARSED.values(), ids=PARSED)
def test_each_form_of_an_option_parses_to_its_value(argv, values):
    args = vars(parse_args(argv))
    assert {name: args[name] for name in values} == values
    assert args["command"] == argv[0]


def test_help_lists_every_command_and_exits_zero(capsys):
    for argv in (["--help"], ["-h"]):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("usage: fvx {check,d,bd,")
        rows = [line.split(None, 1) for line in out.splitlines() if line.startswith("  ")]
        assert rows == [[name, text] for name, (text, _, _) in COMMANDS.items()]
    assert list(COMMANDS) == ["check", "d", "bd", "bdstar", "dual", "integrate", "stokes", "flux", "el"]


def test_command_help_lists_every_option_and_exits_zero(capsys):
    options = ["--suite", "--seed", "--trials", "--max-degree", "--config", "--format", "--mutate", "--out"]
    assert list(COMMANDS["check"][2]) == options
    for flag in ("--help", "-h"):
        assert main(["check", "--seed", "3", flag]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("usage: fvx check [--suite SUITE] [--seed SEED] ")
        rows = [line.split() for line in out.splitlines() if line.startswith("  --")]
        assert [row[0] for row in rows] == options
        for row, (_, _, text) in zip(rows, COMMANDS["check"][2].values()):
            assert " ".join(row[2:]).startswith(text)


# -- command line: fuzzed demo payloads ---------------------------------------------

# The eight commands that read files, each with the demo files it reads.
FILE_COMMANDS = (
    ("d", {"--form": "radial.form"}),
    ("bd", {"--form": "mixed.form"}),
    ("bdstar", {"--form": "mixed.form"}),
    ("dual", {"--form": "j.form", "--config": "lorentz.cfg"}),
    ("integrate", {"--form": "mixed.form", "--surface": "square.surf"}),
    ("stokes", {"--form": "shear.form", "--surface": "square.surf"}),
    ("flux", {"--form": "mixed.form", "--surface": "square.surf"}),
    ("el", {"--lagrangian": "free_scalar.lag", "--fields": "not_solution.json"}),
)

# Out-of-range variables: x4 for a form or field, l3 on the 2-dimensional
# demo surface, p1_0 in the one-field Lagrangian.
FUZZ_ATOMS = (2**40, "1/0", None, [], "x4", "l3", "p1_0")


def _json_paths(data, path=()):
    """The path of every value in a JSON document, the root included."""
    yield path
    if isinstance(data, (dict, list)):
        items = data.items() if isinstance(data, dict) else enumerate(data)
        for key, value in items:
            yield from _json_paths(value, path + (key,))


def _with_value(data, path, value):
    if not path:
        return value
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@st.composite
def fuzzed_runs(draw):
    """One file command with one JSON value of one of its demo files
    replaced by an atom: the argv and the payload to write."""
    command, files = draw(st.sampled_from(FILE_COMMANDS))
    option = draw(st.sampled_from(sorted(files)))
    data = json.loads((DEMO / files[option]).read_text())
    path = draw(st.sampled_from(list(_json_paths(data))))
    return command, files, option, _with_value(data, path, draw(st.sampled_from(FUZZ_ATOMS)))


class _Hang(Exception):
    pass


def _hang(signum, frame):
    raise _Hang("the command ran past its alarm")


@settings(max_examples=200, deadline=None)
@given(fuzzed_runs())
def test_fuzzed_demo_payload_exits_cleanly(run):
    command, files, option, payload = run
    with tempfile.TemporaryDirectory() as tmp:
        fuzzed = Path(tmp) / files[option]
        fuzzed.write_text(json.dumps(payload))
        argv = [command]
        for name, demo in files.items():
            argv += [name, str(fuzzed if name == option else DEMO / demo)]
        out, err = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _hang)
        signal.alarm(5)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("fvx: ")


# -- module execution ----------------------------------------------------------------


def test_module_runs_as_script():
    result = run_python("-m", "fvx.cli", "check", "--suite", "algebra", "--trials", "2")
    assert result.returncode == 0
    assert "0 failures" in result.stdout


# `python -m fvx.cli` and the installed script run `cli.run`: main, a flush
# of stdout, a frozen heap and the exit.
ENTRY_ARGV = {
    "passing": (0, ["check", "--format", "jsonl", "--seed", "0"]),
    "failing": (1, ["check", "--format", "jsonl", "--seed", "0", "--mutate", "bd-sign", "--suite", "calculus"]),
    "refused": (2, ["integrate", "--form", str(DEMO / "shear.form"), "--surface", str(DEMO / "cube4.surf")]),
    "usage-error": (2, ["bd", "--fo", str(DEMO / "const1.form")]),
    "help": (0, ["check", "--help"]),
}


@pytest.mark.parametrize("code, argv", ENTRY_ARGV.values(), ids=ENTRY_ARGV)
def test_the_process_prints_and_exits_as_main_returns(code, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == code
    result = run_python("-m", "fvx.cli", *argv)
    assert (result.returncode, result.stdout, result.stderr) == (code, out.getvalue(), err.getvalue())


def test_main_leaves_the_heap_unfrozen(capsys):
    frozen = gc.get_freeze_count()
    assert main(["bd", "--form", str(DEMO / "const1.form")]) == 0
    assert gc.get_freeze_count() == frozen


AT_EXIT = """
import atexit, gc, sys
from fvx.cli import run
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0, file=sys.stderr))
run()
"""


def test_the_process_exits_with_a_frozen_heap_and_runs_atexit():
    result = run_python("-c", AT_EXIT, "bd", "--form", str(DEMO / "const1.form"))
    assert (result.returncode, result.stdout, result.stderr) == (0, "rank 1\n5: 1\n", "frozen at exit: True\n")


def test_the_installed_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(DEMO.parent / "pyproject.toml", "rb") as handle:
        assert tomllib.load(handle)["project"]["scripts"] == {"fvx": "fvx.cli:run"}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [["bd", "--form", str(DEMO / "const1.form")], ["check", "--seed", "0"], ["--help"], ["check", "--help"]],
    ids=["bd", "check", "help", "check-help"],
)
def test_a_failed_write_to_stdout_exits_two(argv, unbuffered):
    # An empty PYTHONUNBUFFERED leaves stdout block-buffered, so the write
    # fails at the flush; set, it fails at the first print.  The help text
    # is printed by main, like any command's output.
    with open("/dev/full", "w") as full:
        result = run_python("-m", "fvx.cli", *argv, stdout=full, env={"PYTHONUNBUFFERED": unbuffered})
    assert (result.returncode, result.stderr) == (2, "fvx: stdout: No space left on device\n")


# Each command imports only the layers it runs: a fresh process without cached
# bytecode compiles every module it imports, which is most of a short command.
# CORE is what every command loads; `import fvx.cli` loads nothing more. The
# commands that read a file add io, the file readers; `check` reads none but
# its --config, and prints its counterexamples through printers that live
# with the values. `check` loads the modules of its selected suites and the
# layers they call, whether the run fails or not, and mutations only under
# --mutate.
# No command loads dataclasses or inspect: the records of fvx derive from
# polyfield.Record, since importing dataclasses (with inspect, ast and dis) and
# generating the methods of eleven records cost a child 14-20 ms. Nor does any
# command, or `import fvx.cli`, load argparse, gettext or locale (argparse's
# imports, and its first translated string's, about 4.7 ms of a child): fvx.cli
# parses argv itself. What a bare interpreter already holds (the `site` of some
# installs imports more) does not count.
CORE = {"fvx", "fvx.cli", "fvx.polyfield", "fvx.forms_core"}
UNLOADED = ("dataclasses", "inspect", "argparse", "gettext", "locale")
LISTED = f"""
print(" ".join(sorted(name for name in sys.modules if name.split(".")[0] == "fvx")))
print(" ".join(name for name in {UNLOADED!r} if name in sys.modules))
"""
LOADED = """
import contextlib, io, sys
from fvx.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
""" + LISTED


@functools.cache
def bare_modules() -> frozenset[str]:
    """The modules of a child that runs nothing, `site`'s imports included."""
    return frozenset(run_python("-c", "import sys; print(' '.join(sys.modules))").stdout.split())


def assert_loads(result, fvx_modules: set[str]) -> None:
    assert result.returncode == 0, result.stderr
    fvx_line, unloaded_line = result.stdout.split("\n")[:2]
    assert set(fvx_line.split()) == fvx_modules
    assert set(unloaded_line.split()) <= bare_modules()


# The layers each suite's module calls.
SUITE_LAYERS = {
    "algebra": set(),
    "calculus": {"calculus"},
    "stokes": {"calculus", "integration"},
    "flux": {"calculus", "integration"},
    "duality": {"metric_dual"},
    "lagrange": {"calculus", "integration", "lagrange"},
    "appendix": {"calculus"},
}


@pytest.mark.parametrize(
    "argv, layers",
    [
        (("bd", "--form", "const1.form"), {"io", "calculus"}),
        (("bdstar", "--form", "mixed.form"), {"io", "calculus"}),
        (("d", "--form", "radial.form"), {"io", "calculus"}),
        (("dual", "--form", "j.form", "--config", "lorentz.cfg"), {"io", "metric_dual"}),
        (("integrate", "--form", "mixed.form", "--surface", "square.surf"), {"io", "calculus", "integration"}),
        (("stokes", "--form", "shear.form", "--surface", "square.surf"), {"io", "calculus", "integration"}),
        (("flux", "--form", "mixed.form", "--surface", "square.surf"), {"io", "calculus", "integration"}),
        (
            ("el", "--lagrangian", "free_scalar.lag", "--fields", "wave_solution.json"),
            {"io", "calculus", "integration", "lagrange"},
        ),
    ]
    + [
        (("check", "--suite", suite, "--trials", "1"), {"suites", f"suites.{suite}"} | layers)
        for suite, layers in SUITE_LAYERS.items()
    ]
    + [
        # A failing run shrinks and serializes its counterexamples, and still
        # loads no layer its suite does not call.
        (
            ("check", "--mutate", "wedge-sign", "--suite", "algebra", "--trials", "1"),
            {"suites", "suites.algebra", "mutations"},
        ),
        (
            ("check", "--trials", "1"),
            set().union(*SUITE_LAYERS.values()) | {"suites"} | {f"suites.{suite}" for suite in SUITE_LAYERS},
        ),
        # Only a metric file makes `check` read a file.
        (
            ("check", "--config", "lorentz.cfg", "--suite", "duality", "--trials", "1"),
            {"io", "suites", "suites.duality", "metric_dual"},
        ),
    ],
)
def test_each_command_loads_only_the_layers_it_runs(argv, layers):
    assert_loads(run_python("-c", LOADED, *argv, cwd=DEMO), CORE | {f"fvx.{layer}" for layer in layers})


def test_importing_the_cli_loads_only_the_core():
    # What the benchmark's setup_s times: the import alone, no command.
    assert_loads(run_python("-c", "import sys, fvx.cli" + LISTED), CORE)


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from fvx import *", namespace)
    assert all(namespace[name] is getattr(fvx, name) for name in fvx.__all__)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        fvx.nope
    # A lazily resolved name is looked up afresh, so it sees a patch.
    with mu.apply_mutation("el-sign"):
        assert fvx.el_residual is importlib.import_module("fvx.lagrange").el_residual
