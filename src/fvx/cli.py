"""Command-line driver: evaluate operators on files, run identity suites.

Exit codes: 0 when everything asked for holds, 1 when a check or suite
fails, 2 for unusable input (parse errors, rank/dimension mismatches) and
for a failed write to stdout.

``run()`` is the process entry, of the ``fvx`` script and of ``python -m
fvx.cli``: it calls ``main()``, flushes stdout and exits with main's code.
``main(argv)`` returns the code and leaves the process alone, so tests and
library callers run it in process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
from typing import TYPE_CHECKING

from fvx import forms_core as fc
from fvx.polyfield import COORD_NAMES, Poly, format_poly

if TYPE_CHECKING:
    from fvx.integration import ParamSurface

# Each command imports the layers it runs, io, calculus, integration, lagrange,
# metric_dual, suites and mutations, inside its handler, so that `fvx bd` loads
# none but io and calculus and `fvx check` only what its selected suites call,
# and the file readers of io only under --config (each value's printer lives
# with the value).
# The imports bind modules, never names, so that a patch of an operator is seen.


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a failed write of the help text raises
    its ``OSError`` (argparse drops it), so that ``run()`` reports it."""

    def print_help(self, file=None) -> None:
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fvx",
        description="Exact exterior calculus on five-vector forms over a flat patch.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run seeded randomized identity suites")
    check.add_argument("--suite", action="append", help="suite to run (repeatable; default: all)")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--trials", type=int, default=25, help="instances per identity")
    check.add_argument("--max-degree", type=int, default=3, help="polynomial degree cap")
    check.add_argument("--config", help="metric cfg JSON file")
    check.add_argument("--format", choices=("text", "jsonl"), default="text")
    check.add_argument("--mutate", help="corrupt one operator sign before running (must fail)")
    check.add_argument("--out", help="write the report here instead of stdout")
    check.set_defaults(handler=cmd_check)

    for name, text in (
        ("d", "plain exterior derivative (label-5-free forms)"),
        ("bd", "five-vector exterior derivative"),
        ("bdstar", "reflected five-vector exterior derivative"),
        ("dual", "alternating-tensor dual"),
    ):
        op = sub.add_parser(name, help=text)
        op.add_argument("--form", required=True, help="form JSON file")
        if name == "dual":
            op.add_argument("--config", help="metric cfg JSON file")
        op.add_argument("--out", help="also write the result as JSON here")
        op.set_defaults(handler=cmd_operator, operator=name)

    for name, text in (
        ("integrate", "integrate a form over a surface"),
        ("stokes", "boundary term against interior derivative"),
        ("flux", "five-vector flux, both routes"),
    ):
        op = sub.add_parser(name, help=text)
        op.add_argument("--form", required=True)
        op.add_argument("--surface", required=True)
        op.set_defaults(handler=cmd_integral)

    el = sub.add_parser("el", help="Euler-Lagrange report for fields")
    el.add_argument("--lagrangian", required=True)
    el.add_argument("--fields", required=True)
    el.add_argument("--box", help="probe box JSON ([[a,b],...] inline or a file)")
    el.set_defaults(handler=cmd_el)

    return parser


@contextlib.contextmanager
def _output(path: str | None, default=None):
    """The file at ``path`` opened for writing, or ``default`` without a
    path.  A path that cannot be written is unusable input: exit 2 with the
    path and the reason, as for the input files."""
    if not path:
        yield default
        return
    try:
        with open(path, "w") as handle:
            yield handle
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None


def cmd_operator(args: argparse.Namespace) -> int:
    from fvx import io as fio

    form = fio.load_form(args.form)
    if args.operator == "dual":
        from fvx import metric_dual as md

        metric = fio.load_metric(args.config) if args.config else md.DEFAULT_CFG
        result = md.dual(form, metric)
    else:
        from fvx import calculus as ca

        if args.operator == "d":
            if form.rank > 4 or not fc.e_part(form).is_zero:
                raise fio.FormatError(f"{args.form}: d takes forms of rank at most 4 without label-5 components")
            result = fc.lift(ca.d4(fc.project(form)))
        elif args.operator == "bd":
            result = ca.bd(form)
        else:
            result = ca.bdstar(form)
    with _output(args.out) as handle:
        if handle is not None:
            json.dump(fc.form_to_dict(result), handle, sort_keys=True, indent=2)
            handle.write("\n")
    print(fc.form_to_text(result))
    return 0


def _load_pullback(args: argparse.Namespace) -> tuple[fc.FiveForm, ParamSurface]:
    """The form and surface of an integral command, within the budgets of
    ``io.check_integral``."""
    from fvx import io as fio

    form, V = fio.load_form(args.form), fio.load_surface(args.surface)
    fio.check_integral(form, V, args.form, args.surface, args.command)
    return form, V


def cmd_integral(args: argparse.Namespace) -> int:
    from fvx import integration as ig

    form, V = _load_pullback(args)
    try:
        if args.command == "integrate":
            print(ig.integrate(form, V))
            return 0
        if args.command == "stokes":
            return _print_sides(("boundary", "interior"), *ig.stokes_sides(form, V))
        return _print_sides(("boundary+interior", "derivative route"), *ig.flux_sides(form, V))
    except ValueError as exc:
        # A rank mismatch or an exponent overflow names no file of its own.
        raise ValueError(f"{args.form} on {args.surface}: {exc}") from None


def _print_sides(labels: tuple[str, str], lhs, rhs) -> int:
    """Print both sides under their labels, then EQUAL or DIFFER; exit 0 when they agree."""
    print(f"{labels[0]}: {lhs}")
    print(f"{labels[1]}: {rhs}")
    print("EQUAL" if lhs == rhs else "DIFFER")
    return 0 if lhs == rhs else 1


def _probe_box(arg: str) -> ParamSurface:
    from fvx import integration as ig
    from fvx import io as fio

    text = arg.strip()
    data = fio.parse_json(text, "box") if text.startswith("[") else fio.load_json(arg)
    if not isinstance(data, list) or len(data) != 4:
        raise fio.FormatError("box: expected four [a, b] pairs")
    maps = tuple(Poly.variable(k, 4) for k in range(4))
    return ig.ParamSurface(4, maps, fio.bound_pairs(data, "box"))


def cmd_el(args: argparse.Namespace) -> int:
    from fvx import io as fio
    from fvx import lagrange as lg

    L = fio.load_lagrangian(args.lagrangian)
    phi = fio.load_fields(args.fields)
    if len(phi) != L.n_fields:
        raise fio.FormatError(f"{args.fields}: {len(phi)} fields, but {args.lagrangian} has N = {L.n_fields}")
    fio.check_pullback(L.density, lg.jet_maps(L, phi), 4, f"{args.lagrangian}: density")
    box = None if args.box is None else _probe_box(args.box)
    try:
        report = lg.el_report(L, phi, box)
    except ValueError as exc:  # an exponent overflow names no file
        raise ValueError(f"{args.lagrangian} on {args.fields}: {exc}") from None
    for ell in range(L.n_fields):
        current = lg.check_51(report.j_forms[ell], report.k_forms[ell])
        closed = lg.check_55(report.lambda_forms[ell])
        print(f"field {ell}:")
        print(f"  residual: {format_poly(report.residuals[ell], COORD_NAMES)}")
        print(f"  current/source match: {'yes' if current else 'no'}")
        print(f"  closed-form check: {'yes' if closed else 'no'}")
        print(f"  probe flux: {report.flux_values[ell]}")
    print("solution" if report.is_solution else "not a solution")
    return 0 if report.is_solution else 1


def cmd_check(args: argparse.Namespace) -> int:
    from fvx import suites as su

    metric = None
    if args.config:
        from fvx import io as fio

        metric = fio.load_metric(args.config)
    cfg = su.SuiteConfig(
        seed=args.seed,
        trials=args.trials,
        max_degree=args.max_degree,
        metric=metric,
        suites=tuple(args.suite) if args.suite else su.SUITE_NAMES,
    )
    # Patch, then open the output, so that a bad mutation name or path costs no run.
    if args.mutate:
        from fvx import mutations as mu
    mutation = mu.apply_mutation(args.mutate) if args.mutate else contextlib.nullcontext()
    with mutation, _output(args.out, sys.stdout) as handle:
        report = su.run_suite(cfg)
        handle.write(su.emit_report(report, args.format))
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError) as exc:  # io.FormatError is a ValueError
        print(f"fvx: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Run ``main()`` as a whole process and exit with its code.

    An ``OSError`` that leaves ``main`` is an output error, since the input
    loaders turn theirs into ``FormatError``: stdout could not be written or
    flushed, and the process exits 2.  Once ``main`` is done, the heap is
    frozen, so that the collections of the interpreter's shutdown skip every
    object alive at exit; fvx defines no ``__del__`` and leaves no file open,
    and ``atexit`` handlers still run.
    """
    try:
        try:
            code = main()
        except SystemExit as exc:  # --help, or a usage error
            code = 0 if exc.code is None else exc.code
        sys.stdout.flush()
    except OSError as exc:
        print(f"fvx: stdout: {exc.strerror or exc}", file=sys.stderr)
        # Else the flush at shutdown fails again and sets exit code 120.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
