"""Command-line driver: evaluate operators on files, run identity suites.

Exit codes: 0 when everything asked for holds and after ``--help``, 1 when
a check or suite fails, 2 after a usage error, for unusable input (parse
errors, rank/dimension mismatches) and for a failed write to stdout.

``run()`` is the process entry, of the ``fvx`` script and of ``python -m
fvx.cli``: it calls ``main()``, flushes stdout and exits with main's code.
``main(argv)`` returns the code and leaves the process alone, so tests and
library callers run it in process.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import sys
from types import SimpleNamespace
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


# Each command: its help text, its handler's name (looked up when it runs, so
# that a patch is seen) and its options, each a kind (int, str, list when
# repeatable, or a tuple of the accepted values), a default (... when
# required) and a help text.
_FORM = {"--form": (str, ..., "form JSON file")}
_CONFIG = {"--config": (str, None, "metric cfg JSON file")}
_OUT = {"--out": (str, None, "also write the result as JSON here")}
_SURFACE = {"--surface": (str, ..., "surface JSON file")}
COMMANDS = {
    "check": ("run seeded randomized identity suites", "cmd_check", {
        "--suite": (list, None, "suite to run (repeatable; default: all)"),
        "--seed": (int, 0, "seed of the draws"),
        "--trials": (int, 25, "instances per identity"),
        "--max-degree": (int, 3, "polynomial degree cap"),
        **_CONFIG,
        "--format": (("text", "jsonl"), "text", "report format"),
        "--mutate": (str, None, "corrupt one operator sign before running (must fail)"),
        "--out": (str, None, "write the report here instead of stdout"),
    }),
    "d": ("plain exterior derivative (label-5-free forms)", "cmd_operator", _FORM | _OUT),
    "bd": ("five-vector exterior derivative", "cmd_operator", _FORM | _OUT),
    "bdstar": ("reflected five-vector exterior derivative", "cmd_operator", _FORM | _OUT),
    "dual": ("alternating-tensor dual", "cmd_operator", _FORM | _CONFIG | _OUT),
    "integrate": ("integrate a form over a surface", "cmd_integral", _FORM | _SURFACE),
    "stokes": ("boundary term against interior derivative", "cmd_integral", _FORM | _SURFACE),
    "flux": ("five-vector flux, both routes", "cmd_integral", _FORM | _SURFACE),
    "el": ("Euler-Lagrange report for fields", "cmd_el", {
        "--lagrangian": (str, ..., "Lagrangian JSON file"),
        "--fields": (str, ..., "fields JSON file"),
        "--box": (str, None, "probe box JSON ([[a,b],...] inline or a file)"),
    }),
}


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command of ``argv``, its handler's name (``print_help`` if ``-h``
    or ``--help`` is anywhere) and one attribute per option (``max_degree``).
    A value is ``--name=value`` or the next token (``--seed -2``); the last
    of a repeated option wins, and no prefix of a name is taken.  A usage
    error raises ``ValueError`` naming the offending token."""
    command = argv[0] if argv and argv[0] in COMMANDS else None
    if "-h" in argv or "--help" in argv:
        return SimpleNamespace(handler="print_help", command=command)
    if command is None:
        raise _usage_error(None, f"unknown command {argv[0]!r}" if argv else "missing command")
    _, handler, options = COMMANDS[command]
    values = {name: default for name, (_, default, _) in options.items()}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        if name not in options:
            raise _usage_error(command, f"unrecognized argument {token!r}")
        kind, value = options[name][0], value if eq else next(tokens, None)
        if value is None:
            raise _usage_error(command, f"{name} needs a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _usage_error(command, f"{name}: invalid int value {value!r}") from None
        elif kind is list:
            value = [*(values[name] or ()), value]
        elif kind is not str and value not in kind:
            raise _usage_error(command, f"{name}: {value!r} is not one of {', '.join(kind)}")
        values[name] = value
    missing = [name for name, value in values.items() if value is ...]
    if missing:
        raise _usage_error(command, f"missing {', '.join(missing)}")
    return SimpleNamespace(command=command, handler=handler, **{n[2:].replace("-", "_"): v for n, v in values.items()})


def _usage_error(command: str | None, problem: str) -> ValueError:
    return ValueError(f"{command + ': ' if command else ''}{problem}\n{_usage(command)}")


def _spelled(name: str, kind) -> str:
    return f"{name} {'{' + ','.join(kind) + '}' if type(kind) is tuple else name[2:].upper().replace('-', '_')}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: fvx {{{','.join(COMMANDS)}}} ..."
    words = (_spelled(n, k) if d is ... else f"[{_spelled(n, k)}]" for n, (k, d, _) in COMMANDS[command][2].items())
    return " ".join(("usage: fvx", command, *words))


def print_help(args: SimpleNamespace) -> int:
    """Print the usage line, then the commands of fvx or the options of ``args.command``."""
    if args.command is None:
        head, title = "Exact exterior calculus on five-vector forms over a flat patch.", "commands (each takes --help)"
        rows = [(name, text) for name, (text, _, _) in COMMANDS.items()]
    else:
        head, _, options = COMMANDS[args.command]
        title, rows = "options", [("-h, --help", "show this help and exit")]
        rows += [(_spelled(n, k), t if d in (None, ...) else f"{t} (default: {d})") for n, (k, d, t) in options.items()]
    width = max(len(left) for left, _ in rows)
    print(f"{_usage(args.command)}\n\n{head}\n\n{title}:", *(f"  {a:<{width}}  {b}" for a, b in rows), sep="\n")
    return 0


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


def cmd_operator(args: SimpleNamespace) -> int:
    from fvx import io as fio

    form = fio.load_form(args.form)
    if args.command == "dual":
        from fvx import metric_dual as md

        metric = fio.load_metric(args.config) if args.config else md.DEFAULT_CFG
        result = md.dual(form, metric)
    else:
        from fvx import calculus as ca

        if args.command == "d":
            if form.rank > 4 or not fc.e_part(form).is_zero:
                raise fio.FormatError(f"{args.form}: d takes forms of rank at most 4 without label-5 components")
            result = fc.lift(ca.d4(fc.project(form)))
        elif args.command == "bd":
            result = ca.bd(form)
        else:
            result = ca.bdstar(form)
    with _output(args.out) as handle:
        if handle is not None:
            json.dump(fc.form_to_dict(result), handle, sort_keys=True, indent=2)
            handle.write("\n")
    print(fc.form_to_text(result))
    return 0


def cmd_integral(args: SimpleNamespace) -> int:
    from fvx import integration as ig
    from fvx import io as fio

    form, V = fio.load_form(args.form), fio.load_surface(args.surface)
    fio.check_integral(form, V, args.form, args.surface, args.command)  # the budgets, before any work
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


def cmd_el(args: SimpleNamespace) -> int:
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


def cmd_check(args: SimpleNamespace) -> int:
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
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return globals()[args.handler](args)
    except (ValueError, KeyError) as exc:  # a usage error and io.FormatError are ValueErrors
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
        code = main()
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
