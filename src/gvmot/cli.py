"""gvmot: command-line front end.

Subcommands: hst, census, upsilon, stack, gv, gw, verify.  Input documents
are strict JSON (see jsonio); output is an aligned text table by default or
a stable JSON document with --json.  Every number printed is an exact
integer or rational string.

One output path: main loads the input, of a kind the subparser declares; a
subcommand gets the payload and returns an exit code and two renderings, a
JSON document and text lines, each built only when called; main prints the
one asked for.  The interpreter's limit on int-str digits holds on input and
while the work runs, and main lifts it only to render and print the result.

The subcommands are declared once, in COMMANDS.  main builds only the one its
first argument names, as argparse's set-up of the other six costs more than a
short command's own work, and all of them when that argument names none, so
every message that lists the commands is unchanged.  No parser is kept across
calls: a gvmot process parses once, so a cache would save nothing there.

Exit codes: 0 ok, 1 property failure, 2 schema, usage or resource-cap error,
3 internal cross-check disagreement, 4 missing model data, 5 non-polynomial
count, 6 internal error (an exception that is not a domain error).  Each run
of gv, gw, hst or a bispin census spends one Ledger, capping all its work.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import Callable

from . import jsonio
from .counting import MODEL_NOTE, counting_polynomial, polynomial_census
# every exit code, which callers may import from here as well
from .errors import EXIT_CROSSCHECK, EXIT_INTERNAL, EXIT_MISSING_ATOM, EXIT_NOT_POLYNOMIAL, EXIT_OK, EXIT_PROPERTY, EXIT_SCHEMA
from .errors import WORK_CAP, GvmotError, Ledger, ResourceLimitError, SchemaError
from .gwseries import gv_to_gw, gw_to_gv
from .jsonio import dump_json
from .laurent import format_poly
from .lefschetz import census_count, census_from_bispin, genus_count, jordan_census
from .motives import upsilon_rel
from .stacks import upsilon_stack


class CrossCheckError(GvmotError):
    """The two computation routes disagreed; the artifact is inconsistent."""

    exit_code = EXIT_CROSSCHECK


def _emit_error(exc: Exception) -> int:
    body = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if isinstance(exc, ResourceLimitError):
        body["error"].update(stage=exc.stage, spent=exc.spent, cap=exc.cap)
    print(json.dumps(body, sort_keys=True), file=sys.stderr)
    return exc.exit_code if isinstance(exc, GvmotError) else EXIT_INTERNAL


@contextmanager
def _all_digits():
    """Lift the limit on int-str digits while a result is built and printed.

    Input keeps the limit, as int(str) costs time quadratic in the digits; the
    old limit comes back afterwards, since one process may call main many times.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # an interpreter without the limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _table(rows: list[list[str]], header: list[str]) -> list[str]:
    """Aligned text lines: the header, then one line per row."""
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    return ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in [header, *rows]]


# -- subcommands -----------------------------------------------------------------

# what a subcommand returns: the exit code, its JSON document and its text lines
Result = tuple[int, Callable[[], dict], Callable[[], list[str]]]


def cmd_hst(args, kind, content) -> Result:
    genus_max = args.genus_max if args.genus_max is not None else max((jl for (jl, _) in content.mult), default=0)
    # the census cells are built once and read once per printed row, and a
    # row costs at least one term even when there are no cells
    cells = sum(jl + 1 for (jl, _) in content.mult)
    Ledger().spend("hst", cells + max(genus_max + 1, 0) * max(cells, 1), "census terms")
    virtual = content.is_virtual()
    if virtual:
        census_routes = [None] * (genus_max + 1)
    else:
        census_routes = census_count(census_from_bispin(content), genus_max)
    routes = [(g, genus_count(content, g), census_route) for g, census_route in enumerate(census_routes)]

    def checked():
        # called while main prints, so a disagreement's message shows both counts whole
        for g, spin_route, census_route in routes:
            if census_route is not None and census_route != spin_route:
                raise CrossCheckError(f"genus {g}: spin route {spin_route} != census route {census_route}")
        return routes

    return (
        EXIT_OK,
        lambda: jsonio.envelope("hst_result", counts=[[g, spin] for g, spin, _ in checked()], virtual=virtual),
        lambda: _table(
            [[str(g), str(spin), "n/a" if check is None else str(check)] for g, spin, check in checked()],
            ["g", "spin", "census"],
        ),
    )


def cmd_census(args, kind, payload) -> Result:
    if kind == "bispin":  # the cells hst charges for the same content
        Ledger().spend("census", sum(jl + 1 for (jl, _) in payload.mult), "census terms")
    census = jordan_census(payload) if kind == "graded_nilpotent" else census_from_bispin(payload)
    return (
        EXIT_OK,
        lambda: jsonio.envelope("census_result", census=jsonio.census_to_json(census)),
        lambda: _table([[str(a), str(l), str(n)] for (a, l), n in census.items()], ["alpha", "l", "count"]),
    )


def cmd_upsilon(args, kind, expr) -> Result:
    value = upsilon_rel(expr)
    return EXIT_OK, lambda: jsonio.envelope("polynomial", terms=jsonio.poly_to_json(value)), lambda: [format_poly(value)]


def cmd_stack(args, kind, stack) -> Result:
    value = upsilon_stack(stack)
    return EXIT_OK, lambda: jsonio.envelope("rational_fn", **jsonio.rational_fn_to_json(value)), lambda: [str(value)]


def cmd_gv(args, kind, payload) -> Result:
    lattice, charge, model = payload
    target = jsonio.class_from_key(args.target, lattice.rank, "--target")
    genus_max = args.genus_max if args.genus_max is not None else 3
    ledger = Ledger(args.max_compositions)
    poly = counting_polynomial(lattice, charge, target, model, ledger=ledger)
    census = polynomial_census(poly)
    # every printed row reads every cell, and costs at least one term
    ledger.spend("readout", max(genus_max + 1, 0) * max(len(census.mult), 1), "census terms")
    counts = [[g, n] for g, n in enumerate(census_count(census, genus_max))]
    return (
        EXIT_OK,
        lambda: jsonio.envelope(
            "gv_result",
            target=[*target.beta, target.k],
            counts=counts,
            count_polynomial=jsonio.rational_fn_to_json(poly),
            note=MODEL_NOTE,
        ),
        lambda: [
            f"# {MODEL_NOTE}",
            f"# class {args.target}: count polynomial = {poly}",
            *_table([[str(g), str(n)] for g, n in counts], ["g", "n_g"]),
        ],
    )


def cmd_gw(args, kind, payload) -> Result:
    if kind == "gv_table":
        if args.genus_max is not None:
            raise SchemaError("--genus-max applies only to a gw_series input, not a gv_table")
        series = gv_to_gw(payload, degree_max=args.degree_max, lambda_max=args.lambda_order)
        return (
            EXIT_OK,
            lambda: jsonio.gw_series_to_json(series),
            lambda: _table(
                [[str(list(beta)), str(lam), str(c)] for (beta, lam), c in sorted(series.coeffs.items())],
                ["beta", "lambda^e", "coeff"],
            ),
        )
    if args.lambda_order is not None:
        raise SchemaError("--lambda-order applies only to a gv_table input, not a gw_series")
    result = gw_to_gv(payload, genus_max=args.genus_max, degree_max=args.degree_max)

    def doc():
        doc = jsonio.gv_table_to_json(result.table)
        if result.nonintegral:
            doc["warnings"] = {"nonintegral": jsonio.nonintegral_to_json(result.nonintegral)}
        return doc

    def text():
        rows = [[str(g), str(list(beta)), str(n)] for (g, beta), n in sorted(result.table.entries.items())]
        warnings = sorted(result.nonintegral.items())
        return _table(rows, ["g", "beta", "n_g"]) + [f"warning: nonintegral n_{g}^{list(beta)} = {v}" for (g, beta), v in warnings]

    return EXIT_OK, doc, text


def cmd_verify(args, kind, payload) -> Result:
    from .verify import SUITE_NAMES, suite_results  # only verify needs it

    if args.suite not in SUITE_NAMES:
        raise SchemaError(f"unknown suite {args.suite!r}; choose from {SUITE_NAMES}")
    results = suite_results(args.suite, seed=args.seed, scale=args.cases)
    passed = all(entry["ok"] for entry in results)

    def text():
        good = [entry for entry in results if entry["ok"]]
        return [
            f"suite {args.suite} seed {args.seed} scale {args.cases}",
            *(f"ok {e['name']} cases={e['cases']}" if e["ok"] else f"FAIL {e['name']}: {e['message']}" for e in results),
            f"{'PASS' if passed else 'FAIL'} {len(good)} properties, {sum(e['cases'] for e in good)} cases",
        ]

    return (
        EXIT_OK if passed else EXIT_PROPERTY,
        lambda: jsonio.envelope("verify_result", suite=args.suite, seed=args.seed, scale=args.cases, passed=passed, properties=results),
        text,
    )


# -- argument parsing --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors raise SchemaError, so they leave as one JSON line like every other failure."""

    def error(self, message: str):
        raise SchemaError(f"{self.prog}: {message}")


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type when int() rejects the text
    return parse


# name, handler, input kinds, help, then the options after --input and --json; a
# command of no input kind has neither and declares all its arguments
COMMANDS = (
    ("hst", cmd_hst, ("bispin",), "genus counts from bigraded spin content, both routes", {"--genus-max": dict(type=int, default=None)}),
    ("census", cmd_census, ("graded_nilpotent", "bispin"), "Jordan cell census of a graded operator or spin content", {}),
    ("upsilon", cmd_upsilon, ("motive", "betti_variety"), "evaluate a motive expression to its polynomial", {}),
    ("stack", cmd_stack, ("stack_class",), "evaluate a stack class to a rational function", {}),
    ("gv", cmd_gv, ("count_model",), "genus counts of a class in a counting model", {
        "--target": dict(required=True, help="class as comma-joined integers: beta parts, then k"),
        "--genus-max": dict(type=int, default=None),
        "--max-compositions": dict(type=_int_at_least(0), default=WORK_CAP),
    }),
    ("gw", cmd_gw, ("gv_table", "gw_series"), "transform between count tables and generating series", {
        "--genus-max": dict(type=int, default=None, help="gw_series input only: highest genus solved for (default: all the series determines)"),
        "--degree-max": dict(type=int, default=None, help="either input: degree cut on the classes (default: the document's)"),
        "--lambda-order": dict(type=int, default=None, help="gv_table input only: highest lambda exponent kept (default: 2 * genus cut - 2)"),
    }),
    ("verify", cmd_verify, (), "run a randomized property suite", {
        "suite": dict(help="name of a property suite, or all"),
        "--seed": dict(type=int, default=0),
        "--cases": dict(type=_int_at_least(1), default=1, help="case-count multiplier"),
        "--json": dict(action="store_true"),
    }),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The gvmot parser, holding only command's subparser when command names one, else all."""
    parser = _Parser(
        prog="gvmot",
        description=(
            "Exact computation of BPS-style genus counts from spin/census data, "
            "motivic measures of varieties and stacks over a base, wall-crossing "
            "counts in a split-stratum model, and the BPS/GW series transform."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, kinds, help, options in [entry for entry in COMMANDS if entry[0] == command] or COMMANDS:
        p = sub.add_parser(name, help=help)
        if kinds:
            p.add_argument("--input", required=True, help="path to a JSON input document")
            p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
        for name_or_flag, kwargs in options.items():
            p.add_argument(name_or_flag, **kwargs)
        p.set_defaults(func=func, kinds=kinds)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        kind = payload = None
        if args.kinds:
            kind, payload = jsonio.load_path(args.input)
            if kind not in args.kinds:
                raise SchemaError(f"{args.input}: expected kind in {args.kinds}, got {kind!r}")
        code, doc, text = args.func(args, kind, payload)
        with _all_digits():
            print(dump_json(doc()) if args.json else "\n".join(text()))
        return code
    except BrokenPipeError:
        # the reader closed stdout early, which is no fault of the run: end
        # quietly, and point stdout at the null device so the interpreter's
        # exit-time flush of what is still buffered cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except Exception as exc:  # a crash must still honour the exit-code contract
        return _emit_error(exc)


if __name__ == "__main__":
    sys.exit(main())
