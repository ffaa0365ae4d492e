"""gvmot: command-line front end.

Subcommands: hst, census, upsilon, stack, gv, gw, verify.  Input documents
are strict JSON (see jsonio); output is an aligned text table by default or
a stable JSON document with --json.  Every number printed is an exact
integer or rational string.

Exit codes: 0 ok, 1 property failure, 2 schema, usage or resource-cap error,
3 internal cross-check disagreement, 4 missing model data, 5 non-polynomial
count, 6 internal error (an exception that is not a domain error).  Each run
of gv, gw or hst spends one Ledger, whose cap bounds all of its work.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import jsonio
from .counting import MODEL_NOTE, counting_polynomial, polynomial_census
from .errors import (
    WORK_CAP,
    GvmotError,
    Ledger,
    MissingAtomError,
    NotPolynomialError,
    OddWeightedDegreeError,
    ResourceLimitError,
    SchemaError,
)
from .gwseries import gv_to_gw, gw_to_gv
from .jsonio import SCHEMA_VERSION, dump_json
from .laurent import format_poly
from .lefschetz import census_count, census_from_bispin, genus_count, jordan_census
from .motives import upsilon_rel
from .stacks import upsilon_stack

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_SCHEMA = 2
EXIT_CROSSCHECK = 3
EXIT_MISSING_ATOM = 4
EXIT_NOT_POLYNOMIAL = 5
EXIT_INTERNAL = 6


class CrossCheckError(GvmotError):
    """The two computation routes disagreed; the artifact is inconsistent."""


def _emit_error(exc: Exception) -> int:
    if not isinstance(exc, GvmotError):
        code = EXIT_INTERNAL
    elif isinstance(exc, CrossCheckError):
        code = EXIT_CROSSCHECK
    elif isinstance(exc, MissingAtomError):
        code = EXIT_MISSING_ATOM
    elif isinstance(exc, (NotPolynomialError, OddWeightedDegreeError)):
        code = EXIT_NOT_POLYNOMIAL
    else:
        code = EXIT_SCHEMA
    body = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if isinstance(exc, ResourceLimitError):
        body["error"].update(stage=exc.stage, spent=exc.spent, cap=exc.cap)
    print(json.dumps(body, sort_keys=True), file=sys.stderr)
    return code


def _load(path: str, expected_kinds: tuple[str, ...]):
    kind, payload = jsonio.load_path(path)
    if kind not in expected_kinds:
        raise SchemaError(f"{path}: expected kind in {expected_kinds}, got {kind!r}")
    return kind, payload


def _print_table(rows: list[list[str]], header: list[str]) -> None:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


# -- subcommands -----------------------------------------------------------------


def cmd_hst(args) -> int:
    _, content = _load(args.input, ("bispin",))
    genus_max = args.genus_max
    if genus_max is None:
        genus_max = max((jl for (jl, _) in content.mult), default=0)
    # the census cells are built once and read once per printed row, and a
    # row costs at least one term even when there are no cells
    cells = sum(jl + 1 for (jl, _) in content.mult)
    Ledger().spend("hst", cells + max(genus_max + 1, 0) * max(cells, 1), "census terms")
    virtual = content.is_virtual()
    census = None if virtual else census_from_bispin(content)
    rows = []
    counts = []
    for g in range(genus_max + 1):
        spin_route = genus_count(content, g)
        if census is None:
            rows.append([str(g), str(spin_route), "n/a"])
        else:
            census_route = census_count(census, g)
            if census_route != spin_route:
                raise CrossCheckError(
                    f"genus {g}: spin route {spin_route} != census route {census_route}"
                )
            rows.append([str(g), str(spin_route), str(census_route)])
        counts.append([g, spin_route])
    if args.json:
        print(dump_json({
            "v": SCHEMA_VERSION,
            "kind": "hst_result",
            "counts": counts,
            "virtual": virtual,
        }))
    else:
        _print_table(rows, ["g", "spin", "census"])
    return EXIT_OK


def cmd_census(args) -> int:
    kind, payload = _load(args.input, ("graded_nilpotent", "bispin"))
    census = jordan_census(payload) if kind == "graded_nilpotent" else census_from_bispin(payload)
    if args.json:
        print(dump_json({
            "v": SCHEMA_VERSION,
            "kind": "census_result",
            "census": jsonio.census_to_json(census),
        }))
    else:
        rows = [[str(a), str(l), str(n)] for (a, l), n in census.items()]
        _print_table(rows, ["alpha", "l", "count"])
    return EXIT_OK


def cmd_upsilon(args) -> int:
    _, expr = _load(args.input, ("motive", "betti_variety"))
    value = upsilon_rel(expr)
    if args.json:
        print(dump_json({
            "v": SCHEMA_VERSION,
            "kind": "polynomial",
            "terms": jsonio.poly_to_json(value),
        }))
    else:
        print(format_poly(value))
    return EXIT_OK


def cmd_stack(args) -> int:
    _, stack = _load(args.input, ("stack_class",))
    value = upsilon_stack(stack)
    if args.json:
        print(dump_json({
            "v": SCHEMA_VERSION,
            "kind": "rational_fn",
            **jsonio.rational_fn_to_json(value),
        }))
    else:
        print(str(value))
    return EXIT_OK


def cmd_gv(args) -> int:
    _, (lattice, charge, model) = _load(args.input, ("count_model",))
    target = jsonio.class_from_key(args.target, lattice.rank, "--target")
    genus_max = args.genus_max if args.genus_max is not None else 3
    ledger = Ledger(args.max_compositions)
    poly = counting_polynomial(lattice, charge, target, model, ledger=ledger)
    census = polynomial_census(poly)
    # every printed row reads every cell, and costs at least one term
    ledger.spend("readout", max(genus_max + 1, 0) * max(len(census.mult), 1), "census terms")
    counts = [[g, census_count(census, g)] for g in range(genus_max + 1)]
    if args.json:
        print(dump_json({
            "v": SCHEMA_VERSION,
            "kind": "gv_result",
            "target": [*target.beta, target.k],
            "counts": counts,
            "count_polynomial": jsonio.rational_fn_to_json(poly),
            "note": MODEL_NOTE,
        }))
    else:
        print(f"# {MODEL_NOTE}")
        print(f"# class {args.target}: count polynomial = {poly}")
        _print_table([[str(g), str(n)] for g, n in counts], ["g", "n_g"])
    return EXIT_OK


def cmd_gw(args) -> int:
    kind, payload = _load(args.input, ("gv_table", "gw_series"))
    direction = args.direction
    if direction is None:
        direction = "to-gw" if kind == "gv_table" else "to-gv"
    if direction == "to-gw":
        if kind != "gv_table":
            raise SchemaError("direction to-gw needs a gv_table document")
        if args.genus_max is not None:
            raise SchemaError("--genus-max applies only to direction to-gv")
        series = gv_to_gw(payload, degree_max=args.degree_max, lambda_max=args.lambda_order)
        if args.json:
            print(dump_json(jsonio.gw_series_to_json(series)))
        else:
            rows = [
                [str(list(beta)), str(lam), jsonio.fraction_str(c)]
                for (beta, lam), c in sorted(series.coeffs.items())
            ]
            _print_table(rows, ["beta", "lambda^e", "coeff"])
        return EXIT_OK
    if kind != "gw_series":
        raise SchemaError("direction to-gv needs a gw_series document")
    if args.lambda_order is not None:
        raise SchemaError("--lambda-order applies only to direction to-gw")
    result = gw_to_gv(payload, genus_max=args.genus_max, degree_max=args.degree_max)
    warnings = [
        [g, list(beta), jsonio.fraction_str(value)]
        for (g, beta), value in sorted(result.nonintegral.items())
    ]
    if args.json:
        doc = jsonio.gv_table_to_json(result.table)
        if warnings:
            doc["warnings"] = {"nonintegral": warnings}
        print(dump_json(doc))
    else:
        rows = [
            [str(g), str(list(beta)), str(n)]
            for (g, beta), n in sorted(result.table.entries.items())
        ]
        _print_table(rows, ["g", "beta", "n_g"])
        for g, beta, value in warnings:
            print(f"warning: nonintegral n_{g}^{beta} = {value}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import SUITE_NAMES, run_suite, suite_results  # only verify needs it

    if args.suite not in SUITE_NAMES:
        raise SchemaError(f"unknown suite {args.suite!r}; choose from {SUITE_NAMES}")
    if not args.json:
        passed, lines = run_suite(args.suite, seed=args.seed, scale=args.cases)
        for line in lines:
            print(line)
        return EXIT_OK if passed else EXIT_PROPERTY
    results = suite_results(args.suite, seed=args.seed, scale=args.cases)
    passed = all(entry["ok"] for entry in results)
    print(dump_json({
        "v": SCHEMA_VERSION,
        "kind": "verify_result",
        "suite": args.suite,
        "seed": args.seed,
        "scale": args.cases,
        "passed": passed,
        "properties": results,
    }))
    return EXIT_OK if passed else EXIT_PROPERTY


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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gvmot",
        description=(
            "Exact computation of BPS-style genus counts from spin/census data, "
            "motivic measures of varieties and stacks over a base, wall-crossing "
            "counts in a split-stratum model, and the BPS/GW series transform."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        if with_input:
            p.add_argument("--input", required=True, help="path to a JSON input document")
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    p_hst = sub.add_parser("hst", help="genus counts from bigraded spin content, both routes")
    add_common(p_hst)
    p_hst.add_argument("--genus-max", type=int, default=None)
    p_hst.set_defaults(func=cmd_hst)

    p_census = sub.add_parser("census", help="Jordan cell census of a graded operator or spin content")
    add_common(p_census)
    p_census.set_defaults(func=cmd_census)

    p_upsilon = sub.add_parser("upsilon", help="evaluate a motive expression to its polynomial")
    add_common(p_upsilon)
    p_upsilon.set_defaults(func=cmd_upsilon)

    p_stack = sub.add_parser("stack", help="evaluate a stack class to a rational function")
    add_common(p_stack)
    p_stack.set_defaults(func=cmd_stack)

    p_gv = sub.add_parser("gv", help="genus counts of a class in a counting model")
    add_common(p_gv)
    p_gv.add_argument("--target", required=True, help="class as comma-joined integers: beta parts, then k")
    p_gv.add_argument("--genus-max", type=int, default=None)
    p_gv.add_argument("--max-compositions", type=_int_at_least(0), default=WORK_CAP)
    p_gv.set_defaults(func=cmd_gv)

    p_gw = sub.add_parser("gw", help="transform between count tables and generating series")
    add_common(p_gw)
    p_gw.add_argument("--direction", choices=("to-gw", "to-gv"), default=None)
    p_gw.add_argument("--genus-max", type=int, default=None)
    p_gw.add_argument("--degree-max", type=int, default=None)
    p_gw.add_argument("--lambda-order", type=int, default=None)
    p_gw.set_defaults(func=cmd_gw)

    p_verify = sub.add_parser("verify", help="run a randomized property suite")
    p_verify.add_argument("suite", help="name of a property suite, or all")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--cases", type=_int_at_least(1), default=1, help="case-count multiplier")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
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
