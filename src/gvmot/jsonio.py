"""Strict JSON schemas for every document kind the CLI accepts or emits.

All documents carry {"v": 1, "kind": ...}; unknown fields are rejected so a
typo cannot silently change mathematical input.  Every number in transit is
an integer or a rational string "p/q"; nothing is ever parsed as a float.
A JSON integer stays an int, and only a rational string becomes a Fraction.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Callable, Iterator

from . import motives
from .counting import CentralCharge, ClassLattice, EvalModel, NumClass
from .errors import SchemaError
from .gwseries import GVTable, GWSeries
from .laurent import LaurentPoly, RationalFn, _print_order_key
from .lefschetz import BispinContent, GradedNilpotent, JordanCensus
from .stacks import StackClass

SCHEMA_VERSION = 1


def _require(obj: Any, cls, where: str):
    if not isinstance(obj, cls):
        raise SchemaError(f"{where}: expected {cls.__name__}, got {type(obj).__name__}")
    return obj


def _int(obj: Any, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SchemaError(f"{where}: expected an integer")
    return obj


def _fraction(obj: Any, where: str) -> int | Fraction:
    """A JSON integer as itself, or a rational string "p/q" as a Fraction."""
    if isinstance(obj, bool):
        raise SchemaError(f"{where}: expected an integer or rational string")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{where}: bad rational {obj!r}") from exc
    raise SchemaError(f"{where}: expected an integer or rational string")


def _fields(obj: dict, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    _require(obj, dict, where)
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")
    missing = [f for f in required if f not in obj]
    if missing:
        raise SchemaError(f"{where}: missing fields {missing}")
    return obj


def _rows(doc: Any, where: str, shape: str) -> Iterator[tuple[str, list]]:
    """Each row of a list of three-item rows, with its location; shape names
    the items for the error message."""
    _require(doc, list, where)
    for i, row in enumerate(doc):
        at = f"{where}[{i}]"
        _require(row, list, at)
        if len(row) != 3:
            raise SchemaError(f"{at}: expected {shape}")
        yield at, row


def fraction_str(f: Fraction) -> str:
    f = Fraction(f)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# -- polynomials ----------------------------------------------------------------


def poly_to_json(p: LaurentPoly) -> list[list]:
    terms = sorted(p.items(), key=_print_order_key)
    return [[a, b, str(c)] for (a, b), c in terms]


def poly_from_json(doc: Any, where: str = "poly") -> LaurentPoly:
    terms: dict[tuple[int, int], int] = {}
    for at, (a, b, c) in _rows(doc, where, "[a, b, coeff]"):
        a = _int(a, f"{at}.a")
        b = _int(b, f"{at}.b")
        c = _fraction(c, f"{at}.coeff")
        if c.denominator != 1:
            raise SchemaError(f"{at}: polynomial coefficients are integers")
        terms[(a, b)] = terms.get((a, b), 0) + int(c)
    try:
        return LaurentPoly(terms)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def rational_fn_to_json(r: RationalFn) -> dict:
    return {"num": poly_to_json(r.num), "den": poly_to_json(r.den)}


def rational_fn_from_json(doc: Any, where: str = "coeff") -> RationalFn:
    doc = _fields(doc, where, ("num", "den"))
    num = poly_from_json(doc["num"], f"{where}.num")
    den = poly_from_json(doc["den"], f"{where}.den")
    if den.is_zero():
        raise SchemaError(f"{where}: zero denominator")
    return RationalFn(num, den)


# -- censuses and bispin content --------------------------------------------------


def census_to_json(c: JordanCensus) -> list[list[int]]:
    return [[alpha, l, n] for (alpha, l), n in c.items()]


def census_from_json(doc: Any, where: str = "census") -> JordanCensus:
    cells: dict[tuple[int, int], int] = {}
    for at, (alpha, l, n) in _rows(doc, where, "[alpha, l, count]"):
        alpha = _int(alpha, f"{at}.alpha")
        l = _int(l, f"{at}.l")
        n = _int(n, f"{at}.count")
        if l < 1:
            raise SchemaError(f"{at}: cell size must be positive")
        cells[(alpha, l)] = cells.get((alpha, l), 0) + n
    return JordanCensus(cells)


def bispin_from_json(doc: Any, where: str = "content") -> BispinContent:
    mult: dict[tuple[int, int], int] = {}
    for at, (jl, jr, m) in _rows(doc, where, "[twoJL, twoJR, mult]"):
        jl = _int(jl, f"{at}.twoJL")
        jr = _int(jr, f"{at}.twoJR")
        m = _int(m, f"{at}.mult")
        if jl < 0 or jr < 0:
            raise SchemaError(f"{at}: doubled spins are nonnegative")
        mult[(jl, jr)] = mult.get((jl, jr), 0) + m
    return BispinContent(mult)


def graded_nilpotent_from_json(doc: dict, where: str = "graded_nilpotent") -> GradedNilpotent:
    dims_doc = _require(doc.get("dims"), dict, f"{where}.dims")
    maps_doc = _require(doc.get("maps", {}), dict, f"{where}.maps")
    dims = {}
    for key, value in dims_doc.items():
        try:
            degree = int(key)
        except ValueError as exc:
            raise SchemaError(f"{where}.dims: bad degree key {key!r}") from exc
        dims[degree] = _int(value, f"{where}.dims[{key}]")
        if dims[degree] < 0:
            raise SchemaError(f"{where}.dims[{key}]: dimensions must be nonnegative")
    maps = {}
    for key, rows in maps_doc.items():
        try:
            degree = int(key)
        except ValueError as exc:
            raise SchemaError(f"{where}.maps: bad degree key {key!r}") from exc
        _require(rows, list, f"{where}.maps[{key}]")
        maps[degree] = [
            [_fraction(c, f"{where}.maps[{key}]") for c in _require(row, list, f"{where}.maps[{key}]")]
            for row in rows
        ]
    return GradedNilpotent(dims, maps)


# -- motive expressions ------------------------------------------------------------


def abs_motive_from_json(doc: Any, where: str = "abs") -> motives.AbsMotive:
    _require(doc, dict, where)
    if "group" in doc:
        doc = _fields(doc, where, ("group",), ("n",))
        group = doc["group"]
        if group == "point":
            return motives.AbsMotive.point()
        if group == "affine_line":
            return motives.AbsMotive.affine_line()
        if group == "gm":
            return motives.AbsMotive.multiplicative_group()
        if group == "gl":
            return motives.AbsMotive.general_linear(_int(doc.get("n"), f"{where}.n"))
        raise SchemaError(f"{where}: unknown group {group!r}")
    doc = _fields(doc, where, ("poly",), ("name",))
    poly = poly_from_json(doc["poly"], f"{where}.poly")
    name = doc.get("name")
    if name is not None:
        _require(name, str, f"{where}.name")
    try:
        return motives.AbsMotive(poly, name)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _bettis(doc: dict, where: str) -> list[int]:
    return [_int(b, f"{where}.bettis") for b in _require(doc["bettis"], list, f"{where}.bettis")]


def motive_from_json(doc: Any, where: str = "expr") -> motives.MotiveExpr:
    _require(doc, dict, where)
    kind = doc.get("kind")
    if kind == "atom":
        doc = _fields(doc, where, ("kind", "name", "dim", "census"))
        return motives.Atom(
            name=_require(doc["name"], str, f"{where}.name"),
            dim=_int(doc["dim"], f"{where}.dim"),
            census=census_from_json(doc["census"], f"{where}.census"),
        )
    if kind == "betti":
        doc = _fields(doc, where, ("kind", "bettis", "dim"))
        return motives.smooth_from_betti(_bettis(doc, where), _int(doc["dim"], f"{where}.dim"))
    if kind == "betti_over_point":
        doc = _fields(doc, where, ("kind", "bettis"))
        return motives.over_point_from_betti(_bettis(doc, where))
    if kind == "sum":
        doc = _fields(doc, where, ("kind", "terms"))
        terms = _require(doc["terms"], list, f"{where}.terms")
        return motives.Sum(tuple(motive_from_json(t, f"{where}.terms[{i}]") for i, t in enumerate(terms)))
    if kind == "diff":
        doc = _fields(doc, where, ("kind", "left", "right"))
        return motives.Diff(
            motive_from_json(doc["left"], f"{where}.left"),
            motive_from_json(doc["right"], f"{where}.right"),
        )
    if kind == "int_scale":
        doc = _fields(doc, where, ("kind", "factor", "expr"))
        return motives.IntScale(_int(doc["factor"], f"{where}.factor"), motive_from_json(doc["expr"], f"{where}.expr"))
    if kind == "abs_product":
        doc = _fields(doc, where, ("kind", "abs", "expr"))
        return motives.AbsProduct(abs_motive_from_json(doc["abs"], f"{where}.abs"), motive_from_json(doc["expr"], f"{where}.expr"))
    if kind == "proj_bundle":
        doc = _fields(doc, where, ("kind", "expr", "fiber_rank"))
        return motives.ProjBundle(motive_from_json(doc["expr"], f"{where}.expr"), _int(doc["fiber_rank"], f"{where}.fiber_rank"))
    if kind == "blow_up":
        doc = _fields(doc, where, ("kind", "ambient", "center", "codim"))
        return motives.BlowUpRel(
            ambient=motive_from_json(doc["ambient"], f"{where}.ambient"),
            center=motive_from_json(doc["center"], f"{where}.center"),
            codim=_int(doc["codim"], f"{where}.codim"),
        )
    if kind == "fibration":
        doc = _fields(doc, where, ("kind", "expr", "fiber"))
        return motives.Fibration(motive_from_json(doc["expr"], f"{where}.expr"), abs_motive_from_json(doc["fiber"], f"{where}.fiber"))
    if kind == "finite_push":
        doc = _fields(doc, where, ("kind", "expr"))
        return motives.FinitePush(motive_from_json(doc["expr"], f"{where}.expr"))
    raise SchemaError(f"{where}: unknown expression kind {kind!r}")


# -- stack classes -----------------------------------------------------------------


def stack_class_from_json(doc: Any, where: str = "parts") -> StackClass:
    _require(doc, list, where)
    parts = []
    for i, part in enumerate(doc):
        part = _fields(part, f"{where}[{i}]", ("coeff", "expr"))
        coeff = rational_fn_from_json(part["coeff"], f"{where}[{i}].coeff")
        expr = motive_from_json(part["expr"], f"{where}[{i}].expr")
        parts.append((coeff, expr))
    return StackClass(parts)


# -- counting model -----------------------------------------------------------------


def class_key(v: NumClass) -> str:
    return ",".join(str(b) for b in (*v.beta, v.k))


def class_from_key(key: str, rank: int, where: str) -> NumClass:
    pieces = key.split(",")
    if len(pieces) != rank + 1:
        raise SchemaError(f"{where}: class key {key!r} needs {rank} beta parts plus k")
    try:
        numbers = [int(p) for p in pieces]
    except ValueError as exc:
        raise SchemaError(f"{where}: bad class key {key!r}") from exc
    return NumClass(tuple(numbers[:-1]), numbers[-1])


def class_from_list(doc: Any, rank: int, where: str) -> NumClass:
    _require(doc, list, where)
    if len(doc) != rank + 1:
        raise SchemaError(f"{where}: class needs {rank} beta parts plus k")
    numbers = [_int(x, where) for x in doc]
    return NumClass(tuple(numbers[:-1]), numbers[-1])


def count_model_from_json(doc: dict, where: str = "count_model") -> tuple[ClassLattice, CentralCharge, EvalModel]:
    lattice_doc = _fields(doc["lattice"], f"{where}.lattice", ("rank", "generators"))
    rank = _int(lattice_doc["rank"], f"{where}.lattice.rank")
    generators = []
    for i, g in enumerate(_require(lattice_doc["generators"], list, f"{where}.lattice.generators")):
        _require(g, list, f"{where}.lattice.generators[{i}]")
        generators.append(tuple(_int(c, f"{where}.lattice.generators[{i}]") for c in g))
    try:
        lattice = ClassLattice(rank, generators)
    except ValueError as exc:
        raise SchemaError(f"{where}.lattice: {exc}") from exc

    charge_doc = _fields(doc["charge"], f"{where}.charge", ("B", "omega"))
    b_field = [_fraction(x, f"{where}.charge.B") for x in _require(charge_doc["B"], list, f"{where}.charge.B")]
    omega = [_fraction(x, f"{where}.charge.omega") for x in _require(charge_doc["omega"], list, f"{where}.charge.omega")]
    if len(b_field) != rank or len(omega) != rank:
        raise SchemaError(f"{where}.charge: B and omega must have length {rank}")
    charge = CentralCharge(b_field, omega)
    lattice.check_positive(charge.omega)

    atoms_doc = _require(doc["atoms"], dict, f"{where}.atoms")
    atoms = {}
    for key, parts in atoms_doc.items():
        v = class_from_key(key, rank, f"{where}.atoms")
        atoms[v] = stack_class_from_json(parts, f"{where}.atoms[{key}]")

    defects = [
        (class_from_list(v1, rank, f"{at}[0]"), class_from_list(v2, rank, f"{at}[1]"), _int(e, f"{at}[2]"))
        for at, (v1, v2, e) in _rows(doc.get("ext_defect", []), f"{where}.ext_defect", "[v1, v2, e]")
    ]
    model = EvalModel(atoms, defects)
    return lattice, charge, model


# -- GV tables and GW series ----------------------------------------------------------


def gv_table_from_json(doc: dict, where: str = "gv_table") -> GVTable:
    cuts = _fields(doc["cuts"], f"{where}.cuts", ("genus", "degree", "omega"))
    omega = [_fraction(x, f"{where}.cuts.omega") for x in _require(cuts["omega"], list, f"{where}.cuts.omega")]
    entries = {}
    for at, (g, beta, n) in _rows(doc["entries"], f"{where}.entries", "[g, beta, n]"):
        g = _int(g, f"{at}.g")
        beta = tuple(_int(b, f"{at}.beta") for b in _require(beta, list, f"{at}.beta"))
        n = _int(n, f"{at}.n")
        entries[(g, beta)] = entries.get((g, beta), 0) + n
    try:
        return GVTable(
            entries,
            genus_max=_int(cuts["genus"], f"{where}.cuts.genus"),
            degree_max=_fraction(cuts["degree"], f"{where}.cuts.degree"),
            omega=omega,
        )
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def gv_table_to_json(table: GVTable) -> dict:
    entries = [[g, list(beta), n] for (g, beta), n in sorted(table.entries.items())]
    return {
        "v": SCHEMA_VERSION,
        "kind": "gv_table",
        "entries": entries,
        "cuts": {
            "genus": table.genus_max,
            "degree": fraction_str(table.degree_max),
            "omega": [fraction_str(w) for w in table.omega],
        },
    }


def gw_series_from_json(doc: dict, where: str = "gw_series") -> GWSeries:
    cuts = _fields(doc["cuts"], f"{where}.cuts", ("degree", "lambda", "omega"))
    omega = [_fraction(x, f"{where}.cuts.omega") for x in _require(cuts["omega"], list, f"{where}.cuts.omega")]
    coeffs = {}
    for at, (beta, lam, c) in _rows(doc["coeffs"], f"{where}.coeffs", "[beta, lambda, coeff]"):
        beta = tuple(_int(b, f"{at}.beta") for b in _require(beta, list, f"{at}.beta"))
        lam = _int(lam, f"{at}.lambda")
        c = _fraction(c, f"{at}.coeff")
        key = (beta, lam)
        coeffs[key] = coeffs[key] + c if key in coeffs else c  # only a repeated key is summed
    try:
        return GWSeries(
            coeffs,
            degree_max=_fraction(cuts["degree"], f"{where}.cuts.degree"),
            lambda_max=_int(cuts["lambda"], f"{where}.cuts.lambda"),
            omega=omega,
        )
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def gw_series_to_json(series: GWSeries) -> dict:
    coeffs = [
        [list(beta), lam, fraction_str(c)]
        for (beta, lam), c in sorted(series.coeffs.items())
    ]
    return {
        "v": SCHEMA_VERSION,
        "kind": "gw_series",
        "coeffs": coeffs,
        "cuts": {
            "degree": fraction_str(series.degree_max),
            "lambda": series.lambda_max,
            "omega": [fraction_str(w) for w in series.omega],
        },
    }


# -- top-level documents ----------------------------------------------------------------

def _betti_variety_from_json(doc: dict) -> motives.MotiveExpr:
    return motives.smooth_from_betti(_bettis(doc, "betti_variety"), _int(doc["dim"], "betti_variety.dim"))


# kind -> (required payload fields, optional payload fields, payload parser)
KINDS: dict[str, tuple[tuple[str, ...], tuple[str, ...], Callable[[dict], Any]]] = {
    "bispin": (("content",), (), lambda doc: bispin_from_json(doc["content"])),
    "graded_nilpotent": (("dims",), ("maps",), graded_nilpotent_from_json),
    "betti_variety": (("bettis", "dim"), (), _betti_variety_from_json),
    "motive": (("expr",), (), lambda doc: motive_from_json(doc["expr"])),
    "stack_class": (("parts",), (), lambda doc: stack_class_from_json(doc["parts"])),
    "count_model": (("lattice", "charge", "atoms"), ("ext_defect",), count_model_from_json),
    "gv_table": (("entries", "cuts"), (), gv_table_from_json),
    "gw_series": (("coeffs", "cuts"), (), gw_series_from_json),
}


def parse_document(doc: Any) -> tuple[str, Any]:
    """Validate the envelope and parse the payload; returns (kind, object)."""
    _require(doc, dict, "document")
    if doc.get("v") != SCHEMA_VERSION:
        raise SchemaError(f"document: schema version must be {SCHEMA_VERSION}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise SchemaError(f"document: unknown kind {kind!r}")
    required, optional, parse = KINDS[kind]
    _fields(doc, "document", ("v", "kind") + required, optional + ("name", "note"))
    return kind, parse(doc)


def load_path(path: str) -> tuple[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError as exc:
        # the decoder recurses once per nested array or object
        raise SchemaError(f"{path}: invalid JSON (nested too deeply to decode)") from exc
    return parse_document(doc)


def dump_json(doc: Any) -> str:
    """Deterministic rendering: sorted keys, no whitespace drift."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)
