"""Strict JSON schemas for every document kind the CLI accepts or emits.

All documents carry {"v": 1, "kind": ...}; unknown fields are rejected so a
typo cannot silently change mathematical input.  Every number in transit is
an integer or a rational string "p/q", matched by -?[0-9]+(/[0-9]+)?;
nothing is ever parsed as a float.  An integer written in a key (a degree,
or a part of a class "b1,...,k") matches -?[0-9]+ whole.  A JSON integer
stays an int, and only a rational string becomes a Fraction.  A number with
more digits than the interpreter converts to an int
(sys.get_int_max_str_digits; the conversion costs time quadratic in the
digits) fails its schema check where it stands.

A row's location is formatted only for an error.  A gv_table or gw_series
document is read in one pass: the loop that reads a row checks its types,
then its key under the rules GVTable and GWSeries keep (gwseries.ClassRule,
check_genus, check_lambda: the one copy of those rules), and builds the
result without the constructors' second pass; errors come in the order of
a reader that checks every row's types before the cuts and the keys.  It is
written in one pass too: gv_table_to_json and gw_series_to_json keep the
rows as Rows, the sorted keys of the result's own mapping, and dump_json
writes each row into the text with one f-string.  A motive expression nests
at most MOTIVE_DEPTH_CAP levels deep.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring
from typing import Any, Callable, Iterable, Iterator, Mapping

from . import motives
from .counting import AtomParts, CentralCharge, ClassLattice, EvalModel, NumClass
from .errors import ConeNotPointedError, SchemaError
from .gwseries import ClassRule, GVTable, GWSeries, _built, check_genus, check_lambda
from .laurent import LaurentPoly, RationalFn, _print_order_key
from .lefschetz import BispinContent, GradedNilpotent, JordanCensus
from .stacks import StackClass

SCHEMA_VERSION = 1
# how many expressions may enclose a motive expression: each level is a frame of
# the recursive reader (each constructor computes its value from its arguments'
# values, so evaluation does not recurse), and a gvmot run overflows the default
# recursion limit of 1000 from about 986 levels, so the cap leaves 85 frames spare
MOTIVE_DEPTH_CAP = 900


def _digit_limit() -> int:
    """The interpreter's limit on digits converted to an int; 0 where it has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


class _LongInteger:
    """A JSON integer with more digits than the interpreter converts, kept as
    a marker so that the schema check that meets it can say where it is."""

    def __init__(self, text: str):
        self.digits = len(text.lstrip("-"))


def _too_long(digits: int, where: str) -> SchemaError:
    return SchemaError(f"{where}: a number of {digits} digits is over the limit of {_digit_limit()} digits")


def _require(obj: Any, cls, where: str):
    if not isinstance(obj, cls):
        raise SchemaError(f"{where}: expected {cls.__name__}, got {type(obj).__name__}")
    return obj


def _int(obj: Any, where: str) -> int:
    if type(obj) is not int:
        if isinstance(obj, _LongInteger):
            raise _too_long(obj.digits, where)
        raise SchemaError(f"{where}: expected an integer")
    return obj


def _ints(obj: Any, where: str) -> tuple[int, ...]:
    obj = tuple(_require(obj, list, where))
    for x in obj:
        if type(x) is not int:
            _int(x, where)
    return obj


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_INTEGER = re.compile(r"-?[0-9]+")


def _key_int(key: str) -> int:
    """An integer written as a document key, matched whole by -?[0-9]+; ValueError otherwise."""
    if not _INTEGER.fullmatch(key):
        raise ValueError(key)
    return int(key)


def _fraction(obj: Any, where: str) -> int | Fraction:
    """A JSON integer as itself, or a rational string "p/q" as a Fraction."""
    if type(obj) is int:
        return obj
    if type(obj) is str:
        match = _RATIONAL.fullmatch(obj)
        if match:
            try:
                return Fraction(int(match[1]), int(match[2] or 1))
            except (ValueError, ZeroDivisionError):  # more digits than int() converts, or a zero denominator
                pass
        digits = max(map(len, re.findall(r"[0-9]+", obj)), default=0)
        if digits > _digit_limit() > 0:
            raise _too_long(digits, where)
        raise SchemaError(f"{where}: bad rational {obj!r}")
    if isinstance(obj, _LongInteger):
        raise _too_long(obj.digits, where)
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


def _rows(doc: Any, where: str, shape: str, items: tuple) -> Iterator[tuple]:
    """The checked values of each row of a list of three-item rows.

    items gives each item's check and its location within the row; shape
    names the items for a row that is not a list of three.  A row's own
    location is formatted only for an error.
    """
    (check_a, at_a), (check_b, at_b), (check_c, at_c) = items
    for i, row in enumerate(_require(doc, list, where)):
        if type(row) is not list or len(row) != 3:
            _require(row, list, f"{where}[{i}]")
            raise SchemaError(f"{where}[{i}]: expected {shape}")
        try:
            values = check_a(row[0], at_a), check_b(row[1], at_b), check_c(row[2], at_c)
        except SchemaError as exc:
            raise SchemaError(f"{where}[{i}]{exc}") from None
        yield values


# -- polynomials ----------------------------------------------------------------


def poly_to_json(p: LaurentPoly) -> list[list]:
    terms = sorted(p.items(), key=_print_order_key)
    return [[a, b, str(c)] for (a, b), c in terms]


def poly_from_json(doc: Any, where: str = "poly") -> LaurentPoly:
    terms: dict[tuple[int, int], int] = {}
    for i, (a, b, c) in enumerate(_rows(doc, where, "[a, b, coeff]", ((_int, ".a"), (_int, ".b"), (_fraction, ".coeff")))):
        if c.denominator != 1:
            raise SchemaError(f"{where}[{i}]: polynomial coefficients are integers")
        terms[(a, b)] = terms.get((a, b), 0) + int(c)
    try:
        return LaurentPoly(terms)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def rational_fn_to_json(r: RationalFn) -> dict:
    return {"num": poly_to_json(r.num), "den": poly_to_json(r.den)}


def _fraction_polys(doc: Any, where: str) -> tuple[LaurentPoly, LaurentPoly]:
    """The checked numerator and nonzero denominator of a rational function, not normalised."""
    doc = _fields(doc, where, ("num", "den"))
    num = poly_from_json(doc["num"], f"{where}.num")
    den = poly_from_json(doc["den"], f"{where}.den")
    if den.is_zero():
        raise SchemaError(f"{where}: zero denominator")
    return num, den


# -- censuses and bispin content --------------------------------------------------


def census_to_json(c: JordanCensus) -> list[list[int]]:
    return [[alpha, l, n] for (alpha, l), n in c.items()]


def census_from_json(doc: Any, where: str = "census") -> JordanCensus:
    cells: dict[tuple[int, int], int] = {}
    for i, (alpha, l, n) in enumerate(_rows(doc, where, "[alpha, l, count]", ((_int, ".alpha"), (_int, ".l"), (_int, ".count")))):
        if l < 1:
            raise SchemaError(f"{where}[{i}]: cell size must be positive")
        cells[(alpha, l)] = cells.get((alpha, l), 0) + n
    return JordanCensus(cells)


def bispin_from_json(doc: Any, where: str = "content") -> BispinContent:
    mult: dict[tuple[int, int], int] = {}
    for i, (jl, jr, m) in enumerate(_rows(doc, where, "[twoJL, twoJR, mult]", ((_int, ".twoJL"), (_int, ".twoJR"), (_int, ".mult")))):
        if jl < 0 or jr < 0:
            raise SchemaError(f"{where}[{i}]: doubled spins are nonnegative")
        mult[(jl, jr)] = mult.get((jl, jr), 0) + m
    return BispinContent(mult)


def graded_nilpotent_from_json(doc: dict, where: str = "graded_nilpotent") -> GradedNilpotent:
    dims_doc = _require(doc.get("dims"), dict, f"{where}.dims")
    maps_doc = _require(doc.get("maps", {}), dict, f"{where}.maps")
    dims = {}
    for key, value in dims_doc.items():
        try:
            degree = _key_int(key)
        except ValueError as exc:
            raise SchemaError(f"{where}.dims: bad degree key {key!r}") from exc
        dims[degree] = _int(value, f"{where}.dims[{key}]")
        if dims[degree] < 0:
            raise SchemaError(f"{where}.dims[{key}]: dimensions must be nonnegative")
    maps = {}
    for key, rows in maps_doc.items():
        try:
            degree = _key_int(key)
        except ValueError as exc:
            raise SchemaError(f"{where}.maps: bad degree key {key!r}") from exc
        at = f"{where}.maps[{key}]"
        _require(rows, list, at)
        maps[degree] = [row if isinstance(row, list) and set(map(type, row)) <= {int}
                        else [c if type(c) is int else _fraction(c, at) for c in _require(row, list, at)] for row in rows]
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
            try:
                return motives.AbsMotive.general_linear(_int(doc.get("n"), f"{where}.n"))
            except ValueError as exc:
                raise SchemaError(f"{where}.n: {exc}") from exc
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


def motive_from_json(doc: Any, where: str = "expr", depth: int = 0) -> motives.MotiveExpr:
    """A motive expression; depth counts the expressions around it, at most MOTIVE_DEPTH_CAP."""
    if depth > MOTIVE_DEPTH_CAP:
        raise SchemaError(f"{where}: a motive expression is nested more than {MOTIVE_DEPTH_CAP} levels deep")
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
        return motives.Sum(tuple(motive_from_json(t, f"{where}.terms[{i}]", depth + 1) for i, t in enumerate(terms)))
    if kind == "diff":
        doc = _fields(doc, where, ("kind", "left", "right"))
        return motives.Diff(
            motive_from_json(doc["left"], f"{where}.left", depth + 1),
            motive_from_json(doc["right"], f"{where}.right", depth + 1),
        )
    if kind == "int_scale":
        doc = _fields(doc, where, ("kind", "factor", "expr"))
        return motives.IntScale(_int(doc["factor"], f"{where}.factor"), motive_from_json(doc["expr"], f"{where}.expr", depth + 1))
    if kind == "abs_product":
        doc = _fields(doc, where, ("kind", "abs", "expr"))
        return motives.AbsProduct(abs_motive_from_json(doc["abs"], f"{where}.abs"), motive_from_json(doc["expr"], f"{where}.expr", depth + 1))
    if kind == "proj_bundle":
        doc = _fields(doc, where, ("kind", "expr", "fiber_rank"))
        return motives.ProjBundle(motive_from_json(doc["expr"], f"{where}.expr", depth + 1), _int(doc["fiber_rank"], f"{where}.fiber_rank"))
    if kind == "blow_up":
        doc = _fields(doc, where, ("kind", "ambient", "center", "codim"))
        return motives.BlowUpRel(
            ambient=motive_from_json(doc["ambient"], f"{where}.ambient", depth + 1),
            center=motive_from_json(doc["center"], f"{where}.center", depth + 1),
            codim=_int(doc["codim"], f"{where}.codim"),
        )
    if kind == "fibration":
        doc = _fields(doc, where, ("kind", "expr", "fiber"))
        return motives.Fibration(motive_from_json(doc["expr"], f"{where}.expr", depth + 1), abs_motive_from_json(doc["fiber"], f"{where}.fiber"))
    if kind == "finite_push":
        doc = _fields(doc, where, ("kind", "expr"))
        return motives.FinitePush(motive_from_json(doc["expr"], f"{where}.expr", depth + 1))
    raise SchemaError(f"{where}: unknown expression kind {kind!r}")


# -- stack classes -----------------------------------------------------------------


def _stack_parts(doc: Any, where: str) -> AtomParts:
    """The checked (num, den, expr) of each part of a stack class, coefficients not normalised:
    a stack_class document normalises them, and a count model keeps them as an atom."""
    parts = []
    for i, part in enumerate(_require(doc, list, where)):
        part = _fields(part, f"{where}[{i}]", ("coeff", "expr"))
        num, den = _fraction_polys(part["coeff"], f"{where}[{i}].coeff")
        parts.append((num, den, motive_from_json(part["expr"], f"{where}[{i}].expr")))
    return tuple(parts)


def stack_class_from_json(doc: Any, where: str = "parts") -> StackClass:
    return StackClass.from_fractions(_stack_parts(doc, where))


# -- counting model -----------------------------------------------------------------


def class_from_key(key: str, rank: int, where: str) -> NumClass:
    pieces = key.split(",")
    if len(pieces) != rank + 1:
        raise SchemaError(f"{where}: class key {key!r} needs {rank} beta parts plus k")
    try:
        numbers = [_key_int(p) for p in pieces]
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

    # every atom is checked here and kept as its parts; a count normalises the classes it reaches
    atoms_doc = _require(doc["atoms"], dict, f"{where}.atoms")
    atoms = {}
    for key, parts in atoms_doc.items():
        v = class_from_key(key, rank, f"{where}.atoms")
        atoms[v] = _stack_parts(parts, f"{where}.atoms[{key}]")

    cls = lambda v, at: class_from_list(v, rank, at)
    defects = list(_rows(doc.get("ext_defect", []), f"{where}.ext_defect", "[v1, v2, e]", ((cls, "[0]"), (cls, "[1]"), (_int, "[2]"))))
    model = EvalModel(atoms, defects)
    return lattice, charge, model


# -- GV tables and GW series ----------------------------------------------------------


def _rational(obj: Any, where: str) -> Fraction:
    """_fraction's value, as a Fraction."""
    value = _fraction(obj, where)
    return value if type(value) is Fraction else Fraction(value)


def _omega(cuts: dict, where: str) -> tuple[Fraction, ...]:
    return tuple([_rational(x, f"{where}.cuts.omega") for x in _require(cuts["omega"], list, f"{where}.cuts.omega")])


def _read_rest(rows: Iterator) -> None:
    """Read the rows left, so that a row's type error is raised before an error met earlier:
    the error order of a reader that checks every row's types before the cuts and keys."""
    for _ in rows:
        pass


def _summed(rows: Iterator[tuple], key: Callable, where: str) -> dict:
    """The values of a table's or series' rows (a, b, value), summed by key(a, b) in one pass.

    key applies the rules of the document's keys, raising ValueError or
    ConeNotPointedError; the first key it rejects is raised once every row
    has been read.  Keys whose values sum to zero are dropped.
    """
    out: dict = {}
    zeros = False
    for a, b, value in rows:
        try:
            k = key(a, b)
        except (ValueError, ConeNotPointedError) as exc:
            _read_rest(rows)
            raise SchemaError(f"{where}: {exc}") if isinstance(exc, ValueError) else exc
        if k in out:
            out[k] += value
            zeros = True
        else:
            out[k] = value
            zeros = zeros or not value
    return {k: v for k, v in out.items() if v} if zeros else out


def gv_table_from_json(doc: dict, where: str = "gv_table") -> GVTable:
    """A gv_table document, read in one pass: each row's types, then its key
    under the rules GVTable keeps (check_genus, ClassRule), repeated keys
    summed; the table is built without a second check."""
    cuts = _fields(doc["cuts"], f"{where}.cuts", ("genus", "degree", "omega"))
    omega = _omega(cuts, where)
    rows = _rows(doc["entries"], f"{where}.entries", "[g, beta, n]", ((_int, ".g"), (_ints, ".beta"), (_int, ".n")))
    try:
        genus_max = _int(cuts["genus"], f"{where}.cuts.genus")
        degree_max = _rational(cuts["degree"], f"{where}.cuts.degree")
    except SchemaError:
        _read_rest(rows)
        raise
    classes = ClassRule(omega, degree_max)

    def key(g: int, beta: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        check_genus(g, genus_max)
        return g, classes(beta)

    entries = _summed(rows, key, where)
    return _built(GVTable, entries=entries, genus_max=genus_max, degree_max=degree_max, omega=omega)


class Rows:
    """The rows of a table or series, kept as its mapping and its sorted keys:
    dump_json writes each row straight into the document's text with one
    f-string, so no list is built per row.  It is not a JSON value to
    json.dumps; json.loads(dump_json(doc)) gives the plain rows."""

    __slots__ = ("values", "keys", "write")

    def __init__(self, values: Mapping, write: Callable[[Iterable, str, str, "_ClassTexts"], list[str]]):
        self.values, self.keys, self.write = values, sorted(values), write

    def text(self, nl: str) -> str:
        """The rows' JSON text as a list, where nl is the newline and indent of the list's own line."""
        if not self.keys:
            return "[]"
        at = nl + "  "
        items = zip(self.keys, map(self.values.__getitem__, self.keys))
        return "[" + at + ("," + at).join(self.write(items, at, at + "  ", _ClassTexts("," + at + "    "))) + nl + "]"


class _ClassTexts(dict):
    """The text of each class's entries, one per line, made the first time a row asks."""

    def __init__(self, sep: str):
        self.sep = sep

    def __missing__(self, beta: tuple[int, ...]) -> str:
        text = self[beta] = self.sep.join(map(str, beta))
        return text


# one f-string per row; each row starts on a line at, its items on lines sub, a class's entries on the lines
# of texts, and a rational is written as str(c)

def _entry_rows(items: Iterable, at: str, sub: str, texts: _ClassTexts) -> list[str]:
    """[g, [beta], n] per ((g, beta), n), n an int."""
    deeper = sub + "  "
    return [f"[{sub}{g},{sub}[{deeper}{texts[beta]}{sub}],{sub}{n}{at}]" for (g, beta), n in items]


def _value_rows(items: Iterable, at: str, sub: str, texts: _ClassTexts) -> list[str]:
    """[g, [beta], "v"] per ((g, beta), v), v a rational."""
    deeper = sub + "  "
    return [f'[{sub}{g},{sub}[{deeper}{texts[beta]}{sub}],{sub}"{v!s}"{at}]' for (g, beta), v in items]


def _coeff_rows(items: Iterable, at: str, sub: str, texts: _ClassTexts) -> list[str]:
    """[[beta], e, "c"] per ((beta, e), c), c a rational."""
    deeper = sub + "  "
    return [f'[{sub}[{deeper}{texts[beta]}{sub}],{sub}{lam},{sub}"{c!s}"{at}]' for (beta, lam), c in items]


def gv_table_to_json(table: GVTable) -> dict:
    cuts = {
        "genus": table.genus_max,
        "degree": str(table.degree_max),
        "omega": [str(w) for w in table.omega],
    }
    return envelope("gv_table", entries=Rows(table.entries, _entry_rows), cuts=cuts)


def nonintegral_to_json(values: dict[tuple[int, tuple[int, ...]], Fraction]) -> Rows:
    """The rows [g, [beta], "v"] of the values an inverse transform found nonintegral."""
    return Rows(values, _value_rows)


def gw_series_from_json(doc: dict, where: str = "gw_series") -> GWSeries:
    """A gw_series document, read in one pass as gv_table_from_json reads a
    table, under the rules GWSeries keeps (check_lambda, ClassRule); each
    coefficient is a Fraction."""
    cuts = _fields(doc["cuts"], f"{where}.cuts", ("degree", "lambda", "omega"))
    omega = _omega(cuts, where)
    items = ((_ints, ".beta"), (_int, ".lambda"), (_rational, ".coeff"))
    rows = _rows(doc["coeffs"], f"{where}.coeffs", "[beta, lambda, coeff]", items)
    try:
        degree_max = _rational(cuts["degree"], f"{where}.cuts.degree")
        lambda_max = _int(cuts["lambda"], f"{where}.cuts.lambda")
    except SchemaError:
        _read_rest(rows)
        raise
    classes = ClassRule(omega, degree_max)

    def key(beta: tuple[int, ...], lam: int) -> tuple[tuple[int, ...], int]:
        check_lambda(lam, lambda_max)
        return classes(beta), lam

    coeffs = _summed(rows, key, where)
    return _built(GWSeries, coeffs=coeffs, degree_max=degree_max, lambda_max=lambda_max, omega=omega)


def gw_series_to_json(series: GWSeries) -> dict:
    cuts = {
        "degree": str(series.degree_max),
        "lambda": series.lambda_max,
        "omega": [str(w) for w in series.omega],
    }
    return envelope("gw_series", coeffs=Rows(series.coeffs, _coeff_rows), cuts=cuts)


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
            doc = _decode(handle.read())
    except FileNotFoundError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError as exc:
        # the decoder recurses once per nested array or object
        raise SchemaError(f"{path}: invalid JSON (nested too deeply to decode)") from exc
    return parse_document(doc)


def _decode(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        # an integer has more digits than int() converts: decode again with
        # each such integer kept as a marker, which parse_document rejects
        # with its location
        return json.loads(text, parse_int=_json_int)


def _json_int(text: str) -> int | _LongInteger:
    try:
        return int(text)
    except ValueError:
        return _LongInteger(text)


def envelope(kind: str, **fields: Any) -> dict:
    """A document of the given kind: the schema version, the kind and the fields."""
    return {"v": SCHEMA_VERSION, "kind": kind, **fields}


def dump_json(doc: Any) -> str:
    """Deterministic rendering: the text of json.dumps(doc, sort_keys=True,
    indent=2, ensure_ascii=False).
    """
    return _json_text(doc, "\n")


# The two scalars written inline, by type: the one rule for an int's or a str's text.
_SCALARS = {int: int.__repr__, str: encode_basestring}


def _json_text(o: Any, nl: str) -> str:
    """o's JSON text, where nl is the newline and indent of o's own line."""
    t = type(o)
    write = _SCALARS.get(t)
    if write is not None:
        return write(o)
    if o is None or t is bool:
        return "null" if o is None else "true" if o else "false"
    if (t is list or t is dict) and not o:
        return repr(o)
    inner = nl + "  "
    if t is list:
        return "[" + inner + ("," + inner).join([_json_text(x, inner) for x in o]) + nl + "]"
    if t is dict:
        # json.dumps sorts the keys as they are, then writes an int, bool or null key as a string
        items = [f"{encode_basestring(k if type(k) is str else _json_text(k, nl))}: {_json_text(v, inner)}" for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if t is Rows:
        return o.text(nl)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")

