"""Strict JSON schemas for every document kind the CLI accepts or emits.

All documents carry {"v": 1, "kind": ...}; unknown fields are rejected so a
typo cannot silently change mathematical input.  Every number in transit is
an integer or a rational string "p/q", matched by -?[0-9]+(/[0-9]+)?;
nothing is ever parsed as a float.  An integer written in a key (a degree,
or a part of a class "b1,...,k") matches -?[0-9]+ whole.  A JSON integer
or an integer string "p" is an int, and only a rational string "p/q" is a
Fraction; the series readers hand on every rational as a Fraction.  A
number with more digits than the interpreter converts to an int
(sys.get_int_max_str_digits; the conversion costs time quadratic in the
digits) fails its schema check where it stands.

Every value is checked once, where it is read.  A reader builds what it
has checked through the value type's trusted builder (LaurentPoly._built,
gwseries._built, GradedNilpotent._built), not through the public
constructor, which checks every value again for library callers; what it
hands a builder is its own, never a list of the caller's document.

A row's location is formatted only for an error.  A gv_table or gw_series
document is read in this order: the cut fields and omega; every row's
types; the genus and degree cuts (the degree and lambda cuts of a series);
then each row's key under the rules GVTable and GWSeries keep
(gwseries.ClassRule, check_genus, check_lambda: the one copy of those
rules), the first bad key raised at once.  The result is built without the
constructors' second pass.  A table or series is written in one pass:
gv_table_to_json and gw_series_to_json keep the rows as Rows, the sorted
keys of the result's own mapping, and dump_json writes each row into the
text with one f-string.  A motive expression is read by one loop with its
own stack of open nodes, from a table that gives each expression kind once:
its builder and its fields in reading order.  A node opens inside at most
MOTIVE_DEPTH_CAP others.
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
from .errors import SchemaError
from .gwseries import ClassRule, GVTable, GWSeries, _built, check_genus, check_lambda
from .laurent import LaurentPoly, RationalFn, _print_order_key
from .lefschetz import BispinContent, GradedNilpotent, JordanCensus, _scaled
from .stacks import StackClass

SCHEMA_VERSION = 1
# how many expressions may enclose a motive expression: the nodes the reader holds
# open when one more opens.  The reader keeps its own stack and no constructor
# recurses, so this bounds the nesting a document may ask for, not interpreter frames
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
    """A JSON integer or an integer string "p" as an int, or a rational string "p/q" as a Fraction."""
    if type(obj) is int:
        return obj
    if type(obj) is str:
        match = _RATIONAL.fullmatch(obj)
        if match:
            try:
                return int(match[1]) if match[2] is None else Fraction(int(match[1]), int(match[2]))
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
    """A polynomial's rows [a, b, coeff], repeated exponents summed; the
    polynomial is built from the checked terms without a second check."""
    terms: dict[tuple[int, int], int] = {}
    negative_s = False
    for i, (a, b, c) in enumerate(_rows(doc, where, "[a, b, coeff]", ((_int, ".a"), (_int, ".b"), (_fraction, ".coeff")))):
        if type(c) is not int:
            if c.denominator != 1:
                raise SchemaError(f"{where}[{i}]: polynomial coefficients are integers")
            c = int(c)
        terms[(a, b)] = terms.get((a, b), 0) + c
        negative_s = negative_s or b < 0
    # raised once every row is read, so that a later row's type error wins
    if negative_s:
        raise SchemaError(f"{where}: s never appears with negative exponent")
    return LaurentPoly._built(terms)


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


def _degree_key(key: str, where: str) -> int:
    try:
        return _key_int(key)
    except ValueError as exc:
        raise SchemaError(f"{where}: bad degree key {key!r}") from exc


def graded_nilpotent_from_json(doc: dict, where: str = "graded_nilpotent") -> GradedNilpotent:
    dims_doc = _require(doc.get("dims"), dict, f"{where}.dims")
    maps_doc = _require(doc.get("maps", {}), dict, f"{where}.maps")
    dims = {}
    for key, value in dims_doc.items():
        degree = _degree_key(key, f"{where}.dims")
        dims[degree] = _int(value, f"{where}.dims[{key}]")
        if dims[degree] < 0:
            raise SchemaError(f"{where}.dims[{key}]: dimensions must be nonnegative")
    maps = {}
    for key, rows in maps_doc.items():
        degree = _degree_key(key, f"{where}.maps")
        at = f"{where}.maps[{key}]"
        # the operator keeps these rows, so each is a new list, never the document's own
        own, rational = [], False
        for row in _require(rows, list, at):
            if isinstance(row, list) and set(map(type, row)) <= {int}:
                own.append(list(row))
            else:  # a row read here that does not fail holds a Fraction
                own.append([c if type(c) is int else _fraction(c, at) for c in _require(row, list, at)])
                rational = True
        maps[degree] = _scaled(own) if rational else own
    return GradedNilpotent._built(dims, maps)


# -- motive expressions ------------------------------------------------------------

# the groups named without a parameter; "gl" takes n, so it has its own branch
_GROUPS = {"point": motives.AbsMotive.point, "affine_line": motives.AbsMotive.affine_line, "gm": motives.AbsMotive.multiplicative_group}


def abs_motive_from_json(doc: Any, where: str = "abs") -> motives.AbsMotive:
    _require(doc, dict, where)
    if "group" in doc:
        doc = _fields(doc, where, ("group",), ("n",))
        group = doc["group"]
        if group == "gl":
            try:
                return motives.AbsMotive.general_linear(_int(doc.get("n"), f"{where}.n"))
            except ValueError as exc:
                raise SchemaError(f"{where}.n: {exc}") from exc
        if type(group) is not str or group not in _GROUPS:
            raise SchemaError(f"{where}: unknown group {group!r}")
        return _GROUPS[group]()
    doc = _fields(doc, where, ("poly",), ("name",))
    poly = poly_from_json(doc["poly"], f"{where}.poly")
    name = doc.get("name")
    if name is not None:
        _require(name, str, f"{where}.name")
    try:
        return motives.AbsMotive(poly, name)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


# the checks of the fields that hold nested expressions: one, or a list of them
_EXPR, _EXPRS = "one nested expression", "a list of nested expressions"

# kind -> (builder, the names _fields checks, each field's (name, check) in reading order); the
# builder takes the fields' values in that order, and the items of a list of expressions, only
# ever a kind's last field, as its last arguments
_EXPRESSIONS = {
    kind: (build, ("kind", *(name for name, _ in fields)), tuple(fields))
    for kind, build, *fields in [
        ("atom", motives.Atom, ("name", lambda obj, where: _require(obj, str, where)), ("dim", _int), ("census", census_from_json)),
        ("betti", motives.smooth_from_betti, ("bettis", _ints), ("dim", _int)),
        ("betti_over_point", motives.over_point_from_betti, ("bettis", _ints)),
        ("sum", lambda *terms: motives.Sum(terms), ("terms", _EXPRS)),
        ("diff", motives.Diff, ("left", _EXPR), ("right", _EXPR)),
        ("int_scale", motives.IntScale, ("factor", _int), ("expr", _EXPR)),
        ("abs_product", motives.AbsProduct, ("abs", abs_motive_from_json), ("expr", _EXPR)),
        ("proj_bundle", motives.ProjBundle, ("expr", _EXPR), ("fiber_rank", _int)),
        ("blow_up", motives.BlowUpRel, ("ambient", _EXPR), ("center", _EXPR), ("codim", _int)),
        ("fibration", motives.Fibration, ("expr", _EXPR), ("fiber", abs_motive_from_json)),
        ("finite_push", motives.FinitePush, ("expr", _EXPR)),
    ]
}


def _read_fields(doc: dict, where: str, fields: tuple, values: list) -> Iterator[tuple[Any, str]]:
    """Read a node's fields in order, appending each checked value to values,
    and yield each nested expression with its location for the reader to open."""
    for name, check in fields:
        at = f"{where}.{name}"
        if check is _EXPR:
            yield doc[name], at
        elif check is _EXPRS:
            for i, term in enumerate(_require(doc[name], list, at)):
                yield term, f"{at}[{i}]"
        else:
            values.append(check(doc[name], at))


def motive_from_json(doc: Any, where: str = "expr") -> motives.MotiveExpr:
    """A motive expression, read depth first; each node is built, its value
    appended to its parent's, once its last field is read."""
    stack: list[tuple[Callable, list, Iterator]] = []  # the open nodes: (builder, values read, nested expressions to come)
    while True:
        if len(stack) > MOTIVE_DEPTH_CAP:
            raise SchemaError(f"{where}: a motive expression is nested more than {MOTIVE_DEPTH_CAP} levels deep")
        kind = _require(doc, dict, where).get("kind")
        if type(kind) is not str or kind not in _EXPRESSIONS:
            raise SchemaError(f"{where}: unknown expression kind {kind!r}")
        build, names, fields = _EXPRESSIONS[kind]
        values: list = []
        stack.append((build, values, _read_fields(_fields(doc, where, names), where, fields, values)))
        # read on to the next nested expression, building each node whose fields are all read
        while (child := next(stack[-1][2], None)) is None:
            build, values, _ = stack.pop()
            if not stack:
                return build(*values)
            stack[-1][1].append(build(*values))
        doc, where = child


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
    numbers = _ints(doc, where)
    return NumClass(numbers[:-1], numbers[-1])


def count_model_from_json(doc: dict, where: str = "count_model") -> tuple[ClassLattice, CentralCharge, EvalModel]:
    lattice_doc = _fields(doc["lattice"], f"{where}.lattice", ("rank", "generators"))
    rank = _int(lattice_doc["rank"], f"{where}.lattice.rank")
    generators_doc = _require(lattice_doc["generators"], list, f"{where}.lattice.generators")
    generators = [_ints(g, f"{where}.lattice.generators[{i}]") for i, g in enumerate(generators_doc)]
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


def _summed(rows: list[tuple], key: Callable, where: str) -> dict:
    """The values of a table's or series' checked rows (a, b, value), summed by key(a, b).

    key applies the rules of the document's keys, raising ValueError (raised
    on as a SchemaError) or ConeNotPointedError at the first key it rejects.
    Keys whose values sum to zero are dropped.
    """
    out: dict = {}
    zeros = False
    for a, b, value in rows:
        try:
            k = key(a, b)
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
        if k in out:
            out[k] += value
            zeros = True
        else:
            out[k] = value
            zeros = zeros or not value
    return {k: v for k, v in out.items() if v} if zeros else out


def gv_table_from_json(doc: dict, where: str = "gv_table") -> GVTable:
    """A gv_table document: the cut fields and omega, every row's types, the
    genus and degree cuts, then each key under the rules GVTable keeps
    (check_genus, ClassRule), repeated keys summed; the table is built
    without a second check."""
    cuts = _fields(doc["cuts"], f"{where}.cuts", ("genus", "degree", "omega"))
    omega = _omega(cuts, where)
    rows = list(_rows(doc["entries"], f"{where}.entries", "[g, beta, n]", ((_int, ".g"), (_ints, ".beta"), (_int, ".n"))))
    genus_max = _int(cuts["genus"], f"{where}.cuts.genus")
    degree_max = _rational(cuts["degree"], f"{where}.cuts.degree")
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
    """A gw_series document, read in the order gv_table_from_json reads a
    table, with the degree and lambda cuts, under the rules GWSeries keeps
    (check_lambda, ClassRule); each coefficient is a Fraction."""
    cuts = _fields(doc["cuts"], f"{where}.cuts", ("degree", "lambda", "omega"))
    omega = _omega(cuts, where)
    items = ((_ints, ".beta"), (_int, ".lambda"), (_rational, ".coeff"))
    rows = list(_rows(doc["coeffs"], f"{where}.coeffs", "[beta, lambda, coeff]", items))
    degree_max = _rational(cuts["degree"], f"{where}.cuts.degree")
    lambda_max = _int(cuts["lambda"], f"{where}.cuts.lambda")
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

# a betti_variety document holds the fields of a betti expression but its kind
_build_betti, _betti_names, _betti_fields = _EXPRESSIONS["betti"]

# kind -> (required payload fields, optional payload fields, payload parser)
KINDS: dict[str, tuple[tuple[str, ...], tuple[str, ...], Callable[[dict], Any]]] = {
    "bispin": (("content",), (), lambda doc: bispin_from_json(doc["content"])),
    "graded_nilpotent": (("dims",), ("maps",), graded_nilpotent_from_json),
    "betti_variety": (_betti_names[1:], (), lambda doc: _build_betti(*[check(doc[name], f"betti_variety.{name}") for name, check in _betti_fields])),
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

