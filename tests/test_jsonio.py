"""Strict document parsing: versioning, unknown-field rejection, round trips."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gvmot.cli import _all_digits
from gvmot.counting import NumClass, counting_polynomial
from gvmot.errors import DimMismatchError, GvmotError, SchemaError, ShapeMismatchError, fraction
from gvmot.gwseries import GVTable, GWSeries
from gvmot.jsonio import (
    _decode,
    _fraction,
    _fraction_polys,
    class_from_key,
    dump_json,
    gv_table_from_json,
    gv_table_to_json,
    gw_series_from_json,
    gw_series_to_json,
    parse_document,
    poly_from_json,
    poly_to_json,
    rational_fn_to_json,
)
from gvmot.laurent import LaurentPoly, RationalFn
from gvmot.lefschetz import GradedNilpotent, JordanCensus
from gvmot.motives import Atom
from gvmot.stacks import StackClass
from gvmot.verify import random_betti


class TestEnvelope:
    def test_version_required(self):
        with pytest.raises(SchemaError):
            parse_document({"kind": "bispin", "content": []})
        with pytest.raises(SchemaError):
            parse_document({"v": 2, "kind": "bispin", "content": []})

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            parse_document({"v": 1, "kind": "mystery", "content": []})

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError):
            parse_document({"v": 1, "kind": "bispin", "content": [], "extra": 1})

    def test_metadata_fields_allowed(self):
        kind, content = parse_document(
            {"v": 1, "kind": "bispin", "content": [[0, 0, 1]], "name": "pt", "note": "x"}
        )
        assert kind == "bispin"
        assert content.mult == {(0, 0): 1}

    def test_floats_rejected(self):
        with pytest.raises(SchemaError):
            parse_document({"v": 1, "kind": "bispin", "content": [[0, 0, 1.5]]})


class TestPolynomials:
    def test_roundtrip(self):
        p = LaurentPoly({(2, 0): 3, (-1, 1): -4, (0, 0): 7})
        assert poly_from_json(poly_to_json(p)) == p

    def test_coefficients_as_strings(self):
        assert poly_from_json([[0, 0, "12"]]) == LaurentPoly.constant(12)

    def test_negative_s_rejected(self):
        with pytest.raises(SchemaError) as raised:
            poly_from_json([[0, -1, "1"]])
        assert str(raised.value) == "poly: s never appears with negative exponent"

    def test_a_later_rows_type_error_wins_over_negative_s(self):
        # the s-exponent rule is applied once every row is read
        with pytest.raises(SchemaError) as raised:
            poly_from_json([[0, -1, "1"], [0, 0, 1.5]])
        assert str(raised.value) == "poly[1].coeff: expected an integer or rational string"

    @pytest.mark.parametrize(
        "coeff, message",
        # int() would read "+3" and "3 "; a coefficient matches the rational grammar first
        [
            ("1/2", "poly[0]: polynomial coefficients are integers"),
            ("+3", "poly[0].coeff: bad rational '+3'"),
            ("3 ", "poly[0].coeff: bad rational '3 '"),
            ("9" * 5000, "poly[0].coeff: a number of 5000 digits is over the limit of 4300 digits"),
            ("-" + "9" * 5000, "poly[0].coeff: a number of 5000 digits is over the limit of 4300 digits"),
            ("9" * 5000 + "/3", "poly[0].coeff: a number of 5000 digits is over the limit of 4300 digits"),
        ],
    )
    def test_coefficient_messages(self, coeff, message):
        with pytest.raises(SchemaError) as raised:
            poly_from_json([[0, 0, coeff]])
        assert str(raised.value) == message

    def test_rational_fn_roundtrip(self):
        r = RationalFn(LaurentPoly.one(), LaurentPoly.t(2) - LaurentPoly.one())
        assert RationalFn(*_fraction_polys(rational_fn_to_json(r), "coeff")) == r


class TestClassKeys:
    def test_roundtrip(self):
        assert class_from_key("1,-2,3", 2, "test") == NumClass((1, -2), 3)

    def test_wrong_arity(self):
        with pytest.raises(SchemaError):
            class_from_key("1,2", 2, "test")

    @pytest.mark.parametrize("key", [" 1,+0", "1_0,0", "+1,0", "1 ,0", "\u0661,0", "\uff11,0", "1,0\n", "1.0,0", ",0", ","])
    def test_parts_match_the_integer_grammar(self, key):
        # int() reads each of these but the last three as a class, "1_0" as 10
        with pytest.raises(SchemaError, match=r"^test: bad class key "):
            class_from_key(key, 1, "test")

    def test_negative_and_zero_parts(self):
        assert class_from_key("-0,-12", 1, "test") == NumClass((0,), -12)


class TestMotiveDocs:
    def test_blow_up_doc(self):
        doc = {
            "v": 1,
            "kind": "motive",
            "expr": {
                "kind": "blow_up",
                "ambient": {"kind": "betti", "bettis": [1, 0, 1, 0, 1], "dim": 2},
                "center": {"kind": "betti", "bettis": [1], "dim": 0},
                "codim": 2,
            },
        }
        from gvmot.motives import upsilon_rel

        _, expr = parse_document(doc)
        assert upsilon_rel(expr) == LaurentPoly.s(2) + LaurentPoly.t(2)

    def test_blow_up_chain_at_the_cap(self):
        # a surface blown up at a point at each of MOTIVE_DEPTH_CAP levels
        from gvmot.jsonio import MOTIVE_DEPTH_CAP
        from gvmot.motives import upsilon_rel

        expr = {"kind": "betti", "bettis": [1, 0, 1, 0, 1], "dim": 2}
        for _ in range(MOTIVE_DEPTH_CAP):
            expr = {"kind": "blow_up", "ambient": expr, "center": {"kind": "betti", "bettis": [1], "dim": 0}, "codim": 2}
        _, expr = parse_document({"v": 1, "kind": "motive", "expr": expr})
        assert upsilon_rel(expr) == LaurentPoly.s(2) + LaurentPoly.t(2).scale(900)

    def test_unknown_node_kind(self):
        with pytest.raises(SchemaError):
            parse_document({"v": 1, "kind": "motive", "expr": {"kind": "soup"}})

    def test_group_constants(self):
        doc = {
            "v": 1,
            "kind": "motive",
            "expr": {
                "kind": "abs_product",
                "abs": {"group": "gl", "n": 1},
                "expr": {"kind": "betti", "bettis": [1], "dim": 0},
            },
        }
        from gvmot.motives import upsilon_rel

        _, expr = parse_document(doc)
        assert upsilon_rel(expr) == LaurentPoly.t(2) - LaurentPoly.one()

    @pytest.mark.parametrize("wrap, step", [
        (lambda e: {"kind": "int_scale", "factor": 2, "expr": e}, ".expr"),
        (lambda e: {"kind": "diff", "left": e, "right": {"kind": "sum", "terms": []}}, ".left"),
        (lambda e: {"kind": "sum", "terms": [e, {"kind": "sum", "terms": []}]}, ".terms[0]"),
        (lambda e: {"kind": "proj_bundle", "expr": e, "fiber_rank": 1}, ".expr"),
        (lambda e: {"kind": "fibration", "expr": e, "fiber": {"group": "gm"}}, ".expr"),
    ])
    def test_nesting_cap(self, monkeypatch, wrap, step):
        # the cap counts the expressions around one; one level past it fails where it stands
        import gvmot.jsonio as jsonio

        monkeypatch.setattr(jsonio, "MOTIVE_DEPTH_CAP", 6)
        expr = {"kind": "betti_over_point", "bettis": [1]}
        for _ in range(6):
            expr = wrap(expr)
        parse_document({"v": 1, "kind": "motive", "expr": expr})
        with pytest.raises(SchemaError) as raised:
            parse_document({"v": 1, "kind": "motive", "expr": wrap(expr)})
        assert str(raised.value) == "expr" + step * 7 + ": a motive expression is nested more than 6 levels deep"

    def test_deep_chains_read_under_a_low_recursion_limit(self):
        # the reader keeps its own stack of open nodes: 900-level chains of each
        # nesting kind read under a recursion limit of 120, to the values the
        # constructors build.  A fresh process, so that the limit is its own.
        script = """
import sys
from gvmot import motives
from gvmot.jsonio import parse_document

leaf = {"kind": "betti_over_point", "bettis": [1, 0, 1]}
point = {"kind": "betti", "bettis": [1], "dim": 0}
surface = {"kind": "betti", "bettis": [1, 0, 1, 0, 1], "dim": 2}
chains = {
    "int_scale": (leaf, lambda e: {"kind": "int_scale", "factor": -2, "expr": e}, lambda v: motives.IntScale(-2, v)),
    "blow_up": (surface, lambda e: {"kind": "blow_up", "ambient": e, "center": point, "codim": 2},
                lambda v: motives.BlowUpRel(v, motives.smooth_from_betti([1], 0), 2)),
    "diff": (leaf, lambda e: {"kind": "diff", "left": point, "right": e}, lambda v: motives.Diff(motives.smooth_from_betti([1], 0), v)),
    "sum": (leaf, lambda e: {"kind": "sum", "terms": [e, point]}, lambda v: motives.Sum((v, motives.smooth_from_betti([1], 0)))),
}
docs, values = {}, {}
for name, (doc, wrap, build) in chains.items():
    _, value = parse_document({"v": 1, "kind": "motive", "expr": doc})
    for _ in range(900):
        doc, value = wrap(doc), build(value)
    docs[name], values[name] = doc, value
sys.setrecursionlimit(120)
for name, doc in docs.items():
    assert parse_document({"v": 1, "kind": "motive", "expr": doc}) == ("motive", values[name]), name
print("ok")
"""
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


class TestNumbers:
    def test_integers_stay_ints(self):
        # only a rational string becomes a Fraction
        assert type(_fraction(3, "n")) is int
        assert _fraction("6/4", "n") == Fraction(3, 2)
        for bad in (True, 0.5, None, "1/0", "x"):
            with pytest.raises(SchemaError):
                _fraction(bad, "n")

    @pytest.mark.parametrize(
        "text",
        # forms outside -?[0-9]+(/[0-9]+)?; Fraction(str) of Python 3.11 accepts the first nine, "1e10000000" only after seconds;
        # a long run of non-ASCII digits is a bad rational, not an over-long number
        ["1.5", "+3", " 3", "3 ", "1_0", "1e5", "1e5000", "1e10000000", "\u0663", "3/-2", "1/0", "", "-", "1/", "/2", "--1",
         pytest.param("\u0663" * 5000, id="arabic-indic-digits-5000")],
    )
    def test_rational_grammar_is_strict(self, text):
        with pytest.raises(SchemaError) as raised:
            _fraction(text, "n")
        assert str(raised.value) == f"n: bad rational {text!r}"

    def test_fraction_helper_equals_fraction(self):
        # the series path's Fractions come from errors.fraction: one gcd, no checks
        rng = random.Random(1602)
        numbers = lambda: rng.choice([0, rng.randint(1, 10**6), rng.randint(1, 10**300)]) * rng.choice([-1, 1])
        for _ in range(2000):
            common = rng.choice([1, rng.randint(2, 10**6), rng.randint(2, 10**300)])  # pairs not in lowest terms
            n, d = numbers() * common, max(abs(numbers()), 1) * common
            got, want = fraction(n, d), Fraction(n, d)
            assert type(got) is Fraction and got == want and hash(got) == hash(want) and str(got) == str(want), (n, d)
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert fraction(0, 10**300) == 0 and str(fraction(-6, 4)) == "-3/2"
        # the reader builds its "p/q" values with it; "p/0" stays a bad rational
        assert type(_fraction("-6/4", "n")) is Fraction and str(_fraction("-6/4", "n")) == "-3/2"
        for text in ("0/0", "5/000", "-7/0"):
            with pytest.raises(SchemaError, match=f"^n: bad rational '{text}'$"):
                _fraction(text, "n")

    def test_strict_parse_equals_fraction(self):
        rng = random.Random(1601)
        digits = lambda: "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 40)))
        for _ in range(2000):
            text = rng.choice(["", "-"]) + digits()
            if rng.random() < 0.7:
                den = digits()
                text += "/" + (den if den.strip("0") else "1" + den)
            value = _fraction(text, "n")
            assert type(value) is (Fraction if "/" in text else int) and value == Fraction(text), text


class TestGradedNilpotentDocs:
    def test_rational_matrix_entries(self):
        doc = {
            "v": 1,
            "kind": "graded_nilpotent",
            "dims": {"-1": 1, "1": 1},
            "maps": {"-1": [["1/2"]]},
        }
        from gvmot.lefschetz import JordanCensus, jordan_census

        _, op = parse_document(doc)
        assert jordan_census(op) == JordanCensus({(-1, 2): 1})

    def test_bad_degree_key(self):
        with pytest.raises(SchemaError):
            parse_document(
                {"v": 1, "kind": "graded_nilpotent", "dims": {"x": 1}, "maps": {}}
            )

    @pytest.mark.parametrize("key", [" 1", "+1", "1_0", "\u0661", "1 ", "-"])
    @pytest.mark.parametrize("field", ["dims", "maps"])
    def test_degree_keys_match_the_integer_grammar(self, key, field):
        # int() reads every one of these but "-" as a degree
        doc = {"v": 1, "kind": "graded_nilpotent", "dims": {"-1": 1, "1": 1}, "maps": {"-1": [[1]]}}
        doc[field] = {key: doc[field]["-1"], **doc[field]}
        with pytest.raises(SchemaError) as raised:
            parse_document(doc)
        assert str(raised.value) == f"graded_nilpotent.{field}: bad degree key {key!r}"

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1, True]], "graded_nilpotent.maps[-1]: expected an integer or rational string"),
            ([[0.5, 1]], "graded_nilpotent.maps[-1]: expected an integer or rational string"),
            ([[1, "1/0"]], "graded_nilpotent.maps[-1]: bad rational '1/0'"),
            ([[1, 2], 3], "graded_nilpotent.maps[-1]: expected list, got int"),
            ({"0": [1]}, "graded_nilpotent.maps[-1]: expected list, got dict"),
        ],
    )
    def test_map_entry_errors_name_the_map(self, rows, message):
        doc = {"v": 1, "kind": "graded_nilpotent", "dims": {"-1": 2, "1": 2}, "maps": {"-1": rows}}
        with pytest.raises(SchemaError) as raised:
            parse_document(doc)
        assert str(raised.value) == message

    def test_int_entries_pass_through(self):
        doc = {"v": 1, "kind": "graded_nilpotent", "dims": {"-1": 2, "1": 1}, "maps": {"-1": [[3, -7]]}}
        _, op = parse_document(doc)
        assert op.maps[-1] == [[3, -7]] and all(type(c) is int for c in op.maps[-1][0])

    def test_int_rows_and_rational_rows_in_one_map(self):
        # an all-int row is kept whole and a row with a rational string is read
        # entry by entry; the map is then scaled by the lcm of its denominators
        doc = {"v": 1, "kind": "graded_nilpotent", "dims": {"-1": 2, "1": 2}, "maps": {"-1": [[1, 2], ["1/2", 3]]}}
        _, op = parse_document(doc)
        assert op.maps[-1] == [[2, 4], [1, 6]]

    def test_negative_dimension_is_a_schema_error(self):
        # a ValueError here would reach the CLI as an internal error (exit 6)
        with pytest.raises(SchemaError, match=r"^graded_nilpotent\.dims\[0\]: dimensions must be nonnegative$"):
            parse_document({"v": 1, "kind": "graded_nilpotent", "dims": {"0": -1}})


class TestCountModelDocs:
    def test_conifold_model_parses(self):
        with open("sample_data/conifold.count_model.json") as fh:
            doc = json.load(fh)
        kind, (lattice, charge, model) = parse_document(doc)
        assert kind == "count_model"
        assert lattice.rank == 1
        assert charge.omega == (Fraction(1),)
        assert NumClass((1,), 1) in model.atoms
        assert model.atom(NumClass((2,), 1)) == ()

    @pytest.mark.parametrize("sample, target", [("conifold", (1,)), ("s_atoms", (1,))])
    def test_counting_leaves_the_model_unchanged(self, sample, target):
        # a count normalises the parts it reaches inside evaluate; the model keeps them as read
        with open(f"sample_data/{sample}.count_model.json") as fh:
            _, (lattice, charge, model) = parse_document(json.load(fh))
        atoms = dict(model.atoms)
        assert all(type(parts) is tuple for parts in atoms.values())
        v = NumClass(target, 1)
        first = counting_polynomial(lattice, charge, v, model)
        assert counting_polynomial(lattice, charge, v, model) == first
        assert model.atoms.keys() == atoms.keys()
        assert all(model.atoms[w] is atoms[w] and type(model.atoms[w]) is tuple for w in atoms)

    def test_asymmetric_defect_rejected_at_parse(self):
        doc = {
            "v": 1,
            "kind": "count_model",
            "lattice": {"rank": 1, "generators": [[1]]},
            "charge": {"B": ["0"], "omega": ["1"]},
            "atoms": {},
            "ext_defect": [[[1, 0], [2, 0], 1], [[2, 0], [1, 0], 2]],
        }
        from gvmot.errors import AsymmetricDefectError

        with pytest.raises(AsymmetricDefectError):
            parse_document(doc)


def _coefficient(rng):
    """A polynomial coefficient as a document may write it, and its value: 0 to 300 bits,
    as a JSON int, a signed integer string, with leading zeros, or as a multiple over its factor."""
    value = 0 if rng.random() < 0.1 else rng.choice([-1, 1]) * rng.getrandbits(rng.randint(1, 300))
    form = rng.randrange(4)
    if form == 0:
        return value, value
    if form == 1:
        return ("-0" if not value and rng.random() < 0.5 else str(value)), value
    if form == 2:
        return ("-" if value < 0 else "") + "0" * rng.randint(1, 3) + str(abs(value)), value
    m = rng.randint(1, 9)
    return f"{value * m}/{m}", value


def _poly_rows(rng, nonzero=False):
    """Rows [a, b, coeff] over a few exponents (negative t, s-terms), some repeated or
    cancelling, and the polynomial the checking constructor builds from their values."""
    keys = [(rng.randint(-5, 5), rng.randint(0, 3)) for _ in range(rng.randint(1, 6))]
    rows, terms = [], {}
    for _ in range(rng.randint(0, 10)):
        (a, b), (text, value) = rng.choice(keys), _coefficient(rng)
        rows.append([a, b, text])
        terms[(a, b)] = terms.get((a, b), 0) + value
        if rng.random() < 0.2:
            rows.append([a, b, str(-value)])
            terms[(a, b)] -= value
    if nonzero and not any(terms.values()):
        rows.append([0, 0, 1])
        terms[(0, 0)] = terms.get((0, 0), 0) + 1
    return rows, LaurentPoly(terms)


def _motive(rng):
    """A leaf motive expression and the atom the checking constructors build for it."""
    kind = rng.choice(["atom", "betti", "betti_over_point"])
    d = rng.randint(0, 4)
    if kind == "atom":
        cells = {(rng.randint(-3, 3), rng.randint(1, 3)): rng.randint(-4, 4) for _ in range(rng.randint(0, 4))}
        census = [[alpha, l, n] for (alpha, l), n in cells.items()]
        return {"kind": "atom", "name": "x", "dim": d, "census": census}, Atom("x", d, JordanCensus(cells))
    bettis = random_betti(random.Random(rng.random()), d)
    if kind == "betti":
        cells = {(i - d, d - i + 1): bettis[i] - (bettis[i - 2] if i >= 2 else 0) for i in range(d + 1)}
        return {"kind": "betti", "bettis": bettis, "dim": d}, Atom("x", d, JordanCensus(cells))
    bettis = [rng.randint(0, 3) for _ in range(d)]
    bettis = bettis + [rng.randint(0, 3)] + bettis[::-1]
    cells = {(i - d, 1): b for i, b in enumerate(bettis)}
    return {"kind": "betti_over_point", "bettis": bettis}, Atom("x", d, JordanCensus(cells))


def _parts(rng):
    """A stack class's parts as a document writes them, and the (num, den, expr) the constructors build."""
    doc, built = [], []
    for _ in range(rng.randint(0, 4)):
        (num_rows, num), (den_rows, den) = _poly_rows(rng), _poly_rows(rng, nonzero=True)
        expr_doc, expr = _motive(rng)
        doc.append({"coeff": {"num": num_rows, "den": den_rows}, "expr": expr_doc})
        built.append((num, den, expr))
    return doc, tuple(built)


class TestReadersBuildWhatTheyCheck:
    """Each reader builds the values it has checked directly; on seeded documents
    every value it reads equals the one the checking constructors build."""

    def test_polynomials(self):
        rng = random.Random(2901)
        for _ in range(500):
            rows, expected = _poly_rows(rng)
            read = poly_from_json(rows)
            assert read == expected and list(read.items()) == list(expected.items()), rows
            assert all(type(c) is int for _, c in read.items())

    def test_stack_classes(self):
        rng = random.Random(2902)
        for _ in range(200):
            doc, built = _parts(rng)
            _, read = parse_document({"v": 1, "kind": "stack_class", "parts": doc})
            assert read.parts == StackClass.from_fractions(built).parts

    def test_count_models(self):
        rng = random.Random(2903)
        for _ in range(100):
            atoms = {j: _parts(rng) for j in rng.sample(range(1, 9), rng.randint(0, 4))}
            doc = {
                "v": 1,
                "kind": "count_model",
                "lattice": {"rank": 1, "generators": [[1]]},
                "charge": {"B": ["0"], "omega": ["1"]},
                "atoms": {f"0,{j}": parts for j, (parts, _) in atoms.items()},
            }
            _, (_, _, model) = parse_document(doc)
            assert model.atoms == {NumClass((0,), j): built for j, (_, built) in atoms.items()}

    def test_graded_nilpotents(self):
        rng = random.Random(2904)

        def entry():
            r = rng.random()
            if r < 0.6:
                return rng.randint(-3, 3)
            if r < 0.7:
                return rng.choice([-1, 1]) * rng.getrandbits(rng.randint(64, 200))
            den = rng.randint(1, 6)
            return f"{rng.randint(-3 * den, 3 * den)}/{den}"

        for _ in range(300):
            dims = {d: rng.randint(0, 3) for d in rng.sample(range(-4, 5), rng.randint(0, 5))}
            maps = {}
            for d in dims:
                if rng.random() < 0.6:
                    # a wrong shape now and then, and maps out of or into absent degrees
                    rows = dims.get(d + 2, 0) + (rng.random() < 0.05)
                    maps[d] = [[entry() for _ in range(dims[d])] for _ in range(rows)]
            doc = {"v": 1, "kind": "graded_nilpotent", "dims": {str(d): n for d, n in dims.items()},
                   "maps": {str(d): rows for d, rows in maps.items()}}
            fractions = {d: [[c if type(c) is int else Fraction(c) for c in row] for row in rows] for d, rows in maps.items()}
            try:
                expected = GradedNilpotent(dims, fractions)
            except ShapeMismatchError as exc:
                with pytest.raises(ShapeMismatchError) as raised:
                    parse_document(doc)
                assert str(raised.value) == str(exc)
                continue
            _, op = parse_document(doc)
            assert (op.dims, op.maps) == (expected.dims, expected.maps), doc
            assert list(op.dims) == list(expected.dims)
            assert all(type(c) is int for rows in op.maps.values() for row in rows for c in row)

    def test_no_document_list_ends_up_inside_the_operator(self):
        doc = {"v": 1, "kind": "graded_nilpotent", "dims": {"-1": 2, "1": 2, "3": 1},
               "maps": {"-1": [[1, 2], [3, 4]], "1": [["1/2", 3]]}}
        lists = {id(doc["maps"])} | {id(rows) for rows in doc["maps"].values()}
        lists |= {id(row) for rows in doc["maps"].values() for row in rows}
        _, op = parse_document(doc)
        held = [op.maps] + list(op.maps.values()) + [row for rows in op.maps.values() for row in rows]
        assert not lists & {id(x) for x in held}
        doc["maps"]["-1"][0][0] = 9
        assert op.maps == {-1: [[1, 2], [3, 4]], 1: [[1, 6]]}


class TestTablesAndSeries:
    def test_gv_table_roundtrip(self):
        # the document's rows are written straight into its text, so the round trip goes through the text
        table = GVTable({(0, (1,)): 1, (2, (3,)): -5}, 3, Fraction(6), (Fraction(1),))
        doc = json.loads(dump_json(gv_table_to_json(table)))
        assert doc["entries"] == [[0, [1], 1], [2, [3], -5]]
        assert gv_table_from_json(doc) == table

    def test_gw_series_roundtrip(self):
        series = GWSeries(
            {((1,), -2): Fraction(1), ((2,), 0): Fraction(-7, 24)},
            Fraction(4),
            2,
            (Fraction(1),),
        )
        doc = json.loads(dump_json(gw_series_to_json(series)))
        assert doc["coeffs"] == [[[1], -2, "1"], [[2], 0, "-7/24"]]
        assert gw_series_from_json(doc) == series

    def test_gw_series_repeated_keys_are_summed(self):
        rows = [[[1], -2, 1], [[2], 0, "1/3"], [[1], -2, "1/2"], [[1], 0, "1/12"], [[2], 0, "-2/6"]]
        doc = {"coeffs": rows, "cuts": {"degree": "2", "lambda": 0, "omega": ["1"]}}
        series = gw_series_from_json(doc)
        assert series.coeffs == {((1,), -2): Fraction(3, 2), ((1,), 0): Fraction(1, 12)}
        assert all(type(c) is Fraction for c in series.coeffs.values())

    def test_dump_json_deterministic(self):
        series = GWSeries({((1,), -2): Fraction(1, 8)}, Fraction(2), 0, (Fraction(1),))
        a = dump_json(gw_series_to_json(series))
        b = dump_json(gw_series_to_json(series))
        assert a == b

    @pytest.mark.parametrize(
        "kind, rows, cuts, build",
        [
            ("gv_table", {"entries": [[0, [1], 1], [0, [1, 0, 5], 1]]}, {"genus": 0},
             lambda: GVTable({(0, (1, 0, 5)): 1}, 0, 2, (1, 1))),
            ("gw_series", {"coeffs": [[[1], -2, "1"], [[1, 0, 5], -2, "1"]]}, {"lambda": 0},
             lambda: GWSeries({((1, 0, 5), -2): 1}, 2, 0, (1, 1))),
        ],
    )
    def test_class_length_must_match_omega(self, kind, rows, cuts, build):
        # zip would truncate [1, 0, 5] to degree 1 against omega (1, 1)
        doc = {"v": 1, "kind": kind, **rows, "cuts": {"degree": "2", "omega": ["1", "1"], **cuts}}
        with pytest.raises(SchemaError) as raised:
            parse_document(doc)
        assert str(raised.value) == f"{kind}: class (1,) has 1 entries, omega has 2"
        with pytest.raises(ValueError, match=r"class \(1, 0, 5\) has 3 entries, omega has 2"):
            build()


def _oracle(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)


_STRINGS = ["", "n", "caf\u00e9 \u00fc\u4e2d", 'say "hi"', "back\\slash", "tab\tline\nfeed\rbell\x07\x00\x1f",
            "\u2028\u2029", "\U0001f600", "1/3", "-0"]


def _random_int(rng: random.Random) -> int:
    return rng.choice([-1, 1]) * rng.choice([0, 7, 2**64, 10**rng.randint(4300, 4400) + 3])


def _random_str(rng: random.Random) -> str:
    return rng.choice(_STRINGS) + chr(rng.choice([rng.randrange(0x20), rng.randrange(0x20, 0x3000)]))


# items that make a row not flat: the writer must fall back to the recursive path
_NOT_FLAT = [True, False, None, [], {}, {"k": [1]}, [[1]], [[[2, "x"]]], [1, [2]], [1, True], ["x", None], [{}]]


def _random_rows(rng: random.Random) -> list:
    """A list of rows: flat rows of ints, strings and nonempty lists of them,
    sometimes with an item or a trailing row that is not flat."""
    def item():
        kind = rng.randrange(3)
        if kind == 2:
            return [_random_int(rng) if rng.random() < 0.7 else _random_str(rng) for _ in range(rng.randint(1, 3))]
        return _random_int(rng) if kind == 0 else _random_str(rng)

    rows = [[item() for _ in range(rng.randint(1, 4))] for _ in range(rng.choice([1, 3, 30]))]
    spoil = rng.randrange(4)
    if spoil == 1:
        row = rng.choice(rows)
        row.insert(rng.randint(0, len(row)), rng.choice(_NOT_FLAT))
    elif spoil == 2:
        rows.append(rng.choice([7, "row", None, {"k": 1}, []]))
    return rows


def _random_doc(rng: random.Random, depth: int = 0):
    """A seeded value of every shape a document holds: scalars, rows, int-keyed and empty containers."""
    kind = rng.randrange(9 if depth < 4 else 5)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return _random_int(rng)
    if kind in (2, 3):
        return _random_str(rng)
    if kind == 4:
        return [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))]
    if kind == 5:
        return _random_rows(rng)
    if kind == 6:
        return [_random_doc(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    keys = rng.choice([
        lambda: rng.choice(_STRINGS) + str(rng.randint(0, 99)),
        lambda: rng.randint(-50, 50),
    ])
    if rng.random() < 0.1:
        return {rng.choice([None, True, False]): _random_doc(rng, depth + 1)}
    return {keys(): _random_doc(rng, depth + 1) for _ in range(rng.randint(0, 4))}


def _is_flat_row(row) -> bool:
    """A nonempty list of ints, strings and nonempty lists of ints and strings, bools excluded."""
    def scalar(x):
        return type(x) in (int, str)

    return type(row) is list and bool(row) and all(scalar(x) or type(x) is list and x and all(map(scalar, x)) for x in row)


def _lists(value):
    """Every nonempty list inside value, value included."""
    if isinstance(value, dict):
        for v in value.values():
            yield from _lists(v)
    elif isinstance(value, list) and value:
        yield value
        for v in value:
            yield from _lists(v)


class TestDumpJson:
    def test_matches_stdlib_on_seeded_documents(self):
        rng = random.Random(2028)
        flat = mixed = late = 0
        with _all_digits():  # ints of over 4300 digits print as they do in gvmot's output
            for _ in range(600):
                doc = _random_doc(rng)
                assert dump_json(doc) == _oracle(doc)
                for value in _lists(doc):
                    rows = list(map(_is_flat_row, value))
                    if all(rows):
                        flat += 1
                    elif any(rows):
                        # flat rows written in one pass beside rows that fall back to the recursive path
                        mixed += 1
                        late += len(value) > 30 and rows.index(False) == len(value) - 1
        assert flat > 100 and mixed > 100 and late > 5

    def test_matches_stdlib_on_golden_documents(self):
        def leaves(value):
            if isinstance(value, dict):
                value = list(value.values())
            if isinstance(value, list):
                for v in value:
                    yield from leaves(v)
            elif isinstance(value, str) and value.startswith(("[", "{")):
                yield json.loads(value)

        paths = sorted((Path(__file__).resolve().parent / "data").glob("*_golden.json"))
        assert len(paths) == 6
        for path in paths:
            golden = json.loads(path.read_text())
            assert dump_json(golden) == _oracle(golden)
            for doc in leaves(golden):
                assert dump_json(doc) == _oracle(doc)

    def test_rejects_values_no_document_holds(self):
        for value in (1.5, (1, 2), {1, 2}):
            with pytest.raises(TypeError):
                dump_json({"x": [value]})


def _stack_doc(num):
    coeff = {"num": num, "den": [[0, 0, "1"]]}
    return {"v": 1, "kind": "stack_class", "parts": [{"coeff": coeff, "expr": {"kind": "betti_over_point", "bettis": [1]}}]}


def _count_model_doc(defects):
    return {
        "v": 1,
        "kind": "count_model",
        "lattice": {"rank": 1, "generators": [[1]]},
        "charge": {"B": [0], "omega": [1]},
        "atoms": {},
        "ext_defect": defects,
    }


# one document per row format, with the row under test spliced in
ROW_FORMATS = [
    (_stack_doc, "parts[0].coeff.num[0]", "[a, b, coeff]"),
    (lambda rows: {"v": 1, "kind": "motive", "expr": {"kind": "atom", "name": "x", "dim": 0, "census": rows}},
     "expr.census[0]", "[alpha, l, count]"),
    (lambda rows: {"v": 1, "kind": "bispin", "content": rows}, "content[0]", "[twoJL, twoJR, mult]"),
    (_count_model_doc, "count_model.ext_defect[0]", "[v1, v2, e]"),
    (lambda rows: {"v": 1, "kind": "gv_table", "entries": rows, "cuts": {"genus": 0, "degree": 1, "omega": [1]}},
     "gv_table.entries[0]", "[g, beta, n]"),
    (lambda rows: {"v": 1, "kind": "gw_series", "coeffs": rows, "cuts": {"degree": 1, "lambda": 0, "omega": [1]}},
     "gw_series.coeffs[0]", "[beta, lambda, coeff]"),
]


@pytest.mark.parametrize("build, where, shape", ROW_FORMATS)
def test_bad_row_messages(build, where, shape):
    with pytest.raises(SchemaError) as short:
        parse_document(build([[0, 0]]))
    assert str(short.value) == f"{where}: expected {shape}"
    with pytest.raises(SchemaError) as scalar:
        parse_document(build([7]))
    assert str(scalar.value) == f"{where}: expected list, got int"
    with pytest.raises(SchemaError) as outer:
        parse_document(build({}))
    assert str(outer.value) == f"{where[:-3]}: expected list, got dict"


def _gv(rows, **cuts):
    return {"v": 1, "kind": "gv_table", "entries": rows, "cuts": {"genus": 0, "degree": 1, "omega": [1], **cuts}}


def _gw(rows):
    return {"v": 1, "kind": "gw_series", "coeffs": rows, "cuts": {"degree": 1, "lambda": 0, "omega": [1]}}


LONG = "9" * 5000
TOO_LONG = "a number of 5000 digits is over the limit of 4300 digits"


# the exact message for each way a gv_table or gw_series row, or a cut, can fail
@pytest.mark.parametrize(
    "doc, message",
    [
        (_gv([7]), "gv_table.entries[0]: expected list, got int"),
        (_gv([[0, [1]]]), "gv_table.entries[0]: expected [g, beta, n]"),
        (_gv([[0, [1], 1, 2]]), "gv_table.entries[0]: expected [g, beta, n]"),
        (_gv([[0, [True], 1]]), "gv_table.entries[0].beta: expected an integer"),
        (_gv([[0, [1.0], 1]]), "gv_table.entries[0].beta: expected an integer"),
        (_gv([[0, ["1"], 1]]), "gv_table.entries[0].beta: expected an integer"),
        (_gv([[0, 1, 1]]), "gv_table.entries[0].beta: expected list, got int"),
        (_gv([[0.0, [1], 1]]), "gv_table.entries[0].g: expected an integer"),
        (_gv([[0, [1], True]]), "gv_table.entries[0].n: expected an integer"),
        (_gv([[0, [1], "1/0"]]), "gv_table.entries[0].n: expected an integer"),
        (_gv([[0, [1], 1], [0, [1], None]]), "gv_table.entries[1].n: expected an integer"),
        (_gv([], degree="1/0"), "gv_table.cuts.degree: bad rational '1/0'"),
        (_gv([], degree="3/-2"), "gv_table.cuts.degree: bad rational '3/-2'"),
        (_gv([], degree="1e5000"), "gv_table.cuts.degree: bad rational '1e5000'"),
        (_gv([], omega=["x"]), "gv_table.cuts.omega: bad rational 'x'"),
        (_gv([], degree=LONG + "/3"), f"gv_table.cuts.degree: {TOO_LONG}"),
        (_gw([7]), "gw_series.coeffs[0]: expected list, got int"),
        (_gw([[[1], 0]]), "gw_series.coeffs[0]: expected [beta, lambda, coeff]"),
        (_gw([[[True], 0, "1"]]), "gw_series.coeffs[0].beta: expected an integer"),
        (_gw([[[1.5], 0, "1"]]), "gw_series.coeffs[0].beta: expected an integer"),
        (_gw([[["1"], 0, "1"]]), "gw_series.coeffs[0].beta: expected an integer"),
        (_gw([[1, 0, "1"]]), "gw_series.coeffs[0].beta: expected list, got int"),
        (_gw([[[1], 0.5, "1"]]), "gw_series.coeffs[0].lambda: expected an integer"),
        (_gw([[[1], False, "1"]]), "gw_series.coeffs[0].lambda: expected an integer"),
        (_gw([[[1], 0, True]]), "gw_series.coeffs[0].coeff: expected an integer or rational string"),
        (_gw([[[1], 0, 0.5]]), "gw_series.coeffs[0].coeff: expected an integer or rational string"),
        (_gw([[[1], 0, None]]), "gw_series.coeffs[0].coeff: expected an integer or rational string"),
        (_gw([[[1], 0, "1/0"]]), "gw_series.coeffs[0].coeff: bad rational '1/0'"),
        (_gw([[[1], 0, "3/-2"]]), "gw_series.coeffs[0].coeff: bad rational '3/-2'"),
        (_gw([[[1], 0, "1e5000"]]), "gw_series.coeffs[0].coeff: bad rational '1e5000'"),
        (_gw([[[1], 0, LONG + "/3"]]), f"gw_series.coeffs[0].coeff: {TOO_LONG}"),
        (_gw([[[1], 0, "1/" + LONG]]), f"gw_series.coeffs[0].coeff: {TOO_LONG}"),
        (_gw([[[1], 0, "-" + LONG]]), f"gw_series.coeffs[0].coeff: {TOO_LONG}"),
        (json.dumps(_gv([[0, [1], 1]])).replace("[[0, [1], 1]]", f"[[{LONG}, [1], 1]]"), f"gv_table.entries[0].g: {TOO_LONG}"),
        (json.dumps(_gv([[0, [1], 1]])).replace("[[0, [1], 1]]", f"[[0, [-{LONG}], 1]]"), f"gv_table.entries[0].beta: {TOO_LONG}"),
        (json.dumps(_gv([[0, [1], 1]])).replace("[[0, [1], 1]]", f"[[0, [1], {LONG}]]"), f"gv_table.entries[0].n: {TOO_LONG}"),
        (json.dumps(_gw([[[1], 0, "1"]])).replace('[[[1], 0, "1"]]', f'[[[{LONG}], 0, "1"]]'), f"gw_series.coeffs[0].beta: {TOO_LONG}"),
        (json.dumps(_gw([[[1], 0, "1"]])).replace('[[[1], 0, "1"]]', f'[[[1], {LONG}, "1"]]'), f"gw_series.coeffs[0].lambda: {TOO_LONG}"),
        (json.dumps(_gw([[[1], 0, "1"]])).replace('[[[1], 0, "1"]]', f"[[[1], 0, {LONG}]]"), f"gw_series.coeffs[0].coeff: {TOO_LONG}"),
    ],
    ids=lambda value: value if isinstance(value, str) and not value.startswith("{") else "doc",
)
def test_bad_table_row_messages(doc, message):
    # a str is the document's JSON text, for integers the decoder keeps as markers
    with pytest.raises(SchemaError) as raised:
        parse_document(_decode(doc) if isinstance(doc, str) else doc)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"v": 1, "kind": "mystery"}, "document: unknown kind 'mystery'"),
        ({"v": 1, "kind": ["bispin"]}, "document: unknown kind ['bispin']"),
        ({"v": 1}, "document: unknown kind None"),
        ({"v": 1, "kind": "bispin", "content": [], "extra": 1}, "document: unknown fields ['extra']"),
        ({"v": 1, "kind": "gv_table", "entries": []}, "document: missing fields ['cuts']"),
        (_stack_doc([[0, 0, "1/2"]]), "parts[0].coeff.num[0]: polynomial coefficients are integers"),
        ({"v": 1, "kind": "motive", "expr": {"kind": "atom", "name": "x", "dim": 0, "census": [[0, 0, 1]]}},
         "expr.census[0]: cell size must be positive"),
        ({"v": 1, "kind": "bispin", "content": [[-2, 0, 1]]}, "content[0]: doubled spins are nonnegative"),
        (_count_model_doc([[[1, 0, 0], [1, 0], 1]]), "count_model.ext_defect[0][0]: class needs 1 beta parts plus k"),
        ({**_count_model_doc([]), "lattice": {"rank": 0, "generators": []}}, "count_model.lattice: lattice rank must be positive"),
        ({**_count_model_doc([]), "lattice": {"rank": 1, "generators": [[1, 2]]}},
         "count_model.lattice: generator (1, 2) has wrong length for rank 1"),
        ({**_count_model_doc([]), "lattice": {"rank": 1, "generators": [[0]]}}, "count_model.lattice: generators must be nonzero"),
        ({**_count_model_doc([]), "charge": {"B": [0, 0], "omega": [1]}}, "count_model.charge: B and omega must have length 1"),
        # a negative dimension fails as the atom rule does, before the betti count is checked
        ({"v": 1, "kind": "motive", "expr": {"kind": "atom", "name": "x", "dim": -1, "census": [[0, 1, 1]]}},
         DimMismatchError("atom dimension must be nonnegative")),
        ({"v": 1, "kind": "motive", "expr": {"kind": "betti", "bettis": [1], "dim": -1}},
         DimMismatchError("atom dimension must be nonnegative")),
        ({"v": 1, "kind": "betti_variety", "bettis": [1], "dim": -1}, DimMismatchError("atom dimension must be nonnegative")),
    ],
)
def test_envelope_messages(doc, message):
    # a str is a SchemaError's message; a domain error is raised as it stands
    expected = message if isinstance(message, GvmotError) else SchemaError(message)
    with pytest.raises(GvmotError) as exc:
        parse_document(doc)
    assert type(exc.value) is type(expected) and str(exc.value) == str(expected)
