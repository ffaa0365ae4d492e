"""Strict document parsing: versioning, unknown-field rejection, round trips."""

import json
from fractions import Fraction

import pytest

from gvmot.counting import NumClass
from gvmot.errors import SchemaError
from gvmot.gwseries import GVTable, GWSeries
from gvmot.jsonio import (
    _fraction,
    class_from_key,
    class_key,
    dump_json,
    gv_table_from_json,
    gv_table_to_json,
    gw_series_from_json,
    gw_series_to_json,
    parse_document,
    poly_from_json,
    poly_to_json,
    rational_fn_from_json,
    rational_fn_to_json,
)
from gvmot.laurent import LaurentPoly, RationalFn


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
        with pytest.raises(SchemaError):
            poly_from_json([[0, -1, "1"]])

    def test_rational_fn_roundtrip(self):
        r = RationalFn(LaurentPoly.one(), LaurentPoly.t(2) - LaurentPoly.one())
        assert rational_fn_from_json(rational_fn_to_json(r)) == r


class TestClassKeys:
    def test_roundtrip(self):
        v = NumClass((1, -2), 3)
        assert class_from_key(class_key(v), 2, "test") == v

    def test_wrong_arity(self):
        with pytest.raises(SchemaError):
            class_from_key("1,2", 2, "test")


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


class TestNumbers:
    def test_integers_stay_ints(self):
        # only a rational string becomes a Fraction
        assert type(_fraction(3, "n")) is int
        assert _fraction("6/4", "n") == Fraction(3, 2)
        for bad in (True, 0.5, None, "1/0", "x"):
            with pytest.raises(SchemaError):
                _fraction(bad, "n")


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
        assert model.atom(NumClass((2,), 1)).is_empty()

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


class TestTablesAndSeries:
    def test_gv_table_roundtrip(self):
        table = GVTable({(0, (1,)): 1, (2, (3,)): -5}, 3, Fraction(6), (Fraction(1),))
        doc = gv_table_to_json(table)
        assert gv_table_from_json(doc) == table

    def test_gw_series_roundtrip(self):
        series = GWSeries(
            {((1,), -2): Fraction(1), ((2,), 0): Fraction(-7, 24)},
            Fraction(4),
            2,
            (Fraction(1),),
        )
        doc = gw_series_to_json(series)
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


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"v": 1, "kind": "mystery"}, "document: unknown kind 'mystery'"),
        ({"v": 1, "kind": ["bispin"]}, "document: unknown kind ['bispin']"),
        ({"v": 1}, "document: unknown kind None"),
        ({"v": 1, "kind": "bispin", "content": [], "extra": 1}, "document: unknown fields ['extra']"),
        ({"v": 1, "kind": "gv_table", "entries": []}, "document: missing fields ['cuts']"),
    ],
)
def test_envelope_messages(doc, message):
    with pytest.raises(SchemaError) as exc:
        parse_document(doc)
    assert str(exc.value) == message
