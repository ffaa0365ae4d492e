"""CLI behavior: outputs, exit codes, determinism, error paths."""

import json
import os
import re
import subprocess
import sys
import time
from math import comb, factorial
from pathlib import Path

import pytest

from gvmot import cli
from gvmot.cli import (
    EXIT_CROSSCHECK,
    EXIT_INTERNAL,
    EXIT_MISSING_ATOM,
    EXIT_NOT_POLYNOMIAL,
    EXIT_OK,
    EXIT_PROPERTY,
    EXIT_SCHEMA,
    CrossCheckError,
    _emit_error,
    main,
)

SAMPLES = str(Path(__file__).resolve().parent.parent / "sample_data")
GOLDEN_GV = Path(__file__).resolve().parent / "data" / "gv_golden.json"
GOLDEN_HST = Path(__file__).resolve().parent / "data" / "hst_golden.json"
GOLDEN_GW = Path(__file__).resolve().parent / "data" / "gw_golden.json"
GOLDEN_KERNEL = Path(__file__).resolve().parent / "data" / "kernel_golden.json"
GOLDEN_TEXT = Path(__file__).resolve().parent / "data" / "text_golden.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestHst:
    def test_point(self, capsys):
        code, out, _ = run(capsys, "hst", "--input", f"{SAMPLES}/point.bispin.json", "--genus-max", "2")
        assert code == EXIT_OK
        rows = [line.split() for line in out.strip().splitlines()[1:]]
        assert [r[1] for r in rows] == ["1", "0", "0"]
        assert [r[2] for r in rows] == ["1", "0", "0"]

    def test_left_spin_one(self, capsys):
        code, out, _ = run(capsys, "hst", "--input", f"{SAMPLES}/left_spin_one.bispin.json", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["counts"] == [[0, 3], [1, -4], [2, 1]]

    def test_empty_content_all_zero(self, capsys, tmp_path):
        path = write_doc(tmp_path, "empty.json", {"v": 1, "kind": "bispin", "content": []})
        code, out, _ = run(capsys, "hst", "--input", path, "--genus-max", "2", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["counts"] == [[0, 0], [1, 0], [2, 0]]

    def test_virtual_input_spin_route_only(self, capsys, tmp_path):
        path = write_doc(tmp_path, "virt.json", {"v": 1, "kind": "bispin", "content": [[2, 0, -1]]})
        code, out, _ = run(capsys, "hst", "--input", path, "--genus-max", "1")
        assert code == EXIT_OK
        assert "n/a" in out

    def test_work_cap_exit_two_quickly(self, capsys, tmp_path):
        high = write_doc(tmp_path, "high.json", {"v": 1, "kind": "bispin", "content": [[1500, 0, 1]]})
        cases = [
            ["--input", high],
            ["--input", f"{SAMPLES}/point.bispin.json", "--genus-max", "1000000"],
        ]
        for argv in cases:
            start = time.perf_counter()
            code, out, err = run(capsys, "hst", *argv, "--json")
            assert time.perf_counter() - start < 2, argv
            assert code == EXIT_SCHEMA and out == ""
            assert len(err.splitlines()) == 1
            error = json.loads(err)["error"]
            assert error["type"] == "ResourceLimitError"
            assert error["message"].startswith("hst: ") and "cap of 1000000" in error["message"]

    def test_high_left_spin_under_cap(self, capsys, tmp_path):
        path = write_doc(tmp_path, "spin600.json", {"v": 1, "kind": "bispin", "content": [[600, 0, 1]]})
        code, out, _ = run(capsys, "hst", "--input", path, "--json")
        assert code == EXIT_OK
        counts = json.loads(out)["counts"]
        assert counts[0] == [0, 601] and counts[-1] == [600, 1]

    def test_low_genus_cut_bounds_high_left_spin(self, capsys, tmp_path):
        # only the genera that are printed are expanded
        path = write_doc(tmp_path, "spin20k.json", {"v": 1, "kind": "bispin", "content": [[20000, 0, 1]]})
        start = time.perf_counter()
        code, out, _ = run(capsys, "hst", "--input", path, "--genus-max", "1", "--json")
        assert time.perf_counter() - start < 2
        assert code == EXIT_OK
        assert json.loads(out)["counts"] == [[0, 20001], [1, -1333533340000]]


def test_hst_json_matches_golden_bytes(capsys, tmp_path):
    # stdout of `hst --json` on a sample, a virtual and a multi-right-spin
    # document with 2jL = 60, recorded while each genus re-ran the torus solve
    golden = json.loads(GOLDEN_HST.read_text())
    assert len(golden) == 3
    for name, case in golden.items():
        if "document" in case:
            path = write_doc(tmp_path, f"{name}.json", case["document"])
        else:
            path = f"{SAMPLES}/{name}"
        code, out, _ = run(capsys, "hst", "--input", path, "--json", *case["argv"])
        assert code == EXIT_OK
        assert out == case["stdout"], name


class TestUpsilon:
    def test_projective_plane(self, capsys):
        code, out, _ = run(capsys, "upsilon", "--input", f"{SAMPLES}/p2.betti.json")
        assert code == EXIT_OK
        assert out.strip() == "s^2"

    def test_blow_up(self, capsys):
        code, out, _ = run(capsys, "upsilon", "--input", f"{SAMPLES}/blowup_p2_point.motive.json")
        assert code == EXIT_OK
        assert out.strip() == "s^2 + t^2"

    def test_point(self, capsys, tmp_path):
        path = write_doc(
            tmp_path, "pt.json", {"v": 1, "kind": "betti_variety", "bettis": [1], "dim": 0}
        )
        code, out, _ = run(capsys, "upsilon", "--input", path)
        assert code == EXIT_OK
        assert out.strip() == "1"

    def test_malformed_tree_exit_two(self, capsys, tmp_path):
        path = write_doc(
            tmp_path,
            "bad.json",
            {
                "v": 1,
                "kind": "motive",
                "expr": {
                    "kind": "blow_up",
                    "ambient": {"kind": "betti", "bettis": [1], "dim": 0},
                    "center": {"kind": "betti", "bettis": [1], "dim": 0},
                    "codim": 2,
                },
            },
        )
        code, _, err = run(capsys, "upsilon", "--input", path)
        assert code == EXIT_SCHEMA
        assert "error" in json.loads(err)

    def test_high_codim_blow_up_quickly(self, capsys, tmp_path):
        point = {"kind": "betti", "bettis": [1], "dim": 0}
        ambient = {"kind": "proj_bundle", "expr": point, "fiber_rank": 30001}
        expr = {"kind": "blow_up", "ambient": ambient, "center": point, "codim": 30000}
        path = write_doc(tmp_path, "blow.json", {"v": 1, "kind": "motive", "expr": expr})
        start = time.perf_counter()
        code, out, _ = run(capsys, "upsilon", "--input", path, "--json")
        assert time.perf_counter() - start < 2
        assert code == EXIT_OK
        # P^30000 plus the exceptional divisor's L + ... + L^29999
        terms = {a: int(c) for a, b, c in json.loads(out)["terms"]}
        assert terms == {2 * k: 1 if k in (0, 30000) else 2 for k in range(30001)}

    # atoms worth 1, 3s and 2t: an atom of dimension d and census {(alpha, l): n} is n t^(d+alpha) s^(l-1)
    ONE = {"kind": "atom", "name": "a", "dim": 0, "census": [[0, 1, 1]]}
    THREE_S = {"kind": "atom", "name": "b", "dim": 0, "census": [[0, 2, 3]]}
    TWO_T = {"kind": "atom", "name": "c", "dim": 1, "census": [[0, 1, 2]]}
    P1 = [[2, 0, "1"], [0, 0, "1"]]

    @pytest.mark.parametrize(
        "expr, value",
        [
            ({"kind": "sum", "terms": [ONE, THREE_S, TWO_T]}, {(0, 0): 1, (0, 1): 3, (1, 0): 2}),
            ({"kind": "diff", "left": THREE_S, "right": ONE}, {(0, 1): 3, (0, 0): -1}),
            ({"kind": "fibration", "expr": THREE_S, "fiber": {"group": "gm"}}, {(2, 1): 3, (0, 1): -3}),
            ({"kind": "finite_push", "expr": TWO_T}, {(1, 0): 2}),
            ({"kind": "abs_product", "abs": {"group": "point"}, "expr": THREE_S}, {(0, 1): 3}),
            ({"kind": "abs_product", "abs": {"group": "affine_line"}, "expr": ONE}, {(2, 0): 1}),
            ({"kind": "abs_product", "abs": {"group": "gm"}, "expr": ONE}, {(2, 0): 1, (0, 0): -1}),
            ({"kind": "abs_product", "abs": {"poly": P1}, "expr": TWO_T}, {(3, 0): 2, (1, 0): 2}),
            ({"kind": "abs_product", "abs": {"poly": P1, "name": "P1"}, "expr": TWO_T}, {(3, 0): 2, (1, 0): 2}),
        ],
        ids=["sum", "diff", "fibration", "finite_push", "point", "affine_line", "gm", "poly", "named-poly"],
    )
    def test_expression_kinds(self, capsys, tmp_path, expr, value):
        from gvmot.jsonio import poly_from_json
        from gvmot.laurent import LaurentPoly

        path = write_doc(tmp_path, "expr.json", {"v": 1, "kind": "motive", "expr": expr})
        code, out, err = run(capsys, "upsilon", "--input", path, "--json")
        assert (code, err) == (EXIT_OK, "")
        assert poly_from_json(json.loads(out)["terms"]) == LaurentPoly(value)

    @pytest.mark.parametrize(
        "abs_motive, message",
        [
            ({"poly": [[0, 1, "1"]]}, "expr.abs: absolute classes cannot involve s"),
            ({"group": "sl", "n": 2}, "expr.abs: unknown group 'sl'"),
        ],
        ids=["poly-with-s", "unknown-group"],
    )
    def test_bad_absolute_motive(self, capsys, tmp_path, abs_motive, message):
        expr = {"kind": "abs_product", "abs": abs_motive, "expr": self.ONE}
        path = write_doc(tmp_path, "expr.json", {"v": 1, "kind": "motive", "expr": expr})
        code, out, err = run(capsys, "upsilon", "--input", path, "--json")
        assert (code, out) == (EXIT_SCHEMA, "")
        assert err == json.dumps({"error": {"message": message, "type": "SchemaError"}}) + "\n"


class TestCensus:
    def test_identity_chain(self, capsys):
        code, out, _ = run(capsys, "census", "--input", f"{SAMPLES}/chain.graded_nilpotent.json", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["census"] == [[-2, 3, 1]]

    def test_bispin_input(self, capsys):
        code, out, _ = run(capsys, "census", "--input", f"{SAMPLES}/left_spin_one.bispin.json", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["census"] == [[-2, 1, 1], [0, 1, 1], [2, 1, 1]]

    def test_missing_maps_cost_no_dense_blocks(self, capsys, tmp_path):
        doc = {"v": 1, "kind": "graded_nilpotent", "dims": {"0": 15000, "2": 15000}}
        path = write_doc(tmp_path, "dims_only.json", doc)
        start = time.perf_counter()
        code, out, _ = run(capsys, "census", "--input", path, "--json")
        assert time.perf_counter() - start < 2
        assert code == EXIT_OK
        assert json.loads(out)["census"] == [[0, 1, 15000], [2, 1, 15000]]


class TestStack:
    def test_stack_value(self, capsys):
        code, out, _ = run(capsys, "stack", "--input", f"{SAMPLES}/cy3_mod_gm.stack_class.json", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["kind"] == "rational_fn"


# classes of Gm, GL2 and GL3 with L = t^2
GM = [[2, 0, "1"], [0, 0, "-1"]]
GL2 = [[8, 0, "1"], [6, 0, "-1"], [4, 0, "-1"], [2, 0, "1"]]
GL3 = [[18, 0, "1"], [16, 0, "-1"], [14, 0, "-1"], [10, 0, "1"], [8, 0, "1"], [6, 0, "-1"]]


def _times(poly, c):
    return [[a, b, str(int(x) * c)] for a, b, x in poly]


# group quotients with s terms and signed, non-primitive coefficients, and a
# sum whose denominator divides out
KERNEL_STACKS = {
    "signed": [
        ({"num": [[0, 0, "-6"]], "den": _times(GM, 4)}, {"kind": "betti", "bettis": [1, 0, 2, 0, 1], "dim": 2}),
        ({"num": [[0, 1, "3"], [0, 0, "9"]], "den": _times(GL2, -2)}, {"kind": "betti", "bettis": [1, 0, 1, 0, 1], "dim": 2}),
        ({"num": [[2, 0, "4"]], "den": _times(GL3, 6)}, {"kind": "atom", "name": "X", "dim": 1, "census": [[0, 2, 3], [1, 1, -2]]}),
    ],
    "cancel": [
        ({"num": [[0, 0, "2"]], "den": _times(GM, 2)}, {"kind": "betti_over_point", "bettis": [1, 0, 1]}),
        ({"num": [[0, 0, "-2"]], "den": GM}, {"kind": "betti_over_point", "bettis": [1]}),
    ],
    "s_num": [
        ({"num": [[0, 2, "-10"], [2, 0, "5"]], "den": _times(GL2, 15)}, {"kind": "betti", "bettis": [1, 0, 3, 0, 1], "dim": 2}),
        ({"num": [[0, 0, "7"]], "den": _times(GM, -7)}, {"kind": "betti", "bettis": [1, 2, 1], "dim": 1}),
        ({"num": [[0, 0, "-3"]], "den": _times(GL3, -9)}, {"kind": "betti", "bettis": [1, 0, 1], "dim": 1}),
    ],
    # s/(t^2 - 1) over the sample that uses every motive expression kind
    "every_kind": [
        ({"num": [[0, 1, "1"]], "den": GM}, json.loads((Path(SAMPLES) / "every_kind.motive.json").read_text())["expr"]),
    ],
}
KERNEL_COMMANDS = {
    "stack_class": "stack",
    "motive": "upsilon",
    "betti_variety": "upsilon",
    "graded_nilpotent": "census",
    "bispin": "census",
}


def test_kernel_json_matches_golden_bytes(capsys, tmp_path):
    # stdout of `stack`, `upsilon` and `census --json` on every sample of
    # those kinds and on the quotients above, recorded while LaurentPoly
    # coefficients could still be Fractions
    golden = {name: out for name, out in json.loads(GOLDEN_KERNEL.read_text()).items() if not name.startswith("gv ")}
    cases = []
    for sample in sorted(Path(SAMPLES).glob("*.json")):
        command = KERNEL_COMMANDS.get(json.loads(sample.read_text())["kind"])
        if command:
            cases.append((f"{command} {sample.name}", [command, "--input", str(sample)]))
    for name, parts in KERNEL_STACKS.items():
        doc = {"v": 1, "kind": "stack_class", "parts": [{"coeff": c, "expr": e} for c, e in parts]}
        cases.append((f"stack {name}", ["stack", "--input", write_doc(tmp_path, f"{name}.json", doc)]))
    assert sorted(name for name, _ in cases) == sorted(golden)
    for name, argv in cases:
        code, out, _ = run(capsys, *argv, "--json")
        assert code == EXIT_OK, name
        assert out == golden[name], name


TEXT_COMMANDS = {
    "bispin": ["hst", "census"],
    "graded_nilpotent": ["census"],
    "motive": ["upsilon"],
    "betti_variety": ["upsilon"],
    "stack_class": ["stack"],
    "count_model": ["gv"],
    "gv_table": ["gw"],
    "gw_series": ["gw"],
}


def test_text_output_matches_golden_bytes(capsys, monkeypatch, tmp_path):
    # text stdout and exit code of every subcommand on every sample it
    # accepts (gv on each atom class and its negative), a virtual hst input,
    # gw nonintegral warnings, a verify report and a failing property,
    # recorded while each subcommand printed its own output
    import gvmot.verify as verify_mod

    def always_fails(rng, scale):
        raise verify_mod.PropertyFailure("synthetic")

    golden = json.loads(GOLDEN_TEXT.read_text())
    covered = {(case["argv"][0], case["sample"]) for case in golden.values() if "sample" in case}
    for sample in sorted(Path(SAMPLES).glob("*.json")):
        for command in TEXT_COMMANDS[json.loads(sample.read_text())["kind"]]:
            assert (command, sample.name) in covered
    for name, case in golden.items():
        argv = list(case["argv"])
        if "sample" in case:
            argv += ["--input", f"{SAMPLES}/{case['sample']}"]
        elif "document" in case:
            argv += ["--input", write_doc(tmp_path, "doc.json", case["document"])]
        with monkeypatch.context() as patch:
            if case.get("failing_property"):
                patch.setitem(verify_mod.SUITES, "stack", [("always_fails", always_fails)])
            code, out, err = run(capsys, *argv)
        assert (code, out, err) == (case["code"], case["stdout"], ""), name


class TestGv:
    def test_conifold_positive(self, capsys):
        code, out, _ = run(
            capsys,
            "gv",
            "--input", f"{SAMPLES}/conifold.count_model.json",
            "--target", "1,1",
            "--genus-max", "3",
            "--json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["counts"] == [[0, 1], [1, 0], [2, 0], [3, 0]]
        assert "note" in doc

    def test_conifold_negative_class(self, capsys):
        code, out, _ = run(
            capsys,
            "gv",
            "--input", f"{SAMPLES}/conifold.count_model.json",
            "--target=-1,-1",
            "--genus-max", "2",
            "--json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["counts"] == [[0, 1], [1, 0], [2, 0]]

    @pytest.mark.parametrize("target", [" +1,0", "+1,0", "1_0,0", "\uff11,0", "1,0 ", "1,", "1,-"])
    def test_target_parts_match_the_integer_grammar(self, capsys, target):
        # int() would read " +1,0" and "\uff11,0" as the class (1, 0), which has no atom (exit 4)
        code, out, err = run(capsys, "gv", "--input", f"{SAMPLES}/conifold.count_model.json", f"--target={target}", "--json")
        assert (code, out) == (EXIT_SCHEMA, "")
        assert json.loads(err)["error"] == {"message": f"--target: bad class key {target!r}", "type": "SchemaError"}

    def test_atom_keys_match_the_integer_grammar(self, capsys, tmp_path):
        doc = json.loads(Path(f"{SAMPLES}/conifold.count_model.json").read_text())
        atoms = doc["atoms"]
        key = next(iter(atoms))
        doc["atoms"] = {**atoms, f" +{key}": atoms[key]}
        path = write_doc(tmp_path, "plus.json", doc)
        code, out, err = run(capsys, "gv", "--input", path, "--target", "1,1", "--json")
        assert (code, out) == (EXIT_SCHEMA, "")
        assert json.loads(err)["error"]["message"] == f"count_model.atoms: bad class key {' +' + key!r}"

    def test_model_note_in_human_output(self, capsys):
        code, out, _ = run(
            capsys,
            "gv",
            "--input", f"{SAMPLES}/conifold.count_model.json",
            "--target", "1,1",
        )
        assert code == EXIT_OK
        assert out.startswith("# evaluation model:")

    def test_missing_atom_exit_four(self, capsys, tmp_path):
        doc = {
            "v": 1,
            "kind": "count_model",
            "lattice": {"rank": 1, "generators": [[1]]},
            "charge": {"B": ["0"], "omega": ["1"]},
            "atoms": {},
        }
        path = write_doc(tmp_path, "no_atoms.json", doc)
        code, _, err = run(capsys, "gv", "--input", path, "--target", "2,1")
        assert code == EXIT_MISSING_ATOM
        assert json.loads(err)["error"]["type"] == "MissingAtomError"

    def test_no_generators_counts_zero(self, capsys, tmp_path):
        # every nonzero class is a dead end of the empty cone; a degree-zero
        # class still asks the model for its atom
        doc = json.loads(Path(f"{SAMPLES}/conifold.count_model.json").read_text())
        doc["lattice"]["generators"] = []
        path = write_doc(tmp_path, "no_generators.json", doc)
        code, out, _ = run(capsys, "gv", "--input", path, "--target", "1,1", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["counts"] == [[0, 0], [1, 0], [2, 0], [3, 0]]
        code, _, err = run(capsys, "gv", "--input", path, "--target", "0,1", "--json")
        assert code == EXIT_MISSING_ATOM
        assert json.loads(err)["error"]["type"] == "MissingAtomError"

    def test_composition_cap_exit_two(self, capsys):
        code, _, err = run(
            capsys,
            "gv",
            "--input", f"{SAMPLES}/conifold.count_model.json",
            "--target", "3,1",
            "--max-compositions", "1",
        )
        assert code == EXIT_SCHEMA
        assert json.loads(err)["error"]["type"] == "ResourceLimitError"

    def test_membership_and_pieces_spend_the_cap_quickly(self, capsys, tmp_path):
        # a tiny document whose target is not effective: the membership search
        # alone would visit ~640k lattice points; a degree-zero target with a
        # huge k would build one piece per unit of k
        doc = {
            "v": 1,
            "kind": "count_model",
            "lattice": {"rank": 2, "generators": [[2, 0], [0, 2]]},
            "charge": {"B": [0, 0], "omega": [1, 1]},
            "atoms": {},
        }
        even = write_doc(tmp_path, "even.json", doc)
        cases = [
            (["--input", even, "--target", "1601,1600,0", "--max-compositions", "10"], "membership test", 10),
            (["--input", f"{SAMPLES}/cy3_degree_zero.count_model.json", "--target", "0,100000000"], "pieces", 10**6),
        ]
        for argv, stage, cap in cases:
            start = time.perf_counter()
            code, out, err = run(capsys, "gv", *argv, "--json")
            assert time.perf_counter() - start < 2, argv
            assert code == EXIT_SCHEMA and out == ""
            assert len(err.splitlines()) == 1
            error = json.loads(err)["error"]
            assert error["type"] == "ResourceLimitError"
            assert error["message"].startswith(f"{stage}: ") and error["message"].endswith(f"cap of {cap}")
        code, out, _ = run(capsys, "gv", "--input", even, "--target", "201,200,0", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["counts"] == [[0, 0], [1, 0], [2, 0], [3, 0]]

    def test_non_polynomial_exit_five(self, capsys, tmp_path):
        doc = {
            "v": 1,
            "kind": "count_model",
            "lattice": {"rank": 1, "generators": [[1]]},
            "charge": {"B": ["0"], "omega": ["1"]},
            "atoms": {
                "1,1": [
                    {
                        "coeff": {
                            "num": [[0, 0, "1"]],
                            "den": [[4, 0, "1"], [0, 0, "-1"]],
                        },
                        "expr": {"kind": "betti", "bettis": [1], "dim": 0},
                    }
                ]
            },
        }
        path = write_doc(tmp_path, "nonpoly.json", doc)
        code, _, err = run(capsys, "gv", "--input", path, "--target", "1,1")
        assert code == EXIT_NOT_POLYNOMIAL
        assert json.loads(err)["error"]["type"] == "NotPolynomialError"

    def test_non_polynomial_messages(self, capsys, tmp_path):
        # the count (L - 1) / den is not a polynomial for den = t^4 - 1 and has
        # non-integer coefficients for den = 2
        cases = [
            ([[4, 0, "1"], [0, 0, "-1"]], "(1) / (t^2 + 1) is not a polynomial"),
            ([[0, 0, "2"]], "(t^2 - 1) / (2) has non-integer coefficients"),
        ]
        for den, message in cases:
            doc = {
                "v": 1,
                "kind": "count_model",
                "lattice": {"rank": 1, "generators": [[1]]},
                "charge": {"B": ["0"], "omega": ["1"]},
                "atoms": {
                    "1,1": [
                        {
                            "coeff": {"num": [[0, 0, "1"]], "den": den},
                            "expr": {"kind": "betti", "bettis": [1], "dim": 0},
                        }
                    ]
                },
            }
            path = write_doc(tmp_path, "count.json", doc)
            for json_flag in ([], ["--json"]):
                code, out, err = run(capsys, "gv", "--input", path, "--target", "1,1", *json_flag)
                assert (code, out) == (EXIT_NOT_POLYNOMIAL, "")
                assert err == json.dumps({"error": {"message": message, "type": "NotPolynomialError"}}) + "\n"


def test_gv_json_matches_golden_bytes(capsys):
    # stdout of `gv --json` on every atom class of the sample count models and
    # on its negative, recorded before the log was summed over multisets; a
    # case that does not exit 0 is recorded with its code and stderr
    golden = json.loads(GOLDEN_GV.read_text())
    models = sorted(Path(SAMPLES).glob("*.count_model.json"))
    targets = []
    for model in models:
        for key in json.loads(model.read_text())["atoms"]:
            negated = ",".join(str(-int(x)) for x in key.split(","))
            targets += [(model, key), (model, negated)]
    assert sorted(f"{model.name} {target}" for model, target in targets) == sorted(golden)
    for model, target in targets:
        code, out, err = run(capsys, "gv", "--input", str(model), f"--target={target}", "--json")
        expected = golden[f"{model.name} {target}"]
        if not isinstance(expected, dict):
            expected = {"code": EXIT_OK, "stdout": expected, "stderr": ""}
        assert {"code": code, "stdout": out, "stderr": err} == expected, (model.name, target)


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            out[a1 + a2, b1 + b2] = out.get((a1 + a2, b1 + b2), 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def tower_model(bettis: list[int], k_max: int, twisted: bool) -> dict:
    """The closed-form degree-zero tower of perfbench/workloads.py: with
    P the Poincare polynomial, the atom of (0,j) has one part per n <= j,
    C(j-1, n-1) t^(2j^2 if twisted) / (n! (L-1)^n) times the point-based
    variety with Poincare polynomial P^n; (0,k) counts P, or L^(k^2) P twisted."""
    p = {(i, 0): b for i, b in enumerate(bettis) if b}
    atoms = {}
    for j in range(1, k_max + 1):
        parts, pn, gmn = [], {(0, 0): 1}, {(0, 0): 1}
        for n in range(1, j + 1):
            pn, gmn = _poly_mul(pn, p), _poly_mul(gmn, {(2, 0): 1, (0, 0): -1})
            num = {(2 * j * j if twisted else 0, 0): comb(j - 1, n - 1)}
            den = {key: c * factorial(n) for key, c in gmn.items()}
            parts.append({
                "coeff": {"num": [[a, b, str(c)] for (a, b), c in sorted(num.items())], "den": [[a, b, str(c)] for (a, b), c in sorted(den.items())]},
                "expr": {"kind": "betti_over_point", "bettis": [pn.get((i, 0), 0) for i in range(6 * n + 1)]},
            })
        atoms[f"0,{j}"] = parts
    doc = {"v": 1, "kind": "count_model", "lattice": {"rank": 1, "generators": [[1]]}, "charge": {"B": ["0"], "omega": ["1"]}, "atoms": atoms}
    if twisted:
        doc["ext_defect"] = [[[0, i], [0, j], 2 * i * j] for i in range(1, k_max + 1) for j in range(i, k_max + 1)]
    return doc


GV_KERNEL_MODELS = {
    "flat_tower": (tower_model([1, 0, 3, 5, 3, 0, 1], 8, twisted=False), [f"0,{k}" for k in range(-1, 7)]),
    "twisted_tower": (tower_model([1, 0, 3, 5, 3, 0, 1], 8, twisted=True), [f"0,{k}" for k in range(-1, 7)]),
    # atom coefficients with s: (1,1) counts (s + 2)(1 + L), and (2,2), which
    # splits as (1,1) + (1,1), keeps a factor L - 1 in its denominator
    "s_model": (json.loads(Path(f"{SAMPLES}/s_atoms.count_model.json").read_text()), ["1,1", "2,2"]),
}


def test_gv_json_on_towers_matches_golden_bytes(capsys, tmp_path):
    # exit code, stdout and stderr of `gv --json` on the closed-form towers
    # and on a model with s in its atom coefficients, whose (2,2) count is
    # not a polynomial; recorded while every atom was normalised on reading
    golden = {name: case for name, case in json.loads(GOLDEN_KERNEL.read_text()).items() if name.startswith("gv ")}
    cases = [(name, target) for name, (_, targets) in GV_KERNEL_MODELS.items() for target in targets]
    assert sorted(f"gv {name} {target}" for name, target in cases) == sorted(golden)
    paths = {name: write_doc(tmp_path, f"{name}.json", doc) for name, (doc, _) in GV_KERNEL_MODELS.items()}
    for name, target in cases:
        code, out, err = run(capsys, "gv", "--input", paths[name], f"--target={target}", "--json")
        assert {"code": code, "stdout": out, "stderr": err} == golden[f"gv {name} {target}"], (name, target)


def test_gv_normalises_only_the_atoms_it_reaches(capsys, monkeypatch, tmp_path):
    # (0,1) takes only its own atom; the parts of (0,2)..(0,5) stay as read
    from gvmot import jsonio, laurent

    doc = tower_model([1, 0, 3, 5, 3, 0, 1], 5, twisted=True)
    path = write_doc(tmp_path, "tower.json", doc)
    seen = []
    normalize = laurent._normalize_fraction

    def spy(num, den):
        seen.append((num, den))
        return normalize(num, den)

    monkeypatch.setattr(laurent, "_normalize_fraction", spy)
    code, _, _ = run(capsys, "gv", "--input", path, "--target", "0,1", "--json")
    assert code == EXIT_OK
    coeff = lambda part: (jsonio.poly_from_json(part["coeff"]["num"]), jsonio.poly_from_json(part["coeff"]["den"]))
    reached = {coeff(part) for part in doc["atoms"]["0,1"]}
    unreached = {coeff(part) for key, parts in doc["atoms"].items() if key != "0,1" for part in parts}
    assert reached <= set(seen) and not unreached & set(seen)


@pytest.mark.parametrize(
    "key, index, field, value, message",
    [
        ("0,4", 1, "den", [], "count_model.atoms[0,4][1].coeff: zero denominator"),
        ("0,4", 0, "num", [[0, 0, 1.5]], "count_model.atoms[0,4][0].coeff.num[0].coeff: expected an integer or rational string"),
        ("0,5", 2, "kind", "nope", "count_model.atoms[0,5][2].expr: unknown expression kind 'nope'"),
    ],
    ids=["zero-denominator", "float-coefficient", "bad-motive-kind"],
)
def test_bad_atom_of_an_unreached_class_is_a_schema_error(capsys, tmp_path, key, index, field, value, message):
    doc = tower_model([1, 0, 3, 5, 3, 0, 1], 5, twisted=False)
    part = doc["atoms"][key][index]
    (part["expr"] if field == "kind" else part["coeff"])[field] = value
    path = write_doc(tmp_path, "bad.json", doc)
    code, out, err = run(capsys, "gv", "--input", path, "--target", "0,1")
    assert (code, out) == (EXIT_SCHEMA, "")
    assert err == json.dumps({"error": {"message": message, "type": "SchemaError"}}) + "\n"


class TestGw:
    def test_forward_conifold(self, capsys):
        code, out, _ = run(
            capsys,
            "gw",
            "--input", f"{SAMPLES}/conifold.gv_table.json",
            "--degree-max", "4",
            "--lambda-order", "-2",
            "--json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert [[1], -2, "1"] in doc["coeffs"]
        assert [[2], -2, "1/8"] in doc["coeffs"]

    def test_roundtrip_through_cli(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "gw",
            "--input", f"{SAMPLES}/conifold.gv_table.json",
            "--degree-max", "6",
            "--lambda-order", "0",
            "--json",
        )
        assert code == EXIT_OK
        series_path = tmp_path / "series.json"
        series_path.write_text(out)
        code, out, _ = run(capsys, "gw", "--input", str(series_path), "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["entries"] == [[0, [1], 1]]
        assert "warnings" not in doc

    def test_empty_table(self, capsys, tmp_path):
        path = write_doc(
            tmp_path,
            "empty.json",
            {
                "v": 1,
                "kind": "gv_table",
                "entries": [],
                "cuts": {"genus": 1, "degree": "4", "omega": ["1"]},
            },
        )
        code, out, _ = run(capsys, "gw", "--input", path, "--json")
        assert code == EXIT_OK
        assert json.loads(out)["coeffs"] == []

    def test_nonintegral_warning_surfaces(self, capsys, tmp_path):
        path = write_doc(
            tmp_path,
            "half.json",
            {
                "v": 1,
                "kind": "gw_series",
                "coeffs": [[[1], -2, "1/2"]],
                "cuts": {"degree": "1", "lambda": -2, "omega": ["1"]},
            },
        )
        code, out, _ = run(capsys, "gw", "--input", path, "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["warnings"]["nonintegral"] == [[0, [1], "1/2"]]

    def test_direction_kind_mismatch_exit_two(self, capsys):
        code, _, err = run(
            capsys,
            "gw",
            "--input", f"{SAMPLES}/conifold.gv_table.json",
            "--direction", "to-gv",
        )
        assert code == EXIT_SCHEMA
        assert json.loads(err)["error"]["type"] == "SchemaError"

    def test_direction_flag_is_a_usage_error(self, capsys):
        # the document's kind picks the direction, so even a flag that agrees with it is refused
        code, out, err = run(capsys, "gw", "--input", f"{SAMPLES}/conifold.gv_table.json", "--direction", "to-gw", "--json")
        assert (code, out) == (EXIT_SCHEMA, "")
        message = "gvmot: unrecognized arguments: --direction to-gw"
        assert err == json.dumps({"error": {"message": message, "type": "SchemaError"}}) + "\n"

    def test_json_matches_golden_bytes(self, capsys, tmp_path):
        # stdout of `gw --json` in both directions, rank 1 and rank 2 with
        # omega = (1, 2), nonintegral warnings, a lambda order above the
        # minimum and degree cuts below the document's, recorded while the
        # inverse ran its own divisor loop over a division-closed class set
        golden = json.loads(GOLDEN_GW.read_text())
        assert len(golden) == 9
        for name, case in golden.items():
            if "document" in case:
                path = write_doc(tmp_path, f"{name}.json", case["document"])
            else:
                path = f"{SAMPLES}/{case['sample']}"
            code, out, _ = run(capsys, "gw", "--input", path, "--json", *case["argv"])
            assert code == EXIT_OK
            assert out == case["stdout"], name

    def test_huge_cuts_exit_two_quickly(self, capsys, tmp_path):
        series = json.loads(Path(f"{SAMPLES}/conifold.gw_series.json").read_text())
        deep = write_doc(tmp_path, "deep.json", {**series, "cuts": {**series["cuts"], "degree": "100000000"}})
        high = write_doc(tmp_path, "high.json", {**series, "cuts": {**series["cuts"], "lambda": 1000000}})
        cases = [
            (["--input", f"{SAMPLES}/conifold.gv_table.json", "--degree-max", "100000000"], "gw forward"),
            (["--input", deep], "gw inverse"),
            (["--input", high], "gw inverse"),
            (["--input", f"{SAMPLES}/conifold.gv_table.json", "--degree-max", "1", "--lambda-order", "1000000"], "sin table"),
        ]
        for argv, stage in cases:
            start = time.perf_counter()
            code, out, err = run(capsys, "gw", *argv)
            assert time.perf_counter() - start < 2, argv
            assert code == EXIT_SCHEMA and out == ""
            assert len(err.splitlines()) == 1
            error = json.loads(err)["error"]
            assert error["type"] == "ResourceLimitError"
            assert error["message"].startswith(f"{stage}: ") and "cap of 1000000" in error["message"]

    def test_lambda_cut_below_every_genus_walks_no_cover(self, capsys, monkeypatch):
        # no kernel term fits under the cut, so the ledger is charged nothing
        # and no class may walk its 10^8 covers: every class series it pushes is empty
        from gvmot import gwseries

        spent, pushed = [], []

        class Ledger(gwseries.Ledger):
            def spend(self, stage, n=1, what="enumeration steps"):
                spent.append((what, n))
                super().spend(stage, n, what)

        def push(acc, beta, f, *rest):
            pushed.append(len(f))
            gwseries_push(acc, beta, f, *rest)

        gwseries_push = gwseries._push
        monkeypatch.setattr(gwseries, "Ledger", Ledger)
        monkeypatch.setattr(gwseries, "_push", push)
        argv = ["--input", f"{SAMPLES}/conifold.gv_table.json", "--degree-max", "100000000", "--lambda-order", "-4", "--json"]
        code, out, err = run(capsys, "gw", *argv)
        assert (code, err) == (EXIT_OK, "") and json.loads(out)["coeffs"] == []
        assert ("kernel terms", 0) in spent and pushed and set(pushed) == {0}

    def test_flag_of_the_other_direction_exit_two(self, capsys):
        # the message names the flag and the input kinds, not a direction flag that no longer exists
        cases = [
            (f"{SAMPLES}/conifold.gv_table.json", "--genus-max", "5", "gw_series", "gv_table"),
            (f"{SAMPLES}/conifold.gw_series.json", "--lambda-order", "8", "gv_table", "gw_series"),
        ]
        for path, flag, value, applies_to, given in cases:
            code, out, err = run(capsys, "gw", "--input", path, flag, value, "--json")
            assert code == EXIT_SCHEMA and out == ""
            error = json.loads(err)["error"]
            assert error["type"] == "SchemaError"
            assert error["message"] == f"{flag} applies only to a {applies_to} input, not a {given}"
            assert "direction" not in error["message"]

    def test_byte_identical_runs(self, capsys):
        args = (
            "gw",
            "--input", f"{SAMPLES}/conifold.gv_table.json",
            "--degree-max", "5",
            "--lambda-order", "2",
            "--json",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestVerify:
    def test_fast_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "motive", "--seed", "3")
        assert code == EXIT_OK
        assert "PASS" in out
        assert "ok motive.blowup_identity" in out

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "nonsense")
        assert code == EXIT_SCHEMA
        assert "error" in json.loads(err)

    def test_deterministic_given_seed(self, capsys):
        _, out1, _ = run(capsys, "verify", "stack", "--seed", "9")
        _, out2, _ = run(capsys, "verify", "stack", "--seed", "9")
        assert out1 == out2

    def test_json_report(self, capsys):
        code, out1, _ = run(capsys, "verify", "stack", "--seed", "9", "--json")
        _, out2, _ = run(capsys, "verify", "stack", "--seed", "9", "--json")
        assert code == EXIT_OK
        assert out1 == out2
        doc = json.loads(out1)
        assert {key: doc[key] for key in ("v", "kind", "suite", "seed", "scale", "passed")} == {
            "v": 1,
            "kind": "verify_result",
            "suite": "stack",
            "seed": 9,
            "scale": 1,
            "passed": True,
        }
        assert [p["name"] for p in doc["properties"]] == [
            "stack.gm_cancellation",
            "stack.stack_linearity",
            "stack.stack_scale",
        ]
        assert all(p["ok"] and p["cases"] == 100 for p in doc["properties"])


SERIES = json.loads(Path(f"{SAMPLES}/conifold.gw_series.json").read_text())
CAP_DOCS = {
    "even": {
        "v": 1,
        "kind": "count_model",
        "lattice": {"rank": 2, "generators": [[2, 0], [0, 2]]},
        "charge": {"B": [0, 0], "omega": [1, 1]},
        "atoms": {},
    },
    "deep": {**SERIES, "cuts": {**SERIES["cuts"], "degree": "100000000"}},
    "spin1500": {"v": 1, "kind": "bispin", "content": [[1500, 0, 1]]},
    "spin1000000": {"v": 1, "kind": "bispin", "content": [[1000000, 0, 1]]},
    "empty": {"v": 1, "kind": "bispin", "content": []},
}


@pytest.mark.parametrize(
    "argv, stage, what, cap",
    [
        (["gv", "even", "--target", "1601,1600,0", "--max-compositions", "10"], "membership test", "enumeration steps", 10),
        (["gv", "cy3_degree_zero.count_model.json", "--target", "0,100000000"], "pieces", "enumeration steps", 10**6),
        (["gv", "conifold.count_model.json", "--target", "1,-1", "--genus-max", "100000000"], "readout", "census terms", 10**6),
        (["gw", "conifold.gv_table.json", "--degree-max", "100000000"], "gw forward", "kernel terms", 10**6),
        (["gw", "deep"], "gw inverse", "candidate classes", 10**6),
        (["gw", "conifold.gv_table.json", "--degree-max", "1", "--lambda-order", "1000000"], "sin table", "products", 10**6),
        (["hst", "spin1500"], "hst", "census terms", 10**6),
        (["hst", "empty", "--genus-max", "100000000"], "hst", "census terms", 10**6),
        (["census", "spin1000000"], "census", "census terms", 10**6),
    ],
    ids=["walk", "pieces", "readout", "gw-forward", "gw-inverse", "sin-table", "hst-terms", "hst-empty", "census-bispin"],
)
def test_cap_error_is_one_structured_json_line(capsys, tmp_path, argv, stage, what, cap):
    command, name, *flags = argv
    path = write_doc(tmp_path, f"{name}.json", CAP_DOCS[name]) if name in CAP_DOCS else f"{SAMPLES}/{name}"
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--input", path, *flags, "--json")
    assert time.perf_counter() - start < 2
    assert code == EXIT_SCHEMA and out == ""
    assert len(err.splitlines()) == 1
    error = json.loads(err)["error"]
    assert error["type"] == "ResourceLimitError"
    assert (error["stage"], error["cap"]) == (stage, cap)
    # the stage's own count, then the run's total when earlier stages spent other units
    total = r"(?: \((\d+) units of work in all\))?"
    match = re.fullmatch(rf"{stage}: (\d+) {what}{total} exceed the cap of {cap}", error["message"])
    assert match and int(match[2] or match[1]) == error["spent"] > cap


@pytest.mark.parametrize(
    "argv, named",
    [
        (["gv", "--input", f"{SAMPLES}/conifold.count_model.json"], "--target"),
        (["bogus"], "bogus"),
        (["gv", "--input", f"{SAMPLES}/conifold.count_model.json", "--target", "1,1", "--genus-max", "x"], "--genus-max"),
        (["verify", "sl2", "--cases", "0"], "--cases"),
        (["verify", "sl2", "--cases", "-1"], "--cases"),
        (["gv", "--input", f"{SAMPLES}/conifold.count_model.json", "--target", "1,1", "--max-compositions", "-5"], "--max-compositions"),
    ],
    ids=["missing-target", "unknown-command", "genus-max-not-int", "cases-zero", "cases-negative", "negative-cap"],
)
def test_usage_error_is_one_json_line(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_SCHEMA and out == ""
    assert len(err.splitlines()) == 1
    error = json.loads(err)["error"]
    assert error["type"] == "SchemaError" and named in error["message"]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["gv", "--help"])
    assert exit_info.value.code == 0
    assert "--max-compositions" in capsys.readouterr().out


class TestErrorMapping:
    def test_cross_check_maps_to_three(self, capsys):
        assert _emit_error(CrossCheckError("boom")) == EXIT_CROSSCHECK
        err = capsys.readouterr().err
        assert json.loads(err)["error"]["type"] == "CrossCheckError"

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_route_disagreement_exits_three_with_one_line(self, capsys, monkeypatch, flags):
        spin_route = cli.genus_count
        monkeypatch.setattr(cli, "genus_count", lambda content, g: spin_route(content, g) + (g == 1))
        code, out, err = run(capsys, "hst", "--input", f"{SAMPLES}/left_spin_one.bispin.json", *flags)
        assert (code, out) == (EXIT_CROSSCHECK, "")
        message = "genus 1: spin route -3 != census route -4"
        assert err == json.dumps({"error": {"message": message, "type": "CrossCheckError"}}) + "\n"

    def test_schema_error_exit_two(self, capsys, tmp_path):
        path = write_doc(tmp_path, "bad.json", {"v": 1, "kind": "bispin", "content": [], "x": 1})
        code, _, err = run(capsys, "hst", "--input", path)
        assert code == EXIT_SCHEMA

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["upsilon", "--input", f"{SAMPLES}/conifold.gv_table.json"],
             f"{SAMPLES}/conifold.gv_table.json: expected kind in ('motive', 'betti_variety'), got 'gv_table'"),
            (["gw", "--input", f"{SAMPLES}/conifold.gw_series.json", "--direction", "to-gw"],
             "gvmot: unrecognized arguments: --direction to-gw"),
            (["upsilon", "--input", "{tmp}/not.json"], "{tmp}/not.json: invalid JSON (Expecting value: line 1 column 1 (char 0))"),
        ],
        ids=["wrong-kind", "to-gw-on-a-series", "not-json"],
    )
    def test_document_errors_exit_two_with_one_line(self, capsys, tmp_path, argv, message):
        (tmp_path / "not.json").write_text("not json")
        code, out, err = run(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv), "--json")
        message = message.replace("{tmp}", str(tmp_path))
        assert (code, out) == (EXIT_SCHEMA, "")
        assert err == json.dumps({"error": {"message": message, "type": "SchemaError"}}) + "\n"

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("command, kind", [("upsilon", "motive"), ("stack", "stack_class"), ("gv", "count_model")])
    def test_general_linear_below_one_exit_two_with_one_line(self, capsys, tmp_path, command, kind, n):
        # an abs_product factor and a fibration fiber both read {"group": "gl", "n": n}
        point = {"kind": "betti_over_point", "bettis": [1]}
        fibration = {"kind": "fibration", "expr": point, "fiber": {"group": "gl", "n": n}}
        argv = []
        if kind == "motive":
            doc = {"v": 1, "kind": kind, "expr": {"kind": "abs_product", "abs": {"group": "gl", "n": n}, "expr": point}}
            field = "expr.abs.n"
        elif kind == "stack_class":
            doc = {"v": 1, "kind": kind, "parts": [{"coeff": {"num": [[0, 0, "1"]], "den": [[0, 0, "1"]]}, "expr": fibration}]}
            field = "parts[0].expr.fiber.n"
        else:
            doc = json.loads(Path(f"{SAMPLES}/conifold.count_model.json").read_text())
            doc["atoms"]["1,1"][0]["expr"] = fibration
            field, argv = "count_model.atoms[1,1][0].expr.fiber.n", ["--target", "1,1"]
        code, out, err = run(capsys, command, "--input", write_doc(tmp_path, "gl.json", doc), *argv, "--json")
        assert (code, out) == (EXIT_SCHEMA, "")
        assert err == json.dumps({"error": {"message": f"{field}: general linear group needs n >= 1", "type": "SchemaError"}}) + "\n"

    def test_missing_file_exit_two(self, capsys):
        code, _, _ = run(capsys, "hst", "--input", "no/such/file.json")
        assert code == EXIT_SCHEMA

    def test_not_utf8_exit_two(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"v": 1, "kind": "bispin", "content": [], "name": "\u00e9"}'.encode("latin-1"))
        code, out, err = run(capsys, "hst", "--input", str(path), "--json")
        assert code == EXIT_SCHEMA and out == ""
        assert json.loads(err)["error"]["type"] == "SchemaError"

    def test_json_nested_too_deeply_to_decode_exit_two(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "upsilon", "--input", str(path), "--json")
        assert code == EXIT_SCHEMA and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "SchemaError" and "invalid JSON" in error["message"]

    def test_internal_error_exit_six_with_one_json_line(self, capsys, monkeypatch):
        # any exception that is not a domain error maps to exit 6
        def broken(expr):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli, "upsilon_rel", broken)
        code, out, err = run(capsys, "upsilon", "--input", f"{SAMPLES}/p2.betti.json", "--json")
        assert code == EXIT_INTERNAL
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        body = json.loads(lines[0])
        assert list(body) == ["error"]
        assert body["error"] == {"type": "RuntimeError", "message": "synthetic failure"}

    def test_deep_motive_evaluates(self, tmp_path):
        # 900 nested int_scale nodes: the evaluation memo must not hash whole
        # subtrees.  A fresh process, so the test runner's frames do not count
        # against the recursion limit.
        expr = {"kind": "betti", "bettis": [1], "dim": 0}
        for _ in range(900):
            expr = {"kind": "int_scale", "factor": 1, "expr": expr}
        path = write_doc(tmp_path, "deep.motive.json", {"v": 1, "kind": "motive", "expr": expr})
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "gvmot", "upsilon", "--input", path],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, "1\n", "")

    def test_motive_past_the_nesting_cap_exits_two(self, tmp_path):
        # one int_scale past the cap: a schema error naming where and the cap,
        # before any recursion can overflow.  A fresh process, as above.
        from gvmot.jsonio import MOTIVE_DEPTH_CAP

        expr = {"kind": "betti", "bettis": [1], "dim": 0}
        for _ in range(MOTIVE_DEPTH_CAP + 1):
            expr = {"kind": "int_scale", "factor": 1, "expr": expr}
        path = write_doc(tmp_path, "deep.motive.json", {"v": 1, "kind": "motive", "expr": expr})
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "gvmot", "upsilon", "--input", path, "--json"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (EXIT_SCHEMA, "")
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error == {
            "type": "SchemaError",
            "message": "expr" + ".expr" * (MOTIVE_DEPTH_CAP + 1) + f": a motive expression is nested more than {MOTIVE_DEPTH_CAP} levels deep",
        }

    def test_closed_stdout_ends_quietly(self, tmp_path):
        # a reader that stops early, as `| head -c 300` does, is no fault of the
        # run: exit 0 and nothing on stderr.  The blow-up prints about 220 kB,
        # more than a pipe buffers, so the writes meet the closed end.
        point = {"kind": "betti", "bettis": [1], "dim": 0}
        ambient = {"kind": "proj_bundle", "expr": point, "fiber_rank": 5001}
        expr = {"kind": "blow_up", "ambient": ambient, "center": point, "codim": 5000}
        path = write_doc(tmp_path, "blow.json", {"v": 1, "kind": "motive", "expr": expr})
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "gvmot", "upsilon", "--input", path, "--json"],
            env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert len(proc.stdout.read(300)) == 300
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (EXIT_OK, b"")


class TestDigitLimit:
    """Python converts ints of at most sys.get_int_max_str_digits() digits to and
    from str; output lifts the limit, input keeps it.  The runs set the limit to
    its least value, 640 digits, so that small numbers cross it."""

    @staticmethod
    def gvmot(*argv):
        src = str(Path(__file__).resolve().parent.parent / "src")
        return subprocess.run(
            [sys.executable, "-m", "gvmot", *argv],
            env={**os.environ, "PYTHONPATH": src, "PYTHONINTMAXSTRDIGITS": "640"},
            capture_output=True, text=True, timeout=60,
        )

    def test_long_output_printed_whole(self):
        proc = self.gvmot("gw", "--input", f"{SAMPLES}/conifold.gv_table.json", "--degree-max", "1",
                          "--lambda-order", "400", "--json")
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        digits = max(len(part.lstrip("-")) for _, _, c in json.loads(proc.stdout)["coeffs"] for part in c.split("/"))
        assert digits > 640

    def test_limit_restored_after_output(self, capsys, tmp_path):
        # one process may call main many times
        limit = sys.get_int_max_str_digits()
        expr = {"kind": "betti", "bettis": [1], "dim": 0}
        for _ in range(2):
            expr = {"kind": "int_scale", "factor": 10**4000, "expr": expr}
        path = write_doc(tmp_path, "scaled.motive.json", {"v": 1, "kind": "motive", "expr": expr})
        for flag in ((), ("--json",)):
            code, out, _ = run(capsys, "upsilon", "--input", path, *flag)
            assert code == EXIT_OK and "1" + "0" * 8000 in out
            assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("number", ["1" * 700, '"%s/3"' % ("1" * 700)], ids=["integer", "rational string"])
    def test_long_input_number_exit_two(self, tmp_path, number):
        path = tmp_path / "long.json"
        path.write_text('{"v": 1, "kind": "graded_nilpotent", "dims": {"0": 1, "2": 1}, "maps": {"0": [[%s]]}}' % number)
        proc = self.gvmot("census", "--input", str(path), "--json")
        assert (proc.returncode, proc.stdout) == (EXIT_SCHEMA, "")
        [line] = proc.stderr.splitlines()
        error = json.loads(line)["error"]
        assert error == {
            "type": "SchemaError",
            "message": "graded_nilpotent.maps[0]: a number of 700 digits is over the limit of 640 digits",
        }


def test_cli_import_leaves_verify_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, gvmot.cli; assert 'gvmot.verify' not in sys.modules, sorted(sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_property_failure_exit_code_is_one(capsys, monkeypatch):
    # the text report comes from the same results as --json; a failing property must exit 1
    import gvmot.verify as verify_mod

    def always_fails(rng, scale):
        raise verify_mod.PropertyFailure("synthetic")

    monkeypatch.setitem(verify_mod.SUITES, "stack", [("always_fails", always_fails)])
    assert not all(entry["ok"] for entry in verify_mod.suite_results("stack", seed=0))
    code, out, _ = run(capsys, "verify", "stack")
    assert code == EXIT_PROPERTY
    assert any("FAIL" in line for line in out.splitlines())


def test_json_property_failure_exit_code_is_one(capsys, monkeypatch):
    import gvmot.verify as verify_mod

    def always_fails(rng, scale):
        raise verify_mod.PropertyFailure("synthetic")

    monkeypatch.setitem(verify_mod.SUITES, "stack", [("always_fails", always_fails)])
    code, out, _ = run(capsys, "verify", "stack", "--json")
    assert code == EXIT_PROPERTY
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["properties"] == [
        {"name": "stack.always_fails", "ok": False, "message": "synthetic"}
    ]
