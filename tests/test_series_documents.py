"""gv_table and gw_series documents end to end: the bytes `gw --json` prints,
the errors a bad document gets, and the series a good one reads as.

The reader error goldens in data/series_reader_errors.json were captured
from a reader that type-checked every row first, then the cuts, then every
key through the GVTable or GWSeries constructor, so they pin which error a
document with several bad rows reports.  Regenerate them only on purpose:

    PYTHONPATH=src python tests/test_series_documents.py > tests/data/series_reader_errors.json
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gvmot.cli import EXIT_OK, main
from gvmot.gwseries import GVTable, GWSeries, gv_to_gw, gw_to_gv
from gvmot.jsonio import gv_table_from_json, gw_series_from_json

GOLDEN_ERRORS = Path(__file__).resolve().parent / "data" / "series_reader_errors.json"
LONG = 7 * (10**4400 - 1) // 9  # 4400 sevens: more digits than the interpreter converts by default


def _oracle(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# -- seeded documents ------------------------------------------------------------


def _omega(rng, rank):
    return [rng.choice(["1", "1", "2", "3", "1/2", "3/2", "2/3"]) for _ in range(rank)]


def _classes(rng, omega, degree, count):
    """Distinct nonzero classes of positive omega-degree <= degree (at least 3, omega entries at most 3), entries in -2..4."""
    weights = [Fraction(w) for w in omega]
    out = []
    for _ in range(40 * count):
        beta = [rng.randint(-2, 4) for _ in omega]
        d = sum(w * b for w, b in zip(weights, beta))
        if 0 < d <= degree and beta not in out:
            out.append(beta)
        if len(out) == count:
            break
    return out or [[1] + [0] * (len(omega) - 1)]


def _coefficient(rng):
    p, q = rng.randint(-40, 40), rng.choice([1, 1, 2, 3, 12, 240])
    return p if q == 1 and rng.random() < 0.5 else f"{p}/{q}"


def random_table_doc(rng, rank):
    omega = _omega(rng, rank)
    degree, genus = rng.randint(3, 6), rng.randint(0, 3)
    rows = [[rng.randint(0, genus), beta, rng.choice([-1, 1]) * rng.randint(1, 9)] for beta in _classes(rng, omega, degree, rng.randint(1, 6))]
    rng.shuffle(rows)
    return {"v": 1, "kind": "gv_table", "entries": rows, "cuts": {"degree": str(degree), "genus": genus, "omega": omega}}


def random_series_doc(rng, rank):
    omega = _omega(rng, rank)
    degree, lam = rng.randint(3, 6), rng.choice([-2, 0, 2, 4])
    rows = [[beta, rng.randrange(-2, lam + 1, 2), _coefficient(rng)] for beta in _classes(rng, omega, degree, rng.randint(1, 6))]
    rng.shuffle(rows)
    return {"v": 1, "kind": "gw_series", "coeffs": rows, "cuts": {"degree": str(degree), "lambda": lam, "omega": omega}}


# -- bad rows ----------------------------------------------------------------------

# each breaks one row of a valid document in one way: (name, kinds it applies to, change)
# a change gets (rng, row, omega, cuts, kind) and returns the new row


def _set(kind, row, item, value):
    """row with its item replaced: item is "g", "n", "lambda", "coeff" or "beta"."""
    at = {"gv_table": {"g": 0, "beta": 1, "n": 2}, "gw_series": {"beta": 0, "lambda": 1, "coeff": 2}}[kind][item]
    return row[:at] + [value] + row[at + 1 :]


def _class_with(omega, sign):
    """A class of omega-degree 0 (sign 0) or below 0 (sign -1)."""
    if len(omega) == 1:
        return [-1] if sign else None
    a, b = Fraction(omega[0]), Fraction(omega[1])
    beta = [int(b.numerator * a.denominator), -int(a.numerator * b.denominator)] + [0] * (len(omega) - 2)
    return [beta[0] - 1, beta[1]] + beta[2:] if sign else beta


def _beyond(omega, cuts):
    w = Fraction(omega[0])
    return [int(Fraction(cuts["degree"]) / w) + 1] + [0] * (len(omega) - 1)


BREAKS = [
    ("row not a list", ("gv_table", "gw_series"), lambda rng, row, omega, cuts, kind: rng.choice([5, "row", {"g": 0}, None])),
    ("row length", ("gv_table", "gw_series"), lambda rng, row, omega, cuts, kind: rng.choice([row[:2], row + [0], []])),
    ("g type", ("gv_table",), lambda rng, row, omega, cuts, kind: _set(kind, row, "g", rng.choice(["1", 1.5, True, None, [0]]))),
    ("n type", ("gv_table",), lambda rng, row, omega, cuts, kind: _set(kind, row, "n", rng.choice(["2", "1/2", 2.0, False]))),
    ("lambda type", ("gw_series",), lambda rng, row, omega, cuts, kind: _set(kind, row, "lambda", rng.choice(["0", 0.0, True, None]))),
    ("coeff type", ("gw_series",), lambda rng, row, omega, cuts, kind: _set(kind, row, "coeff", rng.choice(["1.5", "1/0", "+1", " 2", "x", 1.5, True, None, [1]]))),
    ("beta type", ("gv_table", "gw_series"), lambda rng, row, omega, cuts, kind: _set(kind, row, "beta", rng.choice([1, "1", None, {"b": 1}]))),
    ("beta entry type", ("gv_table", "gw_series"), lambda rng, row, omega, cuts, kind: _set(kind, row, "beta", [rng.choice(["1", 1.0, True, None])] + [1] * (len(omega) - 1))),
    ("zero class", ("gv_table", "gw_series"), lambda rng, row, omega, cuts, kind: _set(kind, row, "beta", [0] * len(omega))),
    ("empty class", ("gv_table", "gw_series"), lambda rng, row, omega, cuts, kind: _set(kind, row, "beta", [])),
    ("class length", ("gv_table", "gw_series"), lambda rng, row, omega, cuts, kind: _set(kind, row, "beta", [1] * (len(omega) + rng.choice([-1, 1])) or [1, 1])),
    ("zero degree", ("gv_table", "gw_series"), lambda rng, row, omega, cuts, kind: _set(kind, row, "beta", _class_with(omega, 0) or [-1])),
    ("negative degree", ("gv_table", "gw_series"), lambda rng, row, omega, cuts, kind: _set(kind, row, "beta", _class_with(omega, -1))),
    ("beyond the degree cut", ("gv_table", "gw_series"), lambda rng, row, omega, cuts, kind: _set(kind, row, "beta", _beyond(omega, cuts))),
    ("negative genus", ("gv_table",), lambda rng, row, omega, cuts, kind: _set(kind, row, "g", -rng.randint(1, 3))),
    ("genus beyond the cut", ("gv_table",), lambda rng, row, omega, cuts, kind: _set(kind, row, "g", cuts["genus"] + rng.randint(1, 3))),
    ("lambda below -2", ("gw_series",), lambda rng, row, omega, cuts, kind: _set(kind, row, "lambda", rng.choice([-4, -6]))),
    ("odd lambda", ("gw_series",), lambda rng, row, omega, cuts, kind: _set(kind, row, "lambda", rng.choice([-3, -1, 1, cuts["lambda"] + 1]))),
    ("lambda beyond the cut", ("gw_series",), lambda rng, row, omega, cuts, kind: _set(kind, row, "lambda", cuts["lambda"] + 2 * rng.randint(1, 2))),
    ("long number", ("gv_table", "gw_series"), lambda rng, row, omega, cuts, kind: _set(
        kind, row, *rng.choice([("beta", [LONG] + [1] * (len(omega) - 1)), ("g", LONG), ("n", -LONG)] if kind == "gv_table"
                               else [("beta", [LONG] + [1] * (len(omega) - 1)), ("lambda", LONG), ("coeff", LONG), ("coeff", "1/" + "7" * 4400)]))),
]

# the cuts a row check must not overtake: each one breaks a cut read after the rows
CUT_BREAKS = {
    "gv_table": [("genus", "1"), ("genus", 1.5), ("degree", "x"), ("degree", 2.5)],
    "gw_series": [("lambda", "0"), ("lambda", 2.5), ("degree", "1/0"), ("degree", None)],
}


def error_documents():
    """(name, document) pairs, seeded: one bad row, then two or three bad rows, some beside a bad cut."""
    rng = random.Random(2046)
    cases = []
    for kind, make in (("gv_table", random_table_doc), ("gw_series", random_series_doc)):
        rows_key = "entries" if kind == "gv_table" else "coeffs"
        breaks = [b for b in BREAKS if kind in b[1]]
        plans = [[b] for b in breaks for _ in range(2)]
        plans += [rng.sample(breaks, rng.choice([2, 3])) for _ in range(3 * len(breaks))]
        for i, plan in enumerate(plans):
            doc = make(rng, rng.randint(1, 3))
            while len(doc[rows_key]) < 4:
                doc[rows_key].append(list(doc[rows_key][0]))  # a repeated key, summed by the reader
            rows, omega, cuts = doc[rows_key], doc["cuts"]["omega"], doc["cuts"]
            at = rng.sample(range(len(rows)), len(plan))
            for (name, _, change), j in zip(plan, at):
                rows[j] = change(rng, rows[j], omega, cuts, kind)
            if len(plan) > 1 and i % 4 == 0:
                field, value = rng.choice(CUT_BREAKS[kind])
                doc["cuts"] = {**cuts, field: value}
                plan = plan + [(f"cut {field}",)]
            cases.append((f"{kind} {i}: " + ", ".join(p[0] for p in plan), doc))
    return cases


def _text(doc) -> str:
    """The document's JSON text, long integers written out whole."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return json.dumps(doc, sort_keys=True)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _digest(doc) -> str:
    return hashlib.sha256(_text(doc).encode()).hexdigest()[:16]


def _run(capsys, tmp_path, doc, *argv):
    path = tmp_path / "doc.json"
    path.write_text(_text(doc))
    code = main(["gw", "--input", str(path), "--json", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReaderErrors:
    def test_each_bad_document_reports_the_error_it_always_did(self, capsys, tmp_path):
        golden = json.loads(GOLDEN_ERRORS.read_text())
        cases = error_documents()
        assert [name for name, _ in cases] == [case["name"] for case in golden]
        multi = 0
        for (name, doc), case in zip(cases, golden):
            assert _digest(doc) == case["digest"], name
            code, out, err = _run(capsys, tmp_path, doc)
            assert (code, out, err) == (case["code"], "", case["stderr"]), name
            multi += "," in name
        assert multi > 40


class TestReadEqualsConstructor:
    """A document reads as the checking constructor builds it from the summed rows, in the same key order."""

    @pytest.mark.parametrize("kind", ["gv_table", "gw_series"])
    def test_seeded_documents(self, kind):
        rng = random.Random(2047)
        repeated = zeros = 0
        for _ in range(300):
            rank = rng.randint(1, 3)
            doc = random_table_doc(rng, rank) if kind == "gv_table" else random_series_doc(rng, rank)
            rows = doc["entries"] if kind == "gv_table" else doc["coeffs"]
            for row in rng.sample(rows, min(len(rows), 2)):  # repeated keys, some summing to zero
                twin = list(row)
                if rng.random() < 0.5:
                    c = row[2]
                    twin[2] = -c if type(c) is int else c[1:] if c.startswith("-") else "-" + c
                    zeros += 1
                rows.insert(rng.randint(0, len(rows)), twin)
                repeated += 1
            cuts = doc["cuts"]
            summed = {}
            if kind == "gv_table":
                for g, beta, n in rows:
                    summed[(g, tuple(beta))] = summed.get((g, tuple(beta)), 0) + n
                read = gv_table_from_json(doc)
                built = GVTable(summed, cuts["genus"], Fraction(cuts["degree"]), [Fraction(w) for w in cuts["omega"]])
                assert list(read.entries.items()) == list(built.entries.items())
                assert all(type(n) is int for n in read.entries.values())
                assert (read.genus_max, read.degree_max, read.omega) == (built.genus_max, built.degree_max, built.omega)
            else:
                for beta, lam, c in rows:
                    summed[(tuple(beta), lam)] = summed.get((tuple(beta), lam), 0) + Fraction(c)
                read = gw_series_from_json(doc)
                built = GWSeries(summed, Fraction(cuts["degree"]), cuts["lambda"], [Fraction(w) for w in cuts["omega"]])
                assert list(read.coeffs.items()) == list(built.coeffs.items())
                assert all(type(c) is Fraction for c in read.coeffs.values())
                assert (read.lambda_max, read.degree_max, read.omega) == (built.lambda_max, built.degree_max, built.omega)
            assert all(type(w) is Fraction for w in read.omega) and type(read.degree_max) is Fraction
        assert repeated > 400 and zeros > 100


# -- gw --json, both directions ----------------------------------------------------


def gw_cases():
    """(name, document, argv) pairs, seeded: ranks 1 to 3 with negative entries, non-unit omega,
    inverses with nonintegral values, and cuts that leave nothing."""
    rng = random.Random(2048)
    cases = []
    for i in range(60):
        rank = 1 + i % 3
        table = random_table_doc(rng, rank)
        argv = []
        if i % 5 == 1:
            argv += ["--degree-max", str(rng.choice([0, 1, 2]))]
        if i % 7 == 2:
            argv += ["--lambda-order", str(rng.choice([-4, -3, -2, 0, 3]))]
        cases.append((f"to-gw {i}", table, argv))
        series = random_series_doc(rng, rank)
        argv = []
        if i % 5 == 3:
            argv += ["--degree-max", str(rng.choice([0, 1, 2]))]
        if i % 4 == 0:
            argv += ["--genus-max", str(rng.randint(-1, (series["cuts"]["lambda"] + 2) // 2))]
        cases.append((f"to-gv {i}", series, argv))
    return cases


class TestGwBytes:
    def test_seeded_documents_print_the_oracle_encoding(self, capsys, tmp_path):
        emptied, warned = {"--degree-max": 0, "--lambda-order": 0, "--genus-max": 0}, 0
        for name, doc, argv in gw_cases():
            code, out, err = _run(capsys, tmp_path, doc, *argv)
            assert (code, err) == (EXIT_OK, ""), (name, err)
            assert out == _oracle(out), name
            printed = json.loads(out)
            rows = printed.get("coeffs", printed.get("entries"))
            for flag in argv[::2]:
                emptied[flag] += not rows
            if "warnings" in printed:
                warned += 1
                assert list(printed) == ["cuts", "entries", "kind", "v", "warnings"]
                assert printed["warnings"]["nonintegral"] == sorted(printed["warnings"]["nonintegral"])
            assert rows == sorted(rows, key=lambda row: row[:2])
            read = gw_series_from_json(printed) if printed["kind"] == "gw_series" else gv_table_from_json(printed)
            source = gv_table_from_json(doc) if doc["kind"] == "gv_table" else gw_series_from_json(doc)
            cuts = {flag: int(value) for flag, value in zip(argv[::2], argv[1::2])}
            if doc["kind"] == "gv_table":
                assert read == gv_to_gw(source, degree_max=cuts.get("--degree-max"), lambda_max=cuts.get("--lambda-order")), name
            else:
                assert read == gw_to_gv(source, genus_max=cuts.get("--genus-max"), degree_max=cuts.get("--degree-max")).table, name
        assert min(emptied.values()) >= 3 and warned > 20, (emptied, warned)


def _capture():
    """The goldens of TestReaderErrors, from the code on the path (see the module docstring)."""
    import io
    from contextlib import redirect_stderr, redirect_stdout
    import tempfile

    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        for name, doc in error_documents():
            path.write_text(_text(doc))
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(["gw", "--input", str(path), "--json"])
            assert stdout.getvalue() == ""
            out.append({"name": name, "digest": _digest(doc), "code": code, "stderr": stderr.getvalue()})
    json.dump(out, sys.stdout, indent=1, ensure_ascii=False)
    print()


if __name__ == "__main__":
    _capture()
