"""Generated count-model documents through `gvmot gv`.

Seeded hypothesis runs (derandomize) build small count_model documents: a
rank-1 or rank-2 lattice, a charge positive on its generators, atoms of up
to two parts on the classes of a small box (coefficients with s-terms and
negative t-exponents over nonzero denominators, motives of three kinds),
some atoms empty and some missing, symmetric ext defects, and a target.  A
valid document's `gv --json` must end as the oracles of test_counting say
for the same data: exit 0 with their count polynomial, or the exit code of
the error they raise (4 for a missing atom, 5 for a count that is no
polynomial).  A document with one malformed field, or a malformed target,
must exit 2 with one JSON line on stderr.  Nothing exits 6.
"""

import contextlib
import io
import json
import os
import tempfile
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_counting import counting_polynomial_oracle

from gvmot import cli, jsonio
from gvmot.counting import CentralCharge, ClassLattice, EvalModel, NumClass, polynomial_census
from gvmot.errors import EXIT_INTERNAL, EXIT_OK, EXIT_SCHEMA, GvmotError, Ledger
from gvmot.laurent import LaurentPoly
from gvmot.lefschetz import JordanCensus, census_count
from gvmot.motives import Atom, over_point_from_betti

SETTINGS = settings(derandomize=True, deadline=None, database=None)
GENUS_MAX = 2

LATTICES = [(1, [[1]]), (1, [[1], [2]]), (2, [[1, 0], [0, 1]]), (2, [[1, 0], [1, 1]])]
# denominators: 1, L - 1, t + 1, s + L, each as rows
DENS = [[[0, 0, 1]], [[2, 0, 1], [0, 0, -1]], [[1, 0, 1], [0, 0, 1]], [[0, 1, 1], [2, 0, 1]]]
EXPRS = [
    ({"kind": "betti_over_point", "bettis": [1]}, over_point_from_betti([1])),
    ({"kind": "betti_over_point", "bettis": [1, 0, 1]}, over_point_from_betti([1, 0, 1])),
    ({"kind": "atom", "name": "x", "dim": 1, "census": [[0, 2, 1], [-1, 1, 2]]}, Atom("x", 1, JordanCensus({(0, 2): 1, (-1, 1): 2}))),
]


def _poly(rows) -> LaurentPoly:
    out = {}
    for a, b, c in rows:
        out[(a, b)] = out.get((a, b), 0) + c
    return LaurentPoly(out)


@st.composite
def _part(draw):
    """A part as document and as (num, den, expr): mostly 1/(L - 1) on a point, the conifold's."""
    if draw(st.booleans()):
        num = [[0, 0, 1]]
    else:
        num = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 1), st.integers(-3, 3)), max_size=3))
    den = [[a, b, c * u] for a, b, c in draw(st.sampled_from(DENS[1:2] + DENS)) for u in [draw(st.sampled_from([1, -2, 3]))]]
    expr_doc, expr = draw(st.sampled_from(EXPRS[:1] + EXPRS))
    doc = {"coeff": {"num": [[a, b, str(c)] for a, b, c in num], "den": [[a, b, str(c)] for a, b, c in den]}, "expr": expr_doc}
    return doc, (_poly(num), _poly(den), expr)


# 1/(L - 1) on a point: the conifold's atom, whose counts are polynomials
CONIFOLD = (
    {"coeff": {"num": [[0, 0, "1"]], "den": [[2, 0, "1"], [0, 0, "-1"]]}, "expr": EXPRS[0][0]},
    (LaurentPoly.one(), _poly(DENS[1]), EXPRS[0][1]),
)


@st.composite
def _model(draw):
    """(document, target string, lattice, charge, model, target)."""
    rank, generators = draw(st.sampled_from(LATTICES))
    omega = [Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 2))) for _ in range(rank)]
    b_field = [Fraction(draw(st.sampled_from([0, 0, -1, 1])), 2) for _ in range(rank)]
    classes = [NumClass(beta, k) for beta in product(range(3), repeat=rank) for k in range(-1, 3)]
    atoms_doc, atoms = {}, {}
    for v in classes:
        if draw(st.integers(0, 9)):  # one class in ten has no atom
            parts = draw(st.one_of(st.just([CONIFOLD]), st.lists(_part(), max_size=2)))
            atoms_doc[",".join(map(str, (*v.beta, v.k)))] = [d for d, _ in parts]
            atoms[v] = tuple(p for _, p in parts)
    defects = {}
    for v, w in draw(st.lists(st.tuples(st.sampled_from(classes), st.sampled_from(classes)), max_size=4)):
        defects[frozenset((v, w))] = (v, w, draw(st.integers(-2, 2)))
    if draw(st.integers(0, 3)):  # mostly a class of the box, often one that splits
        target = draw(st.sampled_from([v for v in classes if any(v.beta) or v.k > 0]))
    else:
        target = NumClass(tuple(draw(st.integers(-2, 2)) for _ in range(rank)), draw(st.integers(-2, 2)))
    doc = {
        "v": 1,
        "kind": "count_model",
        "lattice": {"rank": rank, "generators": generators},
        "charge": {"B": [str(x) for x in b_field], "omega": [str(x) for x in omega]},
        "atoms": atoms_doc,
        "ext_defect": [[[*v.beta, v.k], [*w.beta, w.k], e] for v, w, e in defects.values()],
    }
    lattice, charge = ClassLattice(rank, generators), CentralCharge(b_field, omega)
    model = EvalModel(atoms, defects.values())
    return doc, ",".join(map(str, (*target.beta, target.k))), lattice, charge, model, target


def _gv(doc, target: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.count_model.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["gv", "--input", path, f"--target={target}", "--genus-max", str(GENUS_MAX), "--json"])
    assert code != EXIT_INTERNAL, err.getvalue()
    return code, out.getvalue(), err.getvalue()


def _exit_two_with_one_json_line(doc, target: str) -> None:
    code, out, err = _gv(doc, target)
    assert (code, out) == (EXIT_SCHEMA, "")
    lines = err.splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])["error"]) == {"type", "message"}


def _oracle(lattice, charge, target, model):
    """The exit code the oracles end with, and their count polynomial when it is 0."""
    try:
        poly = counting_polynomial_oracle(lattice, charge, target, model, Ledger())
        census_count(polynomial_census(poly), GENUS_MAX)
        return EXIT_OK, poly
    except GvmotError as exc:
        return exc.exit_code, None


def _ends_as_the_oracles_do(code, out, err, expected, poly):
    assert code == expected, err
    if code == EXIT_OK:
        printed = json.loads(out)["count_polynomial"]
        assert printed == json.loads(json.dumps(jsonio.rational_fn_to_json(poly)))
    else:
        assert out == "" and len(err.splitlines()) == 1


@settings(SETTINGS, max_examples=60)
@given(case=_model())
def test_valid_models_count_as_the_oracles_do(case):
    doc, target_key, lattice, charge, model, target = case
    _ends_as_the_oracles_do(*_gv(doc, target_key), *_oracle(lattice, charge, target, model))


# (num rows, ext defect of (0,1) with itself, target k): one part num/1 on a
# point on (0,1), 2 on (0,2), none on (0,3).  The word (0,1)(0,1) carries
# L^defect, so the words of (0,2) lie 2 defect apart in t, and the words of
# (0,3) over 6s + 6t^N spread over 3N: each spread is at least 10^5 slots
# against 3 terms
WIDE = [
    ([[0, 1, 6], [100_000, 0, 6]], 0, 3),  # 6s + 6t^(10^5)
    ([[0, 0, 2], [1, 0, 2]], 10**6, 2),
    ([[0, 0, 2], [1, 0, 2]], 10**9, 2),
]


def test_wide_t_spreads_are_summed_on_laurent_values():
    """A t-spread far wider than the parts' terms, from a sparse numerator or
    from a large ext defect (both unchecked document input), is summed on
    LaurentPoly values: the count is the oracles', and the run never holds an
    int as wide as the spread (a packed walk takes 14 MB on the first case,
    21 MB on the second and GBs on the third).  The cases run in order, so a
    layout rule that packed wide spreads fails before the third."""
    lattice, charge = ClassLattice(1, [[1]]), CentralCharge([Fraction(0)], [Fraction(1)])
    point_doc, point = EXPRS[0]
    for rows, defect, k in WIDE:
        v, w = NumClass((0,), 1), NumClass((0,), 2)
        model = EvalModel({v: ((_poly(rows), LaurentPoly.one(), point),), w: ((LaurentPoly.constant(2), LaurentPoly.one(), point),),
                           NumClass((0,), 3): ()}, [(v, v, defect)])
        doc = {
            "v": 1,
            "kind": "count_model",
            "lattice": {"rank": 1, "generators": [[1]]},
            "charge": {"B": ["0"], "omega": ["1"]},
            "atoms": {
                "0,1": [{"coeff": {"num": [[a, b, str(c)] for a, b, c in rows], "den": [[0, 0, "1"]]}, "expr": point_doc}],
                "0,2": [{"coeff": {"num": [[0, 0, "2"]], "den": [[0, 0, "1"]]}, "expr": point_doc}],
                "0,3": [],
            },
            "ext_defect": [[[0, 1], [0, 1], defect]],
        }
        expected = _oracle(lattice, charge, NumClass((0,), k), model)
        tracemalloc.start()
        try:
            ran = _gv(doc, f"0,{k}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _ends_as_the_oracles_do(*ran, *expected)
        assert peak < 1 << 20, (rows, defect, peak)


# (path to the field, wrong values for it)
WRONG = [
    (("v",), [2, "1", None]),
    (("kind",), ["count", None]),
    (("lattice", "rank"), [0, "1", 1.5, True, None]),
    (("lattice", "generators"), ["x", [[0]], [[1, 2, 3]], [["1"]], [1]]),
    (("charge", "omega"), [["0"], ["-1", "1"], ["x"], [1.5], [], None]),
    (("charge", "B"), [[None], ["1/0"], "0"]),
    (("atoms",), [[], "x", {"1": []}, {"a,1": []}, {"1,1,1,1": []}, {"1,1": {}}]),
    (("atoms", 0), [[{"coeff": {"num": [[0, 0, "1"]], "den": []}, "expr": EXPRS[0][0]}],
                    [{"coeff": {"num": [[0, 0, "1"]], "den": [[0, 0, "0"]]}, "expr": EXPRS[0][0]}],
                    [{"coeff": {"num": [[0, 0, "1.5"]], "den": [[0, 0, "1"]]}, "expr": EXPRS[0][0]}],
                    [{"coeff": {"num": [[0, -1, "1"]], "den": [[0, 0, "1"]]}, "expr": EXPRS[0][0]}],
                    [{"coeff": {"num": [], "den": [[0, 0, "1"]]}, "expr": {"kind": "soup"}}],
                    [{"coeff": {"num": [], "den": [[0, 0, "1"]]}}],
                    [{"coeff": {"num": [], "den": [[0, 0, "1"]]}, "expr": EXPRS[0][0], "extra": 1}]]),
    (("ext_defect",), ["x", [[1, 2]], [[[1, 1], [1, 1], "1"]], [[[1, 1], [1, 1], 1], [[1, 1], [1, 1], 2]],
                       [[[1, 1], [2, 1], 1], [[2, 1], [1, 1], 2]], [[[1], [1, 1], 1]]]),
]


@pytest.mark.parametrize("path, wrong", [(path, value) for path, values in WRONG for value in values])
@settings(SETTINGS, max_examples=2)
@given(case=_model())
def test_wrong_field_value_exits_two(path, wrong, case):
    doc, target = case[:2]
    if doc["lattice"]["rank"] == 2 and path[0] == "ext_defect":
        wrong = json.loads(json.dumps(wrong).replace("[1, 1]", "[1, 1, 1]").replace("[2, 1]", "[2, 1, 1]").replace("[1]", "[1, 1]"))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if path[-1] == 0:  # the first atom, whatever its class
        if not node:
            node["0,1" if doc["lattice"]["rank"] == 1 else "0,0,1"] = []
        node[next(iter(node))] = wrong
    else:
        node[path[-1]] = wrong
    _exit_two_with_one_json_line(doc, target)


@pytest.mark.parametrize("how", ["extra", "missing"])
@settings(SETTINGS, max_examples=4)
@given(case=_model(), data=st.data())
def test_wrong_field_set_exits_two(how, case, data):
    doc, target = case[:2]
    node = data.draw(st.sampled_from([doc, doc["lattice"], doc["charge"]]))
    if how == "extra":
        node["extra"] = 1
    else:
        del node[data.draw(st.sampled_from(sorted(k for k in node if k != "ext_defect")))]
    _exit_two_with_one_json_line(doc, target)


@pytest.mark.parametrize("target", ["", "1", "1,1,1,1", "a,1", "1.0,1", "1, 1", "+1,1", "1,,1"])
@settings(SETTINGS, max_examples=2)
@given(case=_model())
def test_malformed_target_exits_two(target, case):
    _exit_two_with_one_json_line(case[0], target)
