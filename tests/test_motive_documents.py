"""Generated motive documents, read against the motives constructors.

Seeded hypothesis runs (derandomize) build motive expression trees of every
kind, at most six levels deep, together with what the motives constructors
give for the same tree: its value, or the error they raise first, depth
first and left to right.  A valid tree must read to exactly that outcome.
A tree with one malformed field, field set or kind must make
`gvmot upsilon --json` exit 2 with one JSON line on stderr.
"""

import contextlib
import io
import json
import os
import tempfile
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvmot import cli, motives
from gvmot.errors import EXIT_SCHEMA, GvmotError
from gvmot.jsonio import parse_document
from gvmot.laurent import LaurentPoly
from gvmot.lefschetz import JordanCensus

KINDS = ["atom", "betti", "betti_over_point", "sum", "diff", "int_scale", "abs_product", "proj_bundle", "blow_up", "fibration", "finite_push"]
LEVELS = 6
SETTINGS = settings(derandomize=True, deadline=None, database=None)


def _outcome(build, *args):
    """What the constructors give for build(*args): the first error an argument
    carries, else build's value or the error it raises, as ("error", type, message)."""
    for arg in args:
        if isinstance(arg, tuple) and arg[0] == "error":
            return arg
    try:
        return build(*args)
    except GvmotError as exc:
        return ("error", type(exc).__name__, str(exc))


def _read(doc):
    try:
        return parse_document({"v": 1, "kind": "motive", "expr": doc})[1]
    except GvmotError as exc:
        return ("error", type(exc).__name__, str(exc))


SMALL = st.integers(-3, 3)


@st.composite
def _atom(draw):
    cells = draw(st.dictionaries(st.tuples(SMALL, st.integers(1, 3)), SMALL.filter(bool), max_size=3))
    name, dim = draw(st.sampled_from(["a", "b", "pt"])), draw(st.integers(0, 3))
    doc = {"kind": "atom", "name": name, "dim": dim, "census": [[a, l, n] for (a, l), n in cells.items()]}
    return doc, _outcome(motives.Atom, name, dim, JordanCensus(cells))


@st.composite
def _betti(draw):
    # steps of two that never fall up to the middle, mirrored: mostly a smooth projective space
    d = draw(st.integers(0, 2))
    half = draw(st.lists(st.integers(0, 2), min_size=d + 1, max_size=d + 1))
    for i in range(2, d + 1):
        half[i] += half[i - 2]
    bettis = half + half[-2::-1] if draw(st.booleans()) else draw(st.lists(st.integers(0, 2), min_size=1, max_size=5))
    return {"kind": "betti", "bettis": bettis, "dim": d}, _outcome(motives.smooth_from_betti, bettis, d)


@st.composite
def _betti_over_point(draw):
    half = draw(st.lists(st.integers(0, 3), max_size=2))
    bettis = half + [draw(st.integers(0, 3))] + half[::-1]
    return {"kind": "betti_over_point", "bettis": bettis}, _outcome(motives.over_point_from_betti, bettis)


_GROUPS = [
    ({"group": "point"}, motives.AbsMotive.point()),
    ({"group": "affine_line"}, motives.AbsMotive.affine_line()),
    ({"group": "gm"}, motives.AbsMotive.multiplicative_group()),
    ({"group": "gl", "n": 2}, motives.AbsMotive.general_linear(2)),
    ({"poly": [[0, 0, "1"], [4, 0, "-2"]]}, motives.AbsMotive(LaurentPoly({(0, 0): 1, (4, 0): -2}))),
    ({"poly": [[2, 0, "3"]], "name": "F"}, motives.AbsMotive(LaurentPoly({(2, 0): 3}), "F")),
]
_abs = st.sampled_from(_GROUPS)


@lru_cache(maxsize=None)
def _tree(levels: int, kinds: tuple[str, ...] = tuple(KINDS)):
    """A tree with a root of one of kinds, at most levels deep: (document, outcome)."""
    leaves = {"atom": _atom(), "betti": _betti(), "betti_over_point": _betti_over_point()}
    if levels == 1:
        return st.one_of([leaves[k] for k in kinds if k in leaves])
    sub = _tree(levels - 1)
    nodes = {
        **leaves,
        "sum": st.lists(sub, max_size=3).map(lambda ts: ({"kind": "sum", "terms": [d for d, _ in ts]}, _outcome(lambda *v: motives.Sum(v), *[o for _, o in ts]))),
        "diff": st.tuples(sub, sub).map(lambda p: ({"kind": "diff", "left": p[0][0], "right": p[1][0]}, _outcome(motives.Diff, p[0][1], p[1][1]))),
        "int_scale": st.tuples(SMALL, sub).map(lambda p: ({"kind": "int_scale", "factor": p[0], "expr": p[1][0]}, _outcome(motives.IntScale, p[0], p[1][1]))),
        "abs_product": st.tuples(_abs, sub).map(lambda p: ({"kind": "abs_product", "abs": p[0][0], "expr": p[1][0]}, _outcome(motives.AbsProduct, p[0][1], p[1][1]))),
        "proj_bundle": st.tuples(sub, st.integers(0, 3)).map(lambda p: ({"kind": "proj_bundle", "expr": p[0][0], "fiber_rank": p[1]}, _outcome(motives.ProjBundle, p[0][1], p[1]))),
        "blow_up": st.tuples(sub, sub, st.integers(1, 3)).map(
            lambda p: ({"kind": "blow_up", "ambient": p[0][0], "center": p[1][0], "codim": p[2]}, _outcome(motives.BlowUpRel, p[0][1], p[1][1], p[2]))
        ),
        "fibration": st.tuples(sub, _abs).map(lambda p: ({"kind": "fibration", "expr": p[0][0], "fiber": p[1][0]}, _outcome(motives.Fibration, p[0][1], p[1][1]))),
        "finite_push": sub.map(lambda t: ({"kind": "finite_push", "expr": t[0]}, _outcome(motives.FinitePush, t[1]))),
    }
    return st.one_of([nodes[k] for k in kinds])


FIELDS = {
    "atom": ("name", "dim", "census"),
    "betti": ("bettis", "dim"),
    "betti_over_point": ("bettis",),
    "sum": ("terms",),
    "diff": ("left", "right"),
    "int_scale": ("factor", "expr"),
    "abs_product": ("abs", "expr"),
    "proj_bundle": ("expr", "fiber_rank"),
    "blow_up": ("ambient", "center", "codim"),
    "fibration": ("expr", "fiber"),
    "finite_push": ("expr",),
}
NESTED = ("left", "right", "expr", "ambient", "center")

# fields that hold the same sort of value, and wrong values for them
WRONG = [
    (("dim", "factor", "fiber_rank", "codim"), [None, "1", 1.5, True, [], {}]),
    (("name",), [None, 1, [], {}]),
    (("census",), ["x", None, [[0, 0, 1]], [[0, 1]], [["0", 1, 1]], [[0, 1, 1.0]]]),
    (("bettis",), ["x", None, [1, "0", 1], [1.0], {}]),
    (("terms",), ["x", None, {}, [None], [{}]]),
    (NESTED, [None, 1, "atom", [], {}, {"kind": "soup"}, {"kind": ["atom"]}, {"kind": {"x": 1}}, {"kind": "atom"}]),
    (("abs", "fiber"), [None, {}, {"group": "sl"}, {"group": {"x": 1}}, {"group": ["gm"]}, {"group": "gl"}, {"group": "gl", "n": 0}, {"poly": [[0, 1, "1"]]}, {"poly": [[0, 0, "1"]], "name": 3}]),
]


def _nodes(doc):
    """Every expression node of a valid tree, depth first."""
    out, stack = [], [doc]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(v for k, v in node.items() if k in NESTED)
        stack.extend(node.get("terms", []))
    return out


def _exit_two_with_one_json_line(doc):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.motive.json")
        with open(path, "w") as handle:
            json.dump({"v": 1, "kind": "motive", "expr": doc}, handle)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["upsilon", "--input", path, "--json"])
    assert (code, out.getvalue()) == (EXIT_SCHEMA, "")
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])["error"]) == {"type", "message"}


@pytest.mark.parametrize("kind", KINDS)
@settings(SETTINGS, max_examples=6)
@given(data=st.data())
def test_valid_trees_read_to_the_constructors_outcome(kind, data):
    doc, outcome = data.draw(_tree(LEVELS, (kind,)))
    assert _read(doc) == outcome


@pytest.mark.parametrize("fields, wrong", [(fields, value) for fields, values in WRONG for value in values])
@settings(SETTINGS, max_examples=3)
@given(data=st.data())
def test_wrong_field_value_exits_two(fields, wrong, data):
    field = data.draw(st.sampled_from(fields))
    doc = data.draw(_tree(LEVELS, tuple(k for k in KINDS if field in FIELDS[k])))[0]
    node = data.draw(st.sampled_from([n for n in _nodes(doc) if field in n]))
    node[field] = wrong
    _exit_two_with_one_json_line(doc)


@pytest.mark.parametrize("how", ["extra", "missing", "kind"])
@settings(SETTINGS, max_examples=6)
@given(data=st.data())
def test_wrong_field_set_or_kind_exits_two(how, data):
    doc = data.draw(_tree(LEVELS))[0]
    node = data.draw(st.sampled_from(_nodes(doc)))
    if how == "extra":
        node["extra"] = 1
    elif how == "missing":
        del node[data.draw(st.sampled_from(sorted(node)))]
    else:
        node["kind"] = data.draw(st.sampled_from(["soup", "", ["atom"], {"x": 1}, None, 3, "betti_variety"]))
    _exit_two_with_one_json_line(doc)
