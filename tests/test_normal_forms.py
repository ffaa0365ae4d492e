"""The printed normal forms of stack classes and rank-1 count models.

A RationalFn whose parts hold s prints in no canonical form, only a compact
one, so the bytes `stack --json` and `gv --json` print for it are pinned
here.  The seeded documents have s terms, coefficients written as JSON
integers, "p" strings and "p/q" strings, and common factors planted in each
coefficient's numerator and denominator.  data/normal_forms.json keeps
each document's digest, exit code, and the sha256 of its stdout and stderr.
Regenerate it only on purpose:

    PYTHONPATH=src python tests/test_normal_forms.py > tests/data/normal_forms.json
"""

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import comb, factorial
from pathlib import Path

from gvmot.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "normal_forms.json"

# factors planted in both parts of a coefficient: L - 1, L + 1, 1 + s, t, 2, s + L, 3t^-1
FACTORS = [
    {(2, 0): 1, (0, 0): -1},
    {(2, 0): 1, (0, 0): 1},
    {(0, 0): 1, (0, 1): 1},
    {(1, 0): 1},
    {(0, 0): 2},
    {(0, 1): 1, (2, 0): 1},
    {(-1, 0): 3},
]
EXPRS = [
    {"kind": "betti_over_point", "bettis": [1]},
    {"kind": "betti_over_point", "bettis": [1, 0, 1]},
    {"kind": "betti_over_point", "bettis": [1, 0, 2, 0, 1]},
    {"kind": "betti_over_point", "bettis": [1, 0, 3, 8, 3, 0, 1]},
    {"kind": "betti", "bettis": [1, 0, 1], "dim": 1},
]


def _product(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a, b), c in p.items():
        for (x, y), d in q.items():
            out[(a + x, b + y)] = out.get((a + x, b + y), 0) + c * d
    return {k: v for k, v in out.items() if v}


def _poly(rng, terms: int) -> dict:
    """A nonzero polynomial of up to terms terms, t exponents -1..3 and s exponents 0..2."""
    return {(rng.randint(-1, 3), rng.choice([0, 0, 1, 2])): rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(1, terms))}


def _written(rng, c: int):
    """c as a JSON integer, a "p" string or a "p/q" string whose value is c."""
    form = rng.randrange(3)
    if form == 0:
        return c
    if form == 1:
        return str(c)
    q = rng.randint(2, 4)
    return f"{c * q}/{q}"


def _rows(rng, p: dict) -> list:
    rows = [[a, b, _written(rng, c)] for (a, b), c in p.items()]
    rng.shuffle(rows)
    return rows


def _coeff(rng) -> dict:
    """num = f g and den = f h for a planted factor f, or a product of two."""
    factor = rng.choice(FACTORS)
    if rng.random() < 0.3:
        factor = _product(factor, rng.choice(FACTORS))
    num = _product(factor, _poly(rng, 3)) if rng.random() < 0.9 else {}
    den = _product(factor, _poly(rng, 2))
    return {"num": _rows(rng, num), "den": _rows(rng, den)}


def _parts(rng, most: int) -> list:
    return [{"coeff": _coeff(rng), "expr": rng.choice(EXPRS)} for _ in range(rng.randint(1, most))]


def _tower_parts(rng, j: int, p: dict) -> list:
    """The atom of (0,j) in the closed-form degree-zero tower of a Poincare polynomial p: one part
    per n <= j, C(j-1, n-1) / (n! (L-1)^n) times the variety of P^n, a factor planted in each part."""
    parts, pn, gmn = [], {(0, 0): 1}, {(0, 0): 1}
    for n in range(1, j + 1):
        pn, gmn = _product(pn, p), _product(gmn, FACTORS[0])
        factor = rng.choice(FACTORS)
        num = _product(factor, {(0, 0): comb(j - 1, n - 1)})
        den = _product(factor, {key: c * factorial(n) for key, c in gmn.items()})
        bettis = [pn.get((i, 0), 0) for i in range(max(a for a, _ in pn) + 1)]
        parts.append({"coeff": {"num": _rows(rng, num), "den": _rows(rng, den)}, "expr": {"kind": "betti_over_point", "bettis": bettis}})
    return parts


def _small_parts(rng) -> list:
    """One or two parts whose coefficients hold s: g f / (c (L-1) f) for a small g and constant c."""
    parts = []
    for _ in range(rng.randint(1, 2)):
        factor = rng.choice(FACTORS)
        num = _product(factor, _poly(rng, 2))
        den = _product(factor, {key: c * rng.choice([1, 1, 2, -3]) for key, c in FACTORS[0].items()})
        parts.append({"coeff": {"num": _rows(rng, num), "den": _rows(rng, den)}, "expr": rng.choice(EXPRS[:3])})
    return parts


def documents():
    """(name, document, argv) triples: 60 stack classes, then 40 rank-1 count models of
    degree-zero towers, half the closed-form towers and half atoms with s."""
    rng = random.Random(3202)
    cases = []
    for i in range(60):
        doc = {"v": 1, "kind": "stack_class", "parts": _parts(rng, 3)}
        cases.append((f"stack {i}", doc, ["stack", "--json"]))
    for i in range(40):
        k = rng.randint(1, 4) if i % 2 else rng.randint(1, 2)
        if i % 2:
            p = {(0, 0): 1, (2, 0): rng.randint(0, 3), (4, 0): 1}
            atoms = {f"0,{j}": _tower_parts(rng, j, p) for j in range(1, k + 1)}
        else:
            atoms = {f"0,{j}": _small_parts(rng) for j in range(1, k + 1)}
        doc = {
            "v": 1,
            "kind": "count_model",
            "lattice": {"rank": 1, "generators": [[1]]},
            "charge": {"B": ["0"], "omega": ["1"]},
            "atoms": atoms,
        }
        cases.append((f"gv {i}", doc, ["gv", "--json", "--target", f"0,{k}"]))
    return cases


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _outcomes(tmp: Path) -> list[dict]:
    """Each document's digest, exit code and the digests of what it printed, from the code on the path."""
    path = tmp / "doc.json"
    out = []
    for name, doc, argv in documents():
        text = json.dumps(doc, sort_keys=True)
        path.write_text(text)
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main([*argv, "--input", str(path)])
        out.append({"name": name, "digest": _sha(text), "code": code, "stdout": _sha(stdout.getvalue()), "stderr": _sha(stderr.getvalue())})
    return out


def test_printed_normal_forms(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert _outcomes(tmp_path) == golden
    codes = [entry["code"] for entry in golden]
    assert len(codes) == 100 and codes.count(0) >= 50


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        json.dump(_outcomes(Path(tmp)), sys.stdout, indent=1)
    print()
