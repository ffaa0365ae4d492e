"""Counts follow a change of the class lattice.

Motivic GV invariants do not change under a birational map once curve
classes are identified through it (arXiv:0707.1643).  In a count model an
identification of classes is one of two symmetries, and counting_polynomial
must give the same value after either:

- a unimodular change of basis M, beta -> M beta on the generators, the atoms,
  the defects and the target, with omega -> omega M^-1 and B -> B M^-1;
- a line-bundle shift by l, k -> k + l.beta, with B -> B + l.

Both keep every central charge.  Values are compared, not ledger spends,
since the size of the walk depends on the basis.  The GV/GW series transform
follows the first too, as its cuts read omega-degrees only.
"""

import itertools
import json
import random
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest

from gvmot import cli, jsonio
from gvmot.counting import CentralCharge, ClassLattice, EvalModel, NumClass, counting_polynomial, same_phase_decompositions
from gvmot.errors import NotEffectiveError
from gvmot.gwseries import GVTable, gv_to_gw, gw_to_gv
from gvmot.verify import random_atom_class, random_effective, random_pointed_setup

SAMPLES = Path(__file__).resolve().parent.parent / "sample_data"


def _unimodular(rng: random.Random, rank: int):
    """A random M of determinant +-1, from column operations and sign flips, and M^-1."""
    m = [[int(i == j) for j in range(rank)] for i in range(rank)]
    inverse = [row[:] for row in m]
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(rank)
        j = rng.randrange(rank)
        if i == j or rng.random() < 0.3:
            # column i of M negated; row i of M^-1 likewise
            for row in m:
                row[i] = -row[i]
            inverse[i] = [-x for x in inverse[i]]
        else:
            # column i of M plus c times column j; row j of M^-1 less c times row i
            c = rng.choice([-2, -1, 1, 2])
            for row in m:
                row[i] += c * row[j]
            inverse[j] = [x - c * y for x, y in zip(inverse[j], inverse[i])]
    assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inverse)] for row in m] == [
        [int(i == j) for j in range(rank)] for i in range(rank)
    ]
    return m, inverse


def _apply(m, beta):
    return tuple(sum(a * b for a, b in zip(row, beta)) for row in m)


def _row_times(vector, m):
    return tuple(sum(v * row[j] for v, row in zip(vector, m)) for j in range(len(m[0])))


def _seeded_models(seed: int, cases: int):
    """Seeded pointed setups, each with a target of either sign and a model with an atom
    on every piece of the target's decompositions and symmetric defects in -2..3."""
    rng = random.Random(seed)
    while cases:
        lattice, charge = random_pointed_setup(rng)
        beta = random_effective(rng, lattice, charge.omega, bound=4)
        if beta is None:
            continue
        # k = B.beta makes Re Z vanish, so the class splits in many ways
        k = int(sum(b * c for b, c in zip(charge.b_field, beta))) if rng.random() < 0.5 else rng.randint(-2, 2)
        v = NumClass(beta, k) if rng.random() < 0.5 else -NumClass(beta, k)
        words = []
        for w in (v, -v):
            try:
                words += same_phase_decompositions(lattice, charge, w)
            except NotEffectiveError:
                pass
        pieces = sorted({piece for word in words for piece in word})
        atoms = {p: random_atom_class(rng) for p in pieces}
        defects = [(p, q, rng.randint(-2, 3)) for i, p in enumerate(pieces) for q in pieces[i:]]
        cases -= 1
        yield rng, lattice, charge, v, atoms, defects, len(words)


def _count(lattice, charge, v, atoms, defects, move):
    """counting_polynomial after every class is moved by move."""
    model = EvalModel({move(p): a for p, a in atoms.items()}, [(move(p), move(q), e) for p, q, e in defects])
    return counting_polynomial(lattice, charge, move(v), model)


def test_change_of_basis_keeps_the_count():
    several = 0
    for rng, lattice, charge, v, atoms, defects, words in _seeded_models(5, 60):
        m, inverse = _unimodular(rng, lattice.rank)
        moved_lattice = ClassLattice(lattice.rank, [_apply(m, g) for g in lattice.generators])
        moved_charge = CentralCharge(_row_times(charge.b_field, inverse), _row_times(charge.omega, inverse))
        before = _count(lattice, charge, v, atoms, defects, lambda p: p)
        after = _count(moved_lattice, moved_charge, v, atoms, defects, lambda p: NumClass(_apply(m, p.beta), p.k))
        assert after == before, (lattice.generators, charge, v, m)
        several += words > 1
    assert several >= 5  # counts of more than one word, so that the walk is exercised


def test_line_bundle_shift_keeps_the_count():
    several = 0
    for rng, lattice, charge, v, atoms, defects, words in _seeded_models(11, 60):
        shift = [rng.randint(-2, 2) for _ in range(lattice.rank)]
        moved_charge = CentralCharge([b + l for b, l in zip(charge.b_field, shift)], charge.omega)
        before = _count(lattice, charge, v, atoms, defects, lambda p: p)
        after = _count(lattice, moved_charge, v, atoms, defects, lambda p: NumClass(p.beta, p.k + sum(l * b for l, b in zip(shift, p.beta))))
        assert after == before, (lattice.generators, charge, v, shift)
        several += words > 1
    assert several >= 5


@pytest.mark.parametrize("target", ["1,1", "1,-1", "2,1", "-1,1", "-1,-1"])
def test_conifold_reflected_gives_the_same_count_polynomial(capsys, tmp_path, target):
    # the flop's reflection M = (-1) of the rank-1 conifold: generators, atoms and target
    # negated in beta, with omega -> -omega and B -> -B
    doc = json.loads((SAMPLES / "conifold.count_model.json").read_text())
    negated = lambda key: ",".join([str(-int(key.split(",")[0])), key.split(",")[1]])
    reflected = dict(doc)
    reflected["lattice"] = {"rank": 1, "generators": [[-g[0]] for g in doc["lattice"]["generators"]]}
    reflected["charge"] = {name: [str(-Fraction(x)) for x in values] for name, values in doc["charge"].items()}
    reflected["atoms"] = {negated(key): parts for key, parts in doc["atoms"].items()}
    assert not doc["ext_defect"]
    path = tmp_path / "reflected.count_model.json"
    path.write_text(json.dumps(reflected))

    def count_polynomial(path, target):
        assert cli.main(["gv", "--input", str(path), f"--target={target}", "--json"]) == 0
        return json.loads(capsys.readouterr().out)["count_polynomial"]

    before = count_polynomial(SAMPLES / "conifold.count_model.json", target)
    assert count_polynomial(path, negated(target)) == before


def _moved_table(table, m, inverse):
    """The table with every class beta moved to M beta, and omega to omega M^-1."""
    entries = {(g, _apply(m, beta)): n for (g, beta), n in table.entries.items()}
    return GVTable(entries, table.genus_max, table.degree_max, _row_times(table.omega, inverse))


def _check_transform_follows(table, m, inverse):
    moved = _moved_table(table, m, inverse)
    series = gv_to_gw(table)
    assert series.coeffs  # something to move
    assert gv_to_gw(moved).coeffs == {(_apply(m, beta), lam): c for (beta, lam), c in series.coeffs.items()}
    back = gw_to_gv(gv_to_gw(moved))
    assert back.table.entries == moved.entries and not back.nonintegral


def _seeded_tables(seed: int, cases: int):
    """Seeded rank-2 and rank-3 tables, each with a unimodular M and M^-1."""
    rng = random.Random(seed)
    for case in range(cases):
        rank = 2 + case % 2
        omega = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(rank)]
        degree_max = Fraction(rng.randint(3, 6))
        classes = [beta for beta in itertools.product(range(-1, 4), repeat=rank) if 0 < sum(map(mul, omega, beta)) <= degree_max]
        entries = {(rng.randint(0, 2), rng.choice(classes)): rng.choice([-3, -2, -1, 1, 2, 5]) for _ in range(rng.randint(1, 6))}
        yield GVTable(entries, 2, degree_max, omega), *_unimodular(rng, rank)


def test_series_transform_follows_a_change_of_basis():
    for table, m, inverse in _seeded_tables(13, 40):
        _check_transform_follows(table, m, inverse)


@pytest.mark.parametrize(
    "m, inverse",
    [([[1, 1], [0, 1]], [[1, -1], [0, 1]]), ([[-1, 0], [0, 1]], [[-1, 0], [0, 1]]), ([[2, 1], [1, 1]], [[1, -1], [-1, 2]])],
    ids=["shear", "reflection", "cat-map"],
)
def test_rank2_sample_transform_follows_a_change_of_basis(m, inverse):
    kind, table = jsonio.load_path(str(SAMPLES / "rank2_multiples.gv_table.json"))
    assert kind == "gv_table"
    _check_transform_follows(table, m, inverse)
