"""Acceptance gate: every criterion at its stated size and tolerance (exact).

Each test prints one PASS line; run with `pytest -s tests/test_acceptance.py`
to see them.  All comparisons are exact, no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

from gvmot import linalg
from gvmot.counting import (
    CentralCharge,
    ClassLattice,
    EvalModel,
    FreeHallElement,
    NumClass,
    counting_polynomial,
    evaluate,
    gv_from_polynomial,
    semistable_exp,
    semistable_log,
)
from gvmot.errors import AsymmetricDefectError
from gvmot.gwseries import GVTable, gv_to_gw, gw_to_gv
from gvmot.laurent import LaurentPoly, RationalFn, format_poly, weighted_degree
from gvmot.lefschetz import (
    census_count,
    census_from_bispin,
    genus_count,
    jordan_census,
    realize_bispin,
)
from gvmot.motives import (
    AbsMotive,
    BlowUpRel,
    dim,
    over_point_from_betti,
    point_atom,
    projective_bundle_value,
    blowup_relation_check,
    smooth_from_betti,
    upsilon_rel,
)
from gvmot.stacks import StackClass, quotient_by_special_group
from gvmot.verify import random_betti, random_bispin, random_pointed_setup, random_effective


def test_criterion_1_spin_route_equals_census_route():
    start = time.perf_counter()
    rng = random.Random(101)
    for _ in range(1000):
        v = random_bispin(rng, max_two_j=6, max_mult=5)
        assert [genus_count(v, g) for g in range(6)] == census_count(census_from_bispin(v), 5), v
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget is 10s"
    print(f"PASS criterion 1: both genus-count routes agree on 1000 random inputs ({elapsed:.2f}s)")


def conifold_setup():
    lattice = ClassLattice(1, [(1,)])
    charge = CentralCharge([Fraction(0)], [Fraction(1)])
    gm = AbsMotive.multiplicative_group()
    point_class = quotient_by_special_group(point_atom(), gm)
    atoms = {}
    for m in (1, 2, 3):
        for k in (1, -1):
            atoms[NumClass((m,), k)] = point_class if m == 1 else StackClass.zero()
    return lattice, charge, EvalModel(atoms)


def test_criterion_2_conifold_table():
    lattice, charge, model = conifold_setup()
    for m in (-3, -2, -1, 1, 2, 3):
        poly = counting_polynomial(lattice, charge, NumClass((m,), 1), model)
        for g in range(4):
            expected = 1 if (g == 0 and m in (1, -1)) else 0
            assert gv_from_polynomial(poly, g) == expected, (m, g)
    print("PASS criterion 2: conifold counts are 1 exactly at genus 0, classes +-1")


def test_criterion_3_worked_values_exact_strings():
    p2 = smooth_from_betti([1, 0, 1, 0, 1], 2)
    assert format_poly(upsilon_rel(p2)) == format_poly(LaurentPoly.s(2)) == "s^2"

    p1 = smooth_from_betti([1, 0, 1], 1)
    bundle = projective_bundle_value(p1, 2)
    expected_bundle = LaurentPoly({(0, 1): 1, (2, 1): 1})
    assert format_poly(bundle) == format_poly(expected_bundle) == "t^2*s + s"

    blow = BlowUpRel(ambient=p2, center=point_atom(), codim=2)
    expected_blow = LaurentPoly({(0, 2): 1, (2, 0): 1})
    assert format_poly(upsilon_rel(blow)) == format_poly(expected_blow) == "s^2 + t^2"
    print("PASS criterion 3: worked values match canonical strings exactly")


def test_criterion_4_blowup_relation_and_degree():
    rng = random.Random(104)
    for _ in range(200):
        r = rng.choice((2, 3, 4))
        dc = rng.randint(0, 2)
        center = smooth_from_betti(random_betti(rng, dc), dc)
        ambient = smooth_from_betti(random_betti(rng, dc + r), dc + r)
        assert blowup_relation_check(ambient, center, r)
        for expr in (ambient, center, BlowUpRel(ambient=ambient, center=center, codim=r)):
            value = upsilon_rel(expr)
            m = weighted_degree(value)
            assert m % 2 == 0
            assert m == 2 * dim(expr)
    print("PASS criterion 4: blow-up identity and even degree = 2 dim on 200 random trees")


def test_criterion_5_betti_shadow():
    rng = random.Random(105)
    lattice = ClassLattice(1, [(1,)])
    charge = CentralCharge([Fraction(0)], [Fraction(1)])
    gm = AbsMotive.multiplicative_group()
    v = NumClass((0,), 1)
    for _ in range(20):
        b2, b3 = rng.randint(0, 100), rng.randint(0, 100)
        bettis = [1, 0, b2, b3, b2, 0, 1]
        model = EvalModel({v: quotient_by_special_group(over_point_from_betti(bettis), gm)})
        value = counting_polynomial(lattice, charge, v, model)
        expected = RationalFn.from_poly(LaurentPoly({(i, 0): b for i, b in enumerate(bettis) if b}))
        assert value == expected, bettis
    print("PASS criterion 5: degree-zero count recovers the Poincare polynomial, 20 random cases")


def test_criterion_6_gw_transform():
    start = time.perf_counter()

    table = GVTable({(0, (1,)): 1}, 0, Fraction(10), (Fraction(1),))
    series = gv_to_gw(table, lambda_max=-2)
    for d in range(1, 11):
        assert series.coefficient((d,), -2) == Fraction(1, d**3), d

    rng = random.Random(106)
    for _ in range(200):
        entries = {}
        for _ in range(rng.randint(1, 6)):
            g = rng.randint(0, 3)
            beta = (rng.randint(1, 6),)
            n = rng.randint(-9, 9)
            if n:
                entries[(g, beta)] = n
        random_table = GVTable(entries, 3, Fraction(6), (Fraction(1),))
        round_tripped = gw_to_gv(gv_to_gw(random_table, lambda_max=4))
        assert not round_tripped.nonintegral
        assert round_tripped.table == random_table

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget is 30s"
    print(f"PASS criterion 6: conifold series exact and 200 round trips ({elapsed:.2f}s)")


def test_criterion_7_wall_crossing_combinatorics():
    rng = random.Random(107)

    # log/exp round trip on random pointed cones, rank <= 3, degree <= 5
    done = 0
    while done < 40:
        lattice, charge = random_pointed_setup(rng)
        beta = random_effective(rng, lattice, charge.omega, bound=5)
        if beta is None:
            continue
        v = NumClass(beta, rng.randint(-2, 2))
        assert semistable_exp(lattice, charge, v) == FreeHallElement.letter(v)
        assert (v,) in semistable_log(lattice, charge, v).words
        done += 1

    # commutators die for every symmetric defect table
    x = smooth_from_betti([1, 0, 1], 1)
    for _ in range(40):
        classes = [NumClass((i + 1,), rng.randint(-1, 2)) for i in range(3)]
        defects = []
        for i, a in enumerate(classes):
            for b in classes[i:]:
                defects.append((a, b, rng.randint(-2, 3)))
        model = EvalModel({c: StackClass.of_variety(x) for c in classes}, defects)
        f1 = FreeHallElement.letter(classes[0])
        f2 = FreeHallElement.letter(classes[1])
        assert evaluate(f1.commutator(f2), model) == RationalFn.zero()

    # asymmetric tables rejected at construction
    for _ in range(20):
        v1, v2 = NumClass((1,), 0), NumClass((2,), 1)
        e = rng.randint(0, 3)
        try:
            EvalModel({}, [(v1, v2, e), (v2, v1, e + 1)])
        except AsymmetricDefectError:
            continue
        raise AssertionError("asymmetric table accepted")

    print("PASS criterion 7: log/exp inverse, commutators vanish, asymmetry rejected")


def test_criterion_8_jordan_census():
    rng = random.Random(108)

    # conjugation invariance under 100 random graded basis changes, dims <= 8
    from gvmot.verify import random_graded_nilpotent

    for _ in range(100):
        op = random_graded_nilpotent(rng, max_dim=8)
        basis = {d: linalg.random_invertible(rng, n) for d, n in op.dims.items()}
        assert jordan_census(op) == jordan_census(op.conjugate(basis))

    # census of a realization equals the combinatorial census
    for _ in range(60):
        v = random_bispin(rng, 4, 2)
        assert jordan_census(realize_bispin(v)) == census_from_bispin(v)

    print("PASS criterion 8: census conjugation-invariant and realization-consistent")
