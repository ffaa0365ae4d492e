"""The 2sin transform: exact expansion, truncation, and triangular inversion."""

import json
import random
from fractions import Fraction
from functools import cache
from itertools import product

import pytest

from gvmot.cli import EXIT_OK, main
from gvmot.errors import ConeNotPointedError, InsufficientTruncationError
from gvmot.gwseries import (
    GVTable,
    GWSeries,
    gv_to_gw,
    gw_to_gv,
    sin_power_coefficient,
)
from gvmot.linalg import dot
from gvmot.verify import _oracle_sin_power, prop_inverse_is_solution, random_gv_table, random_gw_series

ONE = (Fraction(1),)

_sin = cache(sin_power_coefficient)


def push_oracle(acc, g, beta, n, omega, degree_max, lambda_max):
    """Per-entry multiple-cover kernel: add n c(g, j) k^{2g-3+2j} at (k beta, 2g-2+2j) inside the cuts."""
    for k in range(1, max(int(degree_max // dot(omega, beta)), 0) + 1):
        kbeta = tuple(k * b for b in beta)
        for j in range(max((lambda_max - 2 * g + 2) // 2 + 1, 0)):
            key = (kbeta, 2 * g - 2 + 2 * j)
            acc[key] = acc.get(key, 0) + n * _sin(g, j) * Fraction(k) ** (2 * g - 3 + 2 * j)


def forward_oracle(table, degree_max, lambda_max):
    """Push every table entry through the per-entry kernel."""
    acc = {}
    for (g, beta), n in table.entries.items():
        push_oracle(acc, g, beta, n, table.omega, degree_max, lambda_max)
    return {key: c for key, c in acc.items() if c}


def inverse_oracle(series, genus_max, degree_max):
    """Solve multiples of support classes in (omega-degree, beta) order, genus ascending, pushing every value."""
    candidates = {
        tuple(k * b for b in beta)
        for beta, _ in series.coeffs
        for k in range(1, max(int(degree_max // dot(series.omega, beta)), 0) + 1)
    }
    covers, values = {}, {}
    for beta in sorted(candidates, key=lambda b: (dot(series.omega, b), b)):
        for g in range(genus_max + 1):
            value = series.coefficient(beta, 2 * g - 2) - covers.get((beta, 2 * g - 2), 0)
            if value:
                push_oracle(covers, g, beta, value, series.omega, degree_max, 2 * genus_max - 2)
                values[(g, beta)] = value
    return values


def random_table(rng):
    """Rank 1 or 2, omega entries drawn from 1/2..3, up to six entries of genus up to 3."""
    rank = rng.randint(1, 2)
    omega = tuple(Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(rank))
    degree_max = Fraction(rng.randint(3, 8))
    genus_max = rng.randint(0, 3)
    classes = [beta for beta in product(range(-1, 5), repeat=rank) if 0 < dot(omega, beta) <= degree_max]
    entries = {
        (rng.randint(0, genus_max), rng.choice(classes)): rng.randint(-9, 9)
        for _ in range(rng.randint(0, 6))
    }
    return GVTable(entries, genus_max, degree_max, omega)


class TestSinPowerCoefficients:
    def test_leading_coefficients_are_one(self):
        for g in range(5):
            assert sin_power_coefficient(g, 0) == 1

    def test_genus_zero_subleading(self):
        # (2 sin(u/2))^-2 = u^-2 + 1/12 + ... : frozen from the composition oracle
        oracle = _oracle_sin_power(0, 1, 8)
        assert sin_power_coefficient(0, 1) == Fraction(1, 12) == oracle[0]
        assert sin_power_coefficient(0, 2) == oracle[2]

    def test_genus_one_is_constant_one(self):
        assert sin_power_coefficient(1, 0) == 1
        for j in range(1, 6):
            assert sin_power_coefficient(1, j) == 0

    def test_against_composition_oracle(self):
        for g in range(4):
            for k in range(1, 6):
                oracle = _oracle_sin_power(g, k, 8)
                for j in range(4):
                    e = 2 * g - 2 + 2 * j
                    assert oracle.get(e, Fraction(0)) == sin_power_coefficient(g, j) * Fraction(k) ** e


class TestForward:
    def test_empty_table(self):
        t = GVTable({}, 3, Fraction(6), ONE)
        assert gv_to_gw(t, lambda_max=4).coeffs == {}

    def test_conifold_cubes(self):
        t = GVTable({(0, (1,)): 1}, 0, Fraction(10), ONE)
        s = gv_to_gw(t, lambda_max=-2)
        for d in range(1, 11):
            assert s.coefficient((d,), -2) == Fraction(1, d**3)

    def test_genus_one_reciprocals(self):
        t = GVTable({(1, (1,)): 1}, 1, Fraction(7), ONE)
        s = gv_to_gw(t, lambda_max=0)
        for k in range(1, 8):
            assert s.coefficient((k,), 0) == Fraction(1, k)
        assert all(lam == 0 for (_, lam) in s.coeffs)

    def test_linearity(self):
        rng = random.Random(61)
        for _ in range(30):
            t1, t2 = random_gv_table(rng), random_gv_table(rng)
            merged = dict(t1.entries)
            for key, n in t2.entries.items():
                merged[key] = merged.get(key, 0) + n
            total = GVTable(merged, 3, Fraction(6), ONE)
            summed = {}
            for s in (gv_to_gw(t1, lambda_max=4), gv_to_gw(t2, lambda_max=4)):
                for key, c in s.coeffs.items():
                    summed[key] = summed.get(key, Fraction(0)) + c
            summed = {k: c for k, c in summed.items() if c}
            assert summed == gv_to_gw(total, lambda_max=4).coeffs

    def test_nonpositive_degree_rejected(self):
        with pytest.raises(ConeNotPointedError):
            GVTable({(0, (-1,)): 1}, 0, Fraction(5), ONE)


class TestInverse:
    def test_single_primitive_coefficient(self):
        s = GWSeries({((1,), -2): Fraction(1)}, Fraction(1), -2, ONE)
        result = gw_to_gv(s)
        assert result.table.entries == {(0, (1,)): 1}
        assert not result.nonintegral

    def test_conifold_column_inverts(self):
        coeffs = {((d,), -2): Fraction(1, d**3) for d in range(1, 7)}
        s = GWSeries(coeffs, Fraction(6), -2, ONE)
        result = gw_to_gv(s)
        assert result.table.entries == {(0, (1,)): 1}
        assert not result.nonintegral

    def test_roundtrip_random_tables(self):
        rng = random.Random(62)
        for _ in range(100):
            table = random_gv_table(rng)
            series = gv_to_gw(table, lambda_max=2 * table.genus_max - 2)
            result = gw_to_gv(series)
            assert not result.nonintegral
            assert result.table == table

    def test_roundtrip_with_extra_lambda_orders(self):
        # storing orders beyond the minimum must not disturb the solve
        rng = random.Random(64)
        for _ in range(30):
            table = random_gv_table(rng)
            series = gv_to_gw(table, lambda_max=2 * table.genus_max + 4)
            result = gw_to_gv(series, genus_max=table.genus_max)
            assert not result.nonintegral
            assert result.table == table

    def test_rank_two_roundtrip(self):
        rng = random.Random(63)
        omega = (Fraction(1), Fraction(2))
        for _ in range(30):
            entries = {}
            for _ in range(rng.randint(1, 5)):
                g = rng.randint(0, 2)
                beta = (rng.randint(0, 3), rng.randint(0, 2))
                if beta == (0, 0):
                    continue
                n = rng.randint(-5, 5)
                if n and sum(w * b for w, b in zip(omega, beta)) <= 8:
                    entries[(g, beta)] = n
            table = GVTable(entries, 2, Fraction(8), omega)
            series = gv_to_gw(table, lambda_max=2)
            assert gw_to_gv(series).table == table

    def test_cancelled_column_recovered_through_closure(self):
        # n_0 at 2e tuned so the (2e, -2) coefficient vanishes entirely
        table = GVTable({(0, (1,)): 8, (0, (2,)): -1}, 0, Fraction(2), ONE)
        series = gv_to_gw(table, lambda_max=-2)
        assert series.coefficient((2,), -2) == 0
        result = gw_to_gv(series)
        assert result.table == table

    def test_inverse_is_a_solution(self):
        # rational series solved below their genus and degree cuts, scaled by
        # the lcm of the solved denominators, map forward onto the scaled series;
        # the generator must reach nonintegral solutions for that to mean much
        rng = random.Random(65)
        assert sum(bool(gw_to_gv(random_gw_series(rng)).nonintegral) for _ in range(100)) > 20
        assert prop_inverse_is_solution(random.Random(65), 1) == 100

    def test_nonintegral_reported_not_rounded(self):
        s = GWSeries({((1,), -2): Fraction(1, 2)}, Fraction(1), -2, ONE)
        result = gw_to_gv(s)
        assert result.table.entries == {}
        assert result.nonintegral == {(0, (1,)): Fraction(1, 2)}

    def test_insufficient_truncation(self):
        s = GWSeries({((1,), -2): Fraction(1)}, Fraction(1), -2, ONE)
        with pytest.raises(InsufficientTruncationError):
            gw_to_gv(s, genus_max=1)
        with pytest.raises(InsufficientTruncationError):
            gw_to_gv(s, degree_max=5)


class TestValidation:
    def test_zero_class_rejected(self):
        with pytest.raises(ValueError):
            GVTable({(0, (0,)): 1}, 0, Fraction(3), ONE)

    def test_lambda_parity_enforced(self):
        with pytest.raises(ValueError):
            GWSeries({((1,), -1): Fraction(1)}, Fraction(2), 0, ONE)

    def test_beyond_cut_rejected(self):
        with pytest.raises(ValueError):
            GVTable({(0, (7,)): 1}, 0, Fraction(6), ONE)


class TestPushOracle:
    """The per-class kernel against the per-entry push it replaced."""

    def test_forward_matches_oracle(self):
        rng = random.Random(66)
        for _ in range(300):
            table = random_table(rng)
            degree_max = table.degree_max - rng.choice([0, 0, Fraction(1, 2), 2])
            lambda_max = rng.randint(-2, 2 * table.genus_max + 2)
            got = gv_to_gw(table, degree_max=degree_max, lambda_max=lambda_max)
            assert got.coeffs == forward_oracle(table, degree_max, lambda_max), (table.entries, table.omega)

    def test_inverse_matches_oracle(self):
        rng = random.Random(67)
        nonintegral = 0
        for case in range(300):
            if case % 2:
                series = random_gw_series(rng)
            else:
                table = random_table(rng)
                series = gv_to_gw(table, lambda_max=rng.randint(-2, 2 * table.genus_max + 2))
            genus_max = rng.randint(-1, (series.lambda_max + 2) // 2)
            degree_max = series.degree_max - rng.choice([0, 0, 1, Fraction(5, 2)])
            result = gw_to_gv(series, genus_max=genus_max, degree_max=degree_max)
            expected = inverse_oracle(series, genus_max, degree_max)
            assert result.table.entries == {key: v for key, v in expected.items() if v.denominator == 1}
            assert result.nonintegral == {key: v for key, v in expected.items() if v.denominator != 1}
            nonintegral += bool(result.nonintegral)
        assert nonintegral > 30

    def test_lambda_cut_below_an_entry_genus(self, capsys, tmp_path):
        # the genus-3 entries have no kernel terms at lambda order 0 and no sin-table row
        table = GVTable({(0, (1,)): 2, (1, (1,)): -3, (3, (1,)): 5, (3, (2,)): 1}, 3, Fraction(4), ONE)
        expected = forward_oracle(table, table.degree_max, 0)
        assert expected and all(lam <= 0 for _, lam in expected)
        assert gv_to_gw(table, lambda_max=0).coeffs == expected
        path = tmp_path / "table.json"
        path.write_text(json.dumps({
            "v": 1,
            "kind": "gv_table",
            "entries": [[g, list(beta), n] for (g, beta), n in table.entries.items()],
            "cuts": {"genus": 3, "degree": "4", "omega": ["1"]},
        }))
        assert main(["gw", "--input", str(path), "--lambda-order", "0", "--json"]) == EXIT_OK
        coeffs = json.loads(capsys.readouterr().out)["coeffs"]
        assert {(tuple(beta), lam): Fraction(c) for beta, lam, c in coeffs} == expected
