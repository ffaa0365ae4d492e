"""The 2sin transform: exact expansion, truncation, and triangular inversion."""

import json
import random
import re
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, factorial, gcd
from pathlib import Path

import pytest

from gvmot.cli import EXIT_OK, main
from gvmot.errors import ConeNotPointedError, InsufficientTruncationError, Ledger, ResourceLimitError
from gvmot.gwseries import (
    GVTable,
    GWSeries,
    _add_row,
    _cover_rows,
    _mobius,
    _push,
    _sin_table,
    gv_to_gw,
    gw_to_gv,
    sin_power_coefficient,
)
from gvmot.jsonio import parse_document
from gvmot.linalg import dot
from gvmot.verify import _oracle_sin_power, prop_inverse_is_solution, random_gv_table, random_gw_series

ONE = (Fraction(1),)


def sin_powers_oracle(genus_max, order):
    """Rows g = 0..genus_max; row[g][j] is the coefficient of u^{2g-2+2j} in (2 sin(u/2))^{2g-2}.

    The Fraction series recursion the closed-form table replaced.  With y =
    u^2, (2 sin(u/2))^2 = y V(y), V(y) = sum_{n>=0} 2 (-1)^n y^n / (2n+2)!, so
    row g is V^{g-1} to y^order: row 0 inverts V, each further row is the one
    before times V.
    """
    v = [Fraction(2 * (-1) ** n, factorial(2 * n + 2)) for n in range(order + 1)]
    row = [Fraction(1)]
    for n in range(1, order + 1):
        row.append(-sum(v[i] * row[n - i] for i in range(1, n + 1)))
    rows = [row]
    for _ in range(genus_max):
        rows.append([sum(rows[-1][i] * v[n - i] for i in range(n + 1)) for n in range(order + 1)])
    return rows


@cache
def _sin(g, j):
    return sin_powers_oracle(g, j)[g][j]


def table_row(rows, den, g):
    """Row g of the closed-form sine table as Fractions."""
    return [Fraction(c, den[g + j]) for j, c in enumerate(rows[g])]


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


def random_multiple_table(rng):
    """Entries on two to four multiples d beta0 (d <= 6) of one primitive class of rank 1 to 3.

    beta0 may have negative entries and omega entries drawn from 1/3..3, and
    the degree cut admits 6 to 12 covers of beta0, so most keys k beta0 are
    reached from several (d beta0, k / d) pairs, and the lifts c^3 and c of
    the lambda^-2 and lambda^0 slots meet gcds 2 to 6 and above.
    """
    rank = rng.randint(1, 3)
    omega = tuple(Fraction(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rank))
    beta0 = (0,) * rank
    while gcd(*beta0) != 1 or dot(omega, beta0) <= 0:
        beta0 = tuple(rng.randint(-2, 3) for _ in range(rank))
    genus_max = rng.randint(0, 3)
    entries = {
        (rng.randint(0, genus_max), tuple(d * b for b in beta0)): rng.choice([-1, 1]) * rng.randint(1, 9)
        for d in rng.sample(range(1, 7), rng.randint(2, 4))
    }
    return GVTable(entries, genus_max, dot(omega, beta0) * rng.randint(6, 12), omega)


def random_covered_table(rng):
    """Rank 1 to 3, omega entries 1 or 2 with the first 1, and a degree cut of 15 to 18.

    The class (1, 0, ...) of omega-degree 1 always holds a count, so even
    after a cut lowered by 5/2 it has 12 covers or more: the inverse reaches
    its non-squarefree covers 4, 8, 9 and 12, where mu vanishes.
    """
    rank = rng.randint(1, 3)
    omega = (Fraction(1),) + tuple(Fraction(rng.randint(1, 2)) for _ in range(rank - 1))
    genus_max = rng.randint(0, 2)
    unit = (1,) + (0,) * (rank - 1)
    classes = [beta for beta in product(range(-1, 4), repeat=rank) if 0 < dot(omega, beta) <= 4]
    entries = {(rng.randint(0, genus_max), rng.choice(classes)): rng.randint(-9, 9) for _ in range(rng.randint(0, 4))}
    entries[(rng.randint(0, genus_max), unit)] = rng.choice([-1, 1]) * rng.randint(1, 9)
    return GVTable(entries, genus_max, Fraction(rng.randint(15, 18)), omega)


def mobius_oracle(n):
    """mu(n) by trial division: 0 if a square of a prime divides n, else (-1)^(number of prime factors); mu(0) = 0."""
    if n == 0:
        return 0
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def shared_keys(table):
    """Classes gamma with gcd > 1 that at least two (beta, k) pairs of the table reach."""
    sources = {}
    for _, beta in table.entries:
        for k in range(1, int(table.degree_max // dot(table.omega, beta)) + 1):
            sources.setdefault(tuple(k * b for b in beta), set()).add((beta, k))
    return [gamma for gamma, pairs in sources.items() if len(pairs) > 1 and gcd(*gamma) > 1]


def assert_trusted(result):
    """A transform's result equals its rebuild through the checking constructor, types included."""
    if isinstance(result, GWSeries):
        rebuilt = GWSeries(result.coeffs, result.degree_max, result.lambda_max, result.omega)
        values, keys = result.coeffs.values(), [(lam, *beta) for beta, lam in result.coeffs]
        assert all(type(c) is Fraction for c in values)
        fields = ("coeffs", "degree_max", "lambda_max", "omega")
    else:
        rebuilt = GVTable(result.entries, result.genus_max, result.degree_max, result.omega)
        values, keys = result.entries.values(), [(g, *beta) for g, beta in result.entries]
        assert all(type(n) is int for n in values)
        fields = ("entries", "genus_max", "degree_max", "omega")
    assert all(values) and all(type(x) is int for key in keys for x in key)
    for name in fields:
        got, want = getattr(result, name), getattr(rebuilt, name)
        assert got == want and type(got) is type(want), name
    assert type(result.degree_max) is Fraction and all(type(w) is Fraction for w in result.omega)


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

    def test_row_zero_matches_recursion_to_order_300(self):
        # the oracle's recursion R V = 1, multiplied through by (2n)! so that
        # its terms stay small: s_n = (2n)! R_n satisfies
        # (2n+1)(2n+2) s_n = -2 sum_{i=1}^n (-1)^i C(2n+2, 2i+2) s_{n-i}
        rows, den = _sin_table(0, 300, Ledger())
        assert table_row(rows, den, 0)[:61] == sin_powers_oracle(0, 60)[0]
        s = [Fraction(1)]
        for n in range(1, 301):
            total = sum((-1) ** i * comb(2 * n + 2, 2 * i + 2) * s[n - i] for i in range(1, n + 1))
            s.append(Fraction(-2 * total, (2 * n + 1) * (2 * n + 2)))
        assert table_row(rows, den, 0) == [x / factorial(2 * n) for n, x in enumerate(s)]

    def test_rows_one_to_six_match_recursion_to_order_60(self):
        rows, den = _sin_table(6, 60, Ledger())
        oracle = sin_powers_oracle(6, 60)
        for g in range(7):
            assert table_row(rows, den, g) == oracle[g], g
        # and the closed form of row m + 1 = (2 - 2 cos u)^m at u^{2N}:
        # (-1)^N / (2N)! sum_{|k|<=m} (-1)^k C(2m, m+k) k^{2N}
        for m in range(6):
            for j in range(0, 61, 6):
                n = m + j
                total = sum((-1) ** abs(k) * comb(2 * m, m + k) * k ** (2 * n) for k in range(-m, m + 1))
                assert Fraction(rows[m + 1][j], den[m + 1 + j]) == Fraction((-1) ** n * total, factorial(2 * n))

    def test_triangle_rows_are_prefixes_of_the_square(self):
        # the transforms ask for the triangle g + j <= top; the square table
        # (top = genus_max + order) is the one the triangle replaced
        rng = random.Random(41)
        for _ in range(300):
            genus_max, order = rng.randint(0, 14), rng.randint(0, 14)
            top = rng.randint(-1, genus_max + order)
            square_ledger, triangle_ledger = Ledger(), Ledger()
            square, square_den = _sin_table(genus_max, order, square_ledger)
            rows, den = _sin_table(genus_max, order, triangle_ledger, top)
            assert len(rows) == len(square) == genus_max + 1
            for g, (row, full) in enumerate(zip(rows, square)):
                assert row == full[: max(min(order, top - g) + 1, 0)], (genus_max, order, top, g)
            assert den == square_den[: top + 1]
            lengths = [len(row) for row in rows]
            assert triangle_ledger.spent == sum(n * (n + 1) // 2 for n in lengths) <= square_ledger.spent
            assert square_ledger.spent == (genus_max + 1) * (order + 1) * (order + 2) // 2

    def test_high_rows_of_a_short_table(self):
        # a table far deeper than it is long, as a high-genus entry at a low lambda cut asks for
        rows, den = _sin_table(2000, 2, Ledger())
        for g in (1, 2, 3, 1000, 2000):
            m = g - 1
            # (2 sin(u/2))^{2m} = u^{2m} (1 - m u^2/12 + m (5m - 1) u^4/1440 + ...)
            assert table_row(rows, den, g) == [1, Fraction(-m, 12), Fraction(m * (5 * m - 1), 1440)]


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

    @pytest.mark.parametrize("bad", [True, 2.5, 2.0, "2", Fraction(2)], ids=["bool", "float", "whole-float", "str", "Fraction"])
    def test_table_ints_are_ints(self, bad):
        # before, a float count 2.5 was stored as 2 and a float genus or class entry was truncated
        cases = {
            "count": lambda: GVTable({(0, (1,)): bad}, 2, 10, ONE),
            "genus": lambda: GVTable({(bad, (1,)): 1}, 2, 10, ONE),
            "class entry": lambda: GVTable({(0, (bad,)): 1}, 2, 10, ONE),
            "genus_max": lambda: GVTable({(0, (1,)): 1}, bad, 10, ONE),
        }
        for what, build in cases.items():
            with pytest.raises(TypeError, match=f"^{what} must be int, got {type(bad).__name__}$"):
                build()

    @pytest.mark.parametrize("bad", [True, 0.1, 2.0, "1/2"], ids=["bool", "float", "whole-float", "str"])
    def test_series_numbers_are_ints_or_fractions(self, bad):
        # before, a float coefficient 0.1 was stored as its binary Fraction
        rational = {
            "coefficient": lambda: GWSeries({((1,), 0): bad}, 10, 0, ONE),
            "degree_max": lambda: GWSeries({((1,), 0): 1}, bad, 0, ONE),
            "omega entry": lambda: GWSeries({((1,), 0): 1}, 10, 0, (bad,)),
        }
        for what, build in rational.items():
            with pytest.raises(TypeError, match=f"^{what} must be int or Fraction, got {type(bad).__name__}$"):
                build()
        integral = {
            "lambda exponent": lambda: GWSeries({((1,), bad): 1}, 10, 2, ONE),
            "lambda_max": lambda: GWSeries({((1,), 0): 1}, 10, bad, ONE),
            "class entry": lambda: GWSeries({((bad,), 0): 1}, 10, 0, ONE),
        }
        for what, build in integral.items():
            with pytest.raises(TypeError, match=f"^{what} must be int, got {type(bad).__name__}$"):
                build()

    def test_equal_class_of_another_type_rejected(self):
        # (True,) == (1,), so only a check on every entry sees it once (1,) is known
        with pytest.raises(TypeError, match="^class entry must be int, got bool$"):
            GVTable({(0, (1,)): 1, (1, (True,)): 2}, 1, 10, ONE)

    def test_ints_and_fractions_accepted(self):
        table = GVTable({(0, (1,)): 3}, 0, Fraction(5, 2), (Fraction(1, 2),))
        assert table.entries == {(0, (1,)): 3} and table.degree_max == Fraction(5, 2)
        series = GWSeries({((1,), 0): 2, ((2,), 0): Fraction(1, 3)}, 4, 0, (1,))
        assert series.coeffs == {((1,), 0): Fraction(2), ((2,), 0): Fraction(1, 3)}
        assert series.omega == (Fraction(1),)


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
        # a third of the cases are rank 1 to 3 with a degree-1 class of 12 covers
        # or more, so the Moebius sum meets mu(k) = 0 at k = 4, 8, 9 and 12
        rng = random.Random(67)
        nonintegral = rank3 = deep = 0
        for case in range(300):
            if case % 3 == 1:
                series = random_gw_series(rng)
            else:
                table = random_table(rng) if case % 3 == 0 else random_covered_table(rng)
                series = gv_to_gw(table, lambda_max=rng.randint(-2, 2 * table.genus_max + 2))
            genus_max = rng.randint(-1, (series.lambda_max + 2) // 2)
            degree_max = series.degree_max - rng.choice([0, 0, 1, Fraction(5, 2)])
            result = gw_to_gv(series, genus_max=genus_max, degree_max=degree_max)
            expected = inverse_oracle(series, genus_max, degree_max)
            assert result.table.entries == {key: v for key, v in expected.items() if v.denominator == 1}
            assert result.nonintegral == {key: v for key, v in expected.items() if v.denominator != 1}
            nonintegral += bool(result.nonintegral)
            rank3 += len(series.omega) == 3 and bool(expected)
            deep += genus_max >= 0 and any(dot(series.omega, beta) == 1 and degree_max >= 12 for beta, _ in series.coeffs)
        assert nonintegral > 30 and rank3 > 20 and deep > 50

    def test_mobius_matches_trial_division(self):
        mu = [mobius_oracle(n) for n in range(2001)]
        assert _mobius(2000) == mu
        assert all(_mobius(n) == mu[: n + 1] for n in range(40))

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


class TestScaledKernel:
    """The integer kernel against the per-entry Fraction oracles where the per-key scale matters.

    Every result also equals its rebuild through the checking constructors.
    """

    def test_kernel_stays_in_ints(self, monkeypatch):
        # slot h holds lambda^(2h-2): seven slots reach lambda^10; the class
        # (2, -4) has gcd 2, so its series is lifted by 2^3 and 2 at slots 0 and 1
        rows, den = _sin_table(3, 6, Ledger())
        f = [0] * 7
        _add_row(f, 2, -7, rows[2])
        _add_row(f, 0, 3, rows[0])
        acc = {}
        _push(acc, (2, -4), [8 * f[0], 2 * f[1], *f[2:]], range(1, 6), _cover_rows({5: 0}, 7))
        assert len(f) == 7 and f[0] and f[2] and sorted(acc) == [(2 * k, -4 * k) for k in range(1, 6)]
        assert all(len(row) == 7 for row in acc.values())
        assert all(type(c) is int for c in [*den, *f, *(c for row in acc.values() for c in row)])
        # the inverse reads a series the forward made times its scales: every
        # slot it lifts, and every slot its signed covers add up, is an int
        import gvmot.gwseries as gwseries

        pushed = []

        def push(acc, beta, lifted, covers, rows):
            gwseries_push(acc, beta, lifted, covers, rows)
            pushed.append([*lifted, *(c for row in acc.values() for c in row)])

        gwseries_push = gwseries._push
        monkeypatch.setattr(gwseries, "_push", push)
        table = GVTable({(0, (2, -4)): 3, (2, (2, -4)): -7, (1, (1, -2)): 5, (3, (3, -6)): 2}, 3, Fraction(30), (Fraction(1), Fraction(1, 4)))
        series = gv_to_gw(table, lambda_max=10)
        assert any(c.denominator > 1 for c in series.coeffs.values())
        assert gw_to_gv(series, genus_max=3).table == table
        assert len(pushed) > 10 and all(type(c) is int for slots in pushed for c in slots)

    def test_work_stays_within_the_charged_kernel_terms(self, monkeypatch):
        # at lambda order 60 the genus-30 class reaches slots 30 and 31 only:
        # cover rows past the 4 covers of the genus-0 class hold those two
        # slots, and each push multiplies the slots its class series holds
        import gvmot.gwseries as gwseries

        charged, built, products = [], [], []

        class Ledger(gwseries.Ledger):
            def spend(self, stage, n=1, what="enumeration steps"):
                if what == "kernel terms":
                    charged.append(n)
                super().spend(stage, n, what)

        def cover_rows(start, slots):
            rows = gwseries_cover_rows(start, slots)
            built.append(sum(map(len, rows)))
            return rows

        def push(acc, beta, lifted, covers, rows):
            products.append(len(lifted) * len(covers))
            gwseries_push(acc, beta, lifted, covers, rows)

        gwseries_cover_rows, gwseries_push = gwseries._cover_rows, gwseries._push
        monkeypatch.setattr(gwseries, "Ledger", Ledger)
        monkeypatch.setattr(gwseries, "_cover_rows", cover_rows)
        monkeypatch.setattr(gwseries, "_push", push)
        table = GVTable({(30, (1,)): 1, (0, (500,)): 2}, 30, Fraction(2000), ONE)
        got = gv_to_gw(table, lambda_max=60)
        assert got.coeffs == forward_oracle(table, table.degree_max, 60)
        assert_trusted(got)
        assert charged == [2000 * 2 + 4 * 32] and sum(products) == charged[0]
        assert built == [1996 * 2 + 4 * 32]
        # past the cap, the charge refuses the run before any row is built
        with pytest.raises(ResourceLimitError, match="gw forward: 1000002 kernel terms"):
            gv_to_gw(GVTable({(30, (1,)): 1}, 30, Fraction(500001), ONE), lambda_max=60)
        assert len(built) == 1

    def test_inverse_work_stays_within_the_charged_kernel_terms(self, monkeypatch):
        # the inverse charges one push of every slot per (class, squarefree
        # cover) and one triangular solve per class it may reach; the pushes
        # and the sine rows added in the solves stay under that, and so do the
        # slots of the signed cover rows, built for squarefree k only
        import gvmot.gwseries as gwseries

        charged, built, products = [], [], []

        class Ledger(gwseries.Ledger):
            def spend(self, stage, n=1, what="enumeration steps"):
                if what == "kernel terms":
                    charged.append(n)
                super().spend(stage, n, what)

        def cover_rows(start, slots, mu):
            rows = gwseries_cover_rows(start, slots, mu)
            built.append(sum(map(len, rows)))
            return rows

        def push(acc, beta, lifted, covers, rows):
            products.append(len(lifted) * len(covers))
            gwseries_push(acc, beta, lifted, covers, rows)

        def add_row(f, i, n, row):
            products.append(len(f) - i)
            gwseries_add_row(f, i, n, row)

        table = GVTable({(g, (d,)): d - 3 * g for d in (1, 2, 4, 6) for g in range(4)}, 3, Fraction(60), ONE)
        series = gv_to_gw(table)
        gwseries_cover_rows, gwseries_push, gwseries_add_row = gwseries._cover_rows, gwseries._push, gwseries._add_row
        for name, spy in [("Ledger", Ledger), ("_cover_rows", cover_rows), ("_push", push), ("_add_row", add_row)]:
            monkeypatch.setattr(gwseries, name, spy)
        result = gw_to_gv(series)
        assert result.table == table and not result.nonintegral
        # the series holds every class (d) up to 60, with squarefree covers k <= 60 / d: a pair
        # pushes 4 slots and may reach a class whose solve adds rows of 4 + 3 + 2 + 1 products
        support = {beta for beta, _ in series.coeffs}
        pairs = sum(sum(1 for k in range(1, 60 // d + 1) if mobius_oracle(k)) for (d,) in support)
        assert len(support) == 60 and charged == [pairs * (4 + 10)]
        assert sum(products) <= charged[0] and built == [37 * 4]  # 37 squarefree k <= 60, 4 slots each
        # past the cap, the charge refuses the run before any row is built:
        # squarefree k <= n number sum_{d*d <= n} mu(d) floor(n / d^2)
        n, slots = 200001, 3
        squarefree = sum(mobius_oracle(d) * (n // (d * d)) for d in range(1, 448))
        terms = squarefree * slots * (slots + 3) // 2
        message = f"gw inverse: {terms} kernel terms ({terms + n} units of work in all) exceed the cap of 1000000"
        done = len(products)
        with pytest.raises(ResourceLimitError, match=rf"^{re.escape(message)}$"):
            gw_to_gv(GWSeries({((1,), -2): Fraction(1)}, Fraction(n), 2, ONE))
        assert len(built) == 1 and len(products) == done

    def test_forward_on_shared_multiples(self):
        rng = random.Random(68)
        shared = negative = fractional = lifted = below = 0
        for _ in range(150):
            table = random_multiple_table(rng)
            degree_max = table.degree_max - rng.choice([0, 0, Fraction(1, 3), 2])
            lambda_max = rng.randint(-2, 2 * table.genus_max + 5)
            got = gv_to_gw(table, degree_max=degree_max, lambda_max=lambda_max)
            assert got.coeffs == forward_oracle(table, degree_max, lambda_max), (table.entries, table.omega)
            assert_trusted(got)
            shared += bool(shared_keys(table))
            negative += any(b < 0 for _, beta in table.entries for b in beta)
            fractional += any(w.denominator > 1 for w in table.omega)
            lifted += sum(1 for beta, lam in got.coeffs if lam <= 0 and 2 <= gcd(*beta) <= 6)
            below += degree_max < table.degree_max and lambda_max < 2 * table.genus_max - 2
        assert shared > 100 and negative > 20 and fractional > 50 and lifted > 400 and below > 5

    def test_inverse_on_shared_multiples(self):
        # a forward image, with one coefficient nudged by 1/q half the time so
        # that the solve meets nonintegral values and pushes them on
        rng = random.Random(69)
        nonintegral = lifted = below = 0
        for case in range(200):
            table = random_multiple_table(rng)
            series = gv_to_gw(table, lambda_max=2 * table.genus_max + 2 * rng.randint(-1, 2) + rng.randint(0, 1))
            coeffs = dict(series.coeffs)
            if case % 2 and coeffs:
                key = rng.choice(sorted(coeffs))
                coeffs[key] += Fraction(1, rng.randint(2, 5))
            series = GWSeries(coeffs, series.degree_max, series.lambda_max, series.omega)
            genus_max = rng.randint(-1, (series.lambda_max + 2) // 2)
            degree_max = series.degree_max - rng.choice([0, 0, Fraction(1, 2), 2])
            result = gw_to_gv(series, genus_max=genus_max, degree_max=degree_max)
            expected = inverse_oracle(series, genus_max, degree_max)
            assert result.table.entries == {key: v for key, v in expected.items() if v.denominator == 1}
            assert result.nonintegral == {key: v for key, v in expected.items() if v.denominator != 1}
            assert_trusted(result.table)
            assert all(type(v) is Fraction for v in result.nonintegral.values())
            nonintegral += bool(result.nonintegral)
            lifted += sum(1 for g, beta in expected if g <= 1 and 2 <= gcd(*beta) <= 6)
            below += genus_max < (series.lambda_max + 2) // 2 and degree_max < series.degree_max
        assert nonintegral > 30 and lifted > 150 and below > 40


class TestTrustedResults:
    """The transforms return what they build without a second check: it must pass one."""

    def test_golden_results_are_trusted(self):
        flags = {"--degree-max": "degree_max", "--lambda-order": "lambda_max", "--genus-max": "genus_max"}
        golden = json.loads((Path(__file__).resolve().parent / "data" / "gw_golden.json").read_text())
        samples = Path(__file__).resolve().parent.parent / "sample_data"
        for name, case in golden.items():
            doc = case["document"] if "document" in case else json.loads((samples / case["sample"]).read_text())
            _, payload = parse_document(doc)
            cuts = {flags[flag]: int(value) for flag, value in zip(case["argv"][::2], case["argv"][1::2])}
            if isinstance(payload, GVTable):
                assert_trusted(gv_to_gw(payload, **cuts))
            else:
                result = gw_to_gv(payload, **cuts)
                assert_trusted(result.table)
                assert all(type(v) is Fraction and v.denominator > 1 for v in result.nonintegral.values()), name
