"""Exact linear algebra: rank against a plain Gauss oracle, adjugates against a
Fraction inverse oracle, unimodularity."""

import random
from fractions import Fraction

import pytest

from gvmot.linalg import adjugate, identity, mat_mul, mat_rank, pivots, random_invertible, zero_matrix


def gauss_rank_oracle(rows):
    """Textbook Gaussian elimination over Fraction, no fraction-free tricks."""
    m = [[Fraction(c) for c in row] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        piv = m[rank][col]
        m[rank] = [c / piv for c in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                lead = m[r][col]
                m[r] = [c - lead * p for c, p in zip(m[r], m[rank])]
        rank += 1
    return rank


def random_matrix(rng, nrows, ncols):
    return [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]


class TestRank:
    def test_against_gauss_oracle(self):
        rng = random.Random(71)
        for _ in range(300):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            m = random_matrix(rng, nrows, ncols)
            assert mat_rank(m) == gauss_rank_oracle(m)

    def test_low_rank_products(self):
        rng = random.Random(72)
        for _ in range(100):
            n, k = rng.randint(2, 6), rng.randint(1, 3)
            a = random_matrix(rng, n, k)
            b = random_matrix(rng, k, n)
            assert mat_rank(mat_mul(a, b)) <= k

    def test_non_int_entries_rejected(self):
        # Bareiss divides with //, which would floor a Fraction silently
        for entry in (Fraction(1, 2), Fraction(2), True):
            with pytest.raises(TypeError):
                mat_rank([[1, 0], [0, entry]])

    def test_empty_and_zero(self):
        assert mat_rank([]) == 0
        assert mat_rank(zero_matrix(3, 4)) == 0
        assert mat_rank(identity(5)) == 5


class TestPivots:
    def test_against_gauss_oracle(self):
        rng = random.Random(75)
        for _ in range(300):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            if rng.random() < 0.5:  # low rank, so that dependent columns and rows turn up
                k = rng.randint(0, min(nrows, ncols))
                m = mat_mul(random_matrix(rng, nrows, k), random_matrix(rng, k, ncols)) if k else zero_matrix(nrows, ncols)
            else:
                m = random_matrix(rng, nrows, ncols)
            before = [list(row) for row in m]
            cols, rows = pivots(m)
            assert m == before
            # the leftmost independent columns: each raises the rank of the columns up to it
            leftmost = [j for j in range(ncols)
                        if gauss_rank_oracle([row[: j + 1] for row in m]) > gauss_rank_oracle([row[:j] for row in m])]
            assert cols == leftmost
            assert len(set(rows)) == len(rows) == len(cols) and all(0 <= i < nrows for i in rows)
            minor = [[m[i][j] for j in cols] for i in rows]
            assert gauss_rank_oracle(minor) == len(cols) == gauss_rank_oracle(m)

    def test_empty(self):
        assert pivots([]) == ([], [])
        assert pivots([[]]) == ([], [])
        assert pivots(zero_matrix(2, 3)) == ([], [])


def mat_inverse(a):
    """Exact inverse over Fraction by Gauss-Jordan; raises ValueError when singular."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse needs a square matrix")
    work = [
        [Fraction(c) for c in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(a)
    ]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        piv = work[col][col]
        work[col] = [c / piv for c in work[col]]
        for r in range(n):
            lead = work[r][col]
            if r != col and lead:
                work[r] = [c - lead * p for c, p in zip(work[r], work[col])]
    return [row[n:] for row in work]


def gauss_det_oracle(a):
    n = len(a)
    work = [[Fraction(c) for c in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        det *= work[col][col]
        for r in range(col + 1, n):
            f = work[r][col] / work[col][col]
            work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return det


class TestInverse:
    def test_roundtrip(self):
        rng = random.Random(73)
        for _ in range(100):
            n = rng.randint(1, 5)
            p = random_invertible(rng, n)
            assert mat_mul(p, mat_inverse(p)) == identity(n)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            mat_inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
        with pytest.raises(ValueError, match="singular"):
            adjugate([[1, 2], [2, 4]])

    def test_random_invertible_has_full_rank(self):
        rng = random.Random(74)
        for _ in range(50):
            n = rng.randint(1, 6)
            assert mat_rank(random_invertible(rng, n)) == n


class TestAdjugate:
    """adjugate(P) = (d, d P^-1) with d = +-det P, checked against the Fraction oracle."""

    def test_matches_fraction_oracle(self):
        rng = random.Random(75)
        singular = 0
        for _ in range(600):
            n = rng.randint(0, 6)
            spread = rng.choice([1, 3, 30])
            a = [[rng.choice([0, rng.randint(-spread, spread)]) for _ in range(n)] for _ in range(n)]
            det = gauss_det_oracle(a)
            if det == 0:
                singular += 1
                with pytest.raises(ValueError, match="singular"):
                    adjugate(a)
                continue
            d, adj = adjugate(a)
            assert abs(d) == abs(det), a
            assert mat_mul(a, adj) == [[d * int(i == j) for j in range(n)] for i in range(n)], a
            assert adj == [[d * c for c in row] for row in mat_inverse(a)], a
            assert all(type(c) is int for row in adj for c in row)
        assert 50 <= singular <= 550

    def test_unimodular_basis_gives_inverse_up_to_sign(self):
        rng = random.Random(76)
        for _ in range(50):
            n = rng.randint(1, 6)
            p = random_invertible(rng, n)
            d, adj = adjugate(p)
            assert d in (1, -1)
            assert mat_mul(p, adj) == [[d * int(i == j) for j in range(n)] for i in range(n)]

    @pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), 0.5, True, "1"])
    def test_non_int_entries_rejected(self, entry):
        with pytest.raises(TypeError):
            adjugate([[entry, 0], [0, 1]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            adjugate([[1, 2, 3], [4, 5, 6]])

    def test_empty(self):
        assert adjugate([]) == (1, [])
