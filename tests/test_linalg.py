"""Exact linear algebra: the packed Bareiss elimination against the elementwise
one and a plain Gauss oracle, adjugates against a Fraction inverse oracle,
unimodularity."""

import random
from fractions import Fraction
from operator import mul

import pytest

from gvmot import linalg
from gvmot.linalg import adjugate, identity, mat_mul, mat_rank, pivots, random_invertible, zero_matrix


def gauss_pivot_columns(rows):
    """Textbook Gaussian elimination over Fraction, no fraction-free tricks:
    the columns that get a pivot, which are the leftmost independent ones."""
    m = [[Fraction(c) for c in row] for row in rows]
    if not m or not m[0]:
        return []
    nrows, ncols = len(m), len(m[0])
    cols = []
    for col in range(ncols):
        rank = len(cols)
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
        cols.append(col)
    return cols


def gauss_rank_oracle(rows):
    return len(gauss_pivot_columns(rows))


def bareiss_oracle(a):
    """Bareiss elimination over Z on lists of entries, one entry at a time.

    The same pivot choice as pivots, so the same (pivot columns, pivot rows):
    of the rows at or below the rank with a nonzero entry, the one with the
    smallest entry bound, the first such in the current order on a tie,
    swapped up.  Every bound starts at the largest |entry| of a and a step
    makes row r's (|piv| X_r + |lead| X_pivot) // |prev|.  Rows below the
    pivots keep only their entries from column start on.
    """
    if not a or not a[0]:
        return [], []
    rows = [list(row) for row in a]
    nrows, ncols = len(rows), len(rows[0])
    order = list(range(nrows))
    bound = [max(abs(c) for row in a for c in row)] * nrows
    cols = []
    prev = 1
    start = 0
    for col in range(ncols):
        rank, j = len(cols), col - start
        live = [r for r in range(rank, nrows) if rows[r][j]]
        if not live:
            continue
        pivot_row = min(live, key=lambda r: (bound[r], r))
        for seq in (rows, order, bound):
            seq[rank], seq[pivot_row] = seq[pivot_row], seq[rank]
        piv, tail = rows[rank][j], rows[rank][j + 1 :]
        for r in range(rank + 1, nrows):
            row = rows[r]
            lead = row[j]
            rows[r] = [(piv * x - lead * y) // prev for x, y in zip(row[j + 1 :], tail)]
            bound[r] = (abs(piv) * bound[r] + abs(lead) * bound[rank]) // abs(prev)
        prev, start = piv, col + 1
        cols.append(col)
        if rank + 1 == nrows:
            break
    return cols, order[: len(cols)]


def assert_gauss_invariants(m, cols, rows):
    """Leftmost independent columns, distinct pivot rows, a nonsingular minor."""
    assert cols == gauss_pivot_columns(m)
    assert len(set(rows)) == len(rows) == len(cols) and all(0 <= i < len(m) for i in rows)
    minor = [[m[i][j] for j in cols] for i in rows]
    assert gauss_rank_oracle(minor) == len(cols)


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

    def test_packed_rows_against_elementwise_oracle(self, monkeypatch):
        # shapes up to 40 x 40 with entries of 0-300 bits, entries at the edge
        # of a slot, zero rows and columns, and low-rank products, so that
        # rows are repacked wider again and again
        rng = random.Random(77)
        widened = []
        respace = linalg._respace
        monkeypatch.setattr(linalg, "_respace", lambda rows, *args: widened.append(args) or respace(rows, *args))
        seen = dict.fromkeys(("edge", "wide", "small", "low rank", "zero row", "zero column", "repacked"), 0)

        def entry(kind):
            if kind == "edge":  # 2^(8k-1) needs a slot one byte wider than 2^(8k-1) - 1
                return rng.choice((-1, 1)) * (2 ** (8 * rng.randint(1, 8) - 1) - rng.randint(0, 1))
            bits = rng.randint(0, 300) if kind == "wide" else rng.randint(0, 6)
            return rng.randint(-(2**bits), 2**bits)

        for case in range(300):
            big = case % 5 == 0
            nrows, ncols = (rng.randint(9, 40), rng.randint(9, 40)) if big else (rng.randint(1, 8), rng.randint(1, 8))
            kind = rng.choice(("edge", "wide", "small"))
            if rng.random() < 0.4:
                k = rng.randint(0, min(nrows, ncols))
                left = [[entry(kind) for _ in range(k)] for _ in range(nrows)]
                right = [[entry("small") for _ in range(ncols)] for _ in range(k)]
                m = mat_mul(left, right) if k else zero_matrix(nrows, ncols)
                seen["low rank"] += k < min(nrows, ncols)
            else:
                m = [[entry(kind) for _ in range(ncols)] for _ in range(nrows)]
            for i in rng.sample(range(nrows), rng.randint(0, nrows // 3)):
                m[i] = [0] * ncols
            for j in rng.sample(range(ncols), rng.randint(0, ncols // 3)):
                for row in m:
                    row[j] = 0
            before = [list(row) for row in m]
            count = len(widened)
            cols, rows = pivots(m)
            assert m == before
            assert (cols, rows) == bareiss_oracle(m), m
            if not big or kind == "small":
                assert_gauss_invariants(m, cols, rows)
            seen[kind] += 1
            seen["zero row"] += not all(any(row) for row in m)
            seen["zero column"] += not all(any(col) for col in zip(*m))
            seen["repacked"] += len(widened) > count
        assert min(seen.values()) >= 40, seen

    def test_smallest_bound_row_is_the_pivot(self):
        # every bound starts at 5, so column 0 takes the first row; the step
        # leaves row 1 a bound of 1*5 + 5*5 = 30 and row 2 one of 5, so
        # column 1 takes row 2 although row 1 comes first
        a = [[1, 0, 0], [5, 1, 0], [0, 1, 0]]
        assert pivots(a) == bareiss_oracle(a) == ([0, 1], [0, 2])

    def test_empty(self):
        assert pivots([]) == ([], [])
        assert pivots([[]]) == ([], [])
        assert pivots(zero_matrix(2, 3)) == ([], [])


def pack_oracle(rows, width):
    """Packed rows from lists, one slot at a time; an empty row packs to 0."""
    return [sum(x << (width * j) for j, x in enumerate(row)) for row in rows]


def unpack_oracle(row, width, n):
    """The n signed slots of a packed row, peeled off one at a time from the bottom."""
    out = []
    for _ in range(n):
        x = row & ((1 << width) - 1)
        x -= (x >> (width - 1)) << width
        out.append(x)
        row = (row - x) >> width
    assert row == 0
    return out


def int_product(a, b):
    """a times b over Z, one sum over the packed rows of b per row of a.

    Kronecker substitution: with the rows of b packed in slots wider than
    len(b) max|a| max|b|, sum(map(mul, row, packed)) is a whole row of the
    product.  The dense benchmark-size operators are built with it, where
    mat_mul would take seconds.
    """
    n = len(b[0]) if b else 0
    bound = len(b) * max((abs(c) for row in a for c in row), default=0) * max((abs(c) for row in b for c in row), default=0)
    width = linalg._slot_width(bound)
    packed = pack_oracle(b, width)
    return [unpack_oracle(sum(map(mul, row, packed)), width, n) for row in a]


class TestPackedKernels:
    """The struct respacing, the exact-fit test and the packed elimination core against list oracles."""

    WIDTHS = (8, 16, 24, 32, 64, 128)

    @staticmethod
    def slot(rng, bits):
        """An entry of |x| < 2^bits, often at an edge: 0, +-1, +-2^j, +-(2^j - 1), 2^bits - 1 or -2^bits."""
        j = rng.randint(0, bits - 1)
        return rng.choice((0, 1, -1, 2**j, -(2**j), 2**j - 1, -(2**j) + 1, 2**bits - 1, -(2**bits) + 1,
                           rng.randint(-(2**bits) + 1, 2**bits - 1)))

    def test_respace_against_list_oracle(self):
        # every pair of widths, so narrowing, widening and keeping the width;
        # kept slots are any increasing selection, the empty one included
        rng = random.Random(81)
        seen = dict.fromkeys(("narrow", "wide", "same", "empty", "all", "zero row", "edge"), 0)
        for _ in range(600):
            width, new_width = rng.choice(self.WIDTHS), rng.choice(self.WIDTHS)
            n, nrows = rng.randint(0, 12), rng.randint(0, 6)
            keep = sorted(rng.sample(range(n), rng.randint(0, n)))
            bits = min(width, new_width) - 1  # narrowing needs every slot to fit the narrower width
            rows = [[self.slot(rng, bits) for _ in range(n)] for _ in range(nrows)]
            if rows and rng.random() < 0.3:
                rows[rng.randrange(nrows)] = [0] * n
            got = linalg._respace(pack_oracle(rows, width), width, n, keep, new_width)
            want = [[row[j] for j in keep] for row in rows]
            assert got == pack_oracle(want, new_width), (rows, width, keep, new_width)
            assert [unpack_oracle(row, new_width, len(keep)) for row in got] == want
            seen["narrow" if new_width < width else "wide" if new_width > width else "same"] += 1
            seen["empty"] += not keep
            seen["all"] += len(keep) == n > 0
            seen["zero row"] += any(not any(row) for row in rows)
            seen["edge"] += any(abs(x) == 2**bits - 1 for row in want for x in row)
        assert min(seen.values()) >= 40, seen

    def test_fits_and_fit_against_list_oracle(self):
        # slots anywhere in [-2^(w-1), 2^(w-1)), often just inside or just
        # outside [-2^b, 2^b) for the b tested
        rng = random.Random(82)
        seen = dict.fromkeys(("fits", "fails", "edge in", "edge out", "zero rows", "wide"), 0)
        for _ in range(600):
            width = rng.choice(self.WIDTHS)
            n, nrows, b = rng.randint(0, 10), rng.randint(0, 5), rng.randrange(width)
            near = (2**b, -(2**b), 2**b - 1, -(2**b) - 1, 2 ** (width - 1) - 1, -(2 ** (width - 1)))
            rows = [[rng.choice(near) if rng.random() < 0.3 else self.slot(rng, rng.randint(1, width - 1))
                     for _ in range(n)] for _ in range(nrows)]
            rows = [[max(min(x, 2 ** (width - 1) - 1), -(2 ** (width - 1))) for x in row] for row in rows]
            if rng.random() < 0.15:
                rows = [[0] * n for _ in rows]
            entries = [x for row in rows for x in row]
            fits = all(-(2**b) <= x < 2**b for x in entries)
            packed = pack_oracle(rows, width)
            assert linalg._fits(packed, width, n, b) == fits, (rows, width, b)
            least = next(c for c in range(width) if all(-(2**c) <= x < 2**c for x in entries))
            assert linalg._fit(packed, width, n) == least, (rows, width)
            seen["fits" if fits else "fails"] += 1
            seen["edge in"] += any(x in (-(2**b), 2**b - 1) for x in entries)
            seen["edge out"] += any(x in (2**b, -(2**b) - 1) for x in entries)
            seen["zero rows"] += bool(entries) and not any(entries)
            seen["wide"] += width > 64 and least > 62
        assert min(seen.values()) >= 20, seen

    def test_eliminate_from_a_fitted_bound(self):
        # the census hands the core a product narrowed to the least slot that
        # fits, with 2^b as the starting bound of every row: the pivot columns
        # are pivots', and the pivot rows still take a nonsingular minor
        rng = random.Random(83)
        for _ in range(300):
            nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
            k = rng.randint(0, min(nrows, ncols))
            left = [[rng.randint(-(2**40), 2**40) if rng.random() < 0.2 else rng.randint(-4, 4) for _ in range(k)]
                    for _ in range(nrows)]
            m = mat_mul(left, random_matrix(rng, k, ncols)) if k else zero_matrix(nrows, ncols)
            wide = linalg._slot_width(max(abs(c) for row in m for c in row) * 3)
            packed = linalg._pack(m, wide)
            b = linalg._fit(packed, wide, ncols)
            width = linalg._slot_width(1 << b)
            assert width <= wide
            narrow = linalg._respace(packed, wide, ncols, range(ncols), width)
            assert narrow == linalg._pack(m, width)
            cols, rows = linalg._eliminate(narrow, width, ncols, 1 << b)
            assert cols == pivots(m)[0]
            assert_gauss_invariants(m, cols, rows)


class TestIntProduct:
    def test_against_mat_mul(self):
        rng = random.Random(79)
        for _ in range(300):
            n, k, m = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
            bits = rng.choice((1, 8, 64, 200))
            a = [[rng.randint(-(2**bits), 2**bits) for _ in range(k)] for _ in range(n)]
            b = [[rng.randint(-(2**bits), 2**bits) for _ in range(m)] for _ in range(k)]
            assert int_product(a, b) == mat_mul(a, b), (a, b)


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
