"""Exact linear algebra: the packed Bareiss elimination against the elementwise
one and a plain Gauss oracle, adjugates against a Fraction inverse oracle,
unimodularity."""

import random
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest

from gvmot import linalg
from gvmot.lefschetz import JordanCensus, strings_operator
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


def bareiss_oracle(a, seen=None):
    """Bareiss elimination over Z on lists of entries, one entry at a time.

    The same pivot choice as pivots, so the same (pivot columns, pivot rows).
    Rows wait in buckets by their first nonzero column, in the order they
    arrive there, each with the pivot s of the step that last wrote it and
    its entry bound X at that step (1 and the largest |entry| of a to start).
    Column c brings the rows of bucket c to the current scale, entries times
    prev / s and bound X |prev| // |s|, and takes the one with the smallest
    bound as its pivot, the first in the bucket on a tie.  Every other row of
    the bucket becomes (piv x - lead y) // prev with bound
    (|piv| X_r + |lead| X_pivot) // |prev| and stamp piv, and moves to the
    bucket of its first nonzero column, or leaves when it is zero.  A Counter
    seen, if given, counts the (live row, step) pairs with a zero lead and
    the rows that turn zero.
    """
    if not a or not a[0]:
        return [], []
    ncols = len(a[0])
    buckets = [[] for _ in range(ncols)]

    def file(row, s, x, i):
        lead = next((j for j, c in enumerate(row) if c), None)
        if lead is not None:
            buckets[lead].append((row, s, x, i))
        elif seen is not None:
            seen["turned zero"] += 1

    top = max(abs(c) for row in a for c in row)
    for i, row in enumerate(a):
        if any(row):
            file(list(row), 1, top, i)
    cols, taken = [], []
    prev = 1
    for col in range(ncols):
        live = [([c * prev // s for c in row], x * abs(prev) // abs(s), i) for row, s, x, i in buckets[col]]
        if not live:
            continue
        if seen is not None:
            seen["zero lead"] += sum(map(len, buckets[col + 1 :]))
            seen["nonzero lead"] += len(live)
        pivot, pivot_bound, i = live.pop(min(range(len(live)), key=lambda k: live[k][1]))
        piv = pivot[col]
        for row, x, i_row in live:
            lead = row[col]
            file([(piv * c - lead * y) // prev for c, y in zip(row, pivot)], piv,
                 (abs(piv) * x + abs(lead) * pivot_bound) // abs(prev), i_row)
        cols.append(col)
        taken.append(i)
        prev = piv
    return cols, taken


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

    def test_unpack_against_list_oracle(self):
        rng = random.Random(36)
        for _ in range(300):
            width, n = rng.choice(self.WIDTHS + (408,)), rng.randint(1, 12)
            row = [self.slot(rng, width - 1) for _ in range(n)]
            packed = pack_oracle([row], width)[0]
            assert linalg._unpack(packed, width, n) == unpack_oracle(packed, width, n) == row

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

    @staticmethod
    def eliminate(m):
        """_eliminate on m packed in the least slot that holds it, and that slot's width."""
        bound = max(abs(c) for row in m for c in row)
        width = linalg._slot_width(bound)
        return linalg._eliminate(linalg._pack(m, width), width, len(m[0]), bound), width

    @pytest.fixture
    def respaced(self, monkeypatch):
        calls = []
        respace = linalg._respace
        monkeypatch.setattr(linalg, "_respace", lambda rows, *args: calls.append((len(rows), *args)) or respace(rows, *args))
        return calls

    def test_eliminate_sparse_leads_against_oracle(self):
        # maps of strings operators between sparse unit triangular bases, and
        # block-diagonal rows shuffled, where most (live row, step) pairs have
        # a zero lead; sums of other rows turn zero in mid-elimination
        rng = random.Random(84)
        seen = Counter()
        for case in range(200):
            if case % 2:
                cells = {(rng.randint(-4, 2), rng.randint(2, 5)): rng.randint(1, 3) for _ in range(rng.randint(2, 6))}
                op = strings_operator(JordanCensus(cells))
                step = max(op.maps.values(), key=len)
                n, k = len(step), len(step[0])

                def sparse_unit(d):
                    return [[int(i == j) + (rng.randint(-3, 3) if i < j and rng.random() < 0.1 else 0) for j in range(d)]
                            for i in range(d)]

                m = mat_mul(mat_mul(sparse_unit(n), step), sparse_unit(k))
            else:
                m = []
                for _ in range(rng.randint(3, 8)):
                    height, span = rng.randint(1, 4), rng.randint(1, 4)
                    block = random_matrix(rng, height, span)
                    m = [row + [0] * span for row in m] + [[0] * len(m[0] if m else []) + row for row in block]
                rng.shuffle(m)
            m += [[x + y for x, y in zip(*rng.sample(m, 2))] for _ in range(rng.randint(0, 3)) if len(m) > 1]
            rng.shuffle(m)
            if not any(map(any, m)):
                continue
            before = [list(row) for row in m]
            (cols, rows), _ = self.eliminate(m)
            assert m == before
            assert (cols, rows) == bareiss_oracle(m, seen), m
            assert_gauss_invariants(m, cols, rows)
        assert seen["zero lead"] > 2 * seen["nonzero lead"] and seen["turned zero"] >= 100, seen

    def test_eliminate_widens_past_one_doubling(self, respaced):
        # rows that wait in a bucket while the pivots grow are far larger now
        # than at their stamp: (127 * 100)^2 * 2 // 100 needs 24-bit slots
        # where doubling 8 gives 16.  Seeded cases: edge-size pivots first,
        # then rows that only meet them later
        a = [[100, 0, 0], [0, 127, 1], [0, 127, 2], [0, 0, 3]]
        assert self.eliminate(a) == (bareiss_oracle(a), 8) == (([0, 1, 2], [0, 1, 3]), 8)
        # the first call moves the pivot, the rest of its bucket and bucket 2,
        # each row from column 1 on
        assert respaced == [(3, 8, 2, range(2), 24), (2, 24, 1, range(1), 48)]
        rng = random.Random(85)
        past = 0
        for _ in range(200):
            bits = 8 * rng.randint(1, 4) - 1
            k, rest, ncols = rng.randint(1, 4), rng.randint(2, 5), rng.randint(5, 9)
            edge = [rng.choice((-1, 1)) * (2**bits - rng.randint(1, 3)) for _ in range(k + rest)]
            m = [[edge[i] if j == i else rng.randint(-2, 2) * (j > i) for j in range(ncols)] for i in range(k)]
            m += [[0] * k + [edge[k + i] if rng.random() < 0.7 else rng.randint(-9, 9) for _ in range(ncols - k)]
                  for i in range(rest)]
            rng.shuffle(m)
            respaced.clear()
            (cols, rows), _ = self.eliminate(m)
            assert (cols, rows) == bareiss_oracle(m), m
            assert_gauss_invariants(m, cols, rows)
            past += any(new > 2 * old for _, old, _, _, new in respaced)
        assert past >= 150, past

    def test_one_widening_is_one_respace(self, respaced):
        # a widening moves every stored row in one call, so the calls of one
        # elimination chain its widths upward, one call per width
        rng = random.Random(86)
        widened = 0
        for _ in range(200):
            nrows, ncols = rng.randint(2, 12), rng.randint(2, 12)
            m = [[rng.randint(-(2**7), 2**7 - 1) if rng.random() < 0.5 else 0 for _ in range(ncols)] for _ in range(nrows)]
            if not any(map(any, m)):
                continue
            respaced.clear()
            (cols, rows), width = self.eliminate(m)
            assert (cols, rows) == bareiss_oracle(m)
            widths = [width] + [new for *_, new in respaced]
            assert [old for _, old, _, _, _ in respaced] == widths[:-1]
            assert all(list(keep) == list(range(n)) for _, _, n, keep, _ in respaced)
            assert widths == sorted(set(widths))
            widened += len(respaced) > 1
        assert widened >= 100, widened


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
