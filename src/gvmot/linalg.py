"""Small exact linear algebra over Z: eliminations, products and adjugates.

Matrices are lists of row lists.  One fraction-free Bareiss elimination over
Z, pivots, returns the pivot columns (the leftmost independent columns) and
the original indices of the pivot rows, whose minor is nonsingular; a rank
is the length of its pivot list.  The fraction-free Gauss-Jordan adjugate
gives an inverse times its determinant, d a^-1, with no fraction.  Both need
int entries, so a rational matrix is scaled to integers before it gets here
(GradedNilpotent does this once per map).  Products work over any exact
ring; only dot pairs with a rational functional.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[int]]


def dot(omega, beta) -> Fraction:
    """Exact pairing of a rational functional with an integer vector."""
    return sum((Fraction(w) * b for w, b in zip(omega, beta)), Fraction(0))


def zero_matrix(nrows: int, ncols: int) -> Matrix:
    return [[0] * ncols for _ in range(nrows)]


def identity(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a: list[list], b: list[list]) -> list[list]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions differ")
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = zero_matrix(n, m)
    for i in range(n):
        row = a[i]
        for p in range(k):
            c = row[p]
            if c == 0:
                continue
            brow = b[p]
            orow = out[i]
            for j in range(m):
                orow[j] += c * brow[j]
    return out


def pivots(a: Matrix) -> tuple[list[int], list[int]]:
    """Bareiss elimination over Z: (pivot columns, pivot rows).

    The pivot columns are the leftmost independent columns of a, in order,
    and the pivot rows are indices into a's original rows; the minor on
    pivot rows x pivot columns is nonsingular.  The exact // of the
    fraction-free steps needs int entries.
    """
    if not a or not a[0]:
        return [], []
    rows = [list(row) for row in a]
    if any(type(c) is not int for row in rows for c in row):
        raise TypeError("elimination needs int entries")
    nrows, ncols = len(rows), len(rows[0])
    order = list(range(nrows))
    cols: list[int] = []
    prev = 1
    start = 0  # rows below the pivots keep only their entries from column start on
    for col in range(ncols):
        rank, j = len(cols), col - start
        pivot_row = next((r for r in range(rank, nrows) if rows[r][j]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        order[rank], order[pivot_row] = order[pivot_row], order[rank]
        piv, tail = rows[rank][j], rows[rank][j + 1 :]
        for r in range(rank + 1, nrows):
            row = rows[r]
            lead = row[j]
            if lead:
                rows[r] = [(piv * x - lead * y) // prev for x, y in zip(row[j + 1 :], tail)]
            else:
                rows[r] = [piv * x // prev for x in row[j + 1 :]]
        prev, start = piv, col + 1
        cols.append(col)
        if rank + 1 == nrows:
            break
    return cols, order[: len(cols)]


def mat_rank(a: Matrix) -> int:
    """Rank over Z: the number of pivots of the Bareiss elimination."""
    return len(pivots(a)[0])


def adjugate(a: Matrix) -> tuple[int, Matrix]:
    """(d, d a^-1) with d = +-det a, by fraction-free Gauss-Jordan over Z.

    The matrix is the adjugate of a up to sign.  Every entry met is a minor
    of [a | I], so each // is exact.  Raises ValueError when a is singular or
    not square, and TypeError on entries that are not int.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("adjugate needs a square matrix")
    if any(type(c) is not int for row in a for c in row):
        raise TypeError("elimination needs int entries")
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col]
        piv = pivot[col]
        for r in range(n):
            if r != col:
                lead = rows[r][col]
                rows[r] = [(piv * x - lead * y) // prev for x, y in zip(rows[r], pivot)]
        prev = piv
    return prev, [row[n:] for row in rows]


def random_invertible(rng, n: int, spread: int = 2) -> Matrix:
    """Unimodular-by-construction: unit lower times unit upper triangular."""
    lower = identity(n)
    upper = identity(n)
    for i in range(n):
        for j in range(i):
            lower[i][j] = rng.randint(-spread, spread)
            upper[j][i] = rng.randint(-spread, spread)
    return mat_mul(lower, upper)
