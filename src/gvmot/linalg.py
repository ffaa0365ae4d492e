"""Small exact linear algebra over Z: eliminations, products and adjugates.

Matrices are lists of row lists.  One fraction-free Bareiss elimination over
Z, pivots, returns the pivot columns (the leftmost independent columns) and
the original indices of the pivot rows, whose minor is nonsingular; a rank
is the length of its pivot list.  Its pivot row is the live row with the
smallest bound on its entries, since every later entry is a minor through
the pivot rows.  The fraction-free Gauss-Jordan adjugate gives an inverse
times its determinant, d a^-1, with no fraction.  Both need int entries, so
a rational matrix is scaled to integers before it gets here (GradedNilpotent
does this once per map).  mat_mul works over any exact ring; only dot pairs
with a rational functional.

pivots and int_product keep a row of ints as one int with a signed slot of
a fixed number of bits per entry (Kronecker substitution), so one big-int
operation does the work of a loop over the row's entries.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, repeat
from operator import lshift, mul, sub
from struct import Struct

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


def _slot_width(bound: int) -> int:
    """Bits per packed slot, a whole number of bytes, with bound < 2^(width - 1)."""
    return 8 * (bound.bit_length() // 8 + 1)


def _ones(width: int, n: int) -> int:
    """sum(2^(width i) for i < n): 1 in each of n slots."""
    return int.from_bytes((b"\x01" + bytes(width // 8 - 1)) * n, "little")


def _pack(rows: Matrix, width: int) -> list[int]:
    """Each row as one int, sum(x_j 2^(width j)) (Kronecker substitution)."""
    shifts = range(0, width * len(rows[0]), width)
    return [sum(map(lshift, row, shifts)) for row in rows]


def _splitter(width: int, n: int):
    """A function from a packed row of n slots to their bytes, each slot plus 2^(width - 1).

    The offset makes every slot a nonnegative number below 2^width, so the
    bytes of the offset row split into the slots with no borrow between them.
    """
    k = width // 8
    offset = (1 << (width - 1)) * _ones(width, n)
    split = Struct(f"{k}s" * n).unpack
    return lambda row: split((row + offset).to_bytes(n * k, "little"))


def _widen(rows: list[int], width: int, n: int) -> list[int]:
    """Packed rows of n slots moved to slots of twice the width."""
    split = _splitter(width, n)
    spread = Struct(f"{width // 8}s{width // 8}x" * n).pack  # pads each slot with zero bytes
    offset = (1 << (width - 1)) * _ones(2 * width, n)
    return [int.from_bytes(spread(*split(row)), "little") - offset for row in rows]


def int_product(a: Matrix, b: Matrix) -> Matrix:
    """a times b over Z, one sum over the packed rows of b per row of a.

    With the rows of b packed, sum(map(mul, row, packed)) is a whole row of
    the product, packed in the same slots.  Its entries are at most
    len(b) max|a| max|b| in absolute value, which fixes the slot width.
    """
    n = len(b[0]) if b else 0
    if not n:
        return [[] for _ in a]
    bound = len(b) * max(map(abs, chain.from_iterable(a)), default=0) * max(map(abs, chain.from_iterable(b)))
    width = _slot_width(bound)
    packed = _pack(b, width)
    split, half = _splitter(width, n), 1 << (width - 1)
    slots = (split(sum(map(mul, row, packed))) for row in a)
    return [list(map(sub, map(int.from_bytes, row, repeat("little")), repeat(half))) for row in slots]


def pivots(a: Matrix) -> tuple[list[int], list[int]]:
    """Bareiss elimination over Z: (pivot columns, pivot rows).

    The pivot columns are the leftmost independent columns of a, in order,
    and the pivot rows are indices into a's original rows; the minor on
    pivot rows x pivot columns is nonsingular.  The exact // of the
    fraction-free steps needs int entries.

    The pivot row of a column is the row with the smallest entry bound
    among the live rows with a nonzero entry there, the first in the
    current row order on a tie.  After k steps the entry of row r in column
    j is the minor of a on the k pivot rows and row r, the k pivot columns
    and column j (Bareiss, Math. Comp. 22, 1968), so rows whose entries
    stayed small keep the later minors, the slots and the divisions small.
    Any row with a nonzero entry gives the same pivot columns and a
    nonsingular minor, so only which rows are taken depends on the rule.

    Each row is one int with a signed slot of width bits per column
    (Kronecker substitution), so a step updates a whole row with
    ((piv P_r - lead P_k) >> width) // prev: the shift drops the eliminated
    column, and the division is exact because it is exact in every slot.
    Before each step the new entries of row r are bounded by
    (|piv| X_r + |lead| X_k) // |prev|, from the bounds X of the two rows;
    when a bound could reach 2^(width - 1), every live row is first moved
    to slots twice as wide, so no slot ever spills into the next.
    """
    if not a or not a[0]:
        return [], []
    if not set(map(type, chain.from_iterable(a))) <= {int}:
        raise TypeError("elimination needs int entries")
    ncols = len(a[0])
    # the rows below the pivots, in the order the row swaps leave them, with
    # a bound on the entries of each and its index in a
    bound = [max(map(abs, chain.from_iterable(a)))] * len(a)
    width = _slot_width(bound[0])
    rows = _pack(a, width)
    order = list(range(len(a)))
    cols: list[int] = []
    taken: list[int] = []
    prev = 1
    for col in range(ncols):
        if not any(rows):
            break
        mask, half = (1 << width) - 1, 1 << (width - 1)
        leads = [((row & mask) ^ half) - half for row in rows]  # the signed low slots: column col
        if not any(leads):
            rows = [row >> width for row in rows]
            continue
        p = min(compress(range(len(leads)), leads), key=bound.__getitem__)
        pivot, piv, pivot_bound = rows[p], leads[p], bound[p]
        cols.append(col)
        taken.append(order[p])
        # the first live row takes the pivot row's place
        rows[p], leads[p], bound[p], order[p] = rows[0], leads[0], bound[0], order[0]
        del rows[0], leads[0], bound[0], order[0]
        scale, shrink = abs(piv), abs(prev)
        bound = [(scale * x + abs(lead) * pivot_bound) // shrink for x, lead in zip(bound, leads)]
        if bound and max(bound) >= half:  # below 2^(2 width - 1), as every factor is below 2^(width - 1)
            pivot, *rows = _widen([pivot, *rows], width, ncols - col)
            width *= 2
        rows = [((piv * row - lead * pivot) >> width) // prev for row, lead in zip(rows, leads)]
        prev = piv
    return cols, taken


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
