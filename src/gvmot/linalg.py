"""Small exact linear algebra over Z: eliminations, products and adjugates.

Matrices are lists of row lists.  One fraction-free Bareiss elimination over
Z, pivots, returns the pivot columns (the leftmost independent columns) and
the original indices of the pivot rows, whose minor is nonsingular; a rank
is the length of its pivot list.  Its pivot row is, of the rows with a
nonzero entry in the pivot column, the one with the smallest bound on its
entries, since every later entry is a minor through the pivot rows.  The
fraction-free Gauss-Jordan adjugate gives an inverse times its determinant,
d a^-1, with no fraction.  Both need int entries, so a rational matrix is
scaled to integers before it gets here (GradedNilpotent does this once per
map).  mat_mul works over any exact ring; only dot pairs with a rational
functional.

The elimination works on packed rows: a row of ints is one int with a signed
slot of a fixed number of bits per entry (Kronecker substitution), so one
big-int operation does the work of a loop over the row's entries.  Its core,
_eliminate, takes rows already packed, and three kernels keep a caller's
rows packed from one elimination to the next: _fits and _fit read the least
b with every slot in [-2^b, 2^b) without unpacking a row, and _respace moves
any selection of slots to slots of another width with one struct format.
pivots packs a list matrix and calls the core; Jordan censuses call the
core on products they never unpack.  The core keeps its rows in buckets by
their lowest nonzero slot and scales a row only when a step reads it, so a
step touches just the rows with a nonzero entry in its column.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import chain
from operator import lshift
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


def _fits(rows: list[int], width: int, n: int, b: int) -> bool:
    """Whether every slot x of packed rows of n slots has -2^b <= x < 2^b, for 0 <= b < width.

    Adding 2^b to every slot leaves each slot x that fits in [0, 2^(b+1)),
    with no borrow into the next, so bits b+1..width-1 of every slot are
    clear.  Nothing borrows into the lowest slot that does not fit, and
    there x + 2^b mod 2^width lies in [2^(b+1), 2^width), as
    -2^(width-1) <= x < 2^(width-1): one of its bits b+1..width-1 is set.
    """
    ones = _ones(width, n)
    low, high = ones << b, ((1 << width) - (2 << b)) * ones
    return not any((row + low) & high for row in rows)


def _fit(rows: list[int], width: int, n: int) -> int:
    """The least b with -2^b <= x < 2^b for every slot x, bisecting on _fits.

    Every slot of a packed row of this width lies in [-2^(width-1), 2^(width-1)),
    so b = width - 1 fits.
    """
    return bisect_left(range(width - 1), True, key=lambda b: _fits(rows, width, n, b))


def _respace(rows: list[int], width: int, n: int, keep, new_width: int) -> list[int]:
    """The slots keep (increasing) of packed rows of n slots, packed again in slots of new_width bits.

    The offset 2^(w-1), w the narrower of the two widths, makes every slot a
    nonnegative number below 2^w, so the bytes of the offset row split into
    slots with no borrow between them.  One struct format unpacks the kept
    slots' low w bits and skips the dropped slots as pad bytes; a second
    packs them with zero bytes above.  Narrowing needs every slot to fit a
    signed slot of new_width bits, as a dropped slot below -2^(w-1) would
    borrow from the slot above it.
    """
    k, new_k = width // 8, new_width // 8
    m = min(k, new_k)
    kept = set(keep)
    split = Struct("".join(f"{m}s{k - m}x" if j in kept else f"{k}x" for j in range(n))).unpack
    join = Struct(f"{m}s{new_k - m}x" * len(kept)).pack
    half = 1 << (8 * m - 1)
    offset, back = half * _ones(width, n), half * _ones(new_width, len(kept))
    return [int.from_bytes(join(*split((row + offset).to_bytes(n * k, "little"))), "little") - back for row in rows]


def _eliminate(rows: list[int], width: int, ncols: int, bound: int) -> tuple[list[int], list[int]]:
    """Bareiss elimination of packed rows of ncols slots: (pivot columns, pivot rows).

    The packed core of pivots.  Every entry is at most bound in absolute
    value, and bound < 2^(width - 1); every row's bound starts there.  The
    list rows is left as it is.  A step reads and writes only the rows with
    a nonzero entry in its column, the bucket of that column; see pivots.
    """
    # bucket c: (R from slot c on, stamp s, bound at s, index) of the rows led by column c
    buckets: list[list[tuple[int, int, int, int]]] = [[] for _ in range(ncols)]
    for i, row in enumerate(rows):
        if row:
            k = ((row & -row).bit_length() - 1) // width
            buckets[k].append((row >> (k * width), 1, bound, i))
    cols: list[int] = []
    taken: list[int] = []
    prev = 1
    for col, bucket in enumerate(buckets):
        if not bucket:
            continue
        mask, half = (1 << width) - 1, 1 << (width - 1)
        # each row's lead and bound now, at the scale prev / s of its stamp
        leads = [(((row & mask) ^ half) - half) * prev // s for row, s, _, _ in bucket]
        bounds = [x * abs(prev) // abs(s) for _, s, x, _ in bucket]
        p = min(range(len(bucket)), key=bounds.__getitem__)
        pivot, stamp, _, i = bucket.pop(p)
        piv, pivot_bound = leads.pop(p), bounds.pop(p)
        cols.append(col)
        taken.append(i)
        scale, shrink = abs(piv), abs(prev)
        bounds = [(scale * x + abs(lead) * pivot_bound) // shrink for x, lead in zip(bounds, leads)]
        if bounds and max(bounds) >= half:
            # every stored row in one call, each at its stamp; a stale row can
            # be past the slot now, so one doubling need not be enough
            stored = [pivot, *(row for b in buckets[col:] for row, _, _, _ in b)]
            new_width = max(2 * width, _slot_width(max(bounds)))
            moved = iter(_respace(stored, width, ncols - col, range(ncols - col), new_width))
            pivot = next(moved)
            for b in buckets[col:]:
                b[:] = [(next(moved), s, x, j) for _, s, x, j in b]
            width = new_width
        if stamp != prev:
            pivot = pivot * prev // stamp
        for (row, s, _, j), lead, x in zip(bucket, leads, bounds):
            if s != prev:
                row = row * prev // s
            row = (piv * row - lead * pivot) // prev
            if row:
                k = ((row & -row).bit_length() - 1) // width
                buckets[col + k].append((row >> (k * width), piv, x, j))
        bucket.clear()
        prev = piv
    return cols, taken


def pivots(a: Matrix) -> tuple[list[int], list[int]]:
    """Bareiss elimination over Z: (pivot columns, pivot rows).

    The pivot columns are the leftmost independent columns of a, in order,
    and the pivot rows are indices into a's original rows; the minor on
    pivot rows x pivot columns is nonsingular.  The exact // of the
    fraction-free steps needs int entries.

    After k steps the entry of row r in column j is the minor of a on the k
    pivot rows and row r, the k pivot columns and column j (Bareiss, Math.
    Comp. 22, 1968).  The rows are packed, each one int with a signed slot
    of width bits per column (Kronecker substitution), and _eliminate does
    the steps.  Each row waits in the bucket of its lead, the lowest nonzero
    slot, which is the lowest set bit divided by width because every slot
    below it is exactly 0; it is stored shifted down to that slot, so the
    rows of a bucket line up at slot 0.  A stored row R carries the pivot s
    of the step that last wrote it, its stamp, and a bound X on its entries
    then.  A step whose lead in a row is 0 only scales the row
    by piv / prev, and a run of such steps telescopes, so the row's Bareiss
    value now is R prev // s, exactly, with bound X |prev| // |s|.

    The step at column c reads only bucket c.  Its pivot row is the one
    with the smallest bound now, the first in the bucket on a tie; rows
    arrive in a bucket in the order of a's rows, then in the order they are
    written.  Rows whose entries stayed small keep the later minors, the
    slots and the divisions small; any row of the bucket would give the
    same pivot columns and a nonsingular minor, so only which rows are
    taken depends on the rule.  Every other row of the bucket is brought to
    scale and updated with (piv R - lead P) // prev, which is exact because
    it is exact in every slot, then stamped piv with bound
    (|piv| X_r + |lead| X_p) // |prev| and put in the bucket of its new
    lead; a row that becomes 0 leaves.  Every bound starts at the largest
    |entry| of a.  When a new bound could reach 2^(width - 1), every
    stored row is first moved, at its stamp, to slots of
    max(2 width, the slot of that bound) bits in one _respace, so no slot
    ever spills into the next.
    """
    if not a or not a[0]:
        return [], []
    if not set(map(type, chain.from_iterable(a))) <= {int}:
        raise TypeError("elimination needs int entries")
    bound = max(map(abs, chain.from_iterable(a)))
    width = _slot_width(bound)
    return _eliminate(_pack(a, width), width, len(a[0]), bound)


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
