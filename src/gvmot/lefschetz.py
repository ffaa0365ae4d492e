"""sl2 representation data: spin content, tensor products, genus decomposition,
and Jordan cell censuses of graded nilpotent operators.

Half-integer spins are stored as doubled integers (key 2j), so everything
stays in exact integer arithmetic.  Spin contents, bispin contents and
censuses are all formal integer combinations (IntegerCombination).
Multiplicities may be negative: virtual representations appear naturally
when a bigraded space is expanded in the torus basis, whose coefficients
are read off in closed form (genus_decompose).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import comb, lcm
from operator import mul
from typing import Iterable, Mapping

from . import linalg
from .errors import Frozen, NotRepresentationError, ShapeMismatchError, VirtualInputError, check_int


class IntegerCombination(Frozen):
    """Frozen formal integer combination of keyed basis elements.

    Keys are kept sorted and zero values are dropped, so equal combinations
    have equal dicts.  Values may be negative (virtual combinations).
    Keys and multiplicities are ints (errors.check_int).  Each subclass
    names its basis through a static _check_key, which validates one key.
    """

    __slots__ = _key = ("_mult",)

    def __init__(self, mult: Mapping | None = None):
        check = self._check_key
        clean = {check(key): check_int(m, "multiplicity") for key, m in (mult or {}).items()}
        self._set(_mult={k: m for k, m in sorted(clean.items()) if m})

    @property
    def mult(self) -> dict:
        return dict(self._mult)

    def items(self):
        return self._mult.items()

    def is_zero(self) -> bool:
        return not self._mult

    def is_virtual(self) -> bool:
        return any(m < 0 for m in self._mult.values())

    def __hash__(self) -> int:
        # the key slot is a dict, which does not hash; its sorted items do
        return hash(tuple(self._mult.items()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._mult})"


class SpinMultiset(IntegerCombination):
    """Formal integer combination of irreducible spin representations.

    Keys are doubled spins (2j >= 0), values are multiplicities (negative
    allowed for virtual representations).
    """

    __slots__ = ()

    @staticmethod
    def _check_key(two_j: int) -> int:
        if check_int(two_j, "doubled spin") < 0:
            raise ValueError("doubled spin must be nonnegative")
        return two_j

    @classmethod
    def zero(cls) -> "SpinMultiset":
        return cls()

    def dimension(self) -> int:
        return sum(m * (two_j + 1) for two_j, m in self._mult.items())

    def signed_dimension(self) -> int:
        """sum_j (-1)^{2j} (2j+1) N_j: half-integer spins count negatively."""
        return sum((-1) ** two_j * (two_j + 1) * m for two_j, m in self._mult.items())

    def weight_dims(self) -> dict[int, int]:
        """Multiplicity of each h-weight; inverse of spin_decompose."""
        dims: dict[int, int] = {}
        for two_j, m in self._mult.items():
            for w in range(-two_j, two_j + 1, 2):
                dims[w] = dims.get(w, 0) + m
        return {w: d for w, d in sorted(dims.items()) if d != 0}


class BispinContent(IntegerCombination):
    """Content of a bigraded left x right spin action: (2jL, 2jR) -> multiplicity."""

    __slots__ = ()

    @staticmethod
    def _check_key(key: tuple[int, int]) -> tuple[int, int]:
        two_jl, two_jr = key
        if check_int(two_jl, "doubled spin") < 0 or check_int(two_jr, "doubled spin") < 0:
            raise ValueError("doubled spins must be nonnegative")
        return two_jl, two_jr


class JordanCensus(IntegerCombination):
    """Counts of nilpotent strings: (minimal degree alpha, size l) -> count."""

    __slots__ = ()

    @staticmethod
    def _check_key(key: tuple[int, int]) -> tuple[int, int]:
        alpha, l = key
        if check_int(l, "cell size") < 1:
            raise ValueError("cell size must be positive")
        return check_int(alpha, "string degree"), l

    def total_dimension(self) -> int:
        return sum(l * n for (_, l), n in self._mult.items())


def _denominator(c) -> int:
    if type(c) is int or isinstance(c, Fraction):
        return c.denominator
    raise TypeError(f"matrix entries are int or Fraction, not {type(c).__name__}")


def _scaled(rows: list[list]) -> linalg.Matrix:
    """Rows of int and Fraction entries times the lcm of their denominators: rows of ints."""
    scale = lcm(*(_denominator(c) for row in rows for c in row))
    return [[int(c * scale) for c in row] for row in rows]


class GradedNilpotent(Frozen):
    """A graded vector space with a degree +2 operator given by exact matrices.

    dims maps degree -> dimension; maps[alpha] is the matrix of
    V_alpha -> V_{alpha+2} with shape (dims[alpha+2], dims[alpha]).  Maps into
    or out of absent degrees must be omitted (they are forced zero), so with a
    finite grading every composite eventually leaves the support and the
    operator is nilpotent by construction.

    Entries are int or Fraction; each map is stored times the lcm of its
    entries' denominators, so stored maps hold ints and ranks run over Z.
    Maps are thus kept up to a nonzero scalar per degree, which no rank of a
    composite (so no census) can see; conjugate can return a scaled operator.
    """

    __slots__ = ("dims", "maps")

    def __init__(self, dims: Mapping[int, int], maps: Mapping[int, list[list]] | None = None):
        clean_dims = {check_int(d, "degree"): check_int(n, "dimension") for d, n in dims.items()}
        if any(n < 0 for n in clean_dims.values()):
            raise ValueError("dimensions must be nonnegative")
        # each map is checked and copied, or scaled to ints, when the shape check reaches it
        owned = (
            (check_int(alpha, "degree"), [list(row) for row in rows] if set(map(type, chain.from_iterable(rows))) <= {int} else _scaled(rows))
            for alpha, rows in (maps or {}).items()
        )
        self._place(clean_dims, owned)

    @classmethod
    def _built(cls, dims: dict[int, int], maps: dict[int, linalg.Matrix]) -> "GradedNilpotent":
        """An operator of checked parts that the caller hands over, not checked
        or copied again: int degrees, nonnegative int dims, and maps of rows
        of ints that no one else holds.  The shapes are checked as the
        constructor checks them."""
        obj = object.__new__(cls)
        obj._place(dims, maps.items())
        return obj

    def _place(self, dims: dict[int, int], maps: Iterable[tuple[int, linalg.Matrix]]) -> None:
        """Set the nonzero dims and the maps of rows of ints, each map checked against its shape."""
        dims = {d: n for d, n in dims.items() if n}
        clean_maps: dict[int, linalg.Matrix] = {}
        for alpha, rows in maps:
            src = dims.get(alpha, 0)
            dst = dims.get(alpha + 2, 0)
            if src == 0 or dst == 0:
                if any(any(row) for row in rows):
                    raise ShapeMismatchError(
                        f"nonzero map out of degree {alpha} with missing source or target"
                    )
                continue
            if len(rows) != dst or any(len(row) != src for row in rows):
                raise ShapeMismatchError(f"map at degree {alpha}: expected shape {dst}x{src}")
            clean_maps[alpha] = rows
        self._set(dims=dict(sorted(dims.items())), maps=clean_maps)

    def dimension(self) -> int:
        return sum(self.dims.values())

    def map_at(self, alpha: int) -> linalg.Matrix:
        src = self.dims.get(alpha, 0)
        dst = self.dims.get(alpha + 2, 0)
        if alpha in self.maps:
            return self.maps[alpha]
        return linalg.zero_matrix(dst, src)

    def conjugate(self, basis: Mapping[int, linalg.Matrix]) -> "GradedNilpotent":
        """Change basis degreewise by int P: new map = P_{a+2} M_a P_a^{-1}, up to a scalar."""
        inverses = {d: linalg.adjugate(p)[1] for d, p in basis.items()}
        new_maps = {}
        for alpha in self.maps:
            m = self.maps[alpha]
            if alpha in inverses:
                m = linalg.mat_mul(m, inverses[alpha])
            if alpha + 2 in basis:
                m = linalg.mat_mul(basis[alpha + 2], m)
            new_maps[alpha] = m
        return GradedNilpotent(self.dims, new_maps)


# -- spin decomposition and tensor products ----------------------------------


def spin_decompose(dims: Mapping[int, int]) -> SpinMultiset:
    """Decompose symmetric unimodal weight dimensions into irreducible spins.

    mult(2j = k) = dim(-k) - dim(-k-2); the reconstruction of weight spaces
    from the output reproduces the input exactly.
    """
    clean = {check_int(k, "weight"): check_int(n, "weight dimension") for k, n in dims.items()}
    clean = {k: n for k, n in clean.items() if n}
    if any(n < 0 for n in clean.values()):
        raise NotRepresentationError("negative weight dimension")
    if not clean:
        return SpinMultiset.zero()
    for k, n in clean.items():
        if clean.get(-k, 0) != n:
            raise NotRepresentationError(f"dims not symmetric at weight {k}")
    mult = {}
    top = max(abs(k) for k in clean)
    for k in range(0, top + 1):
        m = clean.get(-k, 0) - clean.get(-k - 2, 0)
        if m < 0:
            raise NotRepresentationError(f"dims not unimodal toward 0 at weight {-k}")
        if m:
            mult[k] = m
    return SpinMultiset(mult)


def tensor(x: SpinMultiset, y: SpinMultiset) -> SpinMultiset:
    """Clebsch-Gordan product, extended bilinearly over virtual multiplicities."""
    out: dict[int, int] = {}
    for j1, m1 in x.items():
        for j2, m2 in y.items():
            m = m1 * m2
            for j in range(abs(j1 - j2), j1 + j2 + 1, 2):
                out[j] = out.get(j, 0) + m
    return SpinMultiset(out)


def torus_rep(g: int) -> SpinMultiset:
    """Spin content [(1/2) + 2(0)]^{tensor g}: the cohomology of a g-torus.

    Its weight dimensions are the coefficients of (x^-1 + 2 + x)^g =
    x^-g (1 + x)^{2g}, so weight w has dimension C(2g, g - w), and mult(2j = k)
    is the difference C(2g, g - k) - C(2g, g - k - 2) of consecutive weight
    spaces, with C(n, m) = 0 for m < 0.  The row C(2g, 0..g) is built once by
    C(2g, m+1) = C(2g, m) (2g - m) / (m + 1).
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    row = [0, 0, 1]  # C(2g, m) at index m + 2
    for m in range(g):
        row.append(row[-1] * (2 * g - m) // (m + 1))
    return SpinMultiset({k: row[g - k + 2] - row[g - k] for k in range(g + 1)})


def _right_factor(v: BispinContent, g: int) -> SpinMultiset:
    """Right-spin coefficient of torus_rep(g) in the torus-basis expansion of v.

    With Y = u + 1/u, the left spin 2jL = l has character U_l(Y/2) and
    torus_rep(g) has character (Y + 2)^g, so the coefficients are the Taylor
    coefficients of U_l(Y/2) at Y = -2: (-1)^(l-g) C(l+g+1, 2g+1) for g <= l.
    """
    out: dict[int, int] = {}
    for (l, r), m in v.items():
        if 0 <= g <= l:
            out[r] = out.get(r, 0) + (-1) ** (l - g) * comb(l + g + 1, 2 * g + 1) * m
    return SpinMultiset(out)


def genus_decompose(v: BispinContent) -> dict[int, SpinMultiset]:
    """Expand left content in the torus basis, collecting right-spin coefficients.

    Read off in closed form (see _right_factor), also on virtual input; the
    genera with a nonzero right factor are returned.  The reconstruction
    sum_g (torus_rep(g) tensor R_g) equals the input (Hosono-Saito-Takahashi,
    Katz-Klemm-Vafa).
    """
    top = max((l for (l, _), _ in v.items()), default=-1)
    factors = {g: _right_factor(v, g) for g in range(top + 1)}
    return {g: right for g, right in factors.items() if not right.is_zero()}


def genus_count(v: BispinContent, g: int) -> int:
    """Signed dimension of the genus-g right factor; one genus of genus_decompose.

    Read straight off _right_factor's closed form, without building the factor:
    the sum over summands (l, r) x m with g <= l of (-1)^(l-g+r) (r+1) C(l+g+1, 2g+1) m.
    """
    total = 0
    for (l, r), m in v.items():
        if 0 <= g <= l:
            term = (r + 1) * comb(l + g + 1, 2 * g + 1) * m
            total += -term if (l - g + r) % 2 else term
    return total


# -- Jordan censuses ----------------------------------------------------------


def jordan_census(x: GradedNilpotent) -> JordanCensus:
    """Census of Jordan strings by minimal degree and size, read off the
    pivots of one elimination per stored map.

    The elimination of M_a works in a basis adapted to the flag of images
    F_k = M^k V_(a-2k) in degree a.  The flag columns carry tags that do not
    increase along the list, and those tagged >= k span F_k.  Standard
    vectors e_i complete them to a basis of V_a, for every i that is not a
    pivot row of the elimination that made the flag.  The pivots tagged >= k
    number the rank of M^(k+1) out of degree a-2k, so one tagged k closes a
    string that starts at a-2k and has length at least k+2; the strings
    starting at a number dim V_a less the pivots of M_(a-2).  Each cell is a
    difference of consecutive tail counts.  The pivot columns, tags raised
    by one, are the flag of degree a+2; each is a column of a composite, so
    entries grow no larger than the composites'.
    The census asks of the pivot rows only that their minor be nonsingular,
    so the elimination may take, of the rows that could serve, the one whose
    entries are bounded smallest: every later entry of the elimination is a
    minor through it, which keeps the packed rows short, and the e_i
    completing the next flag are those of the rows left.

    Every matrix stays in packed rows (linalg's Kronecker substitution) from
    the product to the next degree's flag.  The basis [flag | e_free] is
    packed as rows of V_a: the flag part arrives packed from the previous
    degree, moved to this product's slots by one struct format, and each
    free e_i adds a 1 in its own slot.  A row of M_a then gives a whole row
    of the product as one sum over the basis rows, in slots sized by the
    row-sum bound max_i sum_p |M_ip| times the flag's bound.  The exact-fit
    test narrows the product to the least slots that hold its entries, and
    the elimination starts from that bound.  It keeps the rows in buckets
    by their first nonzero column and brings a row to the current scale only
    when a step reads it, so a step touches only the rows with a nonzero
    entry in its column, about a third of the rows still stored on the
    benchmark's spectra operators.  The pivot columns' slots of the product
    are the next flag.
    """
    # (start, length) -> the strings that start there with at least that length
    tails: dict[tuple[int, int], int] = {}
    # degree -> the packed product that made its flag (slots of width bits,
    # every entry at most bound), the flag's columns of it, their tags, and
    # the pivot rows of its elimination
    flags: dict[int, tuple[list[int], int, int, list[int], list[int], list[int]]] = {}
    for alpha, dim_alpha in x.dims.items():
        product, width, bound, cols, tags, taken = flags.pop(alpha, ([], 8, 1, [], [], []))
        tails[(alpha, 1)] = dim_alpha - len(cols)
        step = x.maps.get(alpha)
        if step is None:  # a missing map is zero, and so is every composite through it
            continue
        bound *= max(max(sum(map(abs, row)) for row in step), 1)
        wide = linalg._slot_width(bound)
        basis = linalg._respace(product, width, x.dims[alpha - 2], cols, wide) if cols else [0] * dim_alpha
        taken = set(taken)
        free = [i for i in range(dim_alpha) if i not in taken]
        for slot, i in enumerate(free, len(cols)):
            basis[i] += 1 << (wide * slot)
        rows = [sum(map(mul, row, basis)) for row in step]
        bound = min(1 << linalg._fit(rows, wide, dim_alpha), bound)
        width = linalg._slot_width(bound)
        if width < wide:
            rows = linalg._respace(rows, wide, dim_alpha, range(dim_alpha), width)
        tags = tags + [0] * len(free)
        cols, pivot_rows = linalg._eliminate(rows, width, dim_alpha, bound)
        picked = [tags[j] for j in cols]
        for k in picked:
            tails[(alpha - 2 * k, k + 2)] = tails.get((alpha - 2 * k, k + 2), 0) + 1
        flags[alpha + 2] = (rows, width, bound, cols, [t + 1 for t in picked], pivot_rows)
    return JordanCensus({(b, l): n - tails.get((b, l + 1), 0) for (b, l), n in tails.items()})


def census_from_bispin(v: BispinContent) -> JordanCensus:
    """Cells of the right raising operator on a bigraded representation.

    Each (2jL, 2jR) summand contributes, for every left weight w, a string of
    size 2jR + 1 with minimal degree w - 2jR.  Needs honest (nonnegative)
    multiplicities: virtual summands have no cell interpretation.
    """
    if v.is_virtual():
        raise VirtualInputError("negative multiplicities have no Jordan cells")
    cells: dict[tuple[int, int], int] = {}
    for (two_jl, two_jr), m in v.items():
        for w in range(-two_jl, two_jl + 1, 2):
            key = (w - two_jr, two_jr + 1)
            cells[key] = cells.get(key, 0) + m
    return JordanCensus(cells)


def census_count(c: JordanCensus, g: int) -> list[int]:
    """Closed-form counts of genera 0..g from a census: alternating
    binomial-weighted cell sums ([] when g < 0).

    The genus-g count is the sum over cells (alpha, l) x n with N = alpha + l
    >= 1 of (-1)^(alpha + g) l n (C(N + g, 2g + 1) - C(N + g - 2, 2g + 1)).
    Convention: C(n, k) = 0 unless 0 <= k <= n.  This is forced by the point
    census {(0,1): 1} giving 1 at genus 0.

    With w_N the sum of (-1)^alpha l n over the cells of one N, the count is
    (-1)^g sum_N (w_N - w_(N+2)) C(N + g, 2g + 1), and each N gives the
    binomials of every genus in one row: C(N, 1) = N and
    C(N+g+1, 2g+3) = C(N+g, 2g+1) (N+g+1) (N-g-1) / ((2g+2) (2g+3)),
    which is 0 from g = N - 1 on.
    """
    weights: dict[int, int] = {}
    for (alpha, l), n in c.items():
        if alpha + l >= 1:
            w = -l * n if alpha % 2 else l * n
            weights[alpha + l] = weights.get(alpha + l, 0) + w
            weights[alpha + l - 2] = weights.get(alpha + l - 2, 0) - w
    counts = [0] * (g + 1)
    for big_n, w in weights.items():
        if big_n < 1 or not w:
            continue
        binom = big_n
        for h in range(min(big_n, g + 1)):
            counts[h] += w * binom
            binom = binom * (big_n + h + 1) * (big_n - h - 1) // ((2 * h + 2) * (2 * h + 3))
    return [-x if h % 2 else x for h, x in enumerate(counts)]


def strings_operator(census: JordanCensus) -> GradedNilpotent:
    """Direct sum of Jordan strings whose census is the given one.

    Each of the n strings counted at (alpha, l) gets basis vectors in degrees
    alpha, alpha + 2, ..., alpha + 2(l - 1), and the operator maps each vector
    to the next one of its string with coefficient 1.
    """
    if census.is_virtual():
        raise VirtualInputError("cannot realize virtual multiplicities")
    slots: dict[int, list[tuple[int, int]]] = {}
    strings = 0
    for (alpha, l), n in census.items():
        for _ in range(n):
            for pos in range(l):
                slots.setdefault(alpha + 2 * pos, []).append((strings, pos))
            strings += 1
    maps = {}
    for degree, basis in slots.items():
        target = slots.get(degree + 2)
        if not target:
            continue
        index = {slot: i for i, slot in enumerate(target)}
        mat = linalg.zero_matrix(len(target), len(basis))
        for j, (string, pos) in enumerate(basis):
            i = index.get((string, pos + 1))
            if i is not None:
                mat[i][j] = 1
        maps[degree] = mat
    return GradedNilpotent({d: len(basis) for d, basis in slots.items()}, maps)


def realize_bispin(v: BispinContent) -> GradedNilpotent:
    """Concrete graded nilpotent whose census matches census_from_bispin(v)."""
    return strings_operator(census_from_bispin(v))
