"""sl2 representation data: spin content, tensor products, genus decomposition,
and Jordan cell censuses of graded nilpotent operators.

Half-integer spins are stored as doubled integers (key 2j), so everything
stays in exact integer arithmetic.  Multiplicities may be negative: virtual
representations appear naturally when a bigraded space is expanded in the
torus basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Mapping

from . import linalg
from .errors import NotRepresentationError, ShapeMismatchError, VirtualInputError


class SpinMultiset:
    """Formal integer combination of irreducible spin representations.

    Keys are doubled spins (2j >= 0), values are multiplicities (negative
    allowed for virtual representations).
    """

    __slots__ = ("_mult",)

    def __init__(self, mult: Mapping[int, int] | None = None):
        clean = {}
        if mult:
            for two_j, m in mult.items():
                if two_j < 0:
                    raise ValueError("doubled spin must be nonnegative")
                if m != 0:
                    clean[int(two_j)] = int(m)
        object.__setattr__(self, "_mult", dict(sorted(clean.items())))

    @classmethod
    def zero(cls) -> "SpinMultiset":
        return cls()

    @classmethod
    def single(cls, two_j: int, mult: int = 1) -> "SpinMultiset":
        return cls({two_j: mult})

    @property
    def mult(self) -> dict[int, int]:
        return dict(self._mult)

    def multiplicity(self, two_j: int) -> int:
        return self._mult.get(two_j, 0)

    def items(self):
        return self._mult.items()

    def is_zero(self) -> bool:
        return not self._mult

    def is_virtual(self) -> bool:
        return any(m < 0 for m in self._mult.values())

    def max_two_j(self) -> int:
        return max(self._mult) if self._mult else -1

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

    def __add__(self, other: "SpinMultiset") -> "SpinMultiset":
        out = dict(self._mult)
        for k, m in other._mult.items():
            out[k] = out.get(k, 0) + m
        return SpinMultiset(out)

    def __sub__(self, other: "SpinMultiset") -> "SpinMultiset":
        out = dict(self._mult)
        for k, m in other._mult.items():
            out[k] = out.get(k, 0) - m
        return SpinMultiset(out)

    def scale(self, c: int) -> "SpinMultiset":
        return SpinMultiset({k: c * m for k, m in self._mult.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SpinMultiset) and self._mult == other._mult

    def __hash__(self) -> int:
        return hash(tuple(self._mult.items()))

    def __repr__(self) -> str:
        if not self._mult:
            return "SpinMultiset(0)"
        body = ", ".join(f"(2j={k}): {m}" for k, m in self._mult.items())
        return f"SpinMultiset({body})"


class BispinContent:
    """Content of a bigraded left x right spin action: (2jL, 2jR) -> multiplicity."""

    __slots__ = ("_mult",)

    def __init__(self, mult: Mapping[tuple[int, int], int] | None = None):
        clean = {}
        if mult:
            for (two_jl, two_jr), m in mult.items():
                if two_jl < 0 or two_jr < 0:
                    raise ValueError("doubled spins must be nonnegative")
                if m != 0:
                    clean[(int(two_jl), int(two_jr))] = int(m)
        object.__setattr__(self, "_mult", dict(sorted(clean.items())))

    @property
    def mult(self) -> dict[tuple[int, int], int]:
        return dict(self._mult)

    def items(self):
        return self._mult.items()

    def is_zero(self) -> bool:
        return not self._mult

    def is_virtual(self) -> bool:
        return any(m < 0 for m in self._mult.values())

    def dimension(self) -> int:
        return sum(m * (l + 1) * (r + 1) for (l, r), m in self._mult.items())

    def right_spins(self) -> list[int]:
        return sorted({r for (_, r) in self._mult})

    def left_content(self, two_jr: int) -> SpinMultiset:
        return SpinMultiset({l: m for (l, r), m in self._mult.items() if r == two_jr})

    def __add__(self, other: "BispinContent") -> "BispinContent":
        out = dict(self._mult)
        for k, m in other._mult.items():
            out[k] = out.get(k, 0) + m
        return BispinContent(out)

    def __sub__(self, other: "BispinContent") -> "BispinContent":
        out = dict(self._mult)
        for k, m in other._mult.items():
            out[k] = out.get(k, 0) - m
        return BispinContent(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BispinContent) and self._mult == other._mult

    def __hash__(self) -> int:
        return hash(tuple(self._mult.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"(2jL={l}, 2jR={r}): {m}" for (l, r), m in self._mult.items())
        return f"BispinContent({body or '0'})"


class JordanCensus:
    """Counts of nilpotent strings: (minimal degree alpha, size l) -> count."""

    __slots__ = ("_cells",)

    def __init__(self, cells: Mapping[tuple[int, int], int] | None = None):
        clean = {}
        if cells:
            for (alpha, l), n in cells.items():
                if l < 1:
                    raise ValueError("cell size must be positive")
                if n != 0:
                    clean[(int(alpha), int(l))] = int(n)
        object.__setattr__(self, "_cells", dict(sorted(clean.items())))

    @property
    def cells(self) -> dict[tuple[int, int], int]:
        return dict(self._cells)

    def items(self):
        return self._cells.items()

    def is_zero(self) -> bool:
        return not self._cells

    def is_virtual(self) -> bool:
        return any(n < 0 for n in self._cells.values())

    def total_dimension(self) -> int:
        return sum(l * n for (_, l), n in self._cells.items())

    def __add__(self, other: "JordanCensus") -> "JordanCensus":
        out = dict(self._cells)
        for k, n in other._cells.items():
            out[k] = out.get(k, 0) + n
        return JordanCensus(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, JordanCensus) and self._cells == other._cells

    def __hash__(self) -> int:
        return hash(tuple(self._cells.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"(alpha={a}, l={l}): {n}" for (a, l), n in self._cells.items())
        return f"JordanCensus({body or '0'})"


class GradedNilpotent:
    """A graded vector space with a degree +2 operator given by exact matrices.

    dims maps degree -> dimension; maps[alpha] is the matrix of
    V_alpha -> V_{alpha+2} with shape (dims[alpha+2], dims[alpha]).  Maps into
    or out of absent degrees must be omitted (they are forced zero), so with a
    finite grading every composite eventually leaves the support and the
    operator is nilpotent by construction.
    """

    __slots__ = ("dims", "maps")

    def __init__(self, dims: Mapping[int, int], maps: Mapping[int, list[list]] | None = None):
        clean_dims = {int(d): int(n) for d, n in dims.items() if n != 0}
        if any(n < 0 for n in clean_dims.values()):
            raise ValueError("dimensions must be nonnegative")
        clean_maps: dict[int, linalg.Matrix] = {}
        for alpha, rows in (maps or {}).items():
            alpha = int(alpha)
            src = clean_dims.get(alpha, 0)
            dst = clean_dims.get(alpha + 2, 0)
            if src == 0 or dst == 0:
                if any(any(Fraction(c) != 0 for c in row) for row in rows):
                    raise ShapeMismatchError(
                        f"nonzero map out of degree {alpha} with missing source or target"
                    )
                continue
            try:
                clean_maps[alpha] = linalg.mat_from_rows(rows, dst, src)
            except ValueError as exc:
                raise ShapeMismatchError(f"map at degree {alpha}: {exc}") from exc
        object.__setattr__(self, "dims", dict(sorted(clean_dims.items())))
        object.__setattr__(self, "maps", clean_maps)

    def dimension(self) -> int:
        return sum(self.dims.values())

    def map_at(self, alpha: int) -> linalg.Matrix:
        src = self.dims.get(alpha, 0)
        dst = self.dims.get(alpha + 2, 0)
        if alpha in self.maps:
            return self.maps[alpha]
        return linalg.zero_matrix(dst, src)

    def conjugate(self, basis: Mapping[int, linalg.Matrix]) -> "GradedNilpotent":
        """Change basis degreewise: new map = P_{a+2} M_a P_a^{-1}."""
        inverses = {d: linalg.mat_inverse(p) for d, p in basis.items()}
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
    clean = {int(k): int(n) for k, n in dims.items() if n != 0}
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
    spaces, with C(n, m) = 0 for m < 0.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")

    def c(m: int) -> int:
        return comb(2 * g, m) if m >= 0 else 0

    return SpinMultiset({k: c(g - k) - c(g - k - 2) for k in range(g + 1)})


def genus_decompose(v: BispinContent) -> dict[int, SpinMultiset]:
    """Expand left content in the torus basis, collecting right-spin coefficients.

    The torus representation of genus g has a unique top left spin g/2, so a
    triangular solve from the top down always succeeds, also on virtual input.
    The reconstruction sum_g (torus_rep(g) tensor R_g) equals the input.
    """
    out: dict[int, dict[int, int]] = {}
    for two_jr in v.right_spins():
        remaining = v.left_content(two_jr)
        for g in range(remaining.max_two_j(), -1, -1):
            c = remaining.multiplicity(g)
            if c:
                remaining = remaining - torus_rep(g).scale(c)
                out.setdefault(g, {})[two_jr] = c
        if not remaining.is_zero():
            raise AssertionError("torus-basis solve left a remainder")
    return {g: SpinMultiset(mult) for g, mult in sorted(out.items())}


def genus_count(v: BispinContent, g: int) -> int:
    """Signed dimension of the genus-g right factor; one genus of genus_decompose."""
    return genus_decompose(v).get(g, SpinMultiset.zero()).signed_dimension()


# -- Jordan censuses ----------------------------------------------------------


def jordan_census(x: GradedNilpotent) -> JordanCensus:
    """Census of Jordan strings by minimal degree and size, from exact ranks.

    With r(a, k) the rank of the k-fold composite out of degree a, the number
    of strings of length >= l starting at a is r(a, l-1) - r(a-2, l), and the
    census is the difference of consecutive tail counts.  Composites extend
    one factor at a time so each rank costs a single product.
    """
    cells: dict[tuple[int, int], int] = {}
    if not x.dims:
        return JordanCensus()
    span = (max(x.dims) - min(x.dims)) // 2 + 1

    ranks: dict[tuple[int, int], int] = {}
    for alpha, dim_alpha in x.dims.items():
        ranks[(alpha, 0)] = dim_alpha
        acc = None
        for k in range(1, span + 2):
            step = x.map_at(alpha + 2 * (k - 1))
            acc = step if acc is None else linalg.mat_mul(step, acc)
            if not acc or not acc[0]:
                acc = None
            ranks[(alpha, k)] = linalg.mat_rank(acc) if acc is not None else 0
            if acc is None:
                break

    def r(alpha: int, k: int) -> int:
        if k < 0:
            return 0
        return ranks.get((alpha, k), 0)

    for alpha in x.dims:
        for l in range(1, span + 1):
            tail_l = r(alpha, l - 1) - r(alpha - 2, l)
            tail_next = r(alpha, l) - r(alpha - 2, l + 1)
            n = tail_l - tail_next
            if n:
                cells[(alpha, l)] = n
    return JordanCensus(cells)


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


def census_count(c: JordanCensus, g: int) -> int:
    """Closed-form count from a census: alternating binomial-weighted cell sum.

    Convention: C(n, k) = 0 unless 0 <= k <= n.  This is forced by the point
    census {(0,1): 1} giving 1 at genus 0.
    """

    def binom(n: int, k: int) -> int:
        if k < 0 or n < 0 or k > n:
            return 0
        return comb(n, k)

    total = 0
    for (alpha, l), n in c.items():
        if alpha + l < 1:
            continue
        sign = -1 if (alpha + g) % 2 else 1
        weight = binom(alpha + l + g, 2 * g + 1) - binom(alpha + l + g - 2, 2 * g + 1)
        total += sign * l * n * weight
    return total


def realize_bispin(v: BispinContent) -> GradedNilpotent:
    """Concrete graded nilpotent whose census matches census_from_bispin(v).

    Basis vectors are indexed by (summand, left weight, right position); the
    operator raises the right position with coefficient 1 along each string.
    """
    if v.is_virtual():
        raise VirtualInputError("cannot realize virtual multiplicities")
    slots: dict[int, list[tuple]] = {}
    copies = []
    for (two_jl, two_jr), m in v.items():
        for copy in range(m):
            copies.append((two_jl, two_jr, copy))
    for two_jl, two_jr, copy in copies:
        for w in range(-two_jl, two_jl + 1, 2):
            for pos in range(-two_jr, two_jr + 1, 2):
                degree = w + pos
                slots.setdefault(degree, []).append((two_jl, two_jr, copy, w, pos))
    dims = {d: len(v_list) for d, v_list in slots.items()}
    maps = {}
    for degree, basis in slots.items():
        target = slots.get(degree + 2, [])
        if not target:
            continue
        index = {vec: i for i, vec in enumerate(target)}
        mat = linalg.zero_matrix(len(target), len(basis))
        for j, (two_jl, two_jr, copy, w, pos) in enumerate(basis):
            nxt = (two_jl, two_jr, copy, w, pos + 2)
            if pos + 2 <= two_jr and nxt in index:
                mat[index[nxt]][j] = 1
        maps[degree] = mat
    return GradedNilpotent(dims, maps)
