"""Relative Grothendieck classes as expression trees, and their evaluation.

Expressions form a free algebra over atoms that carry Jordan census data;
evaluation sends an atom of dimension d with census nu to
t^d * sum nu_l^alpha t^alpha s^{l-1} and follows the structural rules for
sums, products with absolute classes, and blow-ups.  A projective bundle of
rank r and a Zariski locally trivial fibration with fiber F are built as
products with the absolute classes [P^(r-1)] and [F]; a pushforward along a
finite map is value-transparent, so it builds its argument unchanged.
Equality of expressions is not decided, only equality of evaluated values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .errors import (
    DimMismatchError,
    HardLefschetzError,
    PoincareDualityError,
)
from .laurent import LaurentPoly
from .lefschetz import JordanCensus


@dataclass(frozen=True)
class AbsMotive:
    """An absolute class: a polynomial in t alone (all Jordan cells size one)."""

    poly: LaurentPoly
    name: str | None = None

    def __post_init__(self):
        if not self.poly.is_t_only():
            raise ValueError("absolute classes cannot involve s")

    @classmethod
    def point(cls) -> "AbsMotive":
        return cls(LaurentPoly.one(), "pt")

    @classmethod
    def affine_line(cls) -> "AbsMotive":
        return cls(LaurentPoly.t(2), "A1")

    @classmethod
    def multiplicative_group(cls) -> "AbsMotive":
        return cls(LaurentPoly.t(2) - LaurentPoly.one(), "Gm")

    @classmethod
    def general_linear(cls, n: int) -> "AbsMotive":
        if n < 1:
            raise ValueError("general linear group needs n >= 1")
        value = LaurentPoly.one()
        for k in range(n):
            value = value * (LaurentPoly.t(2 * n) - LaurentPoly.t(2 * k))
        return cls(value, f"GL{n}")

    @classmethod
    def projective_space(cls, n: int) -> "AbsMotive":
        """[P^n] = 1 + L + ... + L^n, with L = t^2."""
        return cls(LaurentPoly({(2 * k, 0): 1 for k in range(n + 1)}), f"P{n}")

    def dim(self) -> int | None:
        if self.poly.is_zero():
            return None
        top = max(a for (a, _) in self.poly.terms)
        return top // 2 if top % 2 == 0 else None

    def __repr__(self) -> str:
        return f"AbsMotive({self.name or self.poly})"


@dataclass(frozen=True)
class Atom:
    """Leaf class: a named space over its base, given by census data."""

    name: str
    dim: int
    census: JordanCensus

    def __post_init__(self):
        if self.dim < 0:
            raise DimMismatchError("atom dimension must be nonnegative")


@dataclass(frozen=True)
class Sum:
    """n-ary sum; the empty sum is the zero class."""

    terms: tuple["MotiveExpr", ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class Diff:
    left: "MotiveExpr"
    right: "MotiveExpr"


@dataclass(frozen=True)
class IntScale:
    factor: int
    expr: "MotiveExpr"


@dataclass(frozen=True)
class AbsProduct:
    """Product with an absolute class (base-direction factor)."""

    abs: AbsMotive
    expr: "MotiveExpr"


@dataclass(frozen=True)
class BlowUpRel:
    """Blow-up of the ambient class along a center of the given codimension."""

    ambient: "MotiveExpr"
    center: "MotiveExpr"
    codim: int

    def __post_init__(self):
        if self.codim < 2:
            raise DimMismatchError("blow-up codimension must be at least 2")
        da, dc = dim(self.ambient), dim(self.center)
        if da is not None and dc is not None and da != dc + self.codim:
            raise DimMismatchError(
                f"ambient dim {da} != center dim {dc} + codim {self.codim}"
            )


MotiveExpr = Union[Atom, Sum, Diff, IntScale, AbsProduct, BlowUpRel]


def ProjBundle(expr: MotiveExpr, fiber_rank: int) -> AbsProduct:
    """Projective bundle with fiber of projective dimension fiber_rank - 1."""
    if fiber_rank < 1:
        raise DimMismatchError("fiber rank must be at least 1")
    return AbsProduct(AbsMotive.projective_space(fiber_rank - 1), expr)


def Fibration(expr: MotiveExpr, fiber: AbsMotive) -> AbsProduct:
    """Zariski locally trivial fibration with absolute fiber."""
    return AbsProduct(fiber, expr)


def FinitePush(expr: MotiveExpr) -> MotiveExpr:
    """Pushforward along a finite morphism of bases; value-transparent."""
    return expr


def zero_expr() -> Sum:
    return Sum(())


def dim(e: MotiveExpr) -> int | None:
    """Dimension bookkeeping; None when undefined (zero or mixed sums)."""
    if isinstance(e, Atom):
        return e.dim
    if isinstance(e, Sum):
        dims = {dim(t) for t in e.terms}
        dims.discard(None)
        return dims.pop() if len(dims) == 1 else None
    if isinstance(e, Diff):
        dims = {dim(e.left), dim(e.right)}
        dims.discard(None)
        return dims.pop() if len(dims) == 1 else None
    if isinstance(e, IntScale):
        return dim(e.expr) if e.factor != 0 else None
    if isinstance(e, AbsProduct):
        d, dt = dim(e.expr), e.abs.dim()
        return d + dt if d is not None and dt is not None else None
    if isinstance(e, BlowUpRel):
        return dim(e.ambient)
    raise TypeError(f"not a motive expression: {type(e)!r}")


def upsilon_rel(e: MotiveExpr) -> LaurentPoly:
    """Evaluate an expression to its polynomial invariant in Z[t, s]."""
    # keyed by identity: hashing a frozen node hashes its whole subtree
    memo: dict[int, LaurentPoly] = {}

    def go(node: MotiveExpr) -> LaurentPoly:
        if id(node) in memo:
            return memo[id(node)]
        if isinstance(node, Atom):
            value = LaurentPoly(
                {(node.dim + alpha, l - 1): n for (alpha, l), n in node.census.items()}
            )
        elif isinstance(node, Sum):
            # one accumulator: adding term by term would re-sort the running total per term
            acc: dict[tuple[int, int], int] = {}
            for term in node.terms:
                for key, c in go(term).items():
                    acc[key] = acc.get(key, 0) + c
            value = LaurentPoly(acc)
        elif isinstance(node, Diff):
            value = go(node.left) - go(node.right)
        elif isinstance(node, IntScale):
            value = go(node.expr).scale(node.factor)
        elif isinstance(node, AbsProduct):
            value = node.abs.poly * go(node.expr)
        elif isinstance(node, BlowUpRel):
            # the exceptional divisor adds center x (L + ... + L^(codim-1))
            value = go(node.ambient) + go(node.center) * AbsMotive.projective_space(node.codim - 2).poly.shift(2)
        else:
            raise TypeError(f"not a motive expression: {type(node)!r}")
        memo[id(node)] = value
        return value

    return go(e)


def _check_poincare_duality(bettis: list[int], d: int) -> None:
    """The 2d + 1 betti numbers are nonnegative and palindromic."""
    if any(b < 0 for b in bettis):
        raise PoincareDualityError("betti numbers must be nonnegative")
    for i in range(2 * d + 1):
        if bettis[i] != bettis[2 * d - i]:
            raise PoincareDualityError(f"b_{i} != b_{2 * d - i}")


def smooth_from_betti(bettis: list[int], d: int) -> Atom:
    """Atom for a smooth projective space of dimension d over itself.

    Cells have size -alpha + 1 and count b_{d+alpha} - b_{d+alpha-2} for
    alpha <= 0; the betti input must satisfy Poincare duality and grow
    monotonically in steps of two up to the middle.
    """
    if len(bettis) != 2 * d + 1:
        raise PoincareDualityError(f"need {2 * d + 1} betti numbers for dimension {d}")
    _check_poincare_duality(bettis, d)
    for i in range(2, d + 1):
        if bettis[i] < bettis[i - 2]:
            raise HardLefschetzError(f"b_{i} < b_{i - 2}")
    cells = {}
    for alpha in range(-d, 1):
        i = d + alpha
        n = bettis[i] - (bettis[i - 2] if i >= 2 else 0)
        if n:
            cells[(alpha, -alpha + 1)] = n
    return Atom(name=f"betti{bettis}", dim=d, census=JordanCensus(cells))


def over_point_from_betti(bettis: list[int]) -> Atom:
    """Atom for a smooth projective space mapped to a point: all cells size one.

    Its value is the ordinary Poincare polynomial sum b_i t^i.
    """
    if len(bettis) % 2 != 1:
        raise PoincareDualityError("betti list must have odd length 2d + 1")
    d = (len(bettis) - 1) // 2
    _check_poincare_duality(bettis, d)
    cells = {(i - d, 1): b for i, b in enumerate(bettis) if b}
    return Atom(name=f"pointbase{bettis}", dim=d, census=JordanCensus(cells))


def point_atom() -> Atom:
    return Atom(name="pt", dim=0, census=JordanCensus({(0, 1): 1}))


def projective_bundle_value(base: MotiveExpr, r: int) -> LaurentPoly:
    """Value of the projective bundle with fiber of projective dimension r - 1."""
    return upsilon_rel(ProjBundle(base, r))


def blowup_relation_check(ambient: MotiveExpr, center: MotiveExpr, r: int) -> bool:
    """Check the scissor identity: blow-up minus exceptional equals ambient minus center.

    The exceptional divisor is the projective bundle of rank r over the center;
    the identity holds for every well-formed input pair.
    """
    blown = upsilon_rel(BlowUpRel(ambient=ambient, center=center, codim=r))
    exceptional = projective_bundle_value(center, r)
    return blown - exceptional == upsilon_rel(ambient) - upsilon_rel(center)