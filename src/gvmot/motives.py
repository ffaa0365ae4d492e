"""Relative Grothendieck classes, each held as its value and its dimension.

A motive is its value in Z[t, s] together with its dimension (None when
undefined: the zero class, or a sum of mixed dimensions).  Each constructor
computes both from its arguments' two fields, so building a class of any
depth walks nothing and nothing recurses.  An atom of dimension d with
census nu has the value t^d * sum nu_l^alpha t^alpha s^{l-1}; a sum, a
difference, an integer multiple and a product with an absolute class act
on values; a blow-up adds the center times [P^(codim-2)] L to the ambient.
A projective bundle of rank r and a Zariski locally trivial fibration with
fiber F are products with the absolute classes [P^(r-1)] and [F]; a
pushforward along a finite map is value-transparent, so it returns its
argument unchanged.  Two classes are equal when their values and dimensions
are: how a class was written is not kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    DimMismatchError,
    Frozen,
    HardLefschetzError,
    PoincareDualityError,
)
from .laurent import LaurentPoly, _unpacked
from .lefschetz import JordanCensus
from .linalg import _slot_width


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
        """[GL_n] = L^(n(n-1)/2) prod_{i=1..n} (L^i - 1), with L = t^2.

        The product is packed, one slot per power of L (linalg's Kronecker
        substitution), and each factor is one shift-subtract.  Its
        coefficients sum in absolute value to at most 2^n, which sizes the
        slots; the slots are unpacked once.
        """
        if n < 1:
            raise ValueError("general linear group needs n >= 1")
        width = _slot_width(1 << n)
        value = 1
        for i in range(1, n + 1):
            value = (value << (width * i)) - value
        low, slots = n * (n - 1) // 2, n * (n + 1) // 2 + 1
        return cls(_unpacked(value, width, slots, slots, 2 * low, 2), f"GL{n}")

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


class MotiveExpr(Frozen):
    """A relative class: its value in Z[t, s] and its dimension, None when
    undefined.  Compared and hashed by both."""

    __slots__ = ("value", "dim")

    def __init__(self, value: LaurentPoly, dim: int | None):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "dim", dim)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MotiveExpr) and self.value == other.value and self.dim == other.dim

    def __hash__(self) -> int:
        return hash((self.value, self.dim))

    def __repr__(self) -> str:
        return f"MotiveExpr({self.value}, dim={self.dim})"


def Atom(name: str, dim: int, census: JordanCensus) -> MotiveExpr:
    """Leaf class: a space over its base, given by census data; the name only labels it."""
    if dim < 0:
        raise DimMismatchError("atom dimension must be nonnegative")
    return MotiveExpr(LaurentPoly({(dim + alpha, l - 1): n for (alpha, l), n in census.items()}), dim)


def Sum(terms: Iterable[MotiveExpr] = ()) -> MotiveExpr:
    """n-ary sum; the empty sum is the zero class.  Its dimension is the one
    its terms' defined dimensions share, None when they are none or several."""
    # one accumulator: adding term by term would re-sort the running total per term
    acc: dict[tuple[int, int], int] = {}
    dims = set()
    for term in terms:
        dims.add(term.dim)
        for key, c in term.value.items():
            acc[key] = acc.get(key, 0) + c
    dims.discard(None)
    return MotiveExpr(LaurentPoly(acc), dims.pop() if len(dims) == 1 else None)


def Diff(left: MotiveExpr, right: MotiveExpr) -> MotiveExpr:
    return Sum((left, IntScale(-1, right)))


def IntScale(factor: int, expr: MotiveExpr) -> MotiveExpr:
    return MotiveExpr(expr.value.scale(factor), expr.dim if factor != 0 else None)


def AbsProduct(abs: AbsMotive, expr: MotiveExpr) -> MotiveExpr:
    """Product with an absolute class (base-direction factor)."""
    d, dt = expr.dim, abs.dim()
    return MotiveExpr(abs.poly * expr.value, d + dt if d is not None and dt is not None else None)


def BlowUpRel(ambient: MotiveExpr, center: MotiveExpr, codim: int) -> MotiveExpr:
    """Blow-up of the ambient class along a center of the given codimension."""
    if codim < 2:
        raise DimMismatchError("blow-up codimension must be at least 2")
    da, dc = ambient.dim, center.dim
    if da is not None and dc is not None and da != dc + codim:
        raise DimMismatchError(f"ambient dim {da} != center dim {dc} + codim {codim}")
    # the exceptional divisor adds center x (L + ... + L^(codim-1))
    return MotiveExpr(ambient.value + center.value * AbsMotive.projective_space(codim - 2).poly.shift(2), da)


def ProjBundle(expr: MotiveExpr, fiber_rank: int) -> MotiveExpr:
    """Projective bundle with fiber of projective dimension fiber_rank - 1."""
    if fiber_rank < 1:
        raise DimMismatchError("fiber rank must be at least 1")
    return AbsProduct(AbsMotive.projective_space(fiber_rank - 1), expr)


def Fibration(expr: MotiveExpr, fiber: AbsMotive) -> MotiveExpr:
    """Zariski locally trivial fibration with absolute fiber."""
    return AbsProduct(fiber, expr)


def FinitePush(expr: MotiveExpr) -> MotiveExpr:
    """Pushforward along a finite morphism of bases; value-transparent."""
    return expr


def zero_expr() -> MotiveExpr:
    return Sum(())


def dim(e: MotiveExpr) -> int | None:
    """Dimension bookkeeping; None when undefined (zero or mixed sums)."""
    return e.dim


def upsilon_rel(e: MotiveExpr) -> LaurentPoly:
    """The polynomial invariant of a class in Z[t, s]."""
    return e.value


def _check_poincare_duality(bettis: Sequence[int], d: int) -> None:
    """The 2d + 1 betti numbers are nonnegative and palindromic."""
    if any(b < 0 for b in bettis):
        raise PoincareDualityError("betti numbers must be nonnegative")
    for i in range(2 * d + 1):
        if bettis[i] != bettis[2 * d - i]:
            raise PoincareDualityError(f"b_{i} != b_{2 * d - i}")


def smooth_from_betti(bettis: Sequence[int], d: int) -> MotiveExpr:
    """Atom for a smooth projective space of dimension d over itself.

    Cells have size -alpha + 1 and count b_{d+alpha} - b_{d+alpha-2} for
    alpha <= 0; the betti input must satisfy Poincare duality and grow
    monotonically in steps of two up to the middle.  The betti numbers are
    ints; once checked they make the value with no census built between.
    """
    if d < 0:
        raise DimMismatchError("atom dimension must be nonnegative")
    if len(bettis) != 2 * d + 1:
        raise PoincareDualityError(f"need {2 * d + 1} betti numbers for dimension {d}")
    _check_poincare_duality(bettis, d)
    for i in range(2, d + 1):
        if bettis[i] < bettis[i - 2]:
            raise HardLefschetzError(f"b_{i} < b_{i - 2}")
    # the cell (i - d, d - i + 1) of count b_i - b_(i-2) is the term t^i s^(d-i)
    value = {(i, d - i): bettis[i] - (bettis[i - 2] if i >= 2 else 0) for i in range(d + 1)}
    return MotiveExpr(LaurentPoly._built(value), d)


def over_point_from_betti(bettis: Sequence[int]) -> MotiveExpr:
    """Atom for a smooth projective space mapped to a point: all cells size one.

    Its value is the ordinary Poincare polynomial sum b_i t^i, built from the
    checked int betti numbers with no census between.
    """
    if len(bettis) % 2 != 1:
        raise PoincareDualityError("betti list must have odd length 2d + 1")
    d = (len(bettis) - 1) // 2
    _check_poincare_duality(bettis, d)
    return MotiveExpr(LaurentPoly._built({(i, 0): b for i, b in enumerate(bettis)}), d)


def point_atom() -> MotiveExpr:
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