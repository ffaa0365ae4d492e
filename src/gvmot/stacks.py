"""Stack classes: formal Lambda-combinations of motive expressions.

A quotient by a special group contributes the reciprocal of the group's
class as a coefficient; only the evaluated value of a stack class is ever
observable, so no stabilizer structure is stored.
"""

from __future__ import annotations

from typing import Iterable

from .errors import Frozen, ZeroGroupClassError
from .laurent import LaurentPoly, RationalFn, rational_sum
from .motives import AbsMotive, MotiveExpr, upsilon_rel


class StackClass(Frozen):
    """Finite formal sum of (coefficient in Lambda, motive expression) pairs."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[tuple[RationalFn, MotiveExpr]] = ()):
        object.__setattr__(self, "parts", tuple(parts))

    @classmethod
    def zero(cls) -> "StackClass":
        return cls(())

    @classmethod
    def from_fractions(cls, parts: Iterable[tuple[LaurentPoly, LaurentPoly, MotiveExpr]]) -> "StackClass":
        """The stack class of (num, den, expr) parts, each num/den normalised."""
        return cls((RationalFn(num, den), expr) for num, den, expr in parts)

    @classmethod
    def of_variety(cls, e: MotiveExpr) -> "StackClass":
        return cls(((RationalFn.one(), e),))

    def __add__(self, other: "StackClass") -> "StackClass":
        if not isinstance(other, StackClass):
            return NotImplemented
        return StackClass(self.parts + other.parts)

    def scale(self, c: RationalFn) -> "StackClass":
        return StackClass(tuple((coeff * c, expr) for coeff, expr in self.parts))

    def __repr__(self) -> str:
        return f"StackClass({len(self.parts)} parts)"


def quotient_by_special_group(e: MotiveExpr, group: AbsMotive) -> StackClass:
    """Class of the quotient of e by a special group: scale by 1/value(group)."""
    if group.poly.is_zero():
        raise ZeroGroupClassError("cannot divide by a group of class zero")
    coeff = RationalFn.from_poly(group.poly).inverse()
    return StackClass(((coeff, e),))


def scale_by_variety(t: AbsMotive, c: StackClass) -> StackClass:
    """Multiply a stack class by an absolute variety class."""
    return c.scale(RationalFn.from_poly(t.poly))


def part_terms(c: StackClass) -> tuple[tuple[LaurentPoly, LaurentPoly], ...]:
    """Each part of c as an unnormalised fraction: its coefficient's numerator
    times the value of its expression, over its coefficient's denominator."""
    return tuple((coeff.num * upsilon_rel(expr), coeff.den) for coeff, expr in c.parts)


def upsilon_stack(c: StackClass) -> RationalFn:
    """Evaluate a stack class in Lambda: the coefficient-weighted sum of values."""
    return rational_sum(part_terms(c))
