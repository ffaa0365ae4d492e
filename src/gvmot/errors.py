"""Exit codes, the domain exceptions, the work ledger, Frozen (the base of
the value types), and the one rule for the ints and rationals a constructor
takes.

Every domain error derives from GvmotError and carries its stable exit code
as exit_code.  Every cap on work is one Ledger: a command run creates one,
each stage spends its work on it, and the ledger's spend is the one place a
ResourceLimitError is raised.  Frozen sets, builds, compares, hashes and
prints every value type by its slots, and fraction builds the Fractions of
the series path.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_SCHEMA = 2
EXIT_CROSSCHECK = 3
EXIT_MISSING_ATOM = 4
EXIT_NOT_POLYNOMIAL = 5
EXIT_INTERNAL = 6  # an exception that is not a domain error


class Frozen:
    """Base of every value type of the package but NumClass, a NamedTuple.
    A subclass names its fields once, in __slots__.  __init__ writes them
    once through _set, _new builds a value of slots its caller has checked,
    and nothing sets or deletes an attribute after.  Two values of one type
    are equal, and hash equal, when the slots named in _key are; a type that
    names none compares by identity.  The repr prints every slot by keyword."""

    __slots__ = ()
    _key: tuple[str, ...] = ()

    def _set(self, **slots) -> None:
        for name, value in slots.items():
            object.__setattr__(self, name, value)

    @classmethod
    def _new(cls, **slots):
        obj = object.__new__(cls)
        obj._set(**slots)
        return obj

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __setstate__(self, state: tuple[None, dict[str, object]]) -> None:
        # pickle and copy rebuild a value from its slots, as (None, {slot: value})
        self._set(**state[1])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._key])

    def __eq__(self, other: object) -> bool:
        if self._key and type(other) is type(self):
            return self._values() == other._values()
        return self is other or NotImplemented

    def __hash__(self) -> int:
        return hash(self._values()) if self._key else object.__hash__(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def check_int(x, what: str) -> int:
    """x, which must be an int: bool, float, str and Fraction are not.  Raises TypeError naming what."""
    if type(x) is not int:
        raise TypeError(f"{what} must be int, got {type(x).__name__}")
    return x


def fraction(n: int, d: int) -> Fraction:
    """n / d in lowest terms, for ints n and d > 0: the value Fraction(n, d)
    is, from one gcd, with no checks of the arguments."""
    g = gcd(n, d)
    value = object.__new__(Fraction)
    value._numerator, value._denominator = n // g, d // g
    return value


def check_rational(x, what: str) -> Fraction:
    """x as a Fraction, which must be an int or a Fraction.  Raises TypeError naming what."""
    if type(x) is int or isinstance(x, Fraction):
        return Fraction(x)
    raise TypeError(f"{what} must be int or Fraction, got {type(x).__name__}")


class GvmotError(Exception):
    """Base class for all domain errors raised by this package."""

    exit_code = EXIT_SCHEMA


class ZeroPolynomialError(GvmotError):
    """Operation undefined on the zero polynomial."""


class OddWeightedDegreeError(GvmotError):
    """Flattening needs an even weighted degree; odd signals non-geometric input."""

    exit_code = EXIT_NOT_POLYNOMIAL


class NotPolynomialError(GvmotError):
    """A rational function was required to reduce to an integer polynomial."""

    exit_code = EXIT_NOT_POLYNOMIAL


class NotRepresentationError(GvmotError):
    """Graded dimensions violate the symmetry/unimodality a raising operator forces."""


class ShapeMismatchError(GvmotError):
    """Matrix shapes inconsistent with the declared grading."""


class VirtualInputError(GvmotError):
    """Negative multiplicities have no cell interpretation here."""


class DimMismatchError(GvmotError):
    """A motive construction violates its dimension bookkeeping."""


class PoincareDualityError(GvmotError):
    """Betti numbers are not palindromic."""


class HardLefschetzError(GvmotError):
    """Betti numbers fail b_i >= b_{i-2} up to the middle."""


class ZeroGroupClassError(GvmotError):
    """Cannot divide by a group whose class evaluates to zero."""


class NotEffectiveError(GvmotError):
    """Class lies outside the effective monoid (and is not a unit shift of it)."""


class ConeNotPointedError(GvmotError):
    """No strictly positive functional on the generators; enumeration diverges."""


class MissingAtomError(GvmotError):
    """Evaluation model has no atom for a required class."""

    exit_code = EXIT_MISSING_ATOM


class AsymmetricDefectError(GvmotError):
    """Ext-defect tables must be symmetric; asymmetric input is rejected."""


class ResourceLimitError(GvmotError):
    """A ledger's work exceeded its cap: the stage whose spend crossed it, the
    units of work every stage of the run had spent by then (`spent`, a total
    across stages), and the cap.  The message counts the crossing stage's own
    unit, and adds the total when earlier stages spent other units."""

    def __init__(self, stage: str, n: int, what: str, spent: int, cap: int):
        total = f" ({spent} units of work in all)" if spent != n else ""
        super().__init__(f"{stage}: {n} {what}{total} exceed the cap of {cap}")
        self.stage, self.spent, self.cap = stage, spent, cap


class InsufficientTruncationError(GvmotError):
    """A required series coefficient lies beyond the stored cutoffs."""


class SchemaError(GvmotError):
    """Input document violates its JSON schema."""


WORK_CAP = 10**6


class Ledger:
    """The work of one command run, spent stage by stage against one cap, each
    in its own unit; a stage that can bound its work spends it before starting."""

    def __init__(self, cap: int = WORK_CAP):
        self.cap, self.spent = cap, 0
        self.what, self.before = "", 0  # the unit last spent, and the work spent before it

    def spend(self, stage: str, n: int = 1, what: str = "enumeration steps") -> None:
        if what != self.what:
            self.what, self.before = what, self.spent
        self.spent += n
        if self.spent > self.cap:
            raise ResourceLimitError(stage, self.spent - self.before, what, self.spent, self.cap)
