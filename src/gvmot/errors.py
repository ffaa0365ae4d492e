"""Exception hierarchy shared across the package, the work ledger, and the
base that keeps the value types immutable.

Every domain error derives from GvmotError so the CLI can map failures to
stable exit codes in one place.  Every cap on work is one Ledger: a command
run creates one, each stage spends its work on it, and the ledger's spend is
the one place a ResourceLimitError is raised.
"""

from __future__ import annotations


class Frozen:
    """Base of the immutable value types: __init__ sets their slots through
    object.__setattr__, and nothing sets or deletes an attribute after."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class GvmotError(Exception):
    """Base class for all domain errors raised by this package."""


class ZeroPolynomialError(GvmotError):
    """Operation undefined on the zero polynomial."""


class OddWeightedDegreeError(GvmotError):
    """Flattening needs an even weighted degree; odd signals non-geometric input."""


class NotPolynomialError(GvmotError):
    """A rational function was required to reduce to an integer polynomial."""


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
