"""Exception hierarchy shared across the package.

Every domain error derives from GvmotError so the CLI can map failures to
stable exit codes in one place.
"""

from __future__ import annotations


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
    """Expression tree violates its dimension bookkeeping."""


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
    """Work exceeded its cap: decomposition enumeration, or the counted work of hst or a series transform."""


class InsufficientTruncationError(GvmotError):
    """A required series coefficient lies beyond the stored cutoffs."""


class SchemaError(GvmotError):
    """Input document violates its JSON schema."""
