"""Exact-arithmetic toolkit for motivic BPS counting.

The pipeline: bigraded spin content or a graded nilpotent operator yields a
Jordan cell census; motive expressions over a base evaluate to polynomials
in Z[t, s]; stack classes scale those by rational functions; the counting
module turns per-class moduli atoms into genus counts through wall-crossing
inclusion-exclusion; and the series module converts count tables to and from
rational generating series.  No floating point anywhere.
"""

from .counting import (
    CentralCharge,
    ClassLattice,
    EvalModel,
    FreeHallElement,
    NumClass,
    counting_polynomial,
    evaluate,
    gv_from_polynomial,
    same_phase_decompositions,
    semistable_exp,
    semistable_log,
)
from .errors import (
    AsymmetricDefectError,
    ConeNotPointedError,
    DimMismatchError,
    GvmotError,
    HardLefschetzError,
    InsufficientTruncationError,
    MissingAtomError,
    NotEffectiveError,
    NotPolynomialError,
    NotRepresentationError,
    OddWeightedDegreeError,
    PoincareDualityError,
    ResourceLimitError,
    SchemaError,
    ShapeMismatchError,
    VirtualInputError,
    ZeroGroupClassError,
    ZeroPolynomialError,
)
from .gwseries import GVTable, GWSeries, InversionResult, gv_to_gw, gw_to_gv, sin_power_coefficient
from .laurent import (
    LaurentPoly,
    RationalFn,
    exact_div,
    flat,
    format_poly,
    rational_sum,
    weighted_degree,
)
from .lefschetz import (
    BispinContent,
    GradedNilpotent,
    JordanCensus,
    SpinMultiset,
    census_count,
    census_from_bispin,
    genus_count,
    genus_decompose,
    jordan_census,
    realize_bispin,
    spin_decompose,
    strings_operator,
    tensor,
    torus_rep,
)
from .motives import (
    AbsMotive,
    AbsProduct,
    Atom,
    BlowUpRel,
    Diff,
    Fibration,
    FinitePush,
    IntScale,
    MotiveExpr,
    ProjBundle,
    Sum,
    blowup_relation_check,
    dim,
    over_point_from_betti,
    point_atom,
    projective_bundle_value,
    smooth_from_betti,
    upsilon_rel,
    zero_expr,
)
from .stacks import StackClass, quotient_by_special_group, scale_by_variety, upsilon_stack

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
