"""Colored sumsets: representation counting and eventual structure.

A tuple of finite integer sets (colors) and an exponent vector define
the colored sumset — sums taking exactly h_i elements, with repetition,
from the i-th set.  This package counts representations exactly,
extracts the members with at least t of them, and computes the eventual
three-part shape of those t-fold sets (sporadic fringe, solid middle
interval, mirrored fringe) together with explicit exponent thresholds
and witness representations, all cross-checked against an exhaustive
enumeration oracle.
"""

from .errors import (
    BoundError,
    BudgetError,
    ChromsumError,
    DegenerateAlphabetError,
    DegenerateTupleError,
    DimensionError,
    DomainError,
    EmptySetError,
    NotNormalizedError,
    SearchExhaustedError,
)
from .intset import (
    FiniteSet,
    HVec,
    NormalizationRecord,
    SetTuple,
    denormalize_sumset,
    denormalize_tuple,
    dilate,
    hvec_add_unit,
    hvec_leq,
    hvec_sup,
    make_set,
    make_tuple,
    normalize_tuple,
    reflect,
    tuple_from_json,
    tuple_to_json,
)
from .lemmas import LemmaCheck, run_all
from .oracle import (
    DEFAULT_BUDGET,
    Representation,
    enumerate_representations,
    enumeration_size,
    oracle_count_table,
    oracle_partition_count,
    oracle_partitions,
)
from .repcount import (
    CountTable,
    chromatic_count_table,
    inhomogeneous_count_table,
    multiset_count_table,
    partition_count_table,
    tfold_set,
)
from .structure import (
    ColoredRep,
    StructureResult,
    WitnessSet,
    certified_rep_bound,
    closed_form_threshold,
    high_fringe_constants,
    low_fringe_constants,
    structure_constants,
    structure_constants_inhomogeneous,
    threshold_constructive,
    verify_box,
    verify_structure,
    witness_representations,
)

__version__ = "0.1.0"

__all__ = [
    "BoundError",
    "BudgetError",
    "ChromsumError",
    "ColoredRep",
    "CountTable",
    "DEFAULT_BUDGET",
    "DegenerateAlphabetError",
    "DegenerateTupleError",
    "DimensionError",
    "DomainError",
    "EmptySetError",
    "FiniteSet",
    "HVec",
    "LemmaCheck",
    "NormalizationRecord",
    "NotNormalizedError",
    "Representation",
    "SearchExhaustedError",
    "SetTuple",
    "StructureResult",
    "WitnessSet",
    "certified_rep_bound",
    "chromatic_count_table",
    "closed_form_threshold",
    "denormalize_sumset",
    "denormalize_tuple",
    "dilate",
    "enumerate_representations",
    "enumeration_size",
    "high_fringe_constants",
    "hvec_add_unit",
    "hvec_leq",
    "hvec_sup",
    "inhomogeneous_count_table",
    "low_fringe_constants",
    "make_set",
    "make_tuple",
    "multiset_count_table",
    "normalize_tuple",
    "oracle_count_table",
    "oracle_partition_count",
    "oracle_partitions",
    "partition_count_table",
    "reflect",
    "run_all",
    "structure_constants",
    "structure_constants_inhomogeneous",
    "tfold_set",
    "threshold_constructive",
    "tuple_from_json",
    "tuple_to_json",
    "verify_box",
    "verify_structure",
    "witness_representations",
]
