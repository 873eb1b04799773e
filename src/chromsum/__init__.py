"""Colored sumsets: representation counting and eventual structure.

A tuple of finite integer sets (colors) and an exponent vector define
the colored sumset — sums taking exactly h_i elements, with repetition,
from the i-th set.  This package counts representations exactly,
extracts the members with at least t of them, and computes the eventual
three-part shape of those t-fold sets (sporadic fringe, solid middle
interval, mirrored fringe) together with explicit exponent thresholds
and witness representations, all cross-checked against an exhaustive
enumeration oracle.

The oracle and the self-check suite (lemmas) load on first use of one of
their names (PEP 562), so a process that needs neither never imports
them.
"""

import importlib

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

# each name loaded on first use, and the module that defines it; a module's
# own name gives the module
_LAZY = {
    "lemmas": "lemmas",
    "LemmaCheck": "lemmas",
    "run_all": "lemmas",
    "oracle": "oracle",
    "DEFAULT_BUDGET": "oracle",
    "Representation": "oracle",
    "enumerate_representations": "oracle",
    "enumeration_size": "oracle",
    "oracle_count_table": "oracle",
    "oracle_partition_count": "oracle",
    "oracle_partitions": "oracle",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    if name == _LAZY[name]:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


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
