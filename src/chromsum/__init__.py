"""Colored sumsets: representation counting and eventual structure.

A tuple of finite integer sets (colors) and an exponent vector define
the colored sumset — sums taking exactly h_i elements, with repetition,
from the i-th set.  This package counts representations exactly,
extracts the members with at least t of them, and computes the eventual
three-part shape of those t-fold sets (sporadic fringe, solid middle
interval, mirrored fringe) together with explicit exponent thresholds
and witness representations, all cross-checked against an exhaustive
enumeration oracle.

Each module's `__all__` is the one list of its public names.  The
package re-exports those of errors, intset, repcount and structure, and
the names of the oracle and of the self-check suite (lemmas) load on
first use (PEP 562), so a process that needs neither never imports them.
"""

import importlib

from . import errors, intset, repcount, structure
from .errors import *
from .intset import *
from .repcount import *
from .structure import *

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


__all__ = sorted(
    {*errors.__all__, *intset.__all__, *repcount.__all__, *structure.__all__}
    | {name for name, module in _LAZY.items() if name != module}
)
