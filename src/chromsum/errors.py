"""Exception types shared across the package.

Everything raised on purpose derives from ChromsumError.  The CLI maps
malformed input to exit code 2 and any ChromsumError raised during
computation to exit code 3.
"""


class ChromsumError(Exception):
    """Base class for all errors this package raises deliberately."""


class EmptySetError(ChromsumError):
    """An empty set was supplied where a nonempty one is required."""


class DegenerateTupleError(ChromsumError):
    """Normalization is undefined because every component set is a singleton."""


class NotNormalizedError(ChromsumError):
    """The operation needs minima at zero (and unit gcd where stated)."""


class DimensionError(ChromsumError):
    """Vector or tuple lengths do not agree."""


class DomainError(ChromsumError):
    """An argument lies outside the operation's domain."""


class DegenerateAlphabetError(DomainError):
    """The nonzero alphabet cannot produce t-fold counts; no threshold exists.

    After normalization this happens exactly when the only nonzero element
    is 1, so every integer has a single uncolored representation, or, for
    the empirical search, when at most one color can contribute a nonzero
    element and t >= 2.
    """


class BoundError(DomainError):
    """The target integer is below the certified representation bound."""


class BudgetError(DomainError):
    """Exhaustive enumeration would exceed the configured budget."""


class SearchExhaustedError(ChromsumError):
    """The stabilization search hit its ceiling without settling on a pattern."""


class ConstructiveMismatchError(DomainError):
    """Constants built from uncolored counts failed verification.

    When some nonzero element belongs to several component sets, colored
    counts of small integers can exceed their uncolored counts and the
    constructed fringe constants need not describe the true t-fold sets.
    The high fringe is built from the per-color reflections, so the same
    happens on disjoint colors whose reflections overlap: [[0,3,5],[0,2,7]]
    reflects to {0,2,5} and {0,5,7}, which share 5.  The empirical
    strategy handles such tuples.
    """
