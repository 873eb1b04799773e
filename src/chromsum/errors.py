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

    After normalization this happens exactly when a single (color,
    element) pair is nonzero, that element being 1: counts of h.A + B
    never exceed |B| (1 without a translation), so the structure routes
    refuse t > |B|, and witness_representations refuses every t >= 2.
    """


class BoundError(DomainError):
    """The target integer is below the certified representation bound."""


class BudgetError(DomainError):
    """Exhaustive enumeration would exceed the configured budget."""


class SearchExhaustedError(ChromsumError):
    """The stabilization search hit its ceiling without settling on a pattern."""


class ConstructiveMismatchError(DomainError):
    """No longer raised; kept as a public name so that code catching it
    still imports.  The constructive strategy takes the same colored limit
    constants as the empirical one and proves its threshold vector with
    the same certificate, so it has nothing to refuse.
    """
