"""Finite integer sets, colored set tuples, and repetition vectors.

A FiniteSet is a strictly increasing tuple of arbitrary-precision
integers.  A SetTuple bundles the per-color sets A_1..A_q together with
derived data (union, per-color maxima, normalization flag).  A tuple is
*normalized* when every component has minimum 0 and the union has gcd 1;
every tuple with at least one non-singleton component reduces to a
normalized one by an affine change recorded in a NormalizationRecord,
and sumsets of the original are recovered from sumsets of the reduced
tuple through that record.

HVec is the vector of per-color repetition counts, ordered componentwise.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from .errors import (
    DegenerateTupleError,
    DimensionError,
    DomainError,
    EmptySetError,
    NotNormalizedError,
)

__all__ = [
    "FiniteSet",
    "SetTuple",
    "HVec",
    "NormalizationRecord",
    "make_set",
    "make_tuple",
    "normalize_tuple",
    "denormalize_tuple",
    "denormalize_sumset",
    "reflect",
    "dilate",
    "hvec_leq",
    "hvec_sup",
    "hvec_add_unit",
    "tuple_to_json",
    "tuple_from_json",
]


def _ints(values: Iterable) -> tuple[int, ...]:
    """The values as Python ints; anything but a Python or numpy integer
    (a bool too) raises TypeError naming it."""
    values = tuple(values)
    if all(type(x) is int for x in values):
        return values
    for x in values:
        if isinstance(x, bool) or not hasattr(type(x), "__index__"):
            raise TypeError(f"expected an integer, got {x!r}")
    return tuple(map(operator.index, values))


def _int(value, decimal: bool = False) -> int:
    """value as a Python int, with the checks of _ints; with decimal a
    string is read as a decimal integer too (to_json writes counts,
    multiplicities and n as strings)."""
    if decimal and isinstance(value, str):
        return int(value)
    return _ints((value,))[0]


def _is_int(value) -> bool:
    """Whether value is a Python int and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(value, what: str, least: int | None = None, optional: bool = False) -> None:
    """Refuse value with a DomainError unless it is a Python int (_is_int)
    and at least least (None, 0 or 1), or it is None and optional.  The
    scalar parameters (t, a cap, a margin, an exponent, n, a ceiling, a
    budget, a dilation factor, a coordinate index, an interval end, a
    translation) take nothing else, so True is not read as 1 nor 2.0 as
    2; each is refused here, but for FiniteSet.interval's two ends.  The
    message is "{what} must be an integer", "... a nonnegative integer"
    or "... a positive integer", with " or None" when optional."""
    if (value is None and optional) or (_is_int(value) and (least is None or value >= least)):
        return
    kind = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}[least]
    raise DomainError(f"{what} must be {kind}" + (" or None" if optional else ""))


def _translation(B: FiniteSet | None, default: FiniteSet) -> FiniteSet:
    """The translation set B, default for None; a B whose minimum is not
    0 is refused."""
    if B is None:
        return default
    if B.min != 0:
        raise DomainError("the translation set must have minimum 0")
    return B


def _require_same_length(*hs: HVec) -> None:
    """Refuse exponent vectors that do not all have the same length."""
    if len({h.q for h in hs}) > 1:
        raise DimensionError("exponent vectors of different lengths")


@dataclass(frozen=True)
class FiniteSet:
    """Immutable finite set of integers, stored strictly increasing."""

    elements: tuple[int, ...]

    def __post_init__(self):
        elems = _ints(self.elements)
        for a, b in zip(elems, elems[1:]):
            if a >= b:
                raise ValueError("FiniteSet elements must be strictly increasing")
        object.__setattr__(self, "elements", elems)

    @classmethod
    def empty(cls) -> "FiniteSet":
        return cls(())

    @classmethod
    def interval(cls, lo: int, hi: int) -> "FiniteSet":
        """The integers from lo to hi inclusive; empty when lo > hi."""
        if not (_is_int(lo) and _is_int(hi)):
            raise DomainError("interval ends must be integers")
        return cls(tuple(range(lo, hi + 1)))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self._member_set

    def __bool__(self) -> bool:
        return bool(self.elements)

    @property
    def _member_set(self) -> frozenset:
        # cached in __dict__ on first use; frozen dataclasses without
        # slots still allow this
        cached = self.__dict__.get("_members")
        if cached is None:
            cached = frozenset(self.elements)
            self.__dict__["_members"] = cached
        return cached

    @property
    def min(self) -> int:
        if not self.elements:
            raise EmptySetError("empty set has no minimum")
        return self.elements[0]

    @property
    def max(self) -> int:
        if not self.elements:
            raise EmptySetError("empty set has no maximum")
        return self.elements[-1]

    def gcd(self) -> int:
        """gcd of the elements; 0 folds neutrally, so this is the gcd of the
        nonzero elements, and 0 for the sets {} and {0}."""
        return math.gcd(*self.elements) if self.elements else 0

    def __add__(self, other: "FiniteSet") -> "FiniteSet":
        """Sumset {a + b : a in self, b in other}."""
        if not isinstance(other, FiniteSet):
            return NotImplemented
        sums = {a + b for a in self.elements for b in other.elements}
        return FiniteSet(tuple(sorted(sums)))

    def translate(self, c: int) -> "FiniteSet":
        _require_int(c, "translation")
        return FiniteSet(tuple(a + c for a in self.elements))


def make_set(values: Iterable[int]) -> FiniteSet:
    """Sort, deduplicate, and wrap; rejects empty input."""
    elems = tuple(sorted(set(_ints(values))))
    if not elems:
        raise EmptySetError("a set needs at least one element")
    return FiniteSet(elems)


def reflect(A: FiniteSet) -> FiniteSet:
    """The reflected set {max(A) - a : a in A}; requires min(A) = 0.

    Reflection is an involution, keeps 0 and the maximum in place, and
    preserves the gcd of the elements.
    """
    if not A:
        raise EmptySetError("cannot reflect an empty set")
    if A.min != 0:
        raise NotNormalizedError("reflection requires min(A) = 0")
    top = A.max
    return FiniteSet(tuple(top - a for a in reversed(A.elements)))


def dilate(d: int, A: FiniteSet) -> FiniteSet:
    """The dilated set {d * a : a in A} for positive d."""
    _require_int(d, "dilation factor", 1)
    return FiniteSet(tuple(d * a for a in A.elements))


@dataclass(frozen=True)
class SetTuple:
    """A q-tuple of nonempty finite sets, one per color."""

    sets: tuple[FiniteSet, ...]
    union: FiniteSet = field(init=False, repr=False, compare=False)
    maxima: tuple[int, ...] = field(init=False, repr=False, compare=False)
    normalized: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.sets, tuple):
            object.__setattr__(self, "sets", tuple(self.sets))
        if len(self.sets) < 1:
            raise DimensionError("a set tuple needs at least one component")
        merged: set[int] = set()
        for A in self.sets:
            if not isinstance(A, FiniteSet):
                raise TypeError("SetTuple components must be FiniteSet")
            if not A:
                raise EmptySetError("empty component set in tuple")
            merged.update(A.elements)
        union = FiniteSet(tuple(sorted(merged)))
        object.__setattr__(self, "union", union)
        object.__setattr__(self, "maxima", tuple(A.max for A in self.sets))
        normalized = all(A.min == 0 for A in self.sets) and union.gcd() == 1
        object.__setattr__(self, "normalized", normalized)

    @property
    def q(self) -> int:
        return len(self.sets)

    def reflected(self) -> "SetTuple":
        # cached in __dict__ on first use, as FiniteSet._member_set
        cached = self.__dict__.get("_reflected")
        if cached is None:
            cached = SetTuple(tuple(reflect(A) for A in self.sets))
            self.__dict__["_reflected"] = cached
        return cached


def make_tuple(sets: Iterable[Iterable[int]]) -> SetTuple:
    return SetTuple(tuple(make_set(s) for s in sets))


@dataclass(frozen=True)
class HVec:
    """Vector of per-color repetition counts (nonnegative integers)."""

    coords: tuple[int, ...]

    def __post_init__(self):
        coords = _ints(self.coords)
        if len(coords) < 1:
            raise DimensionError("an exponent vector needs at least one coordinate")
        if any(c < 0 for c in coords):
            raise DomainError("exponent coordinates must be nonnegative")
        object.__setattr__(self, "coords", coords)

    @property
    def q(self) -> int:
        return len(self.coords)

    @property
    def norm(self) -> int:
        """Sum of the coordinates."""
        return sum(self.coords)

    def dot(self, weights: Sequence[int]) -> int:
        if len(weights) != len(self.coords):
            raise DimensionError("weight vector length mismatch")
        return sum(h * w for h, w in zip(self.coords, weights))

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i: int) -> int:
        return self.coords[i]


def _require_length(st: SetTuple, *hs: HVec) -> None:
    """Refuse exponent vectors that do not have one coordinate per color
    of st."""
    if any(h.q != st.q for h in hs):
        raise DimensionError("exponent vector length does not match tuple")


def hvec_leq(h1: HVec, h2: HVec) -> bool:
    """Componentwise h1 <= h2."""
    _require_same_length(h1, h2)
    return all(a <= b for a, b in zip(h1.coords, h2.coords))


def hvec_sup(hs: Sequence[HVec]) -> HVec:
    """Componentwise maximum (least upper bound) of a nonempty family."""
    hs = list(hs)
    if not hs:
        raise DimensionError("sup of an empty family is undefined")
    _require_same_length(*hs)
    return HVec(tuple(max(h.coords[i] for h in hs) for i in range(hs[0].q)))


def hvec_add_unit(h: HVec, i: int) -> HVec:
    """h with coordinate i incremented by one."""
    _require_int(i, "coordinate index")
    if not 0 <= i < h.q:
        raise DimensionError(f"coordinate index {i} out of range for q={h.q}")
    coords = list(h.coords)
    coords[i] += 1
    return HVec(tuple(coords))


@dataclass(frozen=True)
class NormalizationRecord:
    """Affine change taking the normalized tuple back to the original:
    original A_i = d * normalized A_i + offsets[i]."""

    d: int
    offsets: tuple[int, ...]


def normalize_tuple(st: SetTuple) -> tuple[SetTuple, NormalizationRecord]:
    """Shift each component to minimum 0 and divide out the common gcd.

    Raises DegenerateTuple when every component is a singleton (the
    divisor would be gcd of an all-zero family, which is undefined; this
    also rejects tuples whose union is {0}).
    """
    offsets = tuple(A.min for A in st.sets)
    d = 0
    for A, off in zip(st.sets, offsets):
        for a in A.elements:
            d = math.gcd(d, a - off)
    if d == 0:
        raise DegenerateTupleError(
            "normalization undefined: every component set is a singleton"
        )
    sets = tuple(
        FiniteSet(tuple((a - off) // d for a in A.elements))
        for A, off in zip(st.sets, offsets)
    )
    return SetTuple(sets), NormalizationRecord(d=d, offsets=offsets)


def denormalize_tuple(st: SetTuple, record: NormalizationRecord) -> SetTuple:
    """Inverse of normalize_tuple: A_i -> d * A_i + offsets[i]."""
    if len(record.offsets) != st.q:
        raise DimensionError("record length does not match tuple")
    sets = tuple(
        FiniteSet(tuple(record.d * a + off for a in A.elements))
        for A, off in zip(st.sets, record.offsets)
    )
    return SetTuple(sets)


def denormalize_sumset(values: FiniteSet, record: NormalizationRecord, h: HVec) -> FiniteSet:
    """Map a sumset of the normalized tuple at exponents h back to the
    original coordinates: n -> d * n + sum_i h_i * offsets[i]."""
    if h.q != len(record.offsets):
        raise DimensionError("exponent vector length does not match record")
    shift = sum(hi * off for hi, off in zip(h.coords, record.offsets))
    return FiniteSet(tuple(record.d * v + shift for v in values.elements))


def tuple_to_json(st: SetTuple, labels: Sequence[str] | None = None) -> dict:
    obj: dict = {"sets": [list(A.elements) for A in st.sets]}
    if labels is not None:
        labels = list(labels)
        if len(labels) != st.q:
            raise ValueError("labels length does not match tuple")
        obj["labels"] = labels
    return obj


def tuple_from_json(obj: dict) -> tuple[SetTuple, list[str] | None]:
    """Parse {"sets": [[...], ...], "labels": [...]} (labels optional)."""
    if not isinstance(obj, dict) or "sets" not in obj:
        raise ValueError('expected an object with a "sets" field')
    raw = obj["sets"]
    if not isinstance(raw, list) or not all(isinstance(s, list) for s in raw):
        raise ValueError('"sets" must be a list of lists of integers')
    for s in raw:
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in s):
            raise ValueError('"sets" must contain integers only')
    st = make_tuple(raw)
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise ValueError('"labels" must be a list of strings')
        if len(labels) != st.q:
            raise ValueError("labels length does not match sets")
        labels = tuple(labels)
    return st, labels
