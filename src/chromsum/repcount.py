"""Counting kernels: fixed-length multiset sums, colored sums, unbounded
partition counts, and translated forms.

All tables hold exact nonnegative integers.  With a saturation cap every
stored value is min(true count, cap); that meaning survives the two
operations used here, clipped addition and clipped schoolbook
convolution of clipped inputs:

    min(min(x, cap) + min(y, cap), cap) == min(x + y, cap)
    min(sum_i min(f_i, cap) * min(g_i, cap), cap) == min(sum_i f_i * g_i, cap)

(the second because any factor above cap forces the clipped term to cap
already).  Capped tables therefore agree with clipping the exact table,
which lets the capped path run on fixed-width words: numpy int64 with an
explicit overflow guard, falling back to exact big-int arithmetic when
the guard fails.  Convolution is schoolbook in both paths; no
transform-based multiplication anywhere.

The multiset recurrence iterates elements in increasing order with
(h+1) rows over n:

    f(j, m, n) = f(j-1, m, n) + f(j, m-1, n - a_j)

where f(j, m, n) counts non-decreasing m-tuples from the first j
elements summing to n.  The capped kernel streams it over m: row m+1 of
every element prefix comes from row m of the same prefix, so rows
m = 0, 1, 2, ... cost one step each and only |A| rows are live.  The
structure search keeps each color's stream and the rows it produced, so
moving one exponent by one costs one row.

Unbounded partition counts multiply by 1/(1 - x^a) for each part a: a
running sum along each residue class mod a, which only grows, so
clipping the running sums is the same as clipping after every addition.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import count

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    EmptySetError,
    NotNormalizedError,
)
from .intset import FiniteSet, HVec, SetTuple

__all__ = [
    "CountTable",
    "multiset_count_table",
    "chromatic_count_table",
    "tfold_set",
    "partition_count_table",
    "inhomogeneous_count_table",
]

# numpy path only when every possible intermediate fits comfortably in int64
_WORD_SAFE_CAP = 1 << 20


@dataclass(frozen=True)
class CountTable:
    """Dense table of counts over the contiguous range starting at offset.

    counts[i] is the count of n = offset + i.  Entries outside the table
    are zero.  With cap set, every entry is min(true count, cap), so an
    entry equal to cap means the true count is at least cap.
    """

    offset: int
    counts: tuple[int, ...]
    cap: int | None = None

    def __post_init__(self):
        if self.cap is not None and self.cap < 1:
            raise ValueError("cap must be a positive integer")
        counts = tuple(int(c) for c in self.counts)
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")
        if self.cap is not None and any(c > self.cap for c in counts):
            raise ValueError("counts exceed the declared cap")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "offset", int(self.offset))

    @property
    def end(self) -> int:
        """Largest n covered by the table."""
        return self.offset + len(self.counts) - 1

    def value(self, n: int) -> int:
        i = n - self.offset
        if 0 <= i < len(self.counts):
            return self.counts[i]
        return 0

    def support(self) -> FiniteSet:
        return FiniteSet(
            tuple(self.offset + i for i, c in enumerate(self.counts) if c > 0)
        )

    def support_at_least(self, t: int) -> FiniteSet:
        if t < 1:
            raise DomainError("threshold must be a positive integer")
        if self.cap is not None and t > self.cap:
            raise DomainError("threshold exceeds the table cap")
        return FiniteSet(
            tuple(self.offset + i for i, c in enumerate(self.counts) if c >= t)
        )

    def total(self) -> int:
        return sum(self.counts)

    def reversed_counts(self) -> tuple[int, ...]:
        return tuple(reversed(self.counts))

    def to_json(self) -> dict:
        return {
            "offset": self.offset,
            "cap": self.cap,
            "counts": [str(c) for c in self.counts],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CountTable":
        if not isinstance(obj, dict):
            raise ValueError("expected a count table object")
        try:
            offset = int(obj["offset"])
            cap = obj.get("cap")
            cap = None if cap is None else int(cap)
            counts = tuple(int(c) for c in obj["counts"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed count table: {exc}") from exc
        return cls(offset=offset, counts=counts, cap=cap)


def _validate_cap(cap):
    if cap is not None and (not isinstance(cap, int) or cap < 1):
        raise DomainError("cap must be a positive integer or None")


def _multiset_counts_exact(elements: tuple[int, ...], h: int) -> list[int]:
    """Exact row m=h of the element-by-element multiset DP."""
    n_top = h * elements[-1]
    rows = [[0] * (n_top + 1) for _ in range(h + 1)]
    rows[0][0] = 1
    for a in elements:
        for m in range(1, h + 1):
            cur = rows[m]
            prev = rows[m - 1]
            if a == 0:
                cur[:] = [x + y for x, y in zip(cur, prev)]
            else:
                cur[a:] = [x + y for x, y in zip(cur[a:], prev[: n_top + 1 - a])]
    return rows[h]


def _capped_stream(elements: tuple[int, ...], cap: int) -> Iterator[np.ndarray]:
    """Rows m = 0, 1, 2, ... of the multiset DP over the increasing
    elements, clipped at a word-safe cap.  Row m has length
    m * max(elements) + 1; callers must not write to it.

    The state is f(j, m, .) for every prefix j, of length m * a_j + 1;
    f(j, m+1, .) adds f(j, m, .) shifted by a_j to f(j-1, m+1, .), the
    recurrence and clipping of the table kernel, in m-major order."""
    prefix = [np.ones(1, dtype=np.int64)] * len(elements)
    while True:
        yield prefix[-1]
        below = None
        for j, a in enumerate(elements):
            row = prefix[j]
            cur = np.zeros(len(row) + a, dtype=np.int64)
            if below is not None:
                cur[: len(below)] = below
            cur[a:] += row
            np.minimum(cur, cap, out=cur)
            prefix[j] = below = cur


def _multiset_counts_capped(elements: tuple[int, ...], h: int, cap: int) -> list[int]:
    if cap > _WORD_SAFE_CAP:
        return [min(c, cap) for c in _multiset_counts_exact(elements, h)]
    rows = _capped_stream(elements, cap)
    for _ in range(h):
        next(rows)
    return next(rows).tolist()


def _color_rows(elements: tuple[int, ...], cap: int) -> Iterator[Sequence[int]]:
    """Rows m = 0, 1, 2, ... of one color's capped table."""
    if cap > _WORD_SAFE_CAP:
        return (_multiset_counts_capped(elements, m, cap) for m in count())
    return _capped_stream(elements, cap)


def _multiset_counts(A: FiniteSet, h: int, cap: int | None) -> list[int]:
    if not A:
        raise EmptySetError("cannot count over an empty set")
    if A.min != 0:
        raise NotNormalizedError("multiset counting requires min(A) = 0")
    if h < 0:
        raise DomainError("repetition count must be nonnegative")
    if h == 0 or A.max == 0:
        # the empty multiset, or h copies of 0
        return [1]
    if cap is None:
        return _multiset_counts_exact(A.elements, h)
    return _multiset_counts_capped(A.elements, h, cap)


def multiset_count_table(A: FiniteSet, h: int, cap: int | None = None) -> CountTable:
    """Counts of non-decreasing h-tuples from A by their sum, over [0, h*max(A)]."""
    _validate_cap(cap)
    return CountTable(offset=0, counts=tuple(_multiset_counts(A, h, cap)), cap=cap)


def _convolve_exact(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _convolve_capped(a: Sequence[int], b: Sequence[int], cap: int) -> Sequence[int]:
    # inputs already clipped at cap
    short = min(len(a), len(b))
    if cap <= _WORD_SAFE_CAP and short * cap * cap < (1 << 62):
        out = np.convolve(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        np.minimum(out, cap, out=out)
        return out
    return [min(c, cap) for c in _convolve_exact([int(x) for x in a], [int(y) for y in b])]


def _fold(acc: Sequence[int], per_color: Iterable[Sequence[int]], cap: int | None) -> Sequence[int]:
    """Convolve the per-color tables into acc, clipped at cap when one is set."""
    for row in per_color:
        acc = _convolve_exact(acc, row) if cap is None else _convolve_capped(acc, row, cap)
    return acc


def _colored_counts(st: SetTuple, h: HVec, cap: int | None, acc: list[int]) -> Sequence[int]:
    """Fold the per-color tables of st at h into acc.  acc = [1] gives the
    colored counts."""
    if h.q != st.q:
        raise DimensionError("exponent vector length does not match tuple")
    if not st.normalized:
        raise NotNormalizedError("chromatic counting requires a normalized tuple")
    return _fold(acc, (_multiset_counts(A, hi, cap) for A, hi in zip(st.sets, h.coords)), cap)


def chromatic_count_table(st: SetTuple, h: HVec, cap: int | None = None) -> CountTable:
    """Counts of colored representations: one non-decreasing h_i-tuple from
    each A_i, keyed by the total sum, over [0, sum_i h_i * max(A_i)].

    A colored representation is determined by its per-color multisets, so
    the table is the convolution of the per-color tables.
    """
    _validate_cap(cap)
    return CountTable(offset=0, counts=tuple(_colored_counts(st, h, cap, [1])), cap=cap)


def tfold_set(st: SetTuple, h: HVec, t: int) -> FiniteSet:
    """The set of integers with at least t colored representations."""
    if t < 1:
        raise DomainError("t must be a positive integer")
    return chromatic_count_table(st, h, cap=t).support_at_least(t)


def partition_count_table(parts: FiniteSet, n_top: int, cap: int) -> CountTable:
    """Counts of unbounded multisets of parts by their sum, over [0, n_top].

    The empty multiset represents 0, so the count at 0 is 1.  Parts must
    all be at least 1; callers strip 0 from their alphabets first.
    """
    if not isinstance(cap, int) or cap < 1:
        raise DomainError("cap must be a positive integer")
    if n_top < 0:
        raise DomainError("table end must be nonnegative")
    if parts and parts.min < 1:
        raise DomainError("partition parts must all be at least 1")
    counts = _unbounded_fold([1] + [0] * n_top, parts.elements, cap)
    return CountTable(offset=0, counts=tuple(counts), cap=cap)


def _unbounded_fold(acc: Sequence[int], parts: Iterable[int], cap: int) -> list[int]:
    """acc times 1/(1 - x^a) for each part a >= 1 (repeats allowed), over
    the range of acc, clipped at cap; acc must already be clipped."""
    dtype = np.int64 if cap <= _WORD_SAFE_CAP else object
    length = len(acc)
    out = np.asarray(acc, dtype=dtype)
    for a in parts:
        rows = -(-length // a)
        grid = np.zeros(rows * a, dtype=dtype)
        grid[:length] = out
        out = np.minimum(grid.reshape(rows, a).cumsum(axis=0), cap).ravel()[:length]
    return out.tolist()


def _indicator(B: FiniteSet) -> list[int]:
    """The 0/1 table of B over [min(B), max(B)]."""
    out = [0] * (B.max - B.min + 1)
    for b in B.elements:
        out[b - B.min] = 1
    return out


def inhomogeneous_count_table(
    st: SetTuple, h: HVec, B: FiniteSet, cap: int | None = None
) -> CountTable:
    """Counts of the translated form: colored representation plus one
    element of B, over [min(B), sum_i h_i * max(A_i) + max(B)]."""
    _validate_cap(cap)
    if not B:
        raise EmptySetError("translation set B must be nonempty")
    counts = _colored_counts(st, h, cap, _indicator(B))
    return CountTable(offset=B.min, counts=tuple(counts), cap=cap)


class _TFoldSets:
    """The t-fold sets of h.A + B at any exponent vector h, without count
    tables: each color's capped rows are streamed once and kept, and the
    counts at h are their capped convolution started from B's indicator."""

    def __init__(self, st: SetTuple, B: FiniteSet, t: int):
        self._t = t
        self._offset = B.min
        self._start = _indicator(B)
        self._streams = [_color_rows(A.elements, t) for A in st.sets]
        self._rows: list[list[Sequence[int]]] = [[] for _ in st.sets]

    def _row(self, i: int, m: int) -> Sequence[int]:
        rows = self._rows[i]
        while len(rows) <= m:
            rows.append(next(self._streams[i]))
        return rows[m]

    def _at_least(self, h: HVec) -> np.ndarray:
        per_color = (self._row(i, m) for i, m in enumerate(h.coords))
        return np.asarray(_fold(self._start, per_color, self._t)) >= self._t

    def size(self, h: HVec) -> int:
        """Number of integers with at least t representations at h."""
        return int(np.count_nonzero(self._at_least(h)))

    def members(self, h: HVec) -> tuple[int, ...]:
        """The integers with at least t representations at h, increasing."""
        return tuple((np.flatnonzero(self._at_least(h)) + self._offset).tolist())
