"""Exhaustive enumeration oracle.

Everything here enumerates representations literally, with no recurrences
and no convolution, so it can cross-check the counting kernels.  Slow on
purpose; a budget guard refuses instances whose enumeration would be
larger than the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

from .errors import BudgetError, DomainError
from .intset import FiniteSet, HVec, SetTuple, _require_int, _require_length
from .repcount import CountTable

__all__ = [
    "DEFAULT_BUDGET",
    "Representation",
    "enumeration_size",
    "enumerate_representations",
    "oracle_count_table",
    "oracle_partitions",
    "oracle_partition_count",
]

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class Representation:
    """One colored representation: a non-decreasing tuple from each color."""

    per_color: tuple[tuple[int, ...], ...]

    def total(self) -> int:
        return sum(sum(part) for part in self.per_color)


def enumeration_size(st: SetTuple, h: HVec) -> int:
    """Number of colored tuples the exhaustive enumeration visits:
    the product over colors of C(|A_i| + h_i - 1, h_i)."""
    _require_length(st, h)
    size = 1
    for A, hi in zip(st.sets, h.coords):
        size *= math.comb(len(A) + hi - 1, hi)
    return size


def _check_budget(st: SetTuple, h: HVec, budget: int | None) -> None:
    _require_int(budget, "budget", optional=True)
    limit = DEFAULT_BUDGET if budget is None else budget
    size = enumeration_size(st, h)
    if size > limit:
        raise BudgetError(
            f"enumeration of {size} colored tuples exceeds the budget of {limit}"
        )


def enumerate_representations(
    st: SetTuple, h: HVec, n: int, budget: int | None = None
) -> list[Representation]:
    """All colored representations of n at exponents h, in lexicographic
    order over the q-tuples of per-color non-decreasing tuples."""
    _require_int(n, "n")
    _check_budget(st, h, budget)
    pools = [
        list(combinations_with_replacement(A.elements, hi))
        for A, hi in zip(st.sets, h.coords)
    ]
    out = []
    for combo in product(*pools):
        if sum(sum(part) for part in combo) == n:
            out.append(Representation(per_color=combo))
    return out


def oracle_count_table(st: SetTuple, h: HVec, budget: int | None = None) -> CountTable:
    """Counts by brute force: visit every colored tuple once and bucket by sum.

    Entry n equals len(enumerate_representations(st, h, n)).
    """
    _check_budget(st, h, budget)
    sum_pools = [
        [sum(c) for c in combinations_with_replacement(A.elements, hi)]
        for A, hi in zip(st.sets, h.coords)
    ]
    offset = sum(hi * A.min for A, hi in zip(st.sets, h.coords))
    top = sum(hi * A.max for A, hi in zip(st.sets, h.coords))
    counts = [0] * (top - offset + 1)
    for combo in product(*sum_pools):
        counts[sum(combo) - offset] += 1
    return CountTable(offset=offset, counts=tuple(counts), cap=None)


def oracle_partitions(parts: FiniteSet, n: int) -> list[tuple[int, ...]]:
    """All multisets of parts summing to n, as non-decreasing tuples in
    lexicographic order.  n = 0 yields the single empty partition."""
    if parts and parts.min < 1:
        raise DomainError("partition parts must all be at least 1")
    _require_int(n, "n")
    if n < 0:
        return []
    elems = parts.elements
    out: list[tuple[int, ...]] = []
    acc: list[int] = []

    def rec(remaining: int, start: int) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        for idx in range(start, len(elems)):
            p = elems[idx]
            if p > remaining:
                break
            acc.append(p)
            rec(remaining - p, idx)
            acc.pop()

    rec(n, 0)
    return out


def oracle_partition_count(parts: FiniteSet, n: int) -> int:
    return len(oracle_partitions(parts, n))
