"""Self-check suite: the small exact facts the structure computation rests on.

Each check runs on one concrete instance (tuple, exponents, threshold,
optional translation set) and returns a pass/fail record with a short
human-readable detail.  They are deliberately independent of the main
code paths where possible: set-level identities are recomputed from
supports, not from the formulas under test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, NotNormalizedError
from .intset import FiniteSet, HVec, SetTuple, _is_int, hvec_add_unit
from .repcount import (
    chromatic_count_table,
    inhomogeneous_count_table,
    multiset_count_table,
    tfold_set,
)

__all__ = ["LemmaCheck", "run_all"]


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    ok: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def _support(st: SetTuple, h: HVec, t: int) -> frozenset:
    return frozenset(tfold_set(st, h, t).elements)


def _check_monotone_inclusion(st: SetTuple, h: HVec, t: int, base: frozenset) -> LemmaCheck:
    """Raising any one exponent never removes members (0 is in every color)."""
    bad = [
        i
        for i in range(st.q)
        if not base <= _support(st, hvec_add_unit(h, i), t)
    ]
    return LemmaCheck(
        "monotone_inclusion",
        not bad,
        "support grows under each unit exponent bump"
        if not bad
        else f"inclusion fails when bumping color(s) {bad}",
    )


def _check_support_bounds(st: SetTuple, h: HVec, t: int) -> LemmaCheck:
    table = chromatic_count_table(st, h, cap=t)
    m = h.dot(st.maxima)
    sup = table.support()
    ok = all(0 <= n <= m for n in sup)
    return LemmaCheck(
        "support_bounds",
        ok,
        f"all counts live in [0, {m}]" if ok else f"support escapes [0, {m}]",
    )


def _check_union_bound(st: SetTuple, h: HVec, t: int) -> LemmaCheck:
    lhs = frozenset(chromatic_count_table(st, h, cap=1).support().elements)
    rhs = frozenset(
        multiset_count_table(st.union, h.norm, cap=1).support().elements
    )
    ok = lhs <= rhs
    return LemmaCheck(
        "union_bound",
        ok,
        f"colored support sits inside the {h.norm}-fold union sumset"
        if ok
        else "colored support escapes the pooled sumset",
    )


def _check_per_color_product(st: SetTuple, h: HVec, t: int, target: frozenset) -> LemmaCheck:
    """Sums of per-color t_i-sets with prod t_i >= t land in the t-set.

    One factor carries the whole threshold in turn; the rest use t_i = 1.
    """
    for lead in range(st.q):
        members = {0}
        for i, (A, hi) in enumerate(zip(st.sets, h.coords)):
            ti = t if i == lead else 1
            part = multiset_count_table(A, hi, cap=ti).support_at_least(ti)
            members = {x + y for x in members for y in part.elements}
        if not members <= target:
            return LemmaCheck(
                "per_color_product",
                False,
                f"per-color sum escapes the t-set with color {lead} leading",
            )
    return LemmaCheck(
        "per_color_product",
        True,
        "per-color threshold sets sum into the joint t-set",
    )


def _check_interval_sum(st: SetTuple, h: HVec, t: int) -> LemmaCheck:
    """[c, c+m-1] + A = [c, c+m-1+max(A)] once m >= max(A), per color and
    for the union, at a few representative anchors."""
    sets = list(st.sets) + [st.union]
    for A in sets:
        a_star = A.max
        for c in (0, 1, -4, 17):
            for m in (max(a_star, 1), a_star + 3):
                got = {c + i + a for i in range(m) for a in A.elements}
                want = set(range(c, c + m + a_star))
                if got != want:
                    return LemmaCheck(
                        "interval_sum",
                        False,
                        f"[{c},{c + m - 1}] + {set(A.elements)} misses the full interval",
                    )
    return LemmaCheck(
        "interval_sum", True, "long intervals absorb every component set"
    )


def _check_reflection_table(st: SetTuple, h: HVec, t: int) -> LemmaCheck:
    table = chromatic_count_table(st, h)
    mirrored = chromatic_count_table(st.reflected(), h)
    ok = mirrored.counts == table.reversed_counts()
    return LemmaCheck(
        "reflection_table",
        ok,
        "reflected tuple's counts are the reversed counts"
        if ok
        else "reflected counts differ from the reversal",
    )


def _check_reflection_tfold(st: SetTuple, h: HVec, t: int, base: frozenset) -> LemmaCheck:
    m = h.dot(st.maxima)
    mirrored = {m - n for n in _support(st.reflected(), h, t)}
    ok = mirrored == base
    return LemmaCheck(
        "reflection_tfold",
        ok,
        "t-set of the reflection is the mirror image"
        if ok
        else "t-set mirror identity fails",
    )


def _check_translation_by_set(
    st: SetTuple, h: HVec, t: int, B: FiniteSet, base: frozenset
) -> LemmaCheck:
    target = frozenset(
        inhomogeneous_count_table(st, h, B, cap=t).support_at_least(t).elements
    )
    ok = all(n + b in target for n in base for b in B.elements)
    return LemmaCheck(
        "translation_by_set",
        ok,
        f"t-set translated by each of {set(B.elements)} stays inside the shifted t-set"
        if ok
        else "a translate escapes the shifted t-set",
    )


def _check_translation_by_form(st: SetTuple, h: HVec, t: int, B: FiniteSet) -> LemmaCheck:
    """At threshold 1 the shifted sumset is exactly the union of translates."""
    got = frozenset(
        inhomogeneous_count_table(st, h, B, cap=1).support_at_least(1).elements
    )
    base = _support(st, h, 1)
    want = frozenset(n + b for n in base for b in B.elements)
    ok = got == want
    return LemmaCheck(
        "translation_by_form",
        ok,
        "1-fold shifted sumset equals the union of translates"
        if ok
        else "shifted sumset differs from the union of translates",
    )


def run_all(st: SetTuple, h: HVec, t: int = 1, B: FiniteSet | None = None) -> list[LemmaCheck]:
    """Run every check on one instance; B defaults to {0, 1}."""
    if not st.normalized:
        raise NotNormalizedError("lemma checks require a normalized tuple")
    if h.q != st.q:
        raise DomainError("exponent vector length does not match tuple")
    if not _is_int(t) or t < 1:
        raise DomainError("t must be a positive integer")
    if B is None:
        B = FiniteSet((0, 1))
    if B.min != 0:
        raise DomainError("the translation set must have minimum 0")
    # the t-fold set at h, which four of the checks compare against
    base = _support(st, h, t)
    return [
        _check_monotone_inclusion(st, h, t, base),
        _check_support_bounds(st, h, t),
        _check_union_bound(st, h, t),
        _check_per_color_product(st, h, t, base),
        _check_interval_sum(st, h, t),
        _check_reflection_table(st, h, t),
        _check_reflection_tfold(st, h, t, base),
        _check_translation_by_set(st, h, t, B, base),
        _check_translation_by_form(st, h, t, B),
    ]
