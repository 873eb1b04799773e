"""Self-check suite: the small exact facts the structure computation rests on.

Each check runs on one concrete instance (tuple, exponents, threshold,
optional translation set) and returns a pass/fail record with a short
human-readable detail.  They are deliberately independent of the main
code paths where possible: set-level identities are recomputed from
supports, not from the formulas under test.

One run_all call runs every check inside one row scope
(repcount._shared_rows): each multiset row is built once, and the cap-t
and cap-1 chromatic tables are built once and shared by the checks that
need them.  Sharing changes no value; each check still compares
supports computed on its own: the cap-t table's t-set against the
bumped, reflected and translated t-sets and the per-color sums, and the
cap-1 support against the pooled sumset and the translated form.
run_all checks its arguments once, and the checks count through
repcount._table and repcount._tfold and read a table's members through
CountTable._at_least, below the public entries' checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotNormalizedError
from .intset import (
    FiniteSet, HVec, SetTuple, _require_int, _require_length, _translation, hvec_add_unit,
)
from .repcount import _ZERO, CountTable, _shared_rows, _table, _tfold

__all__ = ["LemmaCheck", "run_all"]


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    ok: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def _support(st: SetTuple, h: HVec, t: int) -> frozenset:
    return frozenset(_tfold(st.sets, h.coords, t).elements)


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


def _check_support_bounds(st: SetTuple, h: HVec, table: CountTable) -> LemmaCheck:
    m = h.dot(st.maxima)
    sup = table.support()
    ok = all(0 <= n <= m for n in sup)
    return LemmaCheck(
        "support_bounds",
        ok,
        f"all counts live in [0, {m}]" if ok else f"support escapes [0, {m}]",
    )


def _check_union_bound(st: SetTuple, h: HVec, sumset: frozenset) -> LemmaCheck:
    """The colored sumset sits inside the pooled |h|-fold sumset."""
    rhs = frozenset(
        _table([st.union], [h.norm], _ZERO, 1).support().elements
    )
    ok = sumset <= rhs
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
            part = _table([A], [hi], _ZERO, ti)._at_least(ti)
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
    for the union, at a few representative anchors.  Each set is a
    Python-int bit mask, integer n at bit n + 4 (-4 is the least anchor,
    and every element is at least 0)."""
    sets = list(st.sets) + [st.union]
    for A in sets:
        a_star = A.max
        for c in (0, 1, -4, 17):
            for m in (max(a_star, 1), a_star + 3):
                interval = ((1 << m) - 1) << (c + 4)
                got = 0
                for a in A.elements:
                    got |= interval << a
                want = ((1 << (m + a_star)) - 1) << (c + 4)
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
    table = _table(st.sets, h.coords, _ZERO, None)
    mirrored = _table(st.reflected().sets, h.coords, _ZERO, None)
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
        _table(st.sets, h.coords, B, t)._at_least(t).elements
    )
    ok = all(n + b in target for n in base for b in B.elements)
    return LemmaCheck(
        "translation_by_set",
        ok,
        f"t-set translated by each of {set(B.elements)} stays inside the shifted t-set"
        if ok
        else "a translate escapes the shifted t-set",
    )


def _check_translation_by_form(
    st: SetTuple, h: HVec, B: FiniteSet, sumset: frozenset
) -> LemmaCheck:
    """At threshold 1 the shifted sumset is exactly the union of translates
    of the colored sumset."""
    got = frozenset(
        _table(st.sets, h.coords, B, 1)._at_least(1).elements
    )
    want = frozenset(n + b for n in sumset for b in B.elements)
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
    _require_length(st, h)
    _require_int(t, "t", 1)
    B = _translation(B, FiniteSet((0, 1)))
    with _shared_rows():
        # the cap-t table and its t-fold set at h, which four of the checks
        # compare against, and the colored sumset, which two do
        table = _table(st.sets, h.coords, _ZERO, t)
        base = frozenset(table._at_least(t).elements)
        sumset = frozenset(_table(st.sets, h.coords, _ZERO, 1).support().elements)
        return [
            _check_monotone_inclusion(st, h, t, base),
            _check_support_bounds(st, h, table),
            _check_union_bound(st, h, sumset),
            _check_per_color_product(st, h, t, base),
            _check_interval_sum(st, h, t),
            _check_reflection_table(st, h, t),
            _check_reflection_tfold(st, h, t, base),
            _check_translation_by_set(st, h, t, B, base),
            _check_translation_by_form(st, h, B, sumset),
        ]
