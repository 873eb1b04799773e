"""Self-check suite: the small exact facts the structure computation rests on.

Each check runs on one concrete instance (tuple, exponents, threshold,
optional translation set) and returns a pass/fail record with a short
human-readable detail.  They are deliberately independent of the main
code paths where possible: set-level identities are recomputed from
supports, not from the formulas under test.

One run_all call runs every check inside one row scope
(repcount._shared_rows): each packed multiset state is stepped to once,
and the t-set and the colored sumset at h are read once and shared by
the checks that need them.  Sharing changes no value; each check still
compares member sets read on its own: the t-set against the bumped,
reflected and translated t-sets and the per-color sums, and the sumset
against the bounds, the pooled sumset and the translated form.
run_all checks its arguments once, below the public entries' checks.
Every member set is read through repcount._tfold, the one reader of
t-fold members, as a tuple of ints; a count table (repcount._table) is
built only for the reflection check, the one check that compares
counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotNormalizedError
from .intset import FiniteSet, HVec, SetTuple, _require_int, _require_length, _translation
from .repcount import _ZERO, _shared_rows, _table, _tfold

__all__ = ["LemmaCheck", "run_all"]


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    ok: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def _check_monotone_inclusion(st: SetTuple, h: HVec, t: int, base: frozenset) -> LemmaCheck:
    """Raising any one exponent never removes members (0 is in every color)."""
    hs = h.coords
    bad = [
        i
        for i in range(st.q)
        if not base.issubset(_tfold(st.sets, hs[:i] + (hs[i] + 1,) + hs[i + 1:], _ZERO, t))
    ]
    return LemmaCheck(
        "monotone_inclusion",
        not bad,
        "support grows under each unit exponent bump"
        if not bad
        else f"inclusion fails when bumping color(s) {bad}",
    )


def _check_support_bounds(st: SetTuple, h: HVec, sumset: frozenset) -> LemmaCheck:
    m = h.dot(st.maxima)
    ok = all(0 <= n <= m for n in sumset)
    return LemmaCheck(
        "support_bounds",
        ok,
        f"all counts live in [0, {m}]" if ok else f"support escapes [0, {m}]",
    )


def _check_union_bound(st: SetTuple, h: HVec, sumset: frozenset) -> LemmaCheck:
    """The colored sumset sits inside the pooled |h|-fold sumset."""
    ok = sumset.issubset(_tfold([st.union], [h.norm], _ZERO, 1))
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
            part = _tfold([A], [hi], _ZERO, ti)
            members = {x + y for x in members for y in part}
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


def _check_interval_sum(st: SetTuple) -> LemmaCheck:
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


def _check_reflection_table(st: SetTuple, h: HVec) -> LemmaCheck:
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
    mirrored = {m - n for n in _tfold(st.reflected().sets, h.coords, _ZERO, t)}
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
    target = frozenset(_tfold(st.sets, h.coords, B, t))
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
    got = frozenset(_tfold(st.sets, h.coords, B, 1))
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
        # the t-fold set at h, which four of the checks compare against,
        # and the colored sumset, which three do
        base = frozenset(_tfold(st.sets, h.coords, _ZERO, t))
        sumset = frozenset(_tfold(st.sets, h.coords, _ZERO, 1))
        return [
            _check_monotone_inclusion(st, h, t, base),
            _check_support_bounds(st, h, sumset),
            _check_union_bound(st, h, sumset),
            _check_per_color_product(st, h, t, base),
            _check_interval_sum(st),
            _check_reflection_table(st, h),
            _check_reflection_tfold(st, h, t, base),
            _check_translation_by_set(st, h, t, B, base),
            _check_translation_by_form(st, h, B, sumset),
        ]
