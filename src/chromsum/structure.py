"""Eventual structure of t-fold colored sumsets.

For a normalized tuple (A_1..A_q) and a threshold t, the set of integers
with at least t colored representations at exponents h eventually takes
the shape

    low_fringe  U  [low_cut, M - high_cut]  U  (M - high_fringe)

with M = sum_i h_i * max(A_i): a fixed sporadic set near 0, a solid
middle interval, and a fixed sporadic set hanging off the right
endpoint.  This module computes those four constants together with an
exponent vector past which the shape holds, by two routes of one entry,
structure_constants:

* empirical: the constants are the large-h limit, and the threshold is
  a minimal exponent vector at which the certificate below proves the
  shape for every larger vector.  The search runs on the translated
  form h.A + B; the plain t-fold sets are the case B = {0}.

* constructive: the same limit constants (B = {0}), and a threshold
  vector from explicit witness representations: the t colored
  partitions of each target with fewest parts, from one t-best DP over
  all of a side's targets, or from one enumeration where a long table
  has few partitions (repcount).  The certificate below then proves the
  shape at that vector, and so at every larger one.

The certificate.  Write S_h for the t-fold set of h.A + B, a_i for
max(A_i) and M = M(h) = sum_i h_i a_i + max(B) for its right endpoint.
Let Q(n) count the pairs (b, colored partition of n - b) with b in B
and parts the nonzero (color, element) pairs, and Q'(n) the same count
over the per-color reflections a_i - A_i and the reflected B.  As every
h_i grows, the count of n tends to Q(n) and the count of M - n to
Q'(n).  (C, c) are read off {n : Q(n) >= t}: c is the least integer
with Q >= t from c on, and C holds the smaller members, all below
c - 1.  (D, d) are read off Q' the same way.  With p the smallest part,
Q(n) >= Q(n - p), since adding p maps the partitions of n - p into those
of n; so once Q >= t on a run of p consecutive integers it stays so, and
the cut is the start of the first such run.  repcount._limit_side reads
the cut and the fringe off a partition table, doubled until it holds
that run, while that is cheaper than the other route, and otherwise off
the t smallest values in each residue class mod p: Q(n) >= t exactly
when n is at least the t-th smallest value congruent to n of b plus a
partition into the other parts (repcount's docstring measures the
crossover).  Both give the same constants, and each side is computed on
its own (_limit_fringe).
The pattern at M is C U [c, M - d] U (M - D).

1. Since 0 is in A_i, S_{h+e_i} contains S_h and S_h + a_i.
2. The count of n at h is at most Q(n), and the count of M - n at most
   Q'(n), so S_h lies inside the pattern at M(h).
3. Let L = M - d - c + 1 be the length of the middle.  If S_h is the
   pattern and L >= a_i, then by 1 S_{h+e_i} contains the pattern at M
   and its shift by a_i, whose middles [c, M - d] and
   [c + a_i, M + a_i - d] join; so it contains the pattern at M + a_i,
   and by 2 it is that pattern.

So define cert(h): L >= 1, S_h is the pattern, and cert(h + e_i) for
every i with a_i > L.  Along e_i, L grows by a_i, so the recursion ends,
and a {0} color never needs a step.  cert(h) holds exactly when the
pattern holds at every h' >= h: the certified vectors form an up-set.
By 2, S_h is the pattern exactly when both have |C| + L + |D| members,
so cert compares sizes.  Each size is the count of repcount._box_counts
at one point (repcount._tfold_size): where it is short, one product of
the colors' packed rows as Python integers, and past the crossover that
repcount's docstring measures, a one-point walk.  structure_constants
runs each route's certificate in one row scope (repcount._shared_rows),
so each packed state it visits is stepped to once, whichever color asks
for it, and a packed row is stepped on from the highest state the scope
keeps below it at its slot width, not from row 0.  On both routes the
certificate at the threshold proves the shape over the margin box
verified_box; verify_box re-checks it on request, comparing the sets
over a whole box: repcount._box_counts forms each partial product of the
colors once and yields the last color's points together, every point's
members over [0, M] tested against the shape at its own M, which a
member outside [0, M] fails.  A small box is a list of packed products,
each point's carry flags compared with the shape packed at the same
slots (repcount._packed_fits); a larger one is walked one color at a
time in numpy, keeping one partial product per color, and one
comparison tests each group of points (_arrays._shape_fits).
verify_box is the one public box check, the command line's verify
included; verify_structure is its one-point case.

The search.  As the certified vectors form an up-set, cert is monotone
along the diagonal and along each coordinate, so each walk gallops
(Bentley and Yao's unbounded search): the ascent probes the diagonal at
first, first + 1, first + 3, first + 7, ... up to the ceiling (first the
least m with L >= 1), then bisects the last gap; each coordinate c in
turn probes c - 1, c - 2, c - 4, ... down to 0, then bisects.  That finds
what a walk of one step at a time finds, in O(log) cert calls per walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul

from .errors import (
    BoundError,
    ChromsumError,
    DegenerateAlphabetError,
    DomainError,
    NotNormalizedError,
    SearchExhaustedError,
)
from .intset import (
    FiniteSet, HVec, SetTuple, _int, _require_int, _require_length, _translation, hvec_leq,
)
from .repcount import (
    _ZERO,
    _fewest_loads,
    _limit_side,
    _shared_rows,
    _streamed_box_fits,
    _tfold_size,
)

__all__ = [
    "StructureResult",
    "ColoredRep",
    "WitnessSet",
    "certified_rep_bound",
    "low_fringe_constants",
    "high_fringe_constants",
    "closed_form_threshold",
    "witness_representations",
    "threshold_constructive",
    "verify_box",
    "verify_structure",
    "structure_constants",
    "structure_constants_inhomogeneous",
]

DEFAULT_MARGIN = 3


@dataclass(frozen=True)
class StructureResult:
    """The four structure constants plus the exponent threshold.

    low_fringe lives in [0, low_cut - 2]; high_fringe holds offsets from
    the right endpoint and lives in [0, high_cut - 2].  verified_box is
    the closed box [threshold, threshold + margin]; the certificate at
    the threshold proves the shape at every vector of it.
    """

    low_fringe: FiniteSet
    low_cut: int
    high_fringe: FiniteSet
    high_cut: int
    threshold: HVec
    strategy: str
    verified_box: tuple[HVec, HVec]

    def pattern_set(self, m: int) -> FiniteSet:
        """The predicted set for right endpoint m."""
        _require_int(m, "right endpoint")
        dec = (self.low_fringe.elements, self.low_cut,
               self.high_fringe.elements, self.high_cut)
        return FiniteSet(_pattern_members(dec, m))

    def to_json(self) -> dict:
        return {
            "C": list(self.low_fringe.elements),
            "c": self.low_cut,
            "D": list(self.high_fringe.elements),
            "d": self.high_cut,
            "h_t": list(self.threshold.coords),
            "strategy": self.strategy,
            "verified_box": [
                list(self.verified_box[0].coords),
                list(self.verified_box[1].coords),
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "StructureResult":
        if not isinstance(obj, dict):
            raise ValueError("expected a structure result object")
        try:
            if obj["strategy"] not in ("empirical", "constructive"):
                raise ValueError(f"unknown strategy {obj['strategy']!r}")
            return cls(
                low_fringe=FiniteSet(tuple(sorted(obj["C"]))),
                low_cut=_int(obj["c"]),
                high_fringe=FiniteSet(tuple(sorted(obj["D"]))),
                high_cut=_int(obj["d"]),
                threshold=HVec(tuple(obj["h_t"])),
                strategy=obj["strategy"],
                verified_box=(
                    HVec(tuple(obj["verified_box"][0])),
                    HVec(tuple(obj["verified_box"][1])),
                ),
            )
        except (ChromsumError, KeyError, IndexError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed structure result: {exc}") from exc


@dataclass(frozen=True)
class ColoredRep:
    """A colored multiset as sorted (color, element, multiplicity) entries,
    positive multiplicities only; zero elements are implicit padding."""

    entries: tuple[tuple[int, int, int], ...]

    def total(self) -> int:
        return sum(a * m for _, a, m in self.entries)

    def color_load(self, i: int) -> int:
        """Number of nonzero parts carried by color i."""
        return sum(m for color, _, m in self.entries if color == i)

    def per_color_tuples(self, q: int) -> tuple[tuple[int, ...], ...]:
        """Expand to explicit non-decreasing per-color tuples (no padding)."""
        parts: list[list[int]] = [[] for _ in range(q)]
        for color, a, m in self.entries:
            parts[color].extend([a] * m)
        return tuple(tuple(sorted(p)) for p in parts)

    def to_json(self) -> list[dict]:
        return [
            {"color": c, "element": a, "multiplicity": str(m)}
            for c, a, m in self.entries
        ]

    @classmethod
    def from_json(cls, rows: list) -> "ColoredRep":
        try:
            entries = tuple(
                sorted(
                    (_int(r["color"]), _int(r["element"]), _int(r["multiplicity"], decimal=True))
                    for r in rows
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed colored representation: {exc}") from exc
        return cls(entries=entries)


@dataclass(frozen=True)
class WitnessSet:
    """t pairwise-distinct colored representations of one integer."""

    n: int
    reps: tuple[ColoredRep, ...]

    def to_json(self) -> dict:
        return {"n": str(self.n), "reps": [rep.to_json() for rep in self.reps]}

    @classmethod
    def from_json(cls, obj: dict) -> "WitnessSet":
        try:
            return cls(
                n=_int(obj["n"], decimal=True),
                reps=tuple(ColoredRep.from_json(rows) for rows in obj["reps"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed witness set: {exc}") from exc


def _require_normalized(st: SetTuple) -> None:
    if not st.normalized:
        raise NotNormalizedError("this operation requires a normalized tuple")


def _box_points(lo: HVec, margin: int):
    """The exponent vectors of the closed box [lo, lo + margin], the last
    coordinate varying fastest."""
    for p in product(*(range(c, c + margin + 1) for c in lo.coords)):
        yield HVec(p)


def _result(dec, coords: tuple[int, ...], strategy: str, margin: int) -> StructureResult:
    """The structure result of the shape dec = (C, c, D, d) at the
    threshold coords, over the box [coords, coords + margin]."""
    low, cut_low, high, cut_high = dec
    ht = HVec(coords)
    return StructureResult(
        low_fringe=FiniteSet(low),
        low_cut=cut_low,
        high_fringe=FiniteSet(high),
        high_cut=cut_high,
        threshold=ht,
        strategy=strategy,
        verified_box=(ht, HVec(tuple(c + margin for c in coords))),
    )


def _pattern_members(dec, m: int) -> tuple[int, ...]:
    """Members of the shape (low fringe, low cut, high fringe, high cut)
    at right endpoint m."""
    low, cut_low, high, cut_high = dec
    members = set(low)
    members.update(range(cut_low, m - cut_high + 1))
    members.update(m - x for x in high)
    return tuple(sorted(members))


def certified_rep_bound(st: SetTuple, t: int) -> int:
    """k * (t*a - 1) * a with k the number of nonzero elements counted over
    colors and a the largest element anywhere: the residue-window witness
    construction gives t distinct colored representations of every n at
    or above this."""
    _require_normalized(st)
    _require_int(t, "t", 1)
    return _rep_bound(st, t)


def _rep_bound(st: SetTuple, t: int) -> int:
    """certified_rep_bound of a normalized tuple and a positive t."""
    a_star = max(st.maxima)
    return sum(len(A) - 1 for A in st.sets) * (t * a_star - 1) * a_star


def low_fringe_constants(st: SetTuple, t: int) -> tuple[FiniteSet, int]:
    """(sporadic set, cut) of the large-h limit: cut is the smallest
    integer such that every n >= cut has at least t colored partitions
    into the nonzero (color, element) parts; the sporadic set collects
    the n <= cut - 2 that already have t.  Both strategies return these
    as (C, c); see the module docstring.
    """
    return _fringe_constants(st, t, False)


def high_fringe_constants(st: SetTuple, t: int) -> tuple[FiniteSet, int]:
    """Same as low_fringe_constants on the reflected tuple; the sporadic
    set holds offsets below the right endpoint."""
    return _fringe_constants(st, t, True)


def _fringe_constants(st: SetTuple, t: int, high: bool) -> tuple[FiniteSet, int]:
    """low_fringe_constants, or with high high_fringe_constants: the
    reflected tuple's parts come from _parts, so no tuple is reflected."""
    _require_normalized(st)
    _require_int(t, "t", 1)
    _require_nondegenerate(st, _ZERO, t)
    fringe, cut = _limit_fringe(st, _ZERO, t, _rep_bound(st, t), high)
    return FiniteSet(fringe), cut


def closed_form_threshold(A: FiniteSet, t: int) -> int:
    """(|A| - 1) * (t*max(A) - 1) * max(A) + 1: the explicit exponent bound
    past which a single normalized set's t-fold sumsets carry the
    eventual shape."""
    _require_int(t, "t", 1)
    if len(A) < 2:
        raise DomainError("the set needs at least two elements")
    if A.min != 0:
        raise DomainError("the set must contain 0 as its minimum")
    if A.gcd() != 1:
        raise DomainError("the set's elements must have gcd 1")
    return _closed_form(A, t)


def _closed_form(A: FiniteSet, t: int) -> int:
    """closed_form_threshold of a set of at least two elements with
    minimum 0 and gcd 1, and a positive t."""
    return (len(A) - 1) * (t * A.max - 1) * A.max + 1


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = a*x + b*y = gcd(a, b), g >= 0 for a, b >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    return old_r, old_s, old_t


def _parts(st: SetTuple, high: bool) -> list[tuple[int, int]]:
    """A side's nonzero parts as (part, color) pairs, color by color: the
    nonzero elements of each A_i, or with high their reflections max(A_i)
    - a for each a != max(A_i), the parts of the reflected tuple."""
    if high:
        return [(A.max - a, i) for i, A in enumerate(st.sets) for a in A.elements if a != A.max]
    return [(a, i) for i, A in enumerate(st.sets) for a in A.elements if a]


def witness_representations(st: SetTuple, n: int, t: int) -> WitnessSet:
    """t pairwise-distinct colored representations of n, built directly.

    Solve n as an integer combination of the flattened nonzero elements
    (extended-gcd folds left to right), then for s = 1..t shift every
    coefficient except the one on the largest element into the window
    [(s-1)*a, s*a - 1] by reduction mod a, absorbing the remainder into
    that largest element's coefficient.  Windows are disjoint across s,
    which makes the t representations distinct, and n at or above the
    certified bound keeps the absorbed coefficient nonnegative.
    """
    _require_normalized(st)
    _require_int(t, "t", 1)
    _require_int(n, "n")
    if t >= 2 and _counts_are_bounded(st):
        raise DegenerateAlphabetError(
            "only one nonzero element: distinct representations cannot exist"
        )
    bound = _rep_bound(st, t)
    if n < bound:
        raise BoundError(
            f"n={n} is below the certified bound {bound}; the construction "
            "could produce a negative coefficient"
        )
    flat = _parts(st, False)
    a_star = max(a for a, _ in flat)
    dist = max(idx for idx, (a, _) in enumerate(flat) if a == a_star)

    g = flat[0][0]
    coeffs = [1]
    for e, _ in flat[1:]:
        g2, u, v = _ext_gcd(g, e)
        coeffs = [c * u for c in coeffs] + [v]
        g = g2
    if g != 1:
        raise RuntimeError(f"internal invariant: the nonzero elements have gcd {g}, not 1")
    solved = [c * n for c in coeffs]

    reps = []
    for s in range(1, t + 1):
        entries: dict[tuple[int, int], int] = {}
        used = 0
        for idx, (a, color) in enumerate(flat):
            if idx == dist:
                continue
            val = (s - 1) * a_star + (solved[idx] % a_star)
            if val:
                entries[(color, a)] = val
                used += val * a
        residual = n - used
        if residual < 0 or residual % a_star:
            raise RuntimeError(
                f"internal invariant: residual {residual} of n={n} is not a "
                f"nonnegative multiple of {a_star}"
            )
        dist_mult = residual // a_star
        if dist_mult:
            entries[(flat[dist][1], a_star)] = dist_mult
        reps.append(
            ColoredRep(entries=tuple(sorted((c, a, m) for (c, a), m in entries.items())))
        )
    if len(set(reps)) != t:
        raise RuntimeError(f"internal invariant: the {t} representations of n={n} repeat")
    return WitnessSet(n=n, reps=tuple(reps))


def _one_sided_threshold(st: SetTuple, t: int, dec, high: bool) -> tuple[int, ...]:
    """Per-color part counts sufficient for t distinct colored
    representations of every target of one side of the limit shape dec =
    (C, c, D, d), the low side's (C, c) or with high the high side's (D,
    d): the sporadic set plus one full window [cut, cut + a - 1].  They
    are the t fewest-part partitions over the side's (part, color) pairs
    (_parts), sorted, all targets in one call of repcount._fewest_loads,
    which takes its t-best DP or its enumeration, whichever the measured
    crossover says is cheaper; both give the same loads.

    Every target lies below certified_rep_bound k(ta - 1)a, where the
    residue-window construction of witness_representations starts, so
    that construction is never needed.  It already gives t distinct
    partitions of every n >= (k - 1)(ta - 1)a: its coefficients on the k - 1
    parts other than one copy of a are below ta, and the rest of n is a
    nonnegative multiple of a.  So cut <= (k - 1)(ta - 1)a, and the top
    target cut + a - 1 is below k(ta - 1)a whenever ta >= 2; when ta = 1
    the only target is n = 0, whose one partition is empty."""
    sporadic, cut = dec[2:] if high else dec[:2]
    a_star = max(st.maxima)
    flat = sorted(_parts(st, high))
    targets = list(sporadic) + list(range(cut, cut + a_star))
    return tuple(_fewest_loads([a for a, _ in flat], [i for _, i in flat], st.q, targets, t))


def _constructive(st: SetTuple, t: int):
    """The limit constants (C, c, D, d) of the t-fold sets and the
    constructive threshold vector's coordinates (see
    threshold_constructive), for a tuple and a t its callers checked."""
    dec = _limit_constants(st, _ZERO, t)
    _, cut_low, _, cut_high = dec
    maxima = st.maxima
    a_star = max(maxima)

    h_low, h_high = (_one_sided_threshold(st, t, dec, high) for high in (False, True))

    gap_high = sum(map(mul, h_low, maxima)) - (cut_low + a_star - 1)
    gap_low = sum(map(mul, h_high, maxima)) - (cut_high + a_star - 1)

    coords = list(map(max, h_low, h_high))
    # the two intervals must overlap: low side is solid up to M - gap_high,
    # high side from gap_low on; each step on the largest maximum adds a_star
    bump = maxima.index(a_star)
    short = gap_low + gap_high - sum(map(mul, coords, maxima))
    coords[bump] += max(0, -(-short // a_star))
    if st.q == 1:
        # the closed form is sufficient for a single set; never exceed it
        coords[0] = min(coords[0], _closed_form(st.sets[0], t))
    return dec, tuple(coords)


def threshold_constructive(st: SetTuple, t: int) -> HVec:
    """Exponent vector past which the limit constants describe the t-fold
    sets, from explicit colored witness representations.

    The low side's vector holds, per color, the most parts of that color
    in the witnesses of its targets: the low fringe and one window of
    max(A) integers from the low cut on, so that the middle interval can
    chain upward.  The witnesses are each target's t colored partitions
    with fewest parts, all targets in one t-best DP over the parts (or one
    enumeration, where that is cheaper).  The high side mirrors this on
    the reflection; the result is the componentwise sup, enlarged
    minimally until the two solid intervals meet, and for a single set at
    most closed_form_threshold.  structure_constants then proves the shape
    at it with the certificate of the module docstring.
    """
    _require_normalized(st)
    _require_int(t, "t", 1)
    _require_nondegenerate(st, _ZERO, t)
    return HVec(_constructive(st, t)[1])


# ---------------------------------------------------------------------------
# empirical search


def _limit_constants(st: SetTuple, B: FiniteSet, t: int):
    """(C, c, D, d) of the large-h limit of the t-fold sets of h.A + B."""
    # the reflected tuple shares the certified bound
    bound = _rep_bound(st, t)
    return (*_limit_fringe(st, B, t, bound, False), *_limit_fringe(st, B, t, bound, True))


def _limit_fringe(st: SetTuple, B: FiniteSet, t: int, bound: int, high: bool):
    """(C, c) of the large-h limit of the t-fold sets of h.A + B, or with
    high (D, d): the same read off the reflections of every A_i and of B;
    bound is certified_rep_bound of the tuple."""
    # past the certified bound, the witness construction gives t colored
    # partitions, and 0 is in B and in its reflection; a lone part 1 gives
    # one partition, but then |B| >= t (or the tuple was refused), so every
    # n >= max(B) has t pairs
    shifts = [B.max - b for b in B.elements] if high else list(B.elements)
    return _limit_side([a for a, _ in _parts(st, high)], shifts, t, max(bound, B.max))


def _counts_are_bounded(st: SetTuple) -> bool:
    """True when colored counts stay at most 1 for every exponent vector:
    on a normalized tuple, exactly when a single (color, element) pair is
    nonzero (that element is then 1)."""
    return len(_parts(st, False)) == 1


def _require_nondegenerate(st: SetTuple, B: FiniteSet, t: int) -> None:
    """Refuse t when counts of h.A + B never reach it: the t-fold sets are
    then eventually empty and have no limit shape."""
    if t >= 2 and _counts_are_bounded(st) and t > len(B):
        raise DegenerateAlphabetError(
            f"counts never exceed {len(B)} on this tuple: t-fold sets are "
            f"empty for t={t}"
        )


def _certifier(st: SetTuple, B: FiniteSet, dec, t: int):
    """cert of the module docstring for the limit shape dec = (C, c, D, d)
    of the t-fold sets of h.A + B, on coordinate tuples h, memoized."""
    q, maxima = st.q, st.maxima
    low, cut_low, high, cut_high = dec
    # middle length L at h is h.maxima + shift
    shift = B.max - cut_high - cut_low + 1
    known: dict[tuple[int, ...], bool] = {}

    def cert(h: tuple[int, ...]) -> bool:
        got = known.get(h)
        if got is None:
            middle = sum(map(mul, h, maxima)) + shift
            got = (
                middle >= 1
                and _tfold_size(st, B, t, h) == len(low) + middle + len(high)
                and all(cert(h[:i] + (h[i] + 1,) + h[i + 1 :]) for i in range(q) if maxima[i] > middle)
            )
            known[h] = got
        return got

    return cert


def _search_ceiling(st: SetTuple, t: int) -> int:
    return 4 * _closed_form(st.union, t)


def _gallop(pred, lo: int, hi: int) -> int:
    """The least k in [lo, hi] with pred(k), or hi + 1 if there is none,
    for pred monotone there (false, then true): pred is probed at lo,
    lo + 1, lo + 3, lo + 7, ... up to hi, then the last gap is bisected."""
    below, step = lo - 1, 1
    while below < hi:
        k = min(lo + step - 1, hi)
        if pred(k):
            while k - below > 1:
                mid = (below + k) // 2
                below, k = (below, mid) if pred(mid) else (mid, k)
            return k
        below, step = k, 2 * step
    return hi + 1


def _stabilize(
    st: SetTuple, B: FiniteSet, t: int, margin: int, ceiling: int | None
) -> StructureResult:
    """The limit constants of h.A + B and a minimal certified vector: the
    first certified point of the diagonal, shrunk greedily on cert, both
    walks galloping (see the module docstring)."""
    q = st.q
    if ceiling is None:
        ceiling = _search_ceiling(st, t)
    dec = _limit_constants(st, B, t)
    _, cut_low, _, cut_high = dec
    cert = _certifier(st, B, dec, t)

    # the middle is nonempty from the first m with m * sum(maxima) + max(B) >= c + d
    first = max(0, -(-(cut_low + cut_high - B.max) // sum(st.maxima)))
    m = _gallop(lambda m: cert((m,) * q), first, ceiling)
    if m > ceiling:
        raise SearchExhaustedError(
            f"no certified t-fold shape up to the diagonal ceiling {ceiling}"
        )
    # certified vectors form an up-set, so one pass reaches a minimal one
    c = (m,) * q
    for i in range(q):
        # the least k >= 1 at which c_i - k is no longer certified
        k = _gallop(lambda k: not cert(c[:i] + (c[i] - k,) + c[i + 1 :]), 1, c[i])
        c = c[:i] + (c[i] - k + 1,) + c[i + 1 :]
    return _result(dec, c, "empirical", margin)


def structure_constants(
    st: SetTuple,
    t: int,
    strategy: str = "empirical",
    margin: int = DEFAULT_MARGIN,
    *,
    B: FiniteSet | None = None,
    ceiling: int | None = None,
) -> StructureResult:
    """Compute the four limit constants of the t-fold sets of h.A + B
    (B = None is {0}, the plain t-fold sets; the right endpoint shifts
    by max(B)) and a threshold vector at which the certificate of the
    module docstring proves the shape for every larger vector, so over
    the whole margin box verified_box.

    The empirical strategy returns a minimal certified vector, searched
    up the diagonal to ceiling (default: four times the union's closed
    form).  The constructive strategy builds its vector from witnesses;
    it takes neither a translation nor a ceiling."""
    _require_normalized(st)
    _require_int(t, "t", 1)
    _require_int(margin, "margin", 1)
    _require_int(ceiling, "ceiling", 0, optional=True)
    B = _translation(B, _ZERO)
    if strategy not in ("empirical", "constructive"):
        raise DomainError(f"unknown strategy {strategy!r}")
    if strategy == "constructive" and (B != _ZERO or ceiling is not None):
        raise DomainError("the constructive strategy takes no translation set and no ceiling")
    _require_nondegenerate(st, B, t)
    if strategy == "empirical":
        with _shared_rows():
            return _stabilize(st, B, t, margin, ceiling)

    dec, coords = _constructive(st, t)
    with _shared_rows():
        certified = _certifier(st, B, dec, t)(coords)
    if not certified:
        raise RuntimeError(
            f"internal invariant: the constructive threshold h={list(coords)} is not certified"
        )
    return _result(dec, coords, "constructive", margin)


def structure_constants_inhomogeneous(
    st: SetTuple,
    B: FiniteSet,
    t: int,
    margin: int = DEFAULT_MARGIN,
    ceiling: int | None = None,
) -> StructureResult:
    """structure_constants(st, t, margin=margin, B=B, ceiling=ceiling),
    kept under this name for the benchmark's op of the same name."""
    return structure_constants(st, t, margin=margin, B=B, ceiling=ceiling)


def verify_structure(
    st: SetTuple, t: int, result: StructureResult, h: HVec, B: FiniteSet | None = None
) -> bool:
    """Exact check: is the t-fold set of h.A + B at h the predicted shape?
    The one-point case of verify_box."""
    return verify_box(st, t, result, h, B, 0)[0][1]


def verify_box(
    st: SetTuple,
    t: int,
    result: StructureResult,
    lo: HVec | None = None,
    B: FiniteSet | None = None,
    margin: int = DEFAULT_MARGIN,
) -> list[tuple[HVec, bool]]:
    """Exact check of the result at every point h of the box [lo, lo +
    margin] (lo defaults to the result's threshold; B = None is {0}):
    (h, whether the t-fold set of h.A + B at h is the predicted shape),
    the last coordinate varying fastest, from one pass over the box
    (repcount).  Every check on a point holds at every point of the box
    once it holds at lo, the least one."""
    _require_normalized(st)
    _require_int(t, "t", 1)
    _require_int(margin, "margin", 0)
    B = _translation(B, _ZERO)
    if lo is None:
        lo = result.threshold
    _require_length(st, lo, result.threshold)
    if not hvec_leq(result.threshold, lo):
        raise DomainError("h lies below the result's threshold vector")
    m = lo.dot(st.maxima) + B.max
    if result.low_cut + result.high_cut > m:
        raise DomainError("malformed interval: the cuts overlap at this h")
    dec = (result.low_fringe.elements, result.low_cut,
           result.high_fringe.elements, result.high_cut)
    return list(zip(_box_points(lo, margin), _streamed_box_fits(st, B, t, dec, lo.coords, margin)))
