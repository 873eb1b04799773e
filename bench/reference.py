"""Independent references for checking chromsum outputs.

Nothing here imports chromsum, and run.py only loads this module in the
process that does not import chromsum either.  Every reference rests on a
fact that does not depend on the code under test:

* exact count tables: the generating function of r(n) is the product over
  colors of the complete homogeneous symmetric polynomial h_{h_i} evaluated
  at (x^a : a in A_i), times sum_b x^b for a translation set B.  Both sides
  are evaluated modulo a 31-bit prime at two random points; a single
  perturbed entry always changes the table side, and several perturbed
  entries escape with probability below (table length / prime)^2.  The
  total must also equal the number of colored tuples, and small tables are
  compared with a literal enumeration.
* capped tables: min(exact, cap), with the exact table built here and
  passed through the same fingerprint check first.
* structure constants (C, c, D, d): the large-h limit.  As every h_i grows,
  r(n) for fixed n tends to the number of colored partitions of n into
  nonzero (color, element) parts (convolved with B for the translated form);
  the high side is the same count on the reflected sets.  Adding a part
  never lowers that count, so once it is >= t on a run as long as the
  smallest part it stays >= t, which bounds the search.
* the pattern at exponent vectors: compared with the t-fold set read off a
  checked exact table.
* witnesses: each representation is checked for its sum, color membership,
  positive multiplicities and pairwise distinctness.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from itertools import combinations_with_replacement, product

import numpy as np

# fingerprints are taken modulo this prime at two random points; products of
# two residues fit in int64, so the table side is evaluated with numpy
PRIME = (1 << 31) - 1
# tables with at most this many colored tuples are also enumerated literally
BRUTE_FORCE_BUDGET = 5_000
# int64 holds every entry when the total count is below this
_INT64_SAFE = 1 << 62
# the low-side limit search gives up past this integer (never reached by
# non-degenerate tuples of the sizes the workloads generate)
_LIMIT_CEILING = 1 << 22

LEMMA_NAMES = frozenset(
    {
        "monotone_inclusion",
        "support_bounds",
        "union_bound",
        "per_color_product",
        "interval_sum",
        "reflection_table",
        "reflection_tfold",
        "translation_by_set",
        "translation_by_form",
    }
)


class ReferenceFailure(Exception):
    """A reference computation failed its own check: the benchmark, not the
    program, is broken."""


def enumeration_size(sets, h) -> int:
    size = 1
    for A, hi in zip(sets, h):
        size *= math.comb(len(A) + hi - 1, hi)
    return size


def right_end(sets, h, B=(0,)) -> int:
    return sum(hi * max(A) for A, hi in zip(sets, h)) + max(B)


# ---------------------------------------------------------------------------
# exact tables and their fingerprint


def _multiset_exact(A, h):
    """Counts of h-element multisets from A (min 0) by their sum."""
    top = h * A[-1]
    if math.comb(len(A) + h - 1, h) < _INT64_SAFE:
        rows = np.zeros((h + 1, top + 1), dtype=np.int64)
        rows[0, 0] = 1
        for a in A:
            for m in range(1, h + 1):
                rows[m, a:] += rows[m - 1, : top + 1 - a]
        return rows[h]
    rows = [[0] * (top + 1) for _ in range(h + 1)]
    rows[0][0] = 1
    for a in A:
        for m in range(1, h + 1):
            cur, prev = rows[m], rows[m - 1]
            for n in range(a, top + 1):
                cur[n] += prev[n - a]
    return np.array(rows[h], dtype=object)


def _convolve(x, y, total: int):
    if total < _INT64_SAFE and x.dtype != object and y.dtype != object:
        return np.convolve(x, y)
    x, y = [int(v) for v in x], [int(v) for v in y]
    out = [0] * (len(x) + len(y) - 1)
    for i, u in enumerate(x):
        if u:
            for j, v in enumerate(y):
                out[i + j] += u * v
    return np.array(out, dtype=object)


def _complete_homogeneous(A, k: int, x: int) -> int:
    """h_k(x^a : a in A)  (mod PRIME)."""
    e = [1] + [0] * k
    for a in A:
        y = pow(x, a, PRIME)
        for j in range(1, k + 1):
            e[j] = (e[j] + y * e[j - 1]) % PRIME
    return e[k]


class Fingerprint:
    """Both sides of the generating-function identity at two random points."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.points = [int(v) for v in rng.integers(2, PRIME - 1, size=2)]
        self._powers = [np.ones(1, dtype=np.int64) for _ in self.points]

    def _powers_of(self, i: int, n: int) -> np.ndarray:
        """x^0 .. x^(n-1) mod PRIME for point i, grown by doubling: each
        doubling multiplies the known block by x^len (one numpy step)."""
        pw = self._powers[i]
        while len(pw) < n:
            step = int(pw[-1]) * self.points[i] % PRIME
            pw = np.concatenate([pw, pw * step % PRIME])
        self._powers[i] = pw
        return pw[:n]

    def table_values(self, offset: int, counts) -> list[int]:
        """sum_j counts[j] * x^(offset + j)  (mod PRIME) at each point."""
        try:
            residues = np.asarray(counts, dtype=np.int64) % PRIME
        except OverflowError:
            residues = np.array([int(c) % PRIME for c in counts], dtype=np.int64)
        return [
            int((residues * self._powers_of(i, len(residues)) % PRIME).sum()) % PRIME
            * pow(x, offset, PRIME) % PRIME
            for i, x in enumerate(self.points)
        ]

    def color_values(self, A, k: int) -> list[int]:
        return [_complete_homogeneous(A, k, x) for x in self.points]

    def shift_values(self, B) -> list[int]:
        return [sum(pow(x, b, PRIME) for b in B) % PRIME for x in self.points]

    def generating_values(self, sets, h, B) -> list[int]:
        """prod_i h_{h_i}(x^a : a in A_i) * sum_b x^b  (mod PRIME)."""
        values = self.shift_values(B)
        for A, k in zip(sets, h):
            values = [v * c % PRIME for v, c in zip(values, self.color_values(A, k))]
        return values


def brute_force_table(sets, h, B):
    """Literal enumeration of every colored tuple and every b in B."""
    pools = [
        [sum(c) for c in combinations_with_replacement(A, hi)]
        for A, hi in zip(sets, h)
    ]
    counts = [0] * (right_end(sets, h, B) - min(B) + 1)
    for combo in product(*pools):
        s = sum(combo)
        for b in B:
            counts[s + b - min(B)] += 1
    return counts


class _LRU(OrderedDict):
    def __init__(self, size: int):
        super().__init__()
        self.size = size

    def put(self, key, value):
        self[key] = value
        if len(self) > self.size:
            self.popitem(last=False)
        return value


class Reference:
    """Checked exact tables for one run.  Per-color tables are cached, since
    the exponent vectors of a verification box share their coordinates."""

    def __init__(self, seed: int, cache_size: int = 256):
        self.fingerprint = Fingerprint(seed)
        self._colors = _LRU(cache_size)
        self._tables = _LRU(cache_size)

    def _color_table(self, A: tuple, h: int):
        """(counts, generating values) of one color, checked."""
        key = (A, h)
        if key in self._colors:
            return self._colors[key]
        counts = _multiset_exact(list(A), h)
        values = self.fingerprint.color_values(A, h)
        if int(counts.sum()) != math.comb(len(A) + h - 1, h) or self.fingerprint.table_values(0, counts) != values:
            raise ReferenceFailure(f"reference table of {A} at h={h} failed its check")
        return self._colors.put(key, (counts, values))

    def exact_table(self, sets, h, B=(0,)):
        """(offset, counts) of the exact table, verified by fingerprint."""
        key = (tuple(map(tuple, sets)), tuple(h), tuple(B))
        if key in self._tables:
            return self._tables[key]
        acc = np.ones(1, dtype=np.int64)
        values = self.fingerprint.shift_values(B)
        size = 1
        for A, hi in zip(key[0], key[1]):
            size *= math.comb(len(A) + hi - 1, hi)
            counts, color_values = self._color_table(A, hi)
            acc = _convolve(acc, counts, size)
            values = [v * cv % PRIME for v, cv in zip(values, color_values)]
        indicator = np.zeros(max(B) - min(B) + 1, dtype=np.int64)
        indicator[[b - min(B) for b in B]] = 1
        counts = _convolve(acc, indicator, size * len(B))
        if int(counts.sum()) != size * len(B) or self.fingerprint.table_values(min(B), counts) != values:
            raise ReferenceFailure(f"reference table failed its check: {key}")
        return self._tables.put(key, (min(B), counts))

    def tfold(self, sets, h, t: int, B=(0,)) -> list[int]:
        offset, counts = self.exact_table(sets, h, B)
        return [offset + int(i) for i in np.flatnonzero(counts >= t)]


# ---------------------------------------------------------------------------
# structure constants as the large-h limit


def _partition_counts(parts, length: int, t: int) -> np.ndarray:
    """min(P(n), t) for n = 0..length-1, P counting multisets of parts.

    Adding part a maps P to its running sums along each residue class mod
    a; the running sums only grow, so clipping them at t is the same as
    clipping after every step."""
    P = np.zeros(length, dtype=np.int64)
    P[0] = 1
    for a in parts:
        rows = -(-length // a)
        grid = np.zeros(rows * a, dtype=np.int64)
        grid[:length] = P
        P = np.minimum(grid.reshape(rows, a).cumsum(axis=0), t).ravel()[:length]
    return P


def _limit_side(parts, B, t: int):
    """(fringe, cut) of {n : Q(n) >= t}, Q(n) = sum_b P(n - b) with P the
    colored partition count over parts (one entry per colored part)."""
    if not parts:
        raise ReferenceFailure("no nonzero parts: counts never grow")
    run = min(parts)
    length = 512
    while length <= _LIMIT_CEILING:
        P = _partition_counts(parts, length, t)
        Q = np.zeros(length, dtype=np.int64)
        for b in B:
            Q[b:] += P[: length - b]
        low = (Q < t).tolist()
        streak = 0
        for n, below in enumerate(low):
            streak = 0 if below else streak + 1
            if streak == run:
                start = n - run + 1
                cut = max((m for m in range(start) if low[m]), default=-1) + 1
                return [m for m in range(cut) if not low[m]], cut
        length *= 2
    raise ReferenceFailure("no t-threshold below the search ceiling")


def limit_constants(sets, t: int, B=(0,)):
    """(C, c, D, d) of the eventual t-fold sets of h.A + B."""
    low = [a for A in sets for a in A if a != 0]
    high = [max(A) - a for A in sets for a in A if a != max(A)]
    C, c = _limit_side(low, list(B), t)
    D, d = _limit_side(high, [max(B) - b for b in B], t)
    return C, c, D, d


def pattern(C, c, D, d, m: int) -> list[int]:
    members = set(C)
    members.update(range(c, m - d + 1))
    members.update(m - x for x in D)
    return sorted(members)


def certified_bound(sets, t: int) -> int:
    """k * (t*a - 1) * a, the documented bound for witness construction."""
    k = sum(len(A) - 1 for A in sets)
    a_star = max(max(A) for A in sets)
    return k * (t * a_star - 1) * a_star


def self_test() -> None:
    """The README's worked instance, whose answer is known."""
    got = limit_constants([[0, 2, 3]], 2)
    if got != ([6], 8, [], 3):
        raise ReferenceFailure(f"limit of {{0,2,3}}, t=2 gave {got}")
    ref = Reference(1)
    if ref.tfold([[0, 2, 3]], [5], 2) != [6, 8, 9, 10, 11, 12]:
        raise ReferenceFailure("t-fold set of {0,2,3} at h=5 is off")
