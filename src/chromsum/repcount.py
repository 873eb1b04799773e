"""Counting kernels: fixed-length multiset sums, colored sums, unbounded
partition counts, and translated forms.

All tables hold exact nonnegative integers.  With a saturation cap every
stored value is min(true count, cap); that meaning survives the two
operations used here, clipped addition and clipped schoolbook
convolution of clipped inputs:

    min(min(x, cap) + min(y, cap), cap) == min(x + y, cap)
    min(sum_i min(f_i, cap) * min(g_i, cap), cap) == min(sum_i f_i * g_i, cap)

(the second because any factor above cap forces the clipped term to cap
already).  Capped tables therefore agree with clipping the exact table.

Exact rows run through a packed-integer kernel that hands long int64
rows over to one numpy multiset kernel (below).  Capped rows come from
one entry, _capped_block: short ones from the packed kernel, clipped
once, long ones from partition folds or the numpy kernel (below).  Every
product of rows is one schoolbook convolution (np.convolve).
Every count (a table, the structure search's certificate sizes, the
margin box) is folded by one entry, _box_counts.  It picks the dtype
once from _bound, a proven bound on every intermediate value at the
box's top corner: float64 below 2^53, numpy int64 below 2^62, and
dtype=object (Python ints in the same numpy code) above it, so the
result is exact either way.  A float64 fold
is exact because every product and every partial sum it forms, in any
order, is a nonnegative integer at most the bound (a sum of some of the
nonnegative terms of one count), and every integer below 2^53 is a
float64: neither the order in which np.convolve's dot product adds nor a
fused multiply-add can round.  numpy's float64 dot runs on BLAS, several
times the speed of its int64 loop on long rows; a count table's float
counts are cast back to int64.

* exact: a multiset row entry counts multisets from a prefix of A_i, so
  it is at most C(|A_i| + h_i - 1, h_i), and a convolution partial sum
  is at most the final count at its n; both are at most the table's
  total T = |B| * prod_i C(|A_i| + h_i - 1, h_i);
* capped: a kernel sum is at most 2*cap before clipping, a convolution
  partial sum at most min(T, short*cap^2), short the shorter factor's
  length; a cap at or above T never clips, so the table is exact;
* unbounded partition folds: a running sum is at most len*cap.

The multiset recurrence iterates elements in increasing order:

    f(j, m, n) = f(j-1, m, n) + f(j, m-1, n - a_j)

where f(j, m, n) counts non-decreasing m-tuples from the first j
elements summing to n.  The kernel streams it over m: row m+1 of every
element prefix comes from row m of the same prefix, so rows
m = 0, 1, 2, ... cost one step each and only |A| rows are live.  A
table at fixed h takes the h-th row; the structure search keeps each
color's stream and the rows it produced, so moving one exponent by one
costs one row.

Exact rows on packed integers (_exact_row).  A row of the recurrence is
a polynomial with nonnegative coefficients, so it can be held as one
Python integer, entry n in bits [n * w, (n + 1) * w) (Kronecker
substitution; Harvey, J. Symbolic Comput., 2009), and a step is one
shift and one add in C:

    f(j, m+1, .) = f(j-1, m+1, .) + (f(j, m, .) << a_j * w)

No slot ever carries into the next.  Every entry and every partial sum
the recurrence forms is a multiset count of one prefix at some m <= h,
so it is at most the color's exact bound C(|A| + h - 1, h); w is that
bound's bit length rounded up to 8, 16, 32 or 64 bits (past 64, to
whole bytes), so every slot value is below 2^w, and Python integers are
exact at any size.  Row h is unpacked once: 1-, 2-, 4- and 8-byte slots
by np.frombuffer, then cast to _dtype(bound); wider slots by one
int.from_bytes per slot into an object array.  The numpy kernel makes
three calls of about 1 us each per (row, element), on the rows of at
most ~1,500 entries that count tables mostly have, so call overhead,
not arithmetic, sets its cost.  But CPython adds 30-bit digits in a
loop, while numpy adds int64 with SIMD, so a long int64 row is faster
on numpy.  Once a row would pass _HANDOVER = 2^11 entries, every prefix is
unpacked and _multiset_rows finishes from that state.  The crossover,
measured on a 2-vCPU VM (Python 3.11, numpy 2.4), best of 8-60
interleaved runs, in ms:

    row                      entries  numpy  handover at 2^10  2^11  2^12
    {0,2,3}, h = 300             901   1.60              0.53  0.49  0.47
    {0,3,7,11,19}, h = 200     3,801   2.74              1.97  1.93  2.28
    {0,3,7,11,19}, h = 400     7,601   6.48              6.17  6.03  6.37
    {0,3,7,11,19}, h = 640    12,161  10.07             10.23  9.97 11.84
    {0,1,5,9}, h = 2000       18,001  32.59             28.61 30.55 35.91

Staying packed to the end took 3.1-3.8 times numpy's time at 12,161
entries.  A row whose bound is 2^62 or more stays packed to the end:
numpy's object arrays run a Python loop per entry (40-multisets of
{0..39}, bound about 2^75: 16-27 ms on object arrays, 3.6-5.4 ms
packed).

Short capped rows are packed too (_capped_block).  A packed integer
cannot clip entry by entry, and need not: by the identities above the
capped row is min(exact row, cap), so _exact_row computes the exact rows
and clips each once as it unpacks it.  An exact row costs more than a
capped one where rows are long, so only a color whose top row costs at
most _PACKED_CELLS = 2^15 cells, |A| * h * (h * max(A) + 1), is packed;
longer capped rows take the proof of _capped_rows (below), and the numpy
kernel where it leaves a row unproven.  One row at cap 3, measured on a
2-vCPU VM (Python 3.11, numpy 2.4), best of 3 interleaved sets of 10-40
runs, in us (* not proven, so the folds' time includes the stream's):

    row                       cells  packed  folds
    {0,2,5}, h = 2               66     7.4   28.5
    {0,1,9,12}, h = 2           200     7.8   70.4 *
    {0,3,7,11,19}, h = 8      6,120    14.2  220.4 *
    {0,17,40}, h = 8          7,704     8.6   24.2
    {0,2,5}, h = 32          15,456    19.8   19.9
    {0,3,7,11,19}, h = 16    24,400    24.3  204.3 *
    {0,17,40}, h = 16        30,768    14.9   26.1
    {0,1,9,12}, h = 32       49,280    31.4  275.8 *
    {0,2,5}, h = 64          61,632    42.2   24.2
    {0,3,7,11,19}, h = 32    97,440    43.2   59.4
    {0,17,40}, h = 32       122,976    50.1   31.0
    {0,1,9,12}, h = 64      196,864    87.1   57.7
    {0,3,7,11,19}, h = 64   389,440   209.3   73.5

Of 48 rows (sets of 3-5 elements, max 5-40, h 2-64) the packed one won
every row up to 49,280 cells and lost every row from 196,864 on; in
between the set decides, and 2^15 stays below every loss.  So the
tables of lemmas.run_all in the benchmark's counts workload (h = 3-7)
are packed, while its capped strata (about 400,000 cells) and large
margin boxes keep the folds.  The folds stay on numpy: multiplying the
colors' packed rows as big integers in place of the fold took 132 and
210 us against 51 and 75 us for the float64 fold, on two- and
three-color exact tables of the same workload (medians).

Capped rows from two partition folds (_capped_rows).  Since 0 is in A,
an h-multiset of A is a partition of its sum into the nonzero elements
(the parts) with at most h parts.  Let a_1 be the least part, M =
max(A), g the gcd of the parts, and p(n) the number of partitions of n
into the parts (the last _unbounded_rows row, clipped at cap).  Then
row h, f(h, .), is a fringe at each end and a saturated middle, the
shape of Nathanson's theorem on h-fold sums (Amer. Math. Monthly, 1972):

* low end: for n <= h * a_1 a partition of n has at most n / a_1 <= h
  parts, so f(h, n) = p(n);
* high end: x -> M - x maps the h-multisets of A summing to n onto those
  of M - A, which holds 0, summing to h * M - n; with p' and b_1 the
  same for the reflected parts M - a (a != M), f(h, n) = p'(h * M - n)
  for h * M - n <= h * b_1;
* middle: adding r copies of M maps (h - r)-multisets injectively into
  h-multisets, so f(h, n) >= f(h - r, n - r * M), which is p(n - r * M)
  at the least r with n - r * M <= (h - r) * a_1 (and no bound where
  n - r * M < 0); the mirrored bound from p' holds too, and where
  either reaches cap the entry is cap;
* every sum is a multiple of g, so every other entry is 0.

If a multiple of g in the middle reaches cap by neither bound, the row
is not proven and _capped_rows returns None; _capped_block streams the
kernel instead.  Two folds of h * a_1 and h * b_1 entries, one pass per
part, replace h kernel steps over rows of up to h * M entries.  A fold
reads no entry above the one it writes, so the tables of a lower row
are prefixes of those of a higher one: the margin box's rows h = lo_i,
..., lo_i + margin all come from the two folds at its top row.  The
structure search streams consecutive rows, one cheap kernel step each,
and keeps them.

The margin box.  verify tests the t-fold set at every point of a box
[lo, lo + margin], (margin + 1)^q points, with one fold (_box_fits),
from rows _capped_block gives: B's indicator is convolved with each
color's block of rows lo_i, ..., lo_i + margin in turn (a one-element B
is the identity, so the fold starts from the first block), every block
zero-padded to its longest row, so the accumulator holds one row per
box point so far, and the box holds (margin + 1)^q * (M + 1) cells, M
the right endpoint of the top corner (a box of more than _BOX_CELLS
cells is folded one slab at a time).  Zeros past a row's end change no
product.  Within one color's step, the operand with the longer rows
(length L) is laid out as one array, its rows end to end with s - 1
zeros between them, s the other operand's row length; np.convolve of
that array with one row of the other operand gives all its products at
once.  An output entry sums s consecutive entries of the array times
the row, and no s consecutive entries reach two rows that s - 1 zeros
separate, so each entry is one pair's convolution with the same
partial sums: clipped as before, and under the bound of the count table
at the box's top corner (_bound), which holds at every point below it.
The gaps cost at most (L + s - 1) / L <= 2 times the useful work.  A
count table and a certificate size are one-point boxes: one unpadded
np.convolve per color.

The row scope.  Inside a _shared_rows() block (lemmas.run_all runs its
checks in one), _counts keeps each color's row by (A.elements, h, row
cap) and hands it to every later table with the same key.  Sharing is
exact: the row cap is the one _bound gives for that color alone, and
with A and h it fixes the whole row (_exact_row's or _capped_block's,
dtype included), whatever table asks for it; the fold's dtype and cap
are chosen per table afterwards.  Kept rows are marked read-only, and
no fold writes into a row.  Outside a scope nothing is kept, so no row
outlives the call that built it.

Unbounded partition counts multiply by 1/(1 - x^a) for each part a: a
running sum along each residue class mod a, which only grows, so
clipping the running sums is the same as clipping after every addition.
The limit constants of the structure module (_limit_side) and the ends
of a capped row (_capped_rows) are read off the last such row.

The constructive witnesses are, per target, the t partitions into the
sorted parts p_0 <= p_1 <= ... with fewest parts, ties in lexicographic
order of their non-decreasing index tuples; the threshold needs only
each color's largest load among them (_fewest_loads).  Two routes give
the same loads.

The t-best DP (_dp_loads; Huang and Chiang, Better k-best parsing, IWPT
2005; Eppstein, SIAM J. Comput., 1998).  Let best_j[n] be the first t
partitions of n into parts[j:] in that order.  A partition that holds
part j has the index tuple (j,) + (a partition of n - p_j into
parts[j:]), and prefixing j keeps the order and adds one to the size;
one that does not is a partition of n into parts[j + 1:], whose indices
all exceed j.  So

    best_j[n] = the first t of merge(best_j[n - p_j] + part j, best_{j+1}[n])

with ties to the first list: of two tuples of one size, the one that
starts with j comes first (the empty tuple has size 0 and ties nothing
that holds part j).  The first t of a union are among the first t of
each side, so keeping t per cell loses nothing.  Two columns of top + 1
lists run j from the last part down, and an entry is the partition's
size and per-color loads packed into one integer (tuples of loads took
2.6 times as long on the benchmark stream's calls).

The enumeration (_fewest_partitions) lists a partition as its
multiplicities (m_0, m_1, ...), choosing m_j from floor(rem / p_j) down
to 0 at level j, and only where the later parts can still reach the
remainder (the same fold, one pass per part from the last).  Among
tuples of one length, the one with more copies of the first index where
they differ comes first, so descending multiplicities list each
target's partitions of every size in lexicographic order; a stable sort
by (target, size) then puts the wanted t first.  Targets are enumerated
in consecutive groups whose partition counts, capped at _GROUP_CAP, sum
to at most it, so the rows a request holds at once never exceed
_GROUP_CAP or one target's partitions.

The DP costs about (top + 1) * len(parts) * t cells of Python steps, and
the enumeration about the partitions it lists, each at most once per
level, plus a dozen numpy calls per level.  Cells alone cannot choose:
each added small part multiplies the partitions about sixfold but the
cells barely move, while two large parts give few partitions of a long
table.  So the DP runs at once on at most _DP_CELLS = 2^13 cells; past
it, the suffix counts the enumeration needs anyway are built, and the DP
runs only where they list (capped per target at _GROUP_CAP) more than
one partition per _CELLS_PER_PARTITION = 8 cells.  Measured on a 2-vCPU
VM (Python 3.11, numpy 2.4), best of 3 sets of 1-5 runs, in ms:

    parts                      t   top      cells      listed      DP   listing
    {5,5,8,11}                 2    33        272          90   0.052     0.196
    {1,2,3,4,5,200}            2   201      2,424   7,546,655   0.638  3,851.7
    {1,1,3,5,7,8,10,15,70}    12    70      8,208   1,423,724   0.659    339.7
    {13,38,39}                 5   638      9,585       2,379   0.751     0.658
    {35,58,60}                 4 1,137     13,656       1,314   1.217     0.555
    {16,37}                    5 2,944     29,450       1,535   2.802     0.496
    {23,40}                    5 4,577     45,780       2,345   2.555     0.434
    {195,...,200}              2 8,001     96,024   9,366,689   8.784    868.1
    {3,4}                    256 3,069  1,571,840       1,792  25.662     0.167

The first row is the median call of the benchmark's constructive stream.
Over 1,970 calls (that stream's, those of 400 random tuples with maxima
up to 80 and t up to 40, and those of six heavy ones) the rule took
253 ms in all, against 245 ms for the faster route of every call and
371 ms for the DP alone, and no call took more than 2.6 times its faster
route or 0.4 ms more.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    EmptySetError,
    NotNormalizedError,
)
from .intset import FiniteSet, HVec, SetTuple, _int, _ints, _is_int

__all__ = [
    "CountTable",
    "multiset_count_table",
    "chromatic_count_table",
    "tfold_set",
    "partition_count_table",
    "inhomogeneous_count_table",
]

# the plain tables are those of the translated form with B = {0}
_ZERO = FiniteSet((0,))

# _fewest_partitions caps its suffix counts here and holds at most this
# many partitions at once, unless one target alone has more
_GROUP_CAP = 1 << 16

# _fewest_loads runs the t-best DP, without counting partitions, on at most
# this many cells, (top + 1) * len(parts) * t; past it, only where the
# enumeration would list more than one partition per _CELLS_PER_PARTITION
# cells: the measured crossovers (see the module docstring)
_DP_CELLS = 1 << 13
_CELLS_PER_PARTITION = 8

# _box_fits folds a box of more cells than this one slab at a time
_BOX_CELLS = 1 << 20

# _exact_row hands an int64 row over to the numpy kernel before it passes
# this many entries, the measured crossover (see the module docstring)
_HANDOVER = 1 << 11

# _capped_block packs a capped row whose top row costs at most this many
# cells, |A| * h * (h * max(A) + 1), the measured crossover (see the module
# docstring)
_PACKED_CELLS = 1 << 15

# inside a _shared_rows() scope, the rows _counts built, by (A.elements, h,
# row cap); None outside one
_ROWS: contextvars.ContextVar[dict | None] = contextvars.ContextVar("_ROWS", default=None)


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
        cap = None if self.cap is None else _int(self.cap)
        if cap is not None and cap < 1:
            raise ValueError("cap must be a positive integer")
        counts = self.counts
        if not (isinstance(counts, np.ndarray) and counts.ndim == 1 and counts.dtype.kind in "iu"):
            # Python ints, or an object array of them; a float or bool raises
            counts = np.array(_ints(counts), dtype=object)
        if counts.size and counts.min() < 0:
            raise ValueError("counts must be nonnegative")
        if counts.size and cap is not None and counts.max() > cap:
            raise ValueError("counts exceed the declared cap")
        object.__setattr__(self, "counts", tuple(counts.tolist()))
        object.__setattr__(self, "offset", _int(self.offset))
        object.__setattr__(self, "cap", cap)

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
            counts = tuple(_int(c, decimal=True) for c in obj["counts"])
            return cls(offset=obj["offset"], counts=counts, cap=obj.get("cap"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed count table: {exc}") from exc


def _validate_cap(cap):
    if cap is not None and (not _is_int(cap) or cap < 1):
        raise DomainError("cap must be a positive integer or None")


def _dtype(bound: int):
    """int64 when no intermediate value exceeds bound < 2^62, else Python
    ints in object arrays."""
    return np.int64 if bound < (1 << 62) else object


def _row_dtype(cap: int):
    """The narrowest dtype of a capped multiset row: its kernel sums stay
    at most 2*cap.  _box_counts copies a row whose dtype does not convert
    safely to the fold's."""
    return np.min_scalar_type(2 * cap)


def _multiset_rows(
    elements: tuple[int, ...], dtype, cap: int | None, start: Sequence[np.ndarray] | None = None
) -> Iterator[np.ndarray]:
    """Rows m = 0, 1, 2, ... of the multiset DP over the increasing
    elements, clipped at cap unless it is None, or rows m, m + 1, ... from
    start, the state at some row m.  Row m has length m * max(elements) +
    1; callers must not write to it.

    The state is f(j, m, .) for every prefix j, of length m * a_j + 1;
    f(j, m+1, .) adds f(j, m, .) shifted by a_j to f(j-1, m+1, .), in
    m-major order.  An element 0 can only come first, and its prefix's
    rows are all [1], so they are never recomputed."""
    prefix = [np.ones(1, dtype=dtype)] * len(elements) if start is None else list(start)
    while True:
        yield prefix[-1]
        below = None
        for j, a in enumerate(elements):
            row = prefix[j]
            if a == 0:
                below = row
                continue
            cur = np.zeros(len(row) + a, dtype=dtype)
            if below is not None:
                cur[: len(below)] = below
            cur[a:] += row
            if cap is not None:
                np.minimum(cur, cap, out=cur)
            prefix[j] = below = cur


def _exact_row(
    elements: tuple[int, ...], hs: range, bound: int, cap: int | None = None
) -> list[np.ndarray]:
    """Rows hs of _multiset_rows(elements, _dtype(bound), cap), bound being
    C(len(elements) + hs[-1] - 1, hs[-1]), from the recurrence on packed
    integers, one slot per entry (see the module docstring); elements must
    start at 0.  Where cap is below bound, each row is clipped at it once,
    as it is unpacked, and comes at _dtype(cap).  An int64 row is handed
    over to _multiset_rows before it passes _HANDOVER entries."""
    top, h = elements[-1], hs[-1]
    clip = cap if cap is not None and cap < bound else None
    dtype = _dtype(bound if clip is None else clip)
    if not top:
        return [np.ones(1, dtype=dtype)] * len(hs)
    size = -(-bound.bit_length() // 8)  # bytes per slot
    if size <= 8:
        size = 1 << (size - 1).bit_length()
    shifts = [8 * size * a for a in elements[1:]]
    stop = h if _dtype(bound) is object else min(h, (_HANDOVER - 1) // top)
    # (packed row, its length) to unpack: the rows of hs up to the
    # handover, then every prefix at it
    packed = []
    prefix = [1] * len(elements)
    for m in range(stop + 1):
        if m in hs:
            packed.append((prefix[-1], m * top + 1))
        if m < stop:
            below = 1
            for j, shift in enumerate(shifts, 1):
                below = prefix[j] = below + (prefix[j] << shift)
    if stop < h:
        packed += [(prefix[j], stop * a + 1) for j, a in enumerate(elements)]
    rows = []
    for value, length in packed:
        raw = value.to_bytes(length * size, "little")
        if size <= 8:
            row = np.frombuffer(raw, f"<u{size}")
        else:
            slots = [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]
            row = np.array(slots, dtype=object)
        if clip is not None:
            row = np.minimum(row, clip)
        rows.append(row.astype(dtype, copy=False))
    if stop == h:
        return rows
    # the clipped state streams on clipped: min(x + y, cap) is the same
    # from clipped x and y
    rows, start = rows[: -len(elements)], rows[-len(elements) :]
    stream = _multiset_rows(elements, dtype, clip, start)
    return rows + list(islice(stream, max(hs[0] - stop, 1), h - stop + 1))


def _capped_block(elements: tuple[int, ...], hs: range, cap: int) -> list[np.ndarray]:
    """Rows hs of _multiset_rows(elements, ., cap), the one source of
    capped rows for count tables and the margin box: packed and clipped
    once (_exact_row) where the top row hs[-1] costs at most
    _PACKED_CELLS cells, else from _capped_rows where it proves them, else
    streamed at _dtype(cap); elements must start at 0."""
    h = hs[-1]
    if len(elements) * h * (h * elements[-1] + 1) <= _PACKED_CELLS:
        return _exact_row(elements, hs, math.comb(len(elements) + h - 1, h), cap)
    rows = _capped_rows(elements, hs, cap)
    if rows is None:
        rows = list(islice(_multiset_rows(elements, _dtype(cap), cap), hs[0], h + 1))
    return rows


def _capped_rows(elements: tuple[int, ...], hs: range, cap: int) -> list[np.ndarray] | None:
    """Rows hs of _multiset_rows(elements, ., cap), each read off one
    partition fold per end at the top row hs[-1], or None where some
    row's middle is not proven to saturate (see the module docstring);
    elements must start at 0."""
    top = elements[-1]
    if not top:
        return [np.ones(1, dtype=np.int64)] * len(hs)
    parts = elements[1:]
    step = math.gcd(*parts)
    sides = []
    for side in (parts, [top - a for a in elements[:-1]]):
        least = min(side)
        start = np.zeros(hs[-1] * least + 1, dtype=np.int64)
        start[0] = 1
        for counts in _unbounded_rows(start, side, cap):
            pass
        sides.append((least, counts))
    (low, p), (high, q) = sides
    rows = []
    for h in hs:
        # row h's ends are the first h * low + 1 and h * high + 1 entries
        # of the tables: a partition fold reads no entry above the one it
        # writes
        width = h * top
        row = np.zeros(width + 1, dtype=_dtype(cap))
        row[: h * low + 1] = p[: h * low + 1]
        row[width - h * high :] = q[h * high :: -1]
        middle = np.arange(h * low + step, width - h * high, step)
        if middle.size:
            proven = np.zeros(middle.size, dtype=bool)
            for least, counts, n in ((low, p, middle), (high, q, width - middle)):
                # r copies of top added to an (h - r)-multiset, at the least
                # r that puts the rest, m <= (h - r) * least, in the low end
                # of row h - r
                r = -(-(n - h * least) // (top - least))
                m = n - r * top
                proven |= (m >= 0) & (counts[np.maximum(m, 0)] >= cap)
            if not proven.all():
                return None
            row[middle] = cap
        rows.append(row)
    return rows


def _fold(acc: np.ndarray, blocks: Iterable[np.ndarray], cap: int | None) -> np.ndarray:
    """Convolve every row of acc, a 2-D array, with every row of each
    2-D block in turn, at acc's dtype, clipped at cap when one is set.
    Row p * len(block) + r of the result is row p of acc times row r of
    the block: the last block's row varies fastest.

    The operand with the longer rows is laid out as one array, its rows
    end to end with (shorter row length - 1) zeros between them, and one
    np.convolve per row of the other operand gives all its products (see
    the module docstring).  One row on each side is one unpadded
    np.convolve, without the packing: on the search's short rows the
    stacking and reshapes cost about as much as the convolution, and the
    search's size folds one row per color hundreds of times a request."""
    for block in blocks:
        if len(acc) == len(block) == 1:
            acc = np.convolve(acc[0], block[0])[None]
        else:
            flip = block.shape[1] > acc.shape[1]
            long, short = (block, acc) if flip else (acc, block)
            span = acc.shape[1] + block.shape[1] - 1
            line = long[0]
            if len(long) > 1:
                line = np.zeros((len(long), span), dtype=long.dtype)
                line[:, : long.shape[1]] = long
                line = line.ravel()[: line.size - short.shape[1] + 1]
            out = np.stack([np.convolve(line, row) for row in short])
            out = out.reshape(len(short), len(long), span)
            acc = (out if flip else out.transpose(1, 0, 2)).reshape(-1, span)
        if cap is not None:
            np.minimum(acc, cap, out=acc)
    return acc


def _bound(
    colors: Sequence[tuple[FiniteSet, int]], B: FiniteSet, cap: int | None
) -> tuple[int, int | None]:
    """A bound on every intermediate value of the counts of sum_i (h_i-multiset
    of A_i) + one element of B, clipped at cap, and the cap that can still
    clip them: None when no count exceeds it.  The bound holds at every
    smaller h too.  A capped bound below 2^62 is returned as it is: the
    dtype is int64 either way, and a cap no count reaches clips nothing."""
    if cap is not None:
        length = sum(h * A.max for A, h in colors) + B.max - B.min + 1
        capped = max(2 * cap, length * cap * cap)
        if capped < 1 << 62:
            return capped, cap
    bound = len(B) * math.prod(math.comb(len(A) + h - 1, h) for A, h in colors)
    if cap is None or cap >= bound:
        return bound, None
    return min(bound, capped), cap


def _box_counts(
    sets: Sequence[FiniteSet], lo: Sequence[int], B: FiniteSet, cap: int | None,
    blocks: Sequence[Sequence[np.ndarray]],
) -> np.ndarray:
    """The counts of h.A + B, clipped at cap unless it is None, at every
    point h of the box whose color i takes the kernel rows blocks[i],
    rows lo_i, lo_i + 1, ... (a {0} color's from any row on: they are
    all [1]); one row per point, last coordinate fastest, each as long as
    the top corner's.  The cap is _bound's at the top corner, and the
    dtype float64 where that bound is below 2^53 (see the module
    docstring), else _dtype's.  A lone row whose dtype converts safely is
    folded as it is; other rows are copied at that dtype (uint64 rows in
    an int64 fold would give floats)."""
    top = [(A, c + len(rows) - 1) for A, c, rows in zip(sets, lo, blocks)]
    bound, cap = _bound(top, B, cap)
    dtype = np.float64 if bound < 1 << 53 else _dtype(bound)
    stacked = []
    for rows in blocks:
        if len(rows) == 1 and rows[0].dtype <= dtype:  # a safe cast
            block = rows[0][None]
        else:
            block = np.zeros((len(rows), len(rows[-1])), dtype=dtype)
            for r, row in enumerate(rows):
                block[r, : len(row)] = row
        stacked.append(block)
    if len(B) > 1:
        acc = np.zeros((1, B.max - B.min + 1), dtype=dtype)
        for b in B.elements:
            acc[0, b - B.min] = 1
    else:
        # a one-element B is the fold's identity: start from the first
        # block at the fold's dtype, and clip it into a new array where no
        # block follows, so no fold writes into a row
        acc = stacked.pop(0).astype(dtype, copy=False)
        if cap is not None and not stacked:
            acc = np.minimum(acc, cap)
    return _fold(acc, stacked, cap)


@contextlib.contextmanager
def _shared_rows() -> Iterator[None]:
    """A row scope: within it _counts builds each color's row once and
    hands the same read-only row to every later table (see the module
    docstring); the rows are dropped when the scope ends."""
    token = _ROWS.set({})
    try:
        yield
    finally:
        _ROWS.reset(token)


def _counts(colors: Sequence[tuple[FiniteSet, int]], B: FiniteSet, cap: int | None) -> np.ndarray:
    """Counts of sum_i (h_i-multiset of A_i) + one element of B over
    [min(B), sum_i h_i * max(A_i) + max(B)]: the one-point box at h, each
    color's row at the cap of its own bound: packed (_exact_row) where
    that bound leaves no cap, else from _capped_block, or the row already
    built for the same key inside a _shared_rows() scope; a float fold's
    counts come back as int64."""
    shared = _ROWS.get()
    rows = []
    for A, h in colors:
        if not A:
            raise EmptySetError("cannot count over an empty set")
        if A.min != 0:
            raise NotNormalizedError("multiset counting requires min(A) = 0")
        if not _is_int(h) or h < 0:
            raise DomainError("repetition count must be a nonnegative integer")
        bound, row_cap = _bound([(A, h)], _ZERO, cap)
        key = (A.elements, h, row_cap)
        row = None if shared is None else shared.get(key)
        if row is None:
            if row_cap is None:
                row = _exact_row(A.elements, range(h, h + 1), bound)
            else:
                row = _capped_block(A.elements, range(h, h + 1), row_cap)
            if shared is not None:
                row[0].flags.writeable = False
                shared[key] = row
        rows.append(row)
    counts = _box_counts([A for A, _ in colors], [h for _, h in colors], B, cap, rows)[0]
    return counts if counts.dtype == object else counts.astype(np.int64, copy=False)


def multiset_count_table(A: FiniteSet, h: int, cap: int | None = None) -> CountTable:
    """Counts of non-decreasing h-tuples from A by their sum, over [0, h*max(A)]."""
    _validate_cap(cap)
    return CountTable(offset=0, counts=_counts([(A, h)], _ZERO, cap), cap=cap)


def _colors(st: SetTuple, h: HVec) -> list[tuple[FiniteSet, int]]:
    if h.q != st.q:
        raise DimensionError("exponent vector length does not match tuple")
    if not st.normalized:
        raise NotNormalizedError("chromatic counting requires a normalized tuple")
    return list(zip(st.sets, h.coords))


def chromatic_count_table(st: SetTuple, h: HVec, cap: int | None = None) -> CountTable:
    """Counts of colored representations: one non-decreasing h_i-tuple from
    each A_i, keyed by the total sum, over [0, sum_i h_i * max(A_i)].

    A colored representation is determined by its per-color multisets, so
    the table is the convolution of the per-color tables.
    """
    _validate_cap(cap)
    return CountTable(offset=0, counts=_counts(_colors(st, h), _ZERO, cap), cap=cap)


def tfold_set(st: SetTuple, h: HVec, t: int) -> FiniteSet:
    """The set of integers with at least t colored representations."""
    if not _is_int(t) or t < 1:
        raise DomainError("t must be a positive integer")
    counts = _counts(_colors(st, h), _ZERO, t)
    return FiniteSet(tuple(np.flatnonzero(counts >= t).tolist()))


def _shape_fits(dec, mask: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Whether row p of a 2-D boolean mask marks exactly the shape dec =
    (low fringe, low cut, high fringe, high cut) at the right endpoint M =
    ends[p]: the union of the low fringe, [low cut, M - high cut] and M
    minus the high fringe.  Column n of the mask is the integer n, and no
    row may mark a column past its own M.  A member of the shape outside
    [0, M] fails its row.  One boolean per row."""
    low, cut_low, high, cut_high = dec
    rows, width = mask.shape
    top = max((*low, *high), default=-1)
    if min((*low, *high), default=0) < 0 or top >= width:
        # a member below 0, or past every M
        return np.zeros(rows, dtype=bool)
    # no fringe member past M; where one is, M - (high member) is a
    # negative index, which marks a column of a row that fails anyway
    ok = ends >= top
    # (the cuts are clamped to at most width and their sum to [-1,
    # width], which keeps every comparison inside int64 and changes
    # none of them)
    if min(cut_low, cut_high) < 0:
        # a nonempty middle, cut_low + cut_high <= M, reaches below 0 or past M
        ok &= ends < min(max(cut_low + cut_high, -1), width)
        want = np.zeros(mask.shape, dtype=bool)
    else:
        cols = np.arange(width)
        want = (cols >= min(cut_low, width)) & (cols <= ends[:, None] - min(cut_high, width))
    want[:, np.array(low, dtype=np.int64)] = True
    want[np.arange(rows)[:, None], ends[:, None] - np.array(high, dtype=np.int64)] = True
    return ok & (mask == want).all(axis=1)


def _box_fits(
    dec, st: SetTuple, B: FiniteSet, t: int, lo: HVec, blocks: Sequence[Sequence[np.ndarray]]
) -> list[bool]:
    """Whether the t-fold set of h.A + B is the shape dec (see _shape_fits)
    at each point h of the box [lo, lo + margin], last coordinate varying
    fastest; blocks[i] holds color i's capped rows lo_i, ..., lo_i +
    margin.  B must have minimum 0.

    Every point's counts come from one _box_counts fold, and one
    comparison tests them all.  A box of more than _BOX_CELLS cells is
    split into one slab per row of its first color with several rows:
    the slabs' folds are the box's fold cut apart, in the same order, so
    they cost no more work and hold less at once."""
    width = sum(len(rows[-1]) - 1 for rows in blocks) + B.max - B.min + 1
    split = next((i for i, rows in enumerate(blocks) if len(rows) > 1), None)
    if split is not None and math.prod(map(len, blocks)) * width > _BOX_CELLS:
        c = lo.coords
        return [
            fit
            for r, row in enumerate(blocks[split])
            for fit in _box_fits(
                dec, st, B, t, HVec(c[:split] + (c[split] + r,) + c[split + 1 :]),
                [*blocks[:split], [row], *blocks[split + 1 :]],
            )
        ]
    ends = [B.max]
    for rows, a, c in zip(blocks, st.maxima, lo.coords):
        ends = [m + a * (c + d) for m in ends for d in range(len(rows))]
    counts = _box_counts(st.sets, lo.coords, B, t, blocks)
    return _shape_fits(dec, counts >= t, np.array(ends, dtype=np.int64)).tolist()


def _streamed_box_fits(st: SetTuple, B: FiniteSet, t: int, dec, lo: HVec, margin: int) -> list[bool]:
    """_box_fits over [lo, lo + margin], each color's margin + 1 rows from
    _capped_block, computed once at the top row, keeping only the rows
    the box needs.  Every row of {0} is [1], whatever lo_i is, and costs
    no step."""
    blocks = [
        _capped_block(A.elements, range(c, c + margin + 1), t) for A, c in zip(st.sets, lo.coords)
    ]
    return _box_fits(dec, st, B, t, lo, blocks)


def partition_count_table(parts: FiniteSet, n_top: int, cap: int) -> CountTable:
    """Counts of unbounded multisets of parts by their sum, over [0, n_top].

    The empty multiset represents 0, so the count at 0 is 1.  Parts must
    all be at least 1; callers strip 0 from their alphabets first.
    """
    if not _is_int(cap) or cap < 1:
        raise DomainError("cap must be a positive integer")
    if not _is_int(n_top) or n_top < 0:
        raise DomainError("table end must be a nonnegative integer")
    if parts and parts.min < 1:
        raise DomainError("partition parts must all be at least 1")
    for counts in _unbounded_rows([1] + [0] * n_top, parts.elements, cap):
        pass
    return CountTable(offset=0, counts=counts, cap=cap)


def _unbounded_rows(acc: Sequence[int], parts: Iterable[int], cap: int) -> Iterator[np.ndarray]:
    """acc, then acc times 1/(1 - x^a) after each part a >= 1 in turn
    (repeats allowed), over the range of acc, clipped at cap; acc must
    already be clipped, and callers must not write to the rows."""
    length = len(acc)
    dtype = _dtype(length * cap)
    out = np.asarray(acc, dtype=dtype)
    yield out
    for a in parts:
        rows = -(-length // a)
        grid = np.zeros(rows * a, dtype=dtype)
        grid[:length] = out
        out = np.minimum(grid.reshape(rows, a).cumsum(axis=0), cap).ravel()[:length]
        yield out


def _limit_side(
    parts: Sequence[int], shifts: Sequence[int], t: int, bound: int
) -> tuple[tuple[int, ...], int]:
    """(fringe, cut) of {n : Q(n) >= t}, Q(n) counting the pairs (b, partition
    of n - b) with b in shifts and parts counted with repeats.  With p the
    smallest part, Q(n) >= Q(n - p), so the cut is the start of the first
    run of p counts >= t, and the fringe the smaller n with Q(n) >= t.
    Every n at or above bound must have Q(n) >= t; the table doubles up
    to there."""
    run = min(parts)
    length = min(256, bound + run)
    while True:
        start = np.zeros(length, dtype=np.int64)
        start[[b for b in shifts if b < length]] = 1
        for counts in _unbounded_rows(start, parts, t):
            pass
        ok = counts >= t
        # the n with Q(n) < t, between -1 and length: a gap of more than
        # run between two of them holds a run
        low = np.concatenate(([-1], np.flatnonzero(~ok), [length]))
        gaps = np.flatnonzero(np.diff(low) > run)
        if gaps.size:
            cut = int(low[gaps[0]]) + 1
            return tuple(np.flatnonzero(ok[:cut]).tolist()), cut
        if length >= bound + run:
            raise RuntimeError(
                f"internal invariant: no run of {run} counts >= {t} below {bound + run}"
            )
        length = min(2 * length, bound + run)


def _suffix_counts(parts: Sequence[int], top: int) -> list[np.ndarray]:
    """Row j counts the partitions of 0..top into parts[j:], capped at
    _GROUP_CAP; the last row counts only the empty partition of 0."""
    start = np.zeros(top + 1, dtype=np.int64)
    start[0] = 1
    return list(_unbounded_rows(start, reversed(parts), _GROUP_CAP))[::-1]


def _fewest_partitions(
    parts: Sequence[int], targets: Sequence[int], t: int, suffix: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(owner, mult): for each target, the t multisets of indices into the
    increasing parts whose parts sum to it, with fewest parts, ties in
    lexicographic order of their non-decreasing index tuples (all of them
    if fewer).  Row k of mult holds the multiplicity of every index and
    owner[k] the position in targets of its target; the rows run in order
    of target position, then in the order above.

    suffix is _suffix_counts(parts, max(targets)): row j counts the
    partitions of r into parts[j:], capped at _GROUP_CAP.  Level j extends each row by the multiplicities of
    parts[j] whose remainder row j + 1 can still finish, in descending
    order (the last part takes what is left), and a stable sort by
    (target, size) puts the wanted t first; see the module docstring."""
    top = max(targets, default=0)
    # per level j, the remainders parts[j + 1:] reach as keys ordered by
    # residue class mod parts[j], then by value: the remainders a row r
    # can leave are the keys of its class up to r, one slice
    width = top + 1
    levels = []
    for j, a in enumerate(parts[:-1]):
        ys = np.flatnonzero(suffix[j + 1])
        levels.append(np.sort(ys % a * width + ys))
    counts = suffix[0][list(targets)].tolist()
    owners = [np.zeros(0, dtype=np.int64)]
    mults = [np.zeros((0, len(parts)), dtype=np.int64)]
    first = 0
    while first < len(counts):
        stop, total = first + 1, counts[first]
        while stop < len(counts) and total + counts[stop] <= _GROUP_CAP:
            total += counts[stop]
            stop += 1
        # one row per target of the group that has a partition
        owner = np.arange(first, stop)[np.asarray(counts[first:stop]) > 0]
        rem = np.asarray(targets[first:stop], dtype=np.int64)[owner - first]
        size = np.zeros(len(rem), dtype=np.int64)
        steps = []
        for j, a in enumerate(parts):
            if j == len(parts) - 1:
                parent, m = None, rem // a
            else:
                keys = levels[j]
                cls = rem % a * width
                lo = keys.searchsorted(cls)
                wide = keys.searchsorted(cls + rem, side="right") - lo
                parent = np.repeat(np.arange(len(rem)), wide)
                ys = keys[np.repeat(lo + wide - np.cumsum(wide), wide) + np.arange(len(parent))] % width
                m = (rem[parent] - ys) // a
                rem, owner, size = ys, owner[parent], size[parent]
            size = size + m
            steps.append((parent, m))
        order = np.lexsort((size, owner))
        ranked = owner[order]
        keep = order[np.arange(len(order)) - np.searchsorted(ranked, ranked) < t]
        owners.append(owner[keep])
        mult = np.empty((len(keep), len(parts)), dtype=np.int64)
        for j in range(len(parts) - 1, -1, -1):
            parent, m = steps[j]
            mult[:, j] = m[keep]
            if parent is not None:
                keep = parent[keep]
        mults.append(mult)
        first = stop
    return np.concatenate(owners), np.concatenate(mults)


def _fewest_loads(
    parts: Sequence[int], colors: Sequence[int], q: int, targets: Sequence[int], t: int
) -> list[int]:
    """Per color, the most parts of that color in any of the t fewest-part
    partitions of any target, ties in lexicographic order of the index
    tuples; colors[j] is the color of parts[j].  The t-best DP on at most
    _DP_CELLS cells, (max(targets) + 1) * len(parts) * t, or where the
    enumeration would list more than one partition per
    _CELLS_PER_PARTITION cells; else the enumeration of _fewest_partitions
    (see the module docstring)."""
    top = max(targets, default=0)
    cells = (top + 1) * len(parts) * t
    if cells > _DP_CELLS:
        suffix = _suffix_counts(parts, top)
        if int(suffix[0][list(targets)].sum()) * _CELLS_PER_PARTITION <= cells:
            return _enumerated_loads(parts, colors, q, targets, t, suffix)
    return _dp_loads(parts, colors, q, targets, t)


def _too_few(n: int, t: int) -> RuntimeError:
    return RuntimeError(f"internal invariant: n={n} has fewer than {t} colored representations")


def _dp_loads(
    parts: Sequence[int], colors: Sequence[int], q: int, targets: Sequence[int], t: int
) -> list[int]:
    """_fewest_loads by the t-best DP over the suffixes parts[j:], from the
    last part down (see the module docstring).

    An entry packs one partition of n as the integer size << (q * w) plus
    the sum of load_c << (c * w) over the colors c, with w = max(1,
    top.bit_length()).  Every load is at most the partition's size, which
    is at most n / min(parts) <= top < 2^w (parts are at least 1), so no
    slot carries into the next, and adding one part j adds
    (1 << q * w) + (1 << colors[j] * w).  Sizes compare on the high bits:
    size(x) < size(y) exactly when x | (2^(q*w) - 1) < y."""
    top = max(targets, default=0)
    w = max(1, top.bit_length())
    shift = q * w
    low = (1 << shift) - 1
    # col[n]: up to t entries for n over parts[j:] in (size, index tuple)
    # order, starting from no parts, where only 0 has a partition
    col: list[list[int]] = [[0]] + [[] for _ in range(top)]
    for j in range(len(parts) - 1, -1, -1):
        p = parts[j]
        inc = (1 << shift) + (1 << colors[j] * w)
        new = col[:p]
        for n in range(p, top + 1):
            # with part j (new[n - p] plus one j) or without it (col[n]);
            # on equal sizes, the index tuples with j come first
            a, b = new[n - p], col[n]
            if not a:
                new.append(b)
            elif not b:
                new.append([e + inc for e in a])
            else:
                out = []
                i = k = 0
                while len(out) < t:
                    if i < len(a) and (k == len(b) or a[i] + inc <= b[k] | low):
                        out.append(a[i] + inc)
                        i += 1
                    elif k < len(b):
                        out.append(b[k])
                        k += 1
                    else:
                        break
                new.append(out)
        col = new
    best = []
    for n in targets:
        if len(col[n]) < t:
            raise _too_few(n, t)
        best += col[n]
    mask = (1 << w) - 1
    return [max([e >> s & mask for e in best], default=0) for s in range(0, shift, w)]


def _enumerated_loads(
    parts: Sequence[int],
    colors: Sequence[int],
    q: int,
    targets: Sequence[int],
    t: int,
    suffix: list[np.ndarray],
) -> list[int]:
    """_fewest_loads from the partitions _fewest_partitions lists."""
    owner, mult = _fewest_partitions(parts, targets, t, suffix)
    short = np.flatnonzero(np.bincount(owner, minlength=len(targets)) < t)
    if short.size:
        raise _too_few(targets[short[0]], t)
    onehot = np.zeros((len(parts), q), dtype=np.int64)
    onehot[np.arange(len(parts)), list(colors)] = 1
    return (mult @ onehot).max(axis=0, initial=0).tolist()


def inhomogeneous_count_table(
    st: SetTuple, h: HVec, B: FiniteSet, cap: int | None = None
) -> CountTable:
    """Counts of the translated form: colored representation plus one
    element of B, over [min(B), sum_i h_i * max(A_i) + max(B)]."""
    _validate_cap(cap)
    if not B:
        raise EmptySetError("translation set B must be nonempty")
    return CountTable(offset=B.min, counts=_counts(_colors(st, h), B, cap), cap=cap)


class _TFoldSets:
    """The t-fold sets of h.A + B at any exponent vector h, without count
    tables: each color's capped rows are streamed once and kept, and the
    counts at h are their one-point _box_counts fold."""

    def __init__(self, st: SetTuple, B: FiniteSet, t: int):
        self._st = st
        self._t = t
        self._B = B
        self._streams = [_multiset_rows(A.elements, _row_dtype(t), t) for A in st.sets]
        self._rows: list[list[np.ndarray]] = [[] for _ in st.sets]

    def _row(self, i: int, m: int) -> np.ndarray:
        rows = self._rows[i]
        while len(rows) <= m:
            rows.append(next(self._streams[i]))
        return rows[m]

    def size(self, h: HVec) -> int:
        """Number of integers with at least t representations at h."""
        coords = h.coords
        blocks = [[self._row(i, c)] for i, c in enumerate(coords)]
        counts = _box_counts(self._st.sets, coords, self._B, self._t, blocks)
        return int(np.count_nonzero(counts >= self._t))
