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

Every row comes from one entry, _rows.  Exact rows run through a
packed-integer kernel that hands long int64 rows over to one numpy
multiset kernel (below); capped rows come from partition folds where
they prove a long row, else from the packed kernel, clipped once
(below).  Every count (a table, the structure search's certificate
sizes, the margin box) is made by one entry, _box_counts, which reads
its rows from _rows.  A short one-point count is one product of the
colors' packed rows as Python integers (below); every other count walks
a box of exponent vectors one color at a time, and every product of two
rows on that walk is one schoolbook convolution (np.convolve, in
_fold).  The walk picks the dtype once from
_bound, a proven bound on every intermediate value at the box's top
corner: float64 below 2^53, numpy int64 below 2^62, and
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
table at fixed h, and each point of the structure search's certificate,
takes the h-th row.

Exact rows on packed integers (_exact_row).  A row of the recurrence is
a polynomial with nonnegative coefficients, so it can be held as one
Python integer, entry n in bits [n * w, (n + 1) * w) (Kronecker
substitution; Harvey, J. Symbolic Comput., 2009), and a step is one
shift and one add in C (_packed_steps, the one stepping loop):

    f(j, m+1, .) = f(j-1, m+1, .) + (f(j, m, .) << a_j * w)

No slot ever carries into the next.  Every entry and every partial sum
the recurrence forms is a multiset count of one prefix at some m <= h,
so it is at most the color's exact bound C(|A| + h - 1, h); w is that
bound's bit length rounded up to 8, 16, 32 or 64 bits (past 64, to
whole bytes; _slot_size), or that of any larger bound, so every slot
value is below 2^w, and Python integers are exact at any size.  Row h
is unpacked once (_unpack): 1-, 2-, 4- and 8-byte slots by
np.frombuffer, then cast to _dtype(bound); wider slots by one
int.from_bytes per slot into an object array.  The numpy kernel makes
three calls of about 1 us each per (row, element), on the rows of at
most ~1,500 entries that count tables mostly have, so call overhead,
not arithmetic, sets its cost.  But CPython adds 30-bit digits in a
loop, while numpy adds int64 with SIMD, so a long int64 row is faster
on numpy.  Once an int64 row (one clipped below 2^62 is, whatever its
exact bound) would pass _HANDOVER = 2^11 entries, every prefix is
unpacked, clipped where the row is, and _multiset_rows finishes from
that state.  The crossover,
measured on a 2-vCPU VM (Python 3.11, numpy 2.4), best of 8-60
interleaved runs, in ms:

    row                      entries  numpy  handover at 2^10  2^11  2^12
    {0,2,3}, h = 300             901   1.60              0.53  0.49  0.47
    {0,3,7,11,19}, h = 200     3,801   2.74              1.97  1.93  2.28
    {0,3,7,11,19}, h = 400     7,601   6.48              6.17  6.03  6.37
    {0,3,7,11,19}, h = 640    12,161  10.07             10.23  9.97 11.84
    {0,1,5,9}, h = 2000       18,001  32.59             28.61 30.55 35.91

Staying packed to the end took 3.1-3.8 times numpy's time at 12,161
entries.  An exact row whose bound is 2^62 or more stays packed to the
end: numpy's object arrays run a Python loop per entry (40-multisets
of {0..39}, bound about 2^75: 16-27 ms on object arrays, 3.6-5.4 ms
packed).

Short capped rows are packed too (_rows).  A packed integer
cannot clip entry by entry, and need not: by the identities above the
capped row is min(exact row, cap), so _exact_row computes the exact rows
and clips each once as it unpacks it.  An exact row costs more than a
capped one where rows are long, so only a color whose top row costs at
most _PACKED_CELLS = 2^15 cells, |A| * h * (h * max(A) + 1), is packed;
longer capped rows take the proof of _capped_rows (below), and are
packed where it leaves a row unproven.  One row at cap 3, measured on a
2-vCPU VM (Python 3.11, numpy 2.4), best of 3 interleaved sets of 10-40
runs, in us (* not proven, so the folds' time includes the fallback's,
then a stream from row 0):

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
margin boxes keep the folds.

Short one-point counts as one packed product (_box_counts).  A count
table, a certificate size and a one-point box check are one-point
boxes, and most are short: a structure result's certificate visits a
median of 1 and at most 6 points, nearly all below h = 16.  The count
is B's indicator times one row per color, all polynomials with
nonnegative coefficients, so it is one product of packed integers:
sum_b 2^(w * (b - min B)) times each color's row h_i at slots of w
bits, unpacked once at int64 and clipped once where the cap is below
the exact total T = |B| * prod_i C(|A_i| + h_i - 1, h_i).  Every
coefficient of the product is a count, at most T, and w is T's bit
length rounded up to 8, 16, 32 or 64 bits, so no slot carries; one clip
is exact by the identities above.  On such rows call overhead, not
arithmetic, sets the walk's cost, and the product makes one
multiplication per color and one unpack.  Past about 2^14 product bits
the walk wins (below), so the product runs only where T < 2^62 and it
holds at most _PRODUCT_BITS = 2^14 bits, its length times w; every
other box, wider ones included, walks.  With w >= 8 such a product has
at most 2^11 = _HANDOVER entries, so no row it reads is one the packed
kernel would have handed over to numpy.  Every one-point _box_counts
call of the first 1,200 requests of each seed-101 stream of the
benchmark (structure-search, structure-constructive, counts), each
timed both ways from fresh rows, best of 3, on a 2-vCPU VM (Python
3.11, numpy 2.4); mean us per call over up to 300 sampled calls per
bucket of product bits:

    product bits   calls   product   walk
    <= 2^8         1,988      11.0   28.4
    <= 2^9         3,864      11.0   26.7
    <= 2^10        2,424      12.6   27.7
    <= 2^11        3,033      14.6   31.2
    <= 2^12        2,173      18.3   30.8
    <= 2^13          224      26.7   52.9
    <= 2^14          276      51.9   65.1
    <= 2^15          143     237.0  123.4
    <= 2^16          524     564.1  222.9
    <= 2^17          121   2,631.7  340.1
    <= 2^18           19   3,464.8  591.0

On all those calls the rule took 184, 20 and 223 ms on the three
streams, against 416, 43 and 255 ms for the walk alone and 184, 20 and
222 ms for the faster route of each call: 10,788 of 10,792, 1,080 of
1,081 and 2,114 of 2,916 calls are products, while the counts
workload's capped strata and anchors walk.  Slots of one fixed 8 bytes
would let every product share a single packed row per (set, h), where
now a row scope builds a row again at each width its products need
(339 of 3,180 builds over 300 seed-104/106/108 structure-search
requests), but they made each product hold up to 8 times the bits: the
first 700 requests of seed 104, replayed in-process, took a p50 of
0.33-0.37 ms against 0.29-0.31 ms (3 alternating runs each).

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
is not proven and _capped_rows returns None; _rows packs the row
instead.  Two folds of h * a_1 and h * b_1 entries, one pass per
part, replace h kernel steps over rows of up to h * M entries.  A fold
reads no entry above the one it writes, so the tables of a lower row
are prefixes of those of a higher one: the margin box's rows h = lo_i,
..., lo_i + margin all come from the two folds at its top row.  The
structure search's certificate runs in a row scope (below), so it
builds the row of each (set, h) it visits once: two folds near h, not h
kernel steps, where they prove it; an unproven long row is rebuilt from
row 0 at each new h.

The margin box.  verify tests the t-fold set at every point of a box
[lo, lo + margin], (margin + 1)^q points, from the rows lo_i, ...,
lo_i + margin that _rows gives each color (_streamed_box_fits).
_box_counts walks the box one color at a time, last coordinate fastest.
The partial product at a point of the first i colors, B's indicator
times one row of each (a one-element B is the identity, so it starts
from the first color's row), is kept while the walk runs through the
later colors, so each is formed once, by one np.convolve: in all
(margin + 1)^2 + ... + (margin + 1)^q of them for a one-element B.  Per
point of the first q - 1 colors, the last color's margin + 1 products
come as one group, zero-padded to its longest row (zeros past a row's
end are no members), and one comparison tests the group.  Every product
is clipped as before and stays under the bound of the count table at
the box's top corner (_bound), which holds at every point below it.  The
walk holds one group and q partial products, so its memory grows with
the rows it reads, not with the box.  A one-point box past the product's
crossover walks with q - 1 np.convolve calls for a one-element B, q for
a larger one.

The row scope.  Inside a _shared_rows() block, _rows keeps each single
row it builds by (A's elements, h, cap, slot bytes) and hands it to
every later request with the same key, whatever table, certificate
point or color asks: lemmas.run_all runs its checks in one scope, and
structure_constants each route's certificate, so two colors with equal
sets share their rows.  Sharing is exact: the key fixes the whole row
(_exact_row's or _capped_rows' array, dtype included, or the packed
integer at its slot width), and the fold's dtype and cap are chosen per
walk afterwards.  Kept arrays are marked read-only, and no fold writes
into a row; packed rows are Python ints, which nothing can write.
Outside a scope nothing is kept, so no row outlives the call that built
it.

Unbounded partition counts multiply by 1/(1 - x^a) for each part a: a
running sum along each residue class mod a, which only grows, so
clipping the running sums is the same as clipping after every addition.
The ends of a capped row (_capped_rows) are read off the last such row.

The limit constants of the structure module (_limit_side).  Let Q(n)
count the pairs (b, partition of n - b) with b a shift and the k parts
counted with repeats, and p the least part.  Two routes give the same
(fringe, cut):

* the table: the partition fold over at least 256 entries, doubled
  until it holds a run of p counts >= t; time and memory grow with the
  cut;
* the residue walk (_residue_side; Nijenhuis, Amer. Math. Monthly, 1979,
  for t = 1; Boecker and Liptak, Algorithmica, 2007).  With rest the
  parts less one copy of p, Q(n) sums R(n), R(n - p), R(n - 2p), ...,
  where R counts b plus a partition into rest.  So Q(n) >= t exactly
  when n >= tau_r, r = n mod p, tau_r the t-th smallest value congruent
  to r of b plus a partition into rest, with multiplicity; the cut is
  max(0, max_r tau_r - p + 1) and the fringe the union of the ranges
  tau_r, tau_r + p, ... below it.  The walk keeps the t smallest values
  of each class, from the shifts on, and folds each part a of rest in
  with one heap: a popped v joins its class if that holds fewer than t,
  and v + a is pushed; otherwise v is dropped, for the t values <= v of
  its class give t values <= v + a in the next.  That is about
  (k - 1) * p * t heap steps, whatever the cut.

The table pays for the cut and the walk for p * t, so the table's
passes, len(parts) * (length + _PART_CELLS) cells each, run while their
sum fits _STEP_CELLS cells for each of the walk's ((k - 1) * t + 1) * p
estimated steps, and past that the walk answers: by the estimate, the
failed passes cost at most what the walk does.  Measured on a 2-vCPU VM
(Python 3.11, numpy 2.4), best of 11 interleaved runs (one for the last
row), in ms, with the route the rule takes and its time where that
differs from the route's own:

    parts                  t        cut    steps   table    walk  rule
    {2,3,5}                2          5       10   0.027   0.007  walk
    {2,3,4,5,7}            3          6       26   0.036   0.011  walk
    {1,2,3}            32768        625   65,537   0.098  19.6    table
    {92,97,99,100}        20      2,303    5,612   0.287   1.45   table
    {197,199,199,200}      3     13,402    1,970   0.865   1.11   table
    {17,40}                5      3,344      102   0.175   0.035  2 passes, walk: 0.084
    {999,1000}            10  9,988,002   10,989   2,070  44.6    11 passes, walk: 73.7

The first two rows are typical of the benchmark's structure streams,
where the walk takes 5,590 of the 6,082 calls of the first 1,600
seed-101 requests of each.  From 50 to 200 cells per step, the rule's
total time came within 1.0-1.15 times that of the faster route of each
call on those calls, and within 1.3-1.6 times on a sweep of 36,186
random ones (k 1-8, p 1-40, t 1-1,000); 150 keeps the table on
{197,199,199,200}, which needs 194,448 cells of it.

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

import contextvars
import heapq
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

# _exact_row hands an int64 row over to the numpy kernel before it passes
# this many entries, the measured crossover (see the module docstring)
_HANDOVER = 1 << 11

# _box_counts multiplies a one-point box's packed rows as Python integers
# while the product's length times its slot bits is at most this, the
# measured crossover (see the module docstring)
_PRODUCT_BITS = 1 << 14

# _rows packs a capped row whose top row costs at most this many
# cells, |A| * h * (h * max(A) + 1), the measured crossover (see the module
# docstring)
_PACKED_CELLS = 1 << 15

# _limit_side's table passes cost len(parts) * (length + _PART_CELLS)
# cells each, and its residue walk _STEP_CELLS cells per step, of
# ((len(parts) - 1) * t + 1) * p steps; passes run while their sum fits
# the walk's cost, the measured crossover (see the module docstring)
_STEP_CELLS = 150
_PART_CELLS = 2300

# inside a _shared_rows() scope, the single rows _rows built, by (elements,
# h, cap); None outside one
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


def _slot_size(bound: int) -> int:
    """Bytes per slot of a packed row whose every entry and partial sum is
    at most bound >= 1: its bit length rounded up to 1, 2, 4 or 8 bytes,
    past 8 bytes to whole bytes."""
    size = -(-bound.bit_length() // 8)
    return 1 << (size - 1).bit_length() if size <= 8 else size


def _packed_steps(elements: tuple[int, ...], size: int) -> Iterator[list[int]]:
    """The packed rows f(j, m, .) of every element prefix j, for m = 0, 1,
    2, ..., entry n in slot n of size bytes (see the module docstring); one
    list, updated in place by each step.  elements must start at 0, and
    every entry and partial sum up to the last m asked for must fit a
    slot."""
    prefix = [1] * len(elements)
    shifts = [8 * size * a for a in elements[1:]]
    while True:
        yield prefix
        below = 1
        for j, shift in enumerate(shifts, 1):
            below = prefix[j] = below + (prefix[j] << shift)


def _unpack(value: int, length: int, size: int) -> np.ndarray:
    """The first length slots of size bytes of a packed integer, read-only:
    unsigned integers for slots of at most 8 bytes, else Python ints in an
    object array."""
    raw = value.to_bytes(length * size, "little")
    if size <= 8:
        return np.frombuffer(raw, f"<u{size}")
    slots = [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]
    return np.array(slots, dtype=object)


def _exact_row(
    elements: tuple[int, ...], hs: range, bound: int, cap: int | None = None
) -> list[np.ndarray]:
    """Rows hs of _multiset_rows(elements, _dtype(bound), cap), bound being
    C(len(elements) + hs[-1] - 1, hs[-1]), from _packed_steps at the slots
    of bound (see the module docstring); elements must start at 0 and hold
    a nonzero element.  Where cap is below bound, each row is clipped at it
    once, as it is unpacked, and comes at _dtype(cap).  An int64 row, exact
    or clipped, is handed over to _multiset_rows before _HANDOVER
    entries."""
    top, h = elements[-1], hs[-1]
    clip = cap if cap is not None and cap < bound else None
    dtype = _dtype(bound if clip is None else clip)
    size = _slot_size(bound)
    stop = h if dtype is object else min(h, (_HANDOVER - 1) // top)
    # (packed row, its length) to unpack: the rows of hs up to the
    # handover, then every prefix at it
    packed = []
    for m, prefix in zip(range(stop + 1), _packed_steps(elements, size)):
        if m in hs:
            packed.append((prefix[-1], m * top + 1))
    if stop < h:
        packed += [(prefix[j], stop * a + 1) for j, a in enumerate(elements)]
    rows = []
    for value, length in packed:
        row = _unpack(value, length, size)
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


def _rows(
    elements: tuple[int, ...], hs: range, cap: int | None, size: int = 0
) -> list[np.ndarray] | list[int]:
    """Rows hs of the multiset DP over elements, clipped at cap unless it is
    None, the one source of rows: every row of {0} is [1]; rows whose cap
    is below the color's bound C(|A| + h - 1, h) at the top row h = hs[-1]
    come from _capped_rows where that row costs more than _PACKED_CELLS
    cells and it proves them; every other row is packed (_exact_row),
    and clipped once where the cap is below the bound.  With size, the
    one row h comes exact and still packed, one integer of size-byte slots
    (_packed_steps; cap must be None), which the caller proves wide enough.
    Inside a _shared_rows() scope a single row is kept by (elements, h,
    cap, size), an array read-only, and a later request for that key gets
    the same row; elements must start at 0.  The slot width is in the key
    because each product reads its rows at the slots of its own total
    (see the module docstring), and packed rows come from here, not from
    an entry of their own, so that _ROWS has one reader."""
    h = hs[-1]
    shared = _ROWS.get() if len(hs) == 1 else None
    key = (elements, h, cap, size)
    if shared is not None:
        rows = shared.get(key)
        if rows is not None:
            return rows
    top = elements[-1]
    if not top:
        return [1] if size else [np.ones(1, dtype=np.int64)] * len(hs)
    if size:
        rows = [next(islice(_packed_steps(elements, size), h, None))[-1]]
    else:
        bound = math.comb(len(elements) + h - 1, h)
        rows = None
        if cap is not None and cap < bound and len(elements) * h * (h * top + 1) > _PACKED_CELLS:
            rows = _capped_rows(elements, hs, cap)
        if rows is None:
            rows = _exact_row(elements, hs, bound, cap)
        if shared is not None:
            rows[0].setflags(write=False)
    if shared is not None:
        shared[key] = rows
    return rows


def _capped_rows(elements: tuple[int, ...], hs: range, cap: int) -> list[np.ndarray] | None:
    """Rows hs of the multiset DP clipped at cap, each read off one
    partition fold per end at the top row hs[-1], or None where some
    row's middle is not proven to saturate (see the module docstring);
    elements must start at 0 and hold a nonzero element."""
    top = elements[-1]
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


def _fold(acc: np.ndarray, row: np.ndarray, cap: int | None) -> np.ndarray:
    """The product of the 1-D rows acc and row, one np.convolve at acc's
    dtype (row's must convert safely to it), clipped at cap when one is
    set, in a new array."""
    out = np.convolve(acc, row)
    if cap is not None:
        np.minimum(out, cap, out=out)
    return out


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
    sets: Sequence[FiniteSet], lo: Sequence[int], width: int, B: FiniteSet, cap: int | None
) -> Iterator[np.ndarray]:
    """The counts of h.A + B, clipped at cap unless it is None, at every
    point h of the box [lo, lo + width - 1], each color's rows lo_i, ...,
    lo_i + width - 1 taken from _rows at the fold's cap.  The walk goes
    one color at a time, last coordinate fastest, and keeps one partial
    product per color; per point of the other colors it yields one 2-D
    group, the last color's rows times that point's product, zero-padded
    to the longest.  The cap is _bound's at the top corner, and the dtype
    float64 where that bound is below 2^53 (see the module docstring),
    else _dtype's.  A row whose dtype converts safely is folded as it is;
    an object row, under a cap no count reaches, is copied at that dtype.

    A one-point box whose exact total T = |B| * prod_i C(|A_i| + h_i - 1,
    h_i) is below 2^62, and whose product, at slots wide enough for T,
    holds at most _PRODUCT_BITS bits, is one product of Python integers
    instead: B's packed indicator times each color's packed row, unpacked
    once at int64 and clipped once where the cap is below T (see the
    module docstring)."""
    if width == 1:
        base = B.elements[0]
        total, length = len(B.elements), B.elements[-1] - base + 1
        for A, h in zip(sets, lo):
            total *= math.comb(len(A.elements) + h - 1, h)
            length += h * A.elements[-1]
        size = _slot_size(total)
        if total < 1 << 62 and length * 8 * size <= _PRODUCT_BITS:
            # every coefficient is a count, at most T < 2^(8 * size), so no
            # slot carries
            product = 0
            for b in B.elements:
                product += 1 << 8 * size * (b - base)
            for A, h in zip(sets, lo):
                [row] = _rows(A.elements, range(h, h + 1), None, size)
                product *= row
            counts = _unpack(product, length, size).astype(np.int64)
            if cap is not None and cap < total:
                np.minimum(counts, cap, out=counts)
            yield counts[None]
            return
    bound, cap = _bound([(A, c + width - 1) for A, c in zip(sets, lo)], B, cap)
    dtype = np.float64 if bound < 1 << 53 else _dtype(bound)
    *heads, rows = [_rows(A.elements, range(c, c + width), cap) for A, c in zip(sets, lo)]

    def times(acc, row, clip):
        if acc is None:  # a one-element B is the identity
            return row.astype(dtype, copy=False)
        return _fold(acc, row if row.dtype <= dtype else row.astype(dtype), clip)

    # partial[i]: B times the current row of each color below i (None
    # for a one-element B); point: the current row of each color but the
    # last, from whose k-th color on the partial products are stale
    partial = [None]
    if len(B) > 1:
        partial[0] = np.zeros(B.max - B.min + 1, dtype=dtype)
        partial[0][[b - B.min for b in B.elements]] = 1
    point, k = [0] * len(heads), 0
    while True:
        del partial[k + 1 :]
        for i in range(k, len(heads)):
            partial.append(times(partial[i], heads[i][point[i]], cap))
        acc = partial[-1]
        if width == 1:  # a lone product needs no copy into a group
            yield times(acc, rows[0], cap)[None]
        else:
            # a group is clipped once, as a whole
            longest = len(rows[-1]) + (0 if acc is None else len(acc) - 1)
            group = np.zeros((len(rows), longest), dtype=dtype)
            for r, row in enumerate(rows):
                out = times(acc, row, None)
                group[r, : len(out)] = out
            if cap is not None:
                np.minimum(group, cap, out=group)
            yield group
        # the next point: the last color not at its last row moves on one
        # row, and every later color starts again
        k = len(heads) - 1
        while k >= 0 and point[k] == width - 1:
            point[k] = 0
            k -= 1
        if k < 0:
            return
        point[k] += 1


class _shared_rows:
    """A row scope: within it _rows keeps each single row it builds and
    hands that row (an array read-only, or a packed integer) to every later
    request for its key (see the module docstring); the rows are dropped
    when the scope ends."""

    def __enter__(self) -> None:
        self._token = _ROWS.set({})

    def __exit__(self, *exc) -> None:
        _ROWS.reset(self._token)


def _counts(sets: Sequence[FiniteSet], hs: Sequence[int], B: FiniteSet, cap: int | None) -> np.ndarray:
    """Counts of sum_i (hs_i-multiset of sets_i) + one element of B over
    [min(B), sum_i hs_i * max(sets_i) + max(B)], the one-point box at hs;
    a float fold's counts come back as int64.  Every set must be nonempty
    with minimum 0, and every hs_i a nonnegative integer."""
    counts = next(_box_counts(sets, hs, 1, B, cap))[0]
    return counts if counts.dtype == object else counts.astype(np.int64, copy=False)


def multiset_count_table(A: FiniteSet, h: int, cap: int | None = None) -> CountTable:
    """Counts of non-decreasing h-tuples from A by their sum, over [0, h*max(A)]."""
    _validate_cap(cap)
    if not A:
        raise EmptySetError("cannot count over an empty set")
    if A.min != 0:
        raise NotNormalizedError("multiset counting requires min(A) = 0")
    if not _is_int(h) or h < 0:
        raise DomainError("repetition count must be a nonnegative integer")
    return CountTable(offset=0, counts=_counts([A], [h], _ZERO, cap), cap=cap)


def _colors(st: SetTuple, h: HVec) -> tuple[tuple[FiniteSet, ...], tuple[int, ...]]:
    """The sets and the exponents of a chromatic count, checked."""
    if h.q != st.q:
        raise DimensionError("exponent vector length does not match tuple")
    if not st.normalized:
        raise NotNormalizedError("chromatic counting requires a normalized tuple")
    return st.sets, h.coords


def chromatic_count_table(st: SetTuple, h: HVec, cap: int | None = None) -> CountTable:
    """Counts of colored representations: one non-decreasing h_i-tuple from
    each A_i, keyed by the total sum, over [0, sum_i h_i * max(A_i)].

    A colored representation is determined by its per-color multisets, so
    the table is the convolution of the per-color tables.
    """
    _validate_cap(cap)
    return CountTable(offset=0, counts=_counts(*_colors(st, h), _ZERO, cap), cap=cap)


def tfold_set(st: SetTuple, h: HVec, t: int) -> FiniteSet:
    """The set of integers with at least t colored representations."""
    if not _is_int(t) or t < 1:
        raise DomainError("t must be a positive integer")
    counts = _counts(*_colors(st, h), _ZERO, t)
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


def _streamed_box_fits(st: SetTuple, B: FiniteSet, t: int, dec, lo: HVec, margin: int) -> list[bool]:
    """Whether the t-fold set of h.A + B is the shape dec (see _shape_fits)
    at each point h of the box [lo, lo + margin], last coordinate varying
    fastest.  B must have minimum 0.

    Each color's margin + 1 rows come from _rows, computed once at the
    top row; every row of {0} is [1], whatever lo_i is, and costs no
    step.  _box_counts walks the box, and one comparison tests each group
    of points it yields."""
    ends = [B.max]
    for a, c in zip(st.maxima, lo.coords):
        ends = [m + a * (c + d) for m in ends for d in range(margin + 1)]
    groups = _box_counts(st.sets, lo.coords, margin + 1, B, t)
    return [
        fit
        for counts, group_ends in zip(groups, np.array(ends, dtype=np.int64).reshape(-1, margin + 1))
        for fit in _shape_fits(dec, counts >= t, group_ends).tolist()
    ]


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
    to there, while its passes fit the residue walk's estimated cost
    (_STEP_CELLS, _PART_CELLS), and the walk (_residue_side) answers past
    it."""
    run = min(parts)
    budget = _STEP_CELLS * ((len(parts) - 1) * t + 1) * run
    length = min(256, bound + run)
    while True:
        budget -= len(parts) * (length + _PART_CELLS)
        if budget < 0:
            return _residue_side(parts, shifts, t)
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


def _residue_side(
    parts: Sequence[int], shifts: Sequence[int], t: int
) -> tuple[tuple[int, ...], int]:
    """_limit_side's (fringe, cut) from the t smallest values of each
    residue class mod the smallest part p: Q(n) >= t exactly when n is at
    least tau_(n mod p), the t-th smallest value congruent to n of b plus
    a partition into the other parts (see the module docstring)."""
    p = min(parts)
    rest = list(parts)
    rest.remove(p)
    kept: list[list[int]] = [[] for _ in range(p)]
    for b in sorted(shifts):
        if len(kept[b % p]) < t:
            kept[b % p].append(b)
    for a in rest:
        heap = [v for row in kept for v in row]
        heapq.heapify(heap)
        kept = [[] for _ in range(p)]
        short = p
        while short and heap:
            v = heap[0]
            row = kept[v % p]
            if len(row) < t:
                row.append(v)
                if len(row) == t:
                    short -= 1
                heapq.heapreplace(heap, v + a)
            else:
                # the class of v holds t values <= v, which put t values
                # <= v + a into the class of v + a
                heapq.heappop(heap)
    missing = [r for r, row in enumerate(kept) if len(row) < t]
    if missing:
        raise RuntimeError(
            f"internal invariant: fewer than {t} values in class {missing[0]} mod {p}"
        )
    taus = [row[-1] for row in kept]
    cut = max(0, max(taus) - p + 1)
    fringe: list[int] = []
    for tau in taus:
        fringe.extend(range(tau, cut, p))
    fringe.sort()
    return tuple(fringe), cut


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
    return CountTable(offset=B.min, counts=_counts(*_colors(st, h), B, cap), cap=cap)


def _tfold_size(st: SetTuple, B: FiniteSet, t: int, h: HVec) -> int:
    """Number of integers with at least t representations in h.A + B, from
    one one-point _box_counts count."""
    counts = next(_box_counts(st.sets, h.coords, 1, B, t))
    return int(np.count_nonzero(counts >= t))
