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

Every function that holds counts in numpy arrays lives in this
module's numpy half, chromsum._arrays, the one module that imports
numpy; this module imports it inside the functions whose route needs
arrays, so a process whose counts are all short packed products never
loads numpy (see below).  Every row array comes from one entry,
_arrays._rows.  Exact rows run through a packed-integer kernel that
hands long int64 rows over to one numpy multiset kernel (below); capped
rows come from partition folds where they prove a long row, else from
the packed kernel, clipped once (below).  Every count (a table, the
structure search's certificate sizes, the margin box) is made by one
entry, _box_counts.  A short count, of one point or of a small box,
is one product of the colors' packed rows as Python integers per
point, read with integer operations only (below); every other count
walks a box of exponent vectors one color at a time (_arrays._walk,
from _arrays._rows), and every product of two rows on that walk is one
schoolbook convolution (np.convolve, in _arrays._fold).  _box_counts
computes the exact total T (below) and the length once, at the box's
top corner, and the walk picks its dtype from the proven bound on every
intermediate value that they give: float64 below 2^53, numpy int64
below 2^62, and dtype=object (Python ints in the
same numpy code) above it, so the result is exact either way.  A float64 fold
is exact because every product and every partial sum it forms, in any
order, is a nonnegative integer at most the bound (a sum of some of the
nonnegative terms of one count), and every integer below 2^53 is a
float64: neither the order in which np.convolve's dot product adds nor a
fused multiply-add can round.  numpy's float64 dot runs on BLAS, several
times the speed of its int64 loop on long rows; a one-point box's float
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
shift and one add in C (_prefixes, the one stepping loop):

    f(j, m+1, .) = f(j-1, m+1, .) + (f(j, m, .) << a_j * w)

No slot ever carries into the next.  Every entry and every partial sum
the recurrence forms is a multiset count of one prefix at some m <= h,
so it is at most the color's exact bound C(|A| + h - 1, h); w is that
bound's bit length rounded up to 8, 16, 32 or 64 bits (past 64, to
whole bytes; _slot_size), or that of any larger bound, so every slot
value is below 2^w, and Python integers are exact at any size.  Row h
is read once by the one slot reader, _slots: 1-, 2-, 4- and 8-byte
slots into an array.array of unsigned integers, which _exact_row views
as a numpy array and casts to _dtype(bound); wider slots by one
int.from_bytes per slot, into an object array.  The numpy kernel makes
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
runs, in us (* not proven: the folds' time includes the fallback as it
was measured, a stream from row 0; such a row is now packed by _exact_row):

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

Short counts as packed products (_box_counts).  A count table, a
certificate size and a one-point box check are one-point boxes, and
most are short: a structure result's certificate visits a median of 1
and at most 6 points, nearly all below h = 16.  The count
is B's indicator times one row per color, all polynomials with
nonnegative coefficients, so it is one product of packed integers:
sum_b 2^(w * (b - min B)) times each color's row h_i at slots of w
bits, read once (_Product, below) and clipped once where the cap is
below the exact total T = |B| * prod_i C(|A_i| + h_i - 1, h_i).  Every
coefficient of the product is a count, at most T, and w is T's bit
length rounded up to 8, 16, 32 or 64 bits, so no slot carries; one clip
is exact by the identities above.  On such rows call overhead, not
arithmetic, sets the walk's cost, and the product makes one
multiplication per color and one read.  Past about 2^14 product bits
the walk wins (below), so the product runs only where T < 2^62 and the
box's products hold at most _PRODUCT_BITS = 2^14 bits in all: the
width^q points of the box times the length times w, a one-point box's
length times w alone; every other box walks.  With w >= 8 such a
product has at most 2^11 = _HANDOVER entries, so no row it reads is
one the packed kernel would have handed over to numpy.  Every
one-point _box_counts call of the first 1,200 requests of each seed-101
stream of the
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
now a row scope steps a set's states again from row 0 at each new
width its products need (416 of 3,180 stepping calls, 2,232 of 8,014
steps, over 300 seed-104/106/108 structure-search requests), but they
made each product hold up to 8 times the bits: the first 700 requests
of seed 104, replayed in-process, took a p50 of 0.33-0.37 ms against
0.29-0.31 ms (3 alternating runs each).  Nor does
re-slotting a kept row for each product pay: keeping each packed row
once at its own width took those 700 requests from 0.197 to 0.222 s in
all, and packing a kept int64 row on each use was slower still.

The product is read with integer operations only, so a process whose
counts are all such products never imports numpy (on the command line,
every small counts, sumset, structure, witness and verify request:
numpy's import is about 65-80 ms of a process of about 160 ms).  As
T < 2^62, its slots are 1, 2, 4 or 8 bytes, and _slots reads them into an
array.array.  Whether a count c is at least t is a carry test: for t <
2^w, c + (2^w - t) carries out of its slot exactly when c >= t, and as
c + 2^w - t < 2^(w + 1), the carry is one bit.  So the even slots are
masked out of the product and 2^w - t added to each at once, their
carries landing in the empty odd slots between them, and likewise the
odd slots; the carry bits, shifted back, are the flags, 1 in the slot
of each count >= t (and for t >= 2^w, no count reaches t).  Their
slots, read by _slots, are the member marks (_marks, which gives a
walk's marks as numpy rows): the bytes 1 among them count the
certificate (_tfold_size), and they select _tfold's members.  A
table's counts are clipped by masking the flagged slots, flags times
2^w - 1, and setting them to the cap.  On 2-byte slots, which 98.9% of
the structure search's one-point calls (seed 101) have at 256 slots or
fewer, the count took 3.3, 4.9 and 7.7 us at 128, 256 and 512 slots
against 2.6, 2.8 and 3.8 us for numpy (frombuffer, astype and
count_nonzero), and the clipped counts as a list 5.6, 9.0 and 16.2
against 4.4, 6.6 and 10.9 us (2-vCPU VM, Python 3.11, numpy 2.4, best
of 7, host load not controlled): a few microseconds per call in a
process that holds numpy anyway, for no numpy import in one that needs
no arrays.  A count table takes the read counts as a list, which
intset._ints and min check in Python (an array of counts, as a walk
gives, numpy checks).  A box check reads no slot: the shape at M, the
low fringe, [c, M - d] and M minus the high fringe, is packed at the
product's slots as one integer, 2^(w * n) per fringe member n and the
repunit (2^(w * L) - 1) / (2^w - 1) times 2^(w * c) for a middle of L
slots, and a point fits exactly when its flags equal it, one integer
comparison (_packed_fits).  A fringe member outside [0, M] fails the
point, as does a nonempty middle with a negative cut, as in
_arrays._shape_fits; an empty middle, c + d > M, adds nothing.

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
structure search's certificate takes two folds near h, not h kernel
steps, for each long row they prove; an unproven long row is packed,
and the certificate runs in a row scope (below), so it is stepped on
from the highest packed state the scope keeps below it at its slot
width.  So [[0,1,2,3]] at t = 32768, whose rows up to h_t = 607
are all unproven, takes 799 steps for its 16 rows, where rebuilding
each from row 0 took 8,448 (6.4-7.3 against 33-40 ms, 8 fresh
processes each on a 2-vCPU VM, Python 3.11, numpy 2.4); a new slot
width starts again at row 0.

The margin box.  verify tests the t-fold set at every point of a box
[lo, lo + margin], (margin + 1)^q points, from the rows lo_i, ...,
lo_i + margin of each color (_streamed_box_fits).  On both routes
_box_counts forms each partial product once, last coordinate fastest,
and per point of the first q - 1 colors yields the last color's
margin + 1 points as one group.  A small box (the price above) takes
each color's packed rows from one _prefixes call, forms B's indicator
times the rows of the first q - 1 colors as Python integers, and yields
each group as a list of _Products, which _packed_fits tests point by
point; the whole box fits in 2^14 bits, so it holds all its partial
products at once, and a one-element B's indicator, 1, forms nothing
new.  Every other box is walked one color at a time, with rows from
_arrays._rows, through a chain of generators, one per color but the
last: the one of color i multiplies each partial product the chain
yields for the colors below it (B's indicator at the start; a
one-element B is the identity, so the chain starts from the first
color's rows) by each of its rows,
so each partial product is formed once, by one np.convolve: in all
(margin + 1)^2 + ... + (margin + 1)^q of them for a one-element B, and
margin + 1 more for a larger one, whose indicator is folded into each of
the first color's rows.  Per point of the first q - 1 colors, the last
color's margin + 1 products come as one group, zero-padded to its
longest row (zeros past a row's end are no members), and one comparison
tests the group.  Every product is clipped as before and stays under
the bound given by T and the length at the box's top corner, which
holds at every point below it.  The walk holds one group and one
partial product per generator, so its memory grows with the rows it
reads, not with the box, and it holds no reference cycle, so its rows
are freed as soon as the caller drops it.  A one-point box past the product's
crossover walks with q - 1 np.convolve calls for a one-element B, q for
a larger one.

The row scope.  Inside a _shared_rows() block _prefixes keeps every
packed state it steps to, by (A's elements, slot bytes) and then by h,
whatever table, certificate point or color asks: lemmas.run_all runs
its checks in one scope, and structure_constants each route's
certificate, so two colors with equal sets share their states.  A
state is every prefix's packed row h: the packed product reads its rows
from it, and _exact_row its rows and its handover state.  A request at
h takes the state kept at h, or steps on from a copy of the highest one
below; a state is a list of Python ints, and no step writes into a kept
one.  A state serves its own slot width only.  A range of rows (the
margin box) is stepped in one pass, which keeps the state at its top
row alone, not one per row.  No row array is kept: the numpy walk
unpacks its rows from the kept states, or proves them (_capped_rows),
at each request.  Outside a scope nothing is kept, so no state outlives
the call that stepped to it.

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
by (target, size) then puts the wanted t first.  All targets are listed
in one pass, each level carrying its rows' multiplicities so far; every
partial row completes to at least one partition, so no level holds more
rows than the partitions the router counted.

The DP costs about (top + 1) * len(parts) * t cells of Python steps, and
the enumeration about the partitions it lists, each at most once per
level, plus a dozen numpy calls per level.  Cells alone cannot choose:
each added small part multiplies the partitions about sixfold but the
cells barely move, while two large parts give few partitions of a long
table.  So the DP runs at once on at most _DP_CELLS = 2^13 cells; past
it, the suffix counts the enumeration needs anyway are built, clipped
just past cells / _CELLS_PER_PARTITION, and the DP runs only where they
list more than one partition per _CELLS_PER_PARTITION = 8 cells.  A
clipped count always fails that test, so the enumeration runs only on
exact counts and never holds more than cells / 8 rows, within the cells
the DP would have spent.  Measured by tools/loads_table.py, which names
each row's request, on a 2-vCPU VM (Python 3.11, numpy 2.4), best of 2
sets of 5 runs, in ms, with the route the rule takes:

    parts                      t   top      cells      listed      DP   listing  rule
    {5,5,8,11}                 2    33        272          90   0.033     0.099  DP
    {1,2,3,4,5,200}            2   201      2,424  27,663,350   0.402         -  DP
    {1,1,3,5,7,8,10,15,70}    12    75      8,208   1,831,045   0.682     762.9  DP
    {13,38,39}                 5   638      9,585       2,379   0.493     0.394  DP
    {35,58,60}                 4 1,137     13,656       1,314   0.733     0.289  listing
    {16,37}                    5 2,944     29,450       1,535   1.663     0.224  listing
    {23,40}                    5 4,577     45,780       2,345   2.752     0.318  listing
    {195,...,200}              2 8,001     96,024   9,366,689   8.875         -  DP
    {3,4}                    256 3,069  1,571,840       1,792  29.807     0.161  listing

A dash marks a listing not timed: it would hold 27.7 or 9.4 million
partitions at once (the third row's 1.8 million peaked at 470 MB).

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
import sys
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

from .errors import DomainError, EmptySetError, NotNormalizedError
from .intset import FiniteSet, HVec, SetTuple, _int, _ints, _require_int, _require_length

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

# _fewest_loads runs the t-best DP, without counting partitions, on at most
# this many cells, (top + 1) * len(parts) * t; past it, only where the
# enumeration would list more than one partition per _CELLS_PER_PARTITION
# cells: the measured crossovers (see the module docstring)
_DP_CELLS = 1 << 13
_CELLS_PER_PARTITION = 8

# _box_counts multiplies a one-point box's packed rows as Python integers
# while the product's length times its slot bits is at most this, the
# measured crossover (see the module docstring)
_PRODUCT_BITS = 1 << 14

# _limit_side's table passes cost len(parts) * (length + _PART_CELLS)
# cells each, and its residue walk _STEP_CELLS cells per step, of
# ((len(parts) - 1) * t + 1) * p steps; passes run while their sum fits
# the walk's cost, the measured crossover (see the module docstring)
_STEP_CELLS = 150
_PART_CELLS = 2300

# inside a _shared_rows() scope, the packed states _prefixes stepped to,
# by (elements, slot bytes) and then by row; None outside one
_ROWS: contextvars.ContextVar[dict | None] = contextvars.ContextVar("_ROWS", default=None)


@dataclass(frozen=True)
class CountTable:
    """Dense table of counts over the contiguous range starting at offset.

    counts[i] is the count of n = offset + i.  Entries outside the table
    are zero.  With cap set, every entry is min(true count, cap), so an
    entry equal to cap means the true count is at least cap.

    A table is built where counts are returned or compared.  Inside the
    library, t-fold members are read by _tfold, which builds no table;
    support and support_at_least read a table's members at the public
    boundary.
    """

    offset: int
    counts: tuple[int, ...]
    cap: int | None = None

    def __post_init__(self):
        cap = None if self.cap is None else _int(self.cap)
        if cap is not None and cap < 1:
            raise ValueError("cap must be a positive integer")
        counts, most = self.counts, None
        if isinstance(counts, (list, tuple)):
            counts = _ints(counts)
            least = min(counts, default=0)
        else:
            # an array, as a box walk or a partition fold gives: numpy reads
            # its least value, and its largest where there is a cap
            from ._arrays import _int_values

            counts, least, most = _int_values(counts, cap)
        if least < 0:
            raise ValueError("counts must be nonnegative")
        if cap is not None and (max(counts, default=0) if most is None else most) > cap:
            raise ValueError("counts exceed the declared cap")
        object.__setattr__(self, "counts", counts)
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
        return self.support_at_least(1)

    def support_at_least(self, t: int) -> FiniteSet:
        _require_int(t, "threshold", 1)
        if self.cap is not None and t > self.cap:
            raise DomainError("threshold exceeds the table cap")
        return FiniteSet(tuple(self.offset + i for i, c in enumerate(self.counts) if c >= t))

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
            if not isinstance(obj["counts"], list):
                raise TypeError("counts must be a list")
            counts = tuple(_int(c, decimal=True) for c in obj["counts"])
            return cls(offset=obj["offset"], counts=counts, cap=obj.get("cap"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed count table: {exc}") from exc


def _slot_size(bound: int) -> int:
    """Bytes per slot of a packed row whose every entry and partial sum is
    at most bound >= 1: its bit length rounded up to 1, 2, 4 or 8 bytes,
    past 8 bytes to whole bytes."""
    size = -(-bound.bit_length() // 8)
    return 1 << (size - 1).bit_length() if size <= 8 else size


def _prefixes(elements: tuple[int, ...], size: int, hs: range) -> tuple[list[int], list[int]]:
    """(rows, state): the packed rows hs of the multiset DP over elements,
    and the state at the top row h = hs[-1], the packed rows f(j, h, .) of
    every element prefix j, entry n in slot n of size bytes (see the
    module docstring); the module's one stepping loop.  elements must
    start at 0, and every entry and partial sum up to row h must fit a
    slot; every row of {0} is 1, at no step.  Inside a _shared_rows()
    scope the steps resume from a copy of the highest state kept for
    (elements, size) at or below hs[0], and the state at h is kept;
    outside one they start at row 0 and nothing is kept.  Callers must not
    write to the state."""
    if len(elements) == 1:
        return [1] * len(hs), [1]
    lo, h = hs[0], hs[-1]
    shared = _ROWS.get()
    kept = {} if shared is None else shared.setdefault((elements, size), {})
    if lo == h and h in kept:
        return [kept[h][-1]], kept[h]
    start = max((m for m in kept if m <= lo), default=0)
    prefix = list(kept[start]) if start else [1] * len(elements)
    shifts = [8 * size * a for a in elements[1:]]
    rows = [prefix[-1]] if start == lo else []
    for m in range(start + 1, h + 1):
        below = 1
        for j, shift in enumerate(shifts, 1):
            below = prefix[j] = below + (prefix[j] << shift)
        if m >= lo:
            rows.append(prefix[-1])
    kept[h] = prefix
    return rows, prefix


def _slots(value: int, length: int, size: int) -> array | list[int]:
    """The first length slots of size bytes of a packed integer, the one
    slot reader: unsigned integers in an array.array for slots of 1, 2, 4
    or 8 bytes (type codes B, H, I and Q), else Python ints in a list."""
    raw = value.to_bytes(length * size, "little")
    if size > 8:
        return [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]
    slots = array("BHIQ"[size.bit_length() - 1], raw)
    if sys.byteorder == "big":
        slots.byteswap()
    return slots


class _Product(NamedTuple):
    """A one-point count as one packed product (see the module docstring):
    slot n of size bytes holds the count at min(B) + n, for n below
    length, and every count is below 2^(8 * size); clip is the cap where
    it is below the exact total, else None."""

    value: int
    length: int
    size: int
    clip: int | None

    def flags(self, t: int) -> int:
        """A packed integer at the same slots, 1 where the count is at
        least t >= 1 and 0 elsewhere: adding 2^w - t to a slot of w bits
        carries out of it exactly where the count is at least t, so the
        even and the odd slots each take one addition, with their carries
        landing in the empty slots between them."""
        w = 8 * self.size
        if t >> w:
            return 0  # t >= 2^w: no slot can reach it
        # 1 in slots 0, 2, 4, ..., at least up to length slots, doubled
        # from slot 0 (past length every slot is 0, and 0 + 2^w - t
        # carries nowhere)
        ones, pairs = 1, 1
        while pairs < (self.length + 1) // 2:
            ones, pairs = ones | ones << 2 * w * pairs, 2 * pairs
        even, add, carry = ones * ((1 << w) - 1), ones * ((1 << w) - t), ones << w
        low = ((self.value & even) + add) & carry
        high = (((self.value >> w) & even) + add) & carry
        return (low >> w) | high

    def marks(self, t: int) -> array:
        """Per slot, 1 where the count is at least t >= 1, else 0."""
        return _slots(self.flags(t), self.length, self.size)

    def counts(self) -> array:
        """The counts, clipped at clip unless it is None: the flags of the
        slots at or above clip, times 2^w - 1, mask those slots, which are
        then set to clip."""
        value = self.value
        if self.clip is not None:
            flags = self.flags(self.clip)
            value += flags * self.clip - (value & flags * ((1 << 8 * self.size) - 1))
        return _slots(value, self.length, self.size)


def _box_counts(
    sets: Sequence[FiniteSet], lo: Sequence[int], width: int, B: FiniteSet, cap: int | None
) -> Iterator:
    """The counts of h.A + B, clipped at cap unless it is None, at every
    point h of the box [lo, lo + width - 1], per point of the first q - 1
    colors one group of the last color's width points.  The exact total T
    = |B| * prod_i C(|A_i| + h_i - 1, h_i) and the length, both at the
    box's top corner and computed once, bound every count of the box; a
    cap at or above T clips nothing.

    A box whose T is below 2^62, and whose products, at slots wide enough
    for T, hold at most _PRODUCT_BITS bits in all, the length times the
    slot bits per point, is multiplied as Python integers: each group is a
    list of _Products, B's packed indicator times one packed row per color
    (see the module docstring), and each partial product of the first
    q - 1 colors is formed once.  Every other box is walked one color at a
    time, last coordinate fastest (_arrays._walk), each color's rows lo_i,
    ..., lo_i + width - 1 taken from _arrays._rows at cap; each group is
    2-D, the last color's rows times that point's product, zero-padded to
    the longest, at the dtype of the bound on every intermediate value."""
    base = B.elements[0]
    total, length = len(B.elements), B.elements[-1] - base + 1
    for A, c in zip(sets, lo):
        h = c + width - 1
        total *= math.comb(len(A.elements) + h - 1, h)
        length += h * A.elements[-1]
    clip = cap if cap is not None and cap < total else None
    size = _slot_size(total)
    if total < 1 << 62 and width ** len(sets) * length * 8 * size <= _PRODUCT_BITS:
        # every coefficient is a count, at most T < 2^(8 * size), so no
        # slot carries
        indicator = 0
        for b in B.elements:
            indicator += 1 << 8 * size * (b - base)
        partials = [indicator]
        rows = []
        for A, c in zip(sets, lo):
            rows.append(_prefixes(A.elements, size, range(c, c + width))[0])
        for head in rows[:-1]:
            partials = [acc * row for acc in partials for row in head]
        for acc in partials:
            yield [_Product(acc * row, length, size, clip) for row in rows[-1]]
        return
    from ._arrays import _walk

    bound = total if clip is None else min(total, max(2 * clip, length * clip * clip))
    yield from _walk(sets, lo, width, B, cap, clip, bound)


class _shared_rows:
    """A row scope: within it _prefixes keeps each packed state it steps
    to and resumes from it (see the module docstring); all are dropped
    when the scope ends."""

    def __enter__(self) -> None:
        self._token = _ROWS.set({})

    def __exit__(self, *exc) -> None:
        _ROWS.reset(self._token)


def _table(sets: Sequence[FiniteSet], hs: Sequence[int], B: FiniteSet, cap: int | None) -> CountTable:
    """The table of sum_i (hs_i-multiset of sets_i) + one element of B over
    [min(B), sum_i hs_i * max(sets_i) + max(B)], the one-point box at hs,
    below the public entries' checks: every set must be nonempty with
    minimum 0, every hs_i a nonnegative integer, B nonempty and cap None
    or a positive integer."""
    counts = next(_box_counts(sets, hs, 1, B, cap))[0]
    counts = counts.counts().tolist() if isinstance(counts, _Product) else counts
    return CountTable(offset=B.elements[0], counts=counts, cap=cap)


def _marks(counts, t: int):
    """Per point of a group that _box_counts yields, a row of member
    marks, 1 where the count is at least t >= 1 and 0 elsewhere: an
    array.array per _Product of a list, a numpy boolean row of a walk's
    group.  Either row reads back as a Python list (tolist), and its bytes
    (tobytes) hold one byte 1 per member and no other."""
    return [product.marks(t) for product in counts] if isinstance(counts, list) else counts >= t


def _tfold(sets: Sequence[FiniteSet], hs: Sequence[int], B: FiniteSet, t: int) -> tuple[int, ...]:
    """The integers with at least t >= 1 representations in hs.A + B, in
    increasing order, below the public entries' checks (see _table): the
    one reader of t-fold members, which tfold_set and the lemma checks
    share.  It builds no CountTable and no FiniteSet; _tfold_size counts
    the same marks without building the tuple."""
    marks = _marks(next(_box_counts(sets, hs, 1, B, t)), t)[0].tolist()
    return tuple(compress(range(B.elements[0], B.elements[0] + len(marks)), marks))


def multiset_count_table(A: FiniteSet, h: int, cap: int | None = None) -> CountTable:
    """Counts of non-decreasing h-tuples from A by their sum, over [0, h*max(A)]."""
    _require_int(cap, "cap", 1, optional=True)
    if not A:
        raise EmptySetError("cannot count over an empty set")
    if A.min != 0:
        raise NotNormalizedError("multiset counting requires min(A) = 0")
    _require_int(h, "repetition count", 0)
    return _table([A], [h], _ZERO, cap)


def _colors(st: SetTuple, h: HVec) -> tuple[tuple[FiniteSet, ...], tuple[int, ...]]:
    """The sets and the exponents of a chromatic count, checked."""
    _require_length(st, h)
    if not st.normalized:
        raise NotNormalizedError("chromatic counting requires a normalized tuple")
    return st.sets, h.coords


def chromatic_count_table(st: SetTuple, h: HVec, cap: int | None = None) -> CountTable:
    """Counts of colored representations: one non-decreasing h_i-tuple from
    each A_i, keyed by the total sum, over [0, sum_i h_i * max(A_i)].

    A colored representation is determined by its per-color multisets, so
    the table is the convolution of the per-color tables.
    """
    _require_int(cap, "cap", 1, optional=True)
    return _table(*_colors(st, h), _ZERO, cap)


def tfold_set(st: SetTuple, h: HVec, t: int) -> FiniteSet:
    """The set of integers with at least t colored representations."""
    _require_int(t, "t", 1)
    return FiniteSet(_tfold(*_colors(st, h), _ZERO, t))


def _packed_fits(dec, flags: int, end: int, size: int) -> bool:
    """Whether the packed member flags of one point, 1 in the slot of
    size bytes of each member and 0 elsewhere (_Product.flags), mark
    exactly the shape dec at M = end (see _arrays._shape_fits), by one
    comparison with the shape packed at the same slots.  A member of the
    shape outside [0, M] fails, as does a nonempty middle with a negative
    cut; an empty one, cut_low + cut_high > M, has no member."""
    low, cut_low, high, cut_high = dec
    w = 8 * size
    shape = 0
    for n in (*low, *(end - x for x in high)):
        if not 0 <= n <= end:
            return False
        shape |= 1 << w * n
    if cut_low + cut_high <= end:
        if min(cut_low, cut_high) < 0:
            return False
        # 1 in each slot of [cut_low, end - cut_high]: a repunit in base 2^w
        ones = ((1 << w * (end - cut_low - cut_high + 1)) - 1) // ((1 << w) - 1)
        shape |= ones << w * cut_low
    return flags == shape


def _streamed_box_fits(
    st: SetTuple, B: FiniteSet, t: int, dec, lo: tuple[int, ...], margin: int
) -> list[bool]:
    """Whether the t-fold set of h.A + B is the shape dec (see
    _arrays._shape_fits) at each point h of the box [lo, lo + margin],
    last coordinate varying fastest.  B must have minimum 0.

    _box_counts counts the box, each color's margin + 1 rows computed
    once at the top row; every row of {0} is 1, whatever lo_i is, and
    costs no step.  Each point of a group of _Products is tested by one
    integer comparison of its flags (_packed_fits), and each group of the
    numpy walk by one comparison (_arrays._shape_fits), so a box that the
    product route takes never imports numpy."""
    ends = [B.max]
    for a, c in zip(st.maxima, lo):
        ends = [m + a * (c + d) for m in ends for d in range(margin + 1)]
    fits = []
    groups = _box_counts(st.sets, lo, margin + 1, B, t)
    for at, counts in zip(range(0, len(ends), margin + 1), groups):
        group = ends[at : at + margin + 1]
        if isinstance(counts, list):
            fits += [_packed_fits(dec, p.flags(t), end, p.size) for p, end in zip(counts, group)]
        else:
            from ._arrays import _shape_fits

            fits += _shape_fits(dec, _marks(counts, t), group)
    return fits


def partition_count_table(parts: FiniteSet, n_top: int, cap: int) -> CountTable:
    """Counts of unbounded multisets of parts by their sum, over [0, n_top].

    The empty multiset represents 0, so the count at 0 is 1.  Parts must
    all be at least 1; callers strip 0 from their alphabets first.
    """
    _require_int(cap, "cap", 1)
    _require_int(n_top, "table end", 0)
    if parts and parts.min < 1:
        raise DomainError("partition parts must all be at least 1")
    from ._arrays import _unbounded_rows

    for counts in _unbounded_rows([1] + [0] * n_top, parts.elements, cap):
        pass
    return CountTable(offset=0, counts=counts, cap=cap)


def _limit_side(
    parts: Sequence[int], shifts: Sequence[int], t: int, bound: int
) -> tuple[tuple[int, ...], int]:
    """(fringe, cut) of {n : Q(n) >= t}, Q(n) counting the pairs (b, partition
    of n - b) with b in shifts and parts counted with repeats.  With p the
    smallest part, Q(n) >= Q(n - p), so the cut is the start of the first
    run of p counts >= t, and the fringe the smaller n with Q(n) >= t.
    Every n at or above bound must have Q(n) >= t; the table
    (_arrays._table_side) doubles up to there, while its passes fit the
    residue walk's estimated cost (_STEP_CELLS, _PART_CELLS), and the walk
    (_residue_side) answers past it."""
    run = min(parts)
    budget = _STEP_CELLS * ((len(parts) - 1) * t + 1) * run
    length = min(256, bound + run)
    while True:
        budget -= len(parts) * (length + _PART_CELLS)
        if budget < 0:
            return _residue_side(parts, shifts, t)
        from ._arrays import _table_side

        side = _table_side(parts, shifts, t, length)
        if side is not None:
            return side
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



def _fewest_loads(
    parts: Sequence[int], colors: Sequence[int], q: int, targets: Sequence[int], t: int
) -> list[int]:
    """Per color, the most parts of that color in any of the t fewest-part
    partitions of any target, ties in lexicographic order of the index
    tuples; colors[j] is the color of parts[j].  The t-best DP on at most
    _DP_CELLS cells, (max(targets) + 1) * len(parts) * t, or where the
    enumeration would list more than one partition per
    _CELLS_PER_PARTITION cells; else the enumeration of
    _arrays._fewest_partitions.  The suffix counts are clipped just past what the rule admits, so every
    admitted count is exact (see the module docstring)."""
    top = max(targets, default=0)
    cells = (top + 1) * len(parts) * t
    if cells > _DP_CELLS:
        from ._arrays import _enumerated_loads, _suffix_counts

        suffix = _suffix_counts(parts, top, cells // max(_CELLS_PER_PARTITION, 1) + 1)
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



def inhomogeneous_count_table(
    st: SetTuple, h: HVec, B: FiniteSet, cap: int | None = None
) -> CountTable:
    """Counts of the translated form: colored representation plus one
    element of B, over [min(B), sum_i h_i * max(A_i) + max(B)]."""
    _require_int(cap, "cap", 1, optional=True)
    if not B:
        raise EmptySetError("translation set B must be nonempty")
    return _table(*_colors(st, h), B, cap)


def _tfold_size(st: SetTuple, B: FiniteSet, t: int, h: tuple[int, ...]) -> int:
    """Number of integers with at least t representations in h.A + B at the
    coordinates h, from one one-point _box_counts count."""
    return _marks(next(_box_counts(st.sets, h, 1, B, t)), t)[0].tobytes().count(1)
