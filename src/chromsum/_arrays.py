"""The numpy half of repcount: every function that holds counts in
arrays, and the one import of numpy in the package.

repcount imports this module inside the functions whose route needs
arrays (a box walk, a row kernel, a partition fold, the listing), so a
process whose counts are all short packed products never loads
numpy.  The module docstring of repcount describes every route here.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from itertools import islice

import numpy as np

from .intset import FiniteSet, _ints
from .repcount import _prefixes, _slot_size, _slots, _too_few

# _exact_row hands an int64 row over to the numpy kernel before it passes
# this many entries, the measured crossover (see repcount's docstring)
_HANDOVER = 1 << 11

# _rows packs a capped row whose top row costs at most this many
# cells, |A| * h * (h * max(A) + 1), the measured crossover (see
# repcount's docstring)
_PACKED_CELLS = 1 << 15


def _int_values(counts, cap: int | None) -> tuple[tuple[int, ...], int, int | None]:
    """(values, least, largest) of a count table's counts given as an
    array, the values as Python ints (least 0 where there are none), and
    largest None unless cap is set; an array of anything but integers
    raises TypeError (intset._ints)."""
    if not (isinstance(counts, np.ndarray) and counts.ndim == 1 and counts.dtype.kind in "iu"):
        # Python ints, or an object array of them; a float or bool raises
        counts = np.array(_ints(counts), dtype=object)
    if not counts.size:
        return (), 0, None
    return tuple(counts.tolist()), int(counts.min()), None if cap is None else int(counts.max())


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


def _exact_row(
    elements: tuple[int, ...], hs: range, bound: int, cap: int | None = None
) -> list[np.ndarray]:
    """Rows hs of _multiset_rows(elements, _dtype(bound), cap), bound being
    C(len(elements) + hs[-1] - 1, hs[-1]), from _prefixes at the slots of
    bound (see repcount's docstring); elements must start at 0 and hold a
    nonzero element.  Where cap is below bound, each row is clipped at it
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
    tops, state = _prefixes(elements, size, range(min(hs[0], stop), stop + 1))
    packed = [(value, m * top + 1) for m, value in zip(range(hs[0], stop + 1), tops)]
    if stop < h:
        packed += [(state[j], stop * a + 1) for j, a in enumerate(elements)]
    rows = []
    for value, length in packed:
        # unsigned slots of at most 8 bytes, else Python ints
        row = np.asarray(_slots(value, length, size), dtype=None if size <= 8 else object)
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


def _rows(elements: tuple[int, ...], hs: range, cap: int | None) -> list[np.ndarray]:
    """Rows hs of the multiset DP over elements, clipped at cap unless it is
    None, the one source of row arrays: every row of {0} is [1]; rows whose
    cap is below the color's bound C(|A| + h - 1, h) at the top row h =
    hs[-1] come from _capped_rows where that row costs more than
    _PACKED_CELLS cells and it proves them; every other row is packed
    (_exact_row), and clipped once where the cap is below the bound.
    elements must start at 0."""
    if not elements[-1]:
        return [np.ones(1, dtype=np.int64)] * len(hs)
    h = hs[-1]
    bound = math.comb(len(elements) + h - 1, h)
    if cap is not None and cap < bound and len(elements) * h * (h * elements[-1] + 1) > _PACKED_CELLS:
        rows = _capped_rows(elements, hs, cap)
        if rows is not None:
            return rows
    return _exact_row(elements, hs, bound, cap)


def _capped_rows(elements: tuple[int, ...], hs: range, cap: int) -> list[np.ndarray] | None:
    """Rows hs of the multiset DP clipped at cap, each read off one
    partition fold per end at the top row hs[-1], or None where some
    row's middle is not proven to saturate (see repcount's docstring);
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


def _walk(
    sets: Sequence[FiniteSet], lo: Sequence[int], width: int, B: FiniteSet,
    cap: int | None, clip: int | None, bound: int,
) -> Iterator[np.ndarray]:
    """repcount._box_counts's walk of the box [lo, lo + width - 1]: per
    point of the first q - 1 colors, one 2-D group, the last color's rows
    times that point's partial product, zero-padded to the longest, each
    color's rows taken from _rows at cap.  Every count is clipped at clip
    unless it is None, and every intermediate value is at most bound,
    which picks the dtype: _dtype's, or float64 where that is int64 and
    bound is below 2^53 (see repcount's docstring); every row is folded as
    it is.  A one-point box's float counts come back as int64."""
    dtype = _dtype(bound)
    if dtype is np.int64 and bound < 1 << 53:
        dtype = np.float64
    *heads, rows = [_rows(A.elements, range(c, c + width), cap) for A, c in zip(sets, lo)]

    def times(acc, row, clip):
        if acc is None:  # a one-element B is the identity
            return row.astype(dtype, copy=False)
        return _fold(acc, row, clip)

    def extend(partials, head):
        # each partial product times each row of one more color, each
        # formed once
        for acc in partials:
            for row in head:
                yield times(acc, row, clip)

    indicator = None  # a one-element B is the identity
    base = B.elements[0]
    if len(B) > 1:
        indicator = np.zeros(B.elements[-1] - base + 1, dtype=dtype)
        indicator[[b - base for b in B.elements]] = 1
    # B times one row of each color but the last, last coordinate fastest
    partials = iter([indicator])
    for head in heads:
        partials = extend(partials, head)
    for acc in partials:
        if width == 1:  # a lone product needs no copy into a group
            out = times(acc, rows[0], clip)
            yield (out.astype(np.int64) if dtype is np.float64 else out)[None]
        else:
            # a group is clipped once, as a whole
            longest = len(rows[-1]) + (0 if acc is None else len(acc) - 1)
            group = np.zeros((len(rows), longest), dtype=dtype)
            for r, row in enumerate(rows):
                out = times(acc, row, None)
                group[r, : len(out)] = out
            if clip is not None:
                np.minimum(group, clip, out=group)
            yield group


def _row_flags(group: np.ndarray, t: int) -> list[int]:
    """Per row of a walk's 2-D group, the packed member flags at 1-byte
    slots: byte n is 1 where the count at column n is at least t, else 0
    (a numpy bool is one byte holding 0 or 1)."""
    return [int.from_bytes(row.tobytes(), "little") for row in group >= t]


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


def _table_side(
    parts: Sequence[int], shifts: Sequence[int], t: int, length: int
) -> tuple[tuple[int, ...], int] | None:
    """One table pass of repcount._limit_side: (fringe, cut) from the
    partition fold of Q over [0, length), or None where the table holds
    no run of min(parts) counts >= t."""
    run = min(parts)
    start = np.zeros(length, dtype=np.int64)
    start[[b for b in shifts if b < length]] = 1
    for counts in _unbounded_rows(start, parts, t):
        pass
    ok = counts >= t
    # the n with Q(n) < t, between -1 and length: a gap of more than
    # run between two of them holds a run
    low = np.concatenate(([-1], np.flatnonzero(~ok), [length]))
    gaps = np.flatnonzero(np.diff(low) > run)
    if not gaps.size:
        return None
    cut = int(low[gaps[0]]) + 1
    return tuple(np.flatnonzero(ok[:cut]).tolist()), cut


def _suffix_counts(parts: Sequence[int], top: int, cap: int) -> list[np.ndarray]:
    """Row j counts the partitions of 0..top into parts[j:], clipped at
    cap >= 1; the last row counts only the empty partition of 0."""
    start = np.zeros(top + 1, dtype=np.int64)
    start[0] = 1
    return list(_unbounded_rows(start, reversed(parts), cap))[::-1]


def _fewest_partitions(
    parts: Sequence[int], targets: Sequence[int], t: int, suffix: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(owner, mult): for each target, the t multisets of indices into the
    increasing parts whose parts sum to it, with fewest parts, ties in
    lexicographic order of their non-decreasing index tuples (all of them
    if fewer).  Row k of mult holds the multiplicity of every index and
    owner[k] the position in targets of its target; the rows run in order
    of target position, then in the order above.

    suffix is _suffix_counts(parts, max(targets), cap) at any cap: only
    whether row j reaches r is read.  All targets are listed in one pass.
    Level j extends each row by the multiplicities of parts[j] whose
    remainder row j + 1 can still finish, in descending order (the last
    part takes what is left), and a stable sort by (target, size) puts
    the wanted t first; see repcount's docstring."""
    width = max(targets, default=0) + 1
    # one row per target that has a partition
    owner = np.flatnonzero(suffix[0][list(targets)])
    rem = np.asarray(targets, dtype=np.int64)[owner]
    size = np.zeros(len(rem), dtype=np.int64)
    mult = np.zeros((len(rem), len(parts)), dtype=np.int64)
    for j, a in enumerate(parts):
        if j == len(parts) - 1:
            m = rem // a
        else:
            # the remainders parts[j + 1:] reach, as keys ordered by
            # residue class mod a, then by value: the remainders a row r
            # can leave are the keys of its class up to r, one slice
            ys = np.flatnonzero(suffix[j + 1])
            keys = np.sort(ys % a * width + ys)
            cls = rem % a * width
            lo = keys.searchsorted(cls)
            wide = keys.searchsorted(cls + rem, side="right") - lo
            parent = np.repeat(np.arange(len(rem)), wide)
            ys = keys[np.repeat(lo + wide - np.cumsum(wide), wide) + np.arange(len(parent))] % width
            m = (rem[parent] - ys) // a
            # take gathers narrow rows ~10 times as fast as mult[parent]
            rem, owner, size, mult = ys, owner[parent], size[parent], mult.take(parent, axis=0)
        mult[:, j] = m
        size += m
    order = np.lexsort((size, owner))
    ranked = owner[order]
    keep = order[np.arange(len(order)) - np.searchsorted(ranked, ranked) < t]
    return owner[keep], mult.take(keep, axis=0)


def _enumerated_loads(
    parts: Sequence[int],
    colors: Sequence[int],
    q: int,
    targets: Sequence[int],
    t: int,
    suffix: list[np.ndarray],
) -> list[int]:
    """repcount._fewest_loads from the partitions _fewest_partitions
    lists."""
    owner, mult = _fewest_partitions(parts, targets, t, suffix)
    short = np.flatnonzero(np.bincount(owner, minlength=len(targets)) < t)
    if short.size:
        raise _too_few(targets[short[0]], t)
    onehot = np.zeros((len(parts), q), dtype=np.int64)
    onehot[np.arange(len(parts)), list(colors)] = 1
    return (mult @ onehot).max(axis=0, initial=0).tolist()
