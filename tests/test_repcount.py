import gc
import itertools
from array import array
import math
import random
import weakref
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from chromsum import _arrays, repcount
from chromsum.errors import (
    DimensionError,
    DomainError,
    EmptySetError,
    NotNormalizedError,
)
from chromsum.intset import FiniteSet, HVec, make_set, make_tuple
from chromsum.oracle import enumeration_size, oracle_count_table
from chromsum.repcount import (
    CountTable,
    chromatic_count_table,
    inhomogeneous_count_table,
    multiset_count_table,
    partition_count_table,
    tfold_set,
)

from conftest import ROUTINGS, packed_steps, patch, random_oracle_instance, row_builds

normalized_set = st.lists(
    st.integers(min_value=1, max_value=9), min_size=1, max_size=4
).map(lambda xs: make_set([0] + xs))


def test_multiset_examples():
    assert multiset_count_table(make_set([0, 1, 2]), 2).counts == (1, 1, 2, 1, 1)
    assert multiset_count_table(make_set([0, 2, 3]), 2).counts == (1, 0, 1, 1, 1, 1, 1)
    assert multiset_count_table(make_set([0, 1]), 3).counts == (1, 1, 1, 1)


def test_multiset_h_zero():
    assert multiset_count_table(make_set([0, 3]), 0).counts == (1,)


def test_multiset_validation():
    # the one public entry that takes a bare set and h checks both itself
    with pytest.raises(EmptySetError):
        multiset_count_table(FiniteSet.empty(), 2)
    with pytest.raises(NotNormalizedError):
        multiset_count_table(make_set([1, 2]), 2)
    with pytest.raises(DomainError):
        multiset_count_table(make_set([0, 1]), -1)


_A013, _T013 = make_set([0, 1, 3]), make_tuple([[0, 1, 3]])


_T = "t must be a positive integer"
_H = "repetition count must be a nonnegative integer"
_CAP = "cap must be a positive integer or None"
_T013_TABLE = CountTable(offset=0, counts=(1, 1, 2), cap=2)


@pytest.mark.parametrize("call, args, message", [
    (tfold_set, (_T013, HVec((2,)), True), _T),
    (tfold_set, (_T013, HVec((2,)), 2.0), _T),
    (tfold_set, (_T013, HVec((2,)), 0), _T),
    (multiset_count_table, (_A013, True), _H),
    (multiset_count_table, (_A013, 2.0), _H),
    (multiset_count_table, (_A013, -1), _H),
    (multiset_count_table, (_A013, 4, True), _CAP),
    (multiset_count_table, (_A013, 4, 2.0), _CAP),
    (multiset_count_table, (_A013, 4, 0), _CAP),
    (chromatic_count_table, (_T013, HVec((2,)), True), _CAP),
    (chromatic_count_table, (_T013, HVec((2,)), 0), _CAP),
    (inhomogeneous_count_table, (_T013, HVec((2,)), make_set([0, 1]), True), _CAP),
    (inhomogeneous_count_table, (_T013, HVec((2,)), make_set([0, 1]), 0), _CAP),
    (partition_count_table, (make_set([2, 3]), 5, True), "cap must be a positive integer"),
    (partition_count_table, (make_set([2, 3]), 5, 3.0), "cap must be a positive integer"),
    (partition_count_table, (make_set([2, 3]), 5, 0), "cap must be a positive integer"),
    (partition_count_table, (make_set([2, 3]), 5.0, 3), "table end must be a nonnegative integer"),
    (partition_count_table, (make_set([2, 3]), -1, 3), "table end must be a nonnegative integer"),
    (_T013_TABLE.support_at_least, (True,), "threshold must be a positive integer"),
    (_T013_TABLE.support_at_least, (0,), "threshold must be a positive integer"),
    (_T013_TABLE.support_at_least, (3,), "threshold exceeds the table cap"),
], ids=lambda x: getattr(x, "__name__", None))
def test_scalar_parameters_refuse_bools_and_floats(monkeypatch, call, args, message):
    # True is not read as 1 nor 2.0 as 2: the typed error comes before
    # any row or fold is computed
    def work(*_):
        raise AssertionError("counted before refusing")

    for name in ("_box_counts", "_unbounded_rows", "_exact_row", "_multiset_rows"):
        patch(monkeypatch, name, work)
    with pytest.raises(DomainError) as refused:
        call(*args)
    assert str(refused.value) == message


@pytest.mark.parametrize("bad", [None, [1, 2], "{}"])
def test_count_table_from_json_refuses_a_non_object(bad):
    with pytest.raises(ValueError, match="^expected a count table object$"):
        CountTable.from_json(bad)


@given(normalized_set, st.integers(min_value=0, max_value=6))
@example(make_set(range(40)), 40)  # total above 2^64: object dtype
def test_multiset_mass(A, h):
    table = multiset_count_table(A, h)
    assert table.total() == math.comb(len(A) + h - 1, h)


@given(normalized_set, st.integers(min_value=0, max_value=6),
       st.sampled_from([1, 2, 3, 2**63, 2**70]))
def test_multiset_cap_is_clipped_exact(A, h, cap):
    exact = multiset_count_table(A, h)
    capped = multiset_count_table(A, h, cap=cap)
    assert capped.cap == cap
    assert capped.counts == tuple(min(x, cap) for x in exact.counts)


@given(normalized_set, st.integers(min_value=0, max_value=8),
       st.sampled_from([None, 1, 2, 3, 5, 1 << 40]),
       st.sampled_from([np.int64, object]))
def test_capped_rows_are_clipped_exact(A, h, cap, dtype):
    rows = _arrays._multiset_rows(A.elements, dtype, cap)
    for m in range(h + 1):
        row = next(rows)
        assert row.dtype == np.dtype(dtype)
        exact = oracle_count_table(make_tuple([A.elements]), HVec((m,))).counts
        assert [int(c) for c in row] == [c if cap is None else min(c, cap) for c in exact]


@pytest.mark.parametrize("cap", [127, 128, 32767, 32768])
def test_narrow_capped_rows_are_clipped_exact(cap):
    # caps at the edges of the uint8, uint16 and uint32 ranges; the counts
    # of 20-multisets of {0..9} peak near 185,000, above every 2*cap.  The
    # one capped-row entry gives them packed, then proven or packed past
    # the crossover, all int64
    A = make_set(list(range(10)))
    for m in range(21):
        [row] = _arrays._rows(A.elements, range(m, m + 1), cap)
        assert row.dtype == np.int64
        exact = multiset_count_table(A, m).counts
        assert row.tolist() == [min(c, cap) for c in exact]
    assert row.max() == cap


def _streamed_row(elements, h, cap):
    return next(islice(_arrays._multiset_rows(elements, np.int64, cap), h, None))


@given(normalized_set, st.sampled_from([1, 2, 3]), st.integers(min_value=0, max_value=60),
       st.sampled_from([1, 2, 8, 127, 128, 32767, 32768, 2**31]))
@example(make_set([0, 1, 3, 4]), 3, 40, 8)  # a saturated middle, g = 3
@example(make_set([0, 1, 2, 3]), 1, 40, 32768)  # a middle left unproven
@example(make_set([0, 3, 5, 8]), 1, 2, 1)  # 7 = 8 - 1: no bound below 0
def test_capped_row_is_the_streamed_row(A, g, h, cap):
    # a proven row from the two partition folds is the capped kernel's
    # row h, for sets whose nonzero parts share a factor g too
    elements = tuple(g * a for a in A.elements)
    rows = _arrays._capped_rows(elements, range(h, h + 1), cap)
    if rows is not None:
        assert rows[0].tolist() == _streamed_row(elements, h, cap).tolist()


def _least_h(k, bits):
    """The least h at which C(k + h - 1, h), the largest count of
    h-multisets of a k-set, reaches 2^bits."""
    return next(h for h in itertools.count() if math.comb(k + h - 1, h) >> bits)


def _edge_examples(test):
    # h just below and at each slot-width and dtype edge of a k-set's
    # bound (1-, 2-, 4- and 8-byte slots, the int64 and object tiers,
    # slots wider than 8 bytes); rows of (0, 1) and of (0, 7, 9) * 2,
    # before, at and past the handover; a {0} color and h = 0
    edges = ((2, 8), (3, 16), (6, 32), (20, 62), (20, 64))
    cases = [(make_set(range(k)), 1, h) for k, bits in edges
             for h in (_least_h(k, bits) - 1, _least_h(k, bits))]
    cases += [(make_set([0, 1]), 1, h) for h in (2046, 2047, 2048)]
    cases += [(make_set([0, 7, 9]), 2, h) for h in (112, 113, 114, 300)]
    cases += [(make_set([0]), 1, 7), (make_set([0, 3]), 3, 0), (make_set(range(40)), 1, 40)]
    for case in cases:
        test = example(*case)(test)
    return test


@_edge_examples
@given(normalized_set, st.sampled_from([1, 2, 3]), st.integers(min_value=0, max_value=80))
def test_exact_row_is_the_streamed_row(A, g, h):
    # the packed kernel's rows are the numpy kernel's, all at the dtype of
    # the top row's bound, so for sets scaled by g too; the rows below the
    # top one come packed or streamed on either side of the handover.  The
    # exact rows come through the one row source, which answers {0} itself
    elements = tuple(g * a for a in A.elements)
    bound = math.comb(len(elements) + h - 1, h)
    dtype = _arrays._dtype(bound)
    hs = range(max(h - 2, 0), h + 1)
    rows = _arrays._rows(elements, hs, None)
    assert [row.dtype for row in rows] == [np.dtype(dtype)] * len(hs)
    stream = _arrays._multiset_rows(elements, dtype, None)
    assert [row.tolist() for row in rows] == [row.tolist() for row in islice(stream, hs[0], h + 1)]


@given(normalized_set, st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=30),
       st.data(), st.sampled_from([0, 1, 3]))
def test_resumed_state_is_the_state_from_row_0(A, m, d, data, wider):
    # inside a row scope, the packed state at h resumes from the one kept
    # at a row m < h, stepping h - m rows, and leaves the kept one as it
    # was; the rows of hs = [lo, h], m <= lo, and the state at h are those
    # stepped from row 0 outside a scope, at any slot width that fits
    elements, h = A.elements, m + d
    lo = data.draw(st.integers(min_value=m, max_value=h))
    size = repcount._slot_size(math.comb(len(elements) + h - 1, h)) + wider
    fresh = repcount._prefixes(elements, size, range(lo, h + 1))
    with pytest.MonkeyPatch.context() as mp:
        calls = packed_steps(mp)
        with repcount._shared_rows():
            _, kept = repcount._prefixes(elements, size, range(m, m + 1))
            before = list(kept)
            resumed = repcount._prefixes(elements, size, range(lo, h + 1))
            assert kept == before
            assert sorted(repcount._ROWS.get()[(elements, size)]) == [m, h]
    assert resumed == fresh
    assert [steps for *_, steps in calls] == [m, h - m]
    assert len(fresh[0]) == h - lo + 1 and fresh[0][-1] == fresh[1][-1]


def test_rows_of_zero_take_no_step():
    # every row of {0} is 1, even at h = 10^9, and no scope keeps it
    with repcount._shared_rows():
        assert repcount._prefixes((0,), 1, range(10**9, 10**9 + 2)) == ([1, 1], [1])
        assert repcount._ROWS.get() == {}


def _packed_top(elements):
    """The largest top row h whose capped rows _rows packs: the
    cells k * h * (h * max + 1) of a k-set are at most _PACKED_CELLS."""
    k, top = len(elements), elements[-1]
    return next(h for h in itertools.count() if k * (h + 1) * ((h + 1) * top + 1) > _arrays._PACKED_CELLS)


def _crossover_examples(test):
    # top rows just below and just above the crossover, with and without a
    # margin, for sets scaled by g; a color whose row passes the handover
    # while packed; a {0} color at h = 10^9
    for A, g, margin, cap in ((make_set([0, 1, 5, 9]), 1, 0, 3), (make_set([0, 2, 3]), 2, 3, 2),
                              (make_set([0, 1, 2, 3]), 3, 1, 32768)):
        top = _packed_top(tuple(g * a for a in A.elements))
        for h in (top - margin, top + 1 - margin):
            test = example(A, g, h, margin, cap)(test)
    test = example(make_set([0, 1, 2500]), 1, 1, 1, 2)(test)
    # an unproven row past the crossover whose exact bound needs object
    # slots, handed over at int64 by its cap
    test = example(make_set(range(30)), 1, 80, 0, 2**31)(test)
    return example(make_set([0]), 1, 10**9, 3, 5)(test)


@_crossover_examples
@given(normalized_set, st.sampled_from([1, 2, 3]), st.integers(min_value=0, max_value=60),
       st.integers(min_value=0, max_value=3), st.sampled_from([1, 2, 127, 128, 32767, 32768]))
def test_capped_block_is_the_streamed_rows(A, g, h, margin, cap):
    # rows h..h + margin of the one capped-row entry, proven, or packed
    # and clipped, are the capped kernel's rows, at the dtype that
    # _capped_rows gives the cap
    elements = tuple(g * a for a in A.elements)
    hs = range(h, h + margin + 1)
    rows = _arrays._rows(elements, hs, cap)
    dtype = _arrays._dtype(cap)
    stream = _arrays._multiset_rows(elements, dtype, cap)
    if elements == (0,):
        # every row of {0} is [1], so row 0 stands for row 10^9
        want = [next(stream)] * len(hs)
        assert [row.tolist() for row in islice(stream, 3)] == [[1]] * 3
    else:
        want = list(islice(stream, h, h + margin + 1))
    assert [row.dtype for row in rows] == [np.dtype(dtype)] * len(hs)
    assert [row.tolist() for row in rows] == [row.tolist() for row in want]


@pytest.mark.parametrize("elements", [(0, 1, 5, 9), (0, 4, 6), (0, 3, 7, 11, 19)])
def test_capped_block_packs_up_to_the_crossover(monkeypatch, elements):
    # at most _PACKED_CELLS cells at the top row are packed; one row more
    # goes to the two partition folds
    calls = []
    for name in ("_exact_row", "_capped_rows"):
        monkeypatch.setattr(_arrays, name, lambda *args, name=name, real=getattr(_arrays, name):
                            calls.append(name) or real(*args))
    top = _packed_top(elements)
    _arrays._rows(elements, range(top - 1, top + 1), 3)
    _arrays._rows(elements, range(top, top + 2), 3)
    assert calls == ["_exact_row", "_capped_rows"]


def test_capped_anchor_takes_the_partition_folds(monkeypatch):
    # the counts workload's capped anchor, {0,3,7,11,19} at h = 400 and
    # cap 2 (15.2 million cells), is read off the two partition folds
    calls, capped = [], _arrays._capped_rows
    monkeypatch.setattr(_arrays, "_capped_rows",
                        lambda *args: calls.append(args[1]) or capped(*args))
    monkeypatch.setattr(_arrays, "_exact_row", lambda *_: pytest.fail("packed a capped anchor row"))
    table = multiset_count_table(make_set([0, 3, 7, 11, 19]), 400, cap=2)
    assert calls == [range(400, 401)]
    assert table.counts == tuple(_streamed_row((0, 3, 7, 11, 19), 400, 2).tolist())


def test_capped_row_proves_saturation_or_returns_none():
    # {0,3,9,12} at h=40: the ends [0, 120] and [360, 480] from the
    # folds, every multiple of 3 between them proven to reach the cap,
    # and zeros off the multiples of 3
    [row] = _arrays._capped_rows((0, 3, 9, 12), range(40, 41), 8)
    assert row.tolist() == _streamed_row((0, 3, 9, 12), 40, 8).tolist()
    middle = row[120 + 3 : 360 : 3]
    assert middle.size and (middle == 8).all() and not row[1::3].any()
    # {0,1,2,3} at h=40: the middle bounds reach no count of 32768 near
    # the ends of the middle, so the row is left to the stream
    assert _arrays._capped_rows((0, 1, 2, 3), range(40, 41), 32768) is None
    rows = _arrays._rows((0,), range(10**9, 10**9 + 2), 5)
    assert [row.tolist() for row in rows] == [[1]] * 2


@pytest.mark.parametrize("cap", [1, 2, 5, 40, 1000])
def test_capped_table_on_a_color_with_a_common_factor(cap):
    # {0,2,4} has g = 2: its rows are 0 on every odd n, and the capped
    # table (rows from _capped_rows) is the clipped exact one (streamed)
    st = make_tuple([[0, 2, 4], [0, 3]])
    for h in (HVec((3, 2)), HVec((17, 5)), HVec((40, 1)), HVec((60, 30))):
        exact = chromatic_count_table(st, h).counts
        assert chromatic_count_table(st, h, cap=cap).counts == tuple(min(c, cap) for c in exact)


def test_float_fold_just_below_2_53_is_exact(monkeypatch):
    # the exact table of 9-multisets of {0..9} and 46-multisets of
    # {0..11} totals 0.996 * 2^53: _box_counts folds it at float64, its
    # counts come back as int64, and every count equals the same fold on
    # Python ints
    sets, h = [make_set(range(10)), make_set(range(12))], [9, 46]
    total = math.prod(math.comb(len(A) + hi - 1, hi) for A, hi in zip(sets, h))
    assert 2**52 < total < 2**53
    rows = [[_streamed_row(A.elements, hi, None)] for A, hi in zip(sets, h)]
    folds, fold = [], _arrays._fold
    monkeypatch.setattr(_arrays, "_fold", lambda acc, row, cap: folds.append(acc.dtype) or fold(acc, row, cap))
    [got] = repcount._box_counts(sets, h, 1, make_set([0]), None)
    assert folds == [np.float64] and got.dtype == np.int64
    want = _arrays._fold(*(row.astype(object) for [row] in rows), None)
    assert max(want) > 2**45
    assert [int(x) for x in got[0]] == want.tolist()
    table = chromatic_count_table(make_tuple([range(10), range(12)]), HVec(tuple(h)))
    assert table.counts == tuple(want.tolist())


def test_one_point_fold_is_one_plain_convolution_per_color(monkeypatch):
    # on the numpy walk, a count table, the search's size and a one-point
    # box check fold one row per color into one running row: one
    # np.convolve each, with no gaps or padding in either operand; below
    # the crossover, the packed product makes none
    convolve, calls = np.convolve, []

    def spy(a, v):
        calls.append(sorted((len(a), len(v))))
        return convolve(a, v)

    monkeypatch.setattr(np, "convolve", spy)
    st = make_tuple([[0, 2, 3], [0, 1, 5], [0, 4]])
    h, B, t = HVec((3, 2, 4)), make_set([0, 2]), 3
    rows = [h_i * a + 1 for h_i, a in zip(h.coords, st.maxima)]
    want = [sorted((B.max - B.min + 1 + sum(r - 1 for r in rows[:i]), rows[i])) for i in range(3)]
    dec = ((), 0, (), 0)
    for bits, convolutions in ((repcount._PRODUCT_BITS, []), (-1, want)):
        monkeypatch.setattr(repcount, "_PRODUCT_BITS", bits)
        for run in (
            lambda: inhomogeneous_count_table(st, h, B, cap=t),
            lambda: repcount._tfold_size(st, B, t, h.coords),
            lambda: repcount._streamed_box_fits(st, B, t, dec, h.coords, 0),
        ):
            calls.clear()
            run()
            assert calls == convolutions


def _one_point(sets, lo, B, cap, routing):
    """The one-point box's counts under a routing of conftest.ROUTINGS, as
    the product's list of Python ints or the numpy walk's row, and the
    slot bytes of every packed row its product read (none on the numpy
    walk, whose exact rows _exact_row packs at slots of their own)."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in ROUTINGS[routing].items():
            patch(mp, name, value)
        calls = packed_steps(mp)
        counts = next(repcount._box_counts(sets, lo, 1, B, cap))[0]
        counts = counts.counts().tolist() if isinstance(counts, repcount._Product) else counts
    return counts, [size for caller, _, size, _, _ in calls if caller == "_box_counts"]


one_point_set = st.lists(st.integers(min_value=1, max_value=9), max_size=3).map(
    lambda xs: make_set([0] + xs))


@given(st.lists(st.tuples(one_point_set, st.integers(min_value=0, max_value=6)), min_size=1, max_size=3),
       st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=3).map(make_set),
       st.sampled_from([None, 1, 2, 3, "T - 1", "T", "T + 1", 2**63]))
def test_packed_product_is_the_numpy_walk(colors, B, cap):
    # a one-point box as one product of packed rows gives the numpy walk's
    # counts, {0} colors and h = 0 included, at caps below T, at T - 1, T
    # and T + 1, and far above it
    sets, lo = [A for A, _ in colors], [h for _, h in colors]
    total = len(B) * math.prod(math.comb(len(A) + h - 1, h) for A, h in colors)
    if isinstance(cap, str):
        cap = max(total + {"T - 1": -1, "T": 0, "T + 1": 1}[cap], 1)
    product, sizes = _one_point(sets, lo, B, cap, "product-always")
    walk, none = _one_point(sets, lo, B, cap, "product-never")
    assert set(sizes) == {repcount._slot_size(total)} and none == []
    assert all(type(c) is int for c in product)
    assert product == [int(c) for c in walk]


# (total T, |B|, factors): |B| times one {0, 1} color at h = f - 1 per
# factor f, whose row h has h + 1 entries of 1.  2^32 - 1 = 3 * 5 * 17 *
# 257 * 65537 needs a row of 65,537 entries, so 2^32 - 2^16 (also 32 bits)
# stands below 2^32
_EDGES = {
    "2^8 - 1": (2**8 - 1, 3, (5, 17)),
    "2^8": (2**8, 4, (4, 4, 4)),
    "2^16 - 1": (2**16 - 1, 3, (5, 17, 257)),
    "2^16": (2**16, 4, (4,) * 7),
    "2^32 - 2^16": (2**32 - 2**16, 3, (5, 17, 257) + (4,) * 8),
    "2^32": (2**32, 4, (4,) * 15),
    "2^62 - 2^32": (2**62 - 2**32, 9, (7, 11, 31, 151, 331) + (4,) * 16),
    "2^62": (2**62, 4, (4,) * 30),
}


@pytest.mark.parametrize("edge, size", [
    ("2^8 - 1", 1), ("2^8", 2), ("2^16 - 1", 2), ("2^16", 4), ("2^32 - 2^16", 4), ("2^32", 8),
    ("2^62 - 2^32", 8), ("2^62", None),
])
def test_product_slots_at_the_edges(edge, size):
    # T just below and at each slot width's edge: the packed product reads
    # every row at T's slots and gives the numpy walk's counts; from 2^62
    # on, the numpy walk runs even where every product is allowed
    total, b, factors = _EDGES[edge]
    assert b * math.prod(factors) == total
    sets, lo = [make_set([0, 1])] * len(factors), [f - 1 for f in factors]
    B = make_set(range(0, 3 * b, 3))
    for cap in (None, 2, total - 1):
        product, sizes = _one_point(sets, lo, B, cap, "product-always")
        walk, _ = _one_point(sets, lo, B, cap, "product-never")
        assert set(sizes) == ({size} if size else set())
        assert [int(c) for c in product] == [int(c) for c in walk]
    assert max(int(c) for c in walk) > 1


@st.composite
def _packed_counts(draw):
    """(slot bytes, t, counts, clip) for repcount._Product's reader: slots
    of 1, 2, 4 or 8 bytes (w bits), t at 1, 2^w - 1, 2^w and past it or
    anywhere below, counts at 0, t - 1, t and 2^w - 1 or anywhere in a
    slot, as many as _PRODUCT_BITS holds, and no clip or one below 2^w."""
    size = draw(st.sampled_from([1, 2, 4, 8]))
    top = 1 << 8 * size
    t = draw(st.one_of(st.sampled_from([1, 2, top - 1, top, top + 1, 3 * top]), st.integers(1, top - 1)))
    edges = sorted({c for c in (0, t - 1, t, top - 1) if c < top})
    counts = draw(st.lists(st.one_of(st.sampled_from(edges), st.integers(0, top - 1)),
                           min_size=1, max_size=repcount._PRODUCT_BITS // (8 * size)))
    clip = draw(st.one_of(st.none(), st.sampled_from([1, min(t, top - 1), top - 1]), st.integers(1, top - 1)))
    return size, t, counts, clip


@given(_packed_counts())
@example((1, 255, [254, 255, 0, 1] * 512, 255))
@example((2, 1, [0, 1, 65535] * 341, 1))
@example((1, 2**8 + 1, [0, 5, 0, 255] * 4, None))
@example((4, 2**32, [0, 2**32 - 1] * 256, 2**32 - 1))
@example((8, 2**64 - 1, [2**64 - 2, 2**64 - 1, 0] * 85, 2**63))
def test_product_reader_at_the_slot_edges(drawn):
    # the carry test's members and their count, as tfold_set and
    # _tfold_size read them, and the clipped counts, against a plain
    # reading of every slot
    size, t, counts, clip = drawn
    value = int.from_bytes(b"".join(c.to_bytes(size, "little") for c in counts), "little")
    product = repcount._Product(value, len(counts), size, clip)
    members = [n for n, c in enumerate(counts) if c >= t]
    assert product.flags(t) >> 8 * size * len(counts) == 0
    marks = repcount._marks([product], t)[0]
    assert marks.tobytes().count(1) == len(members)
    assert list(itertools.compress(range(len(counts)), marks.tolist())) == members
    assert product.counts().tolist() == [c if clip is None else min(c, clip) for c in counts]


@st.composite
def _packed_shapes(draw):
    """(slot bytes, t, counts, M, shape) for repcount._packed_fits: one
    point's counts over [0, M] and a few empty slots past it, and a shape
    (low fringe, low cut, high fringe, high cut) drawn around [0, M], with
    fringe members below 0 and past M, negative and huge cuts, empty
    middles and fringes inside the middle.  Half the time a slot's count
    reaches t exactly where the integer is a member of the shape, so that
    both answers occur."""
    size = draw(st.sampled_from([1, 2, 4, 8]))
    top = 1 << 8 * size
    t = draw(st.one_of(st.sampled_from([1, top - 1]), st.integers(1, top - 1)))
    end = draw(st.integers(0, 30))
    near = st.integers(-3, end + 3)
    cut = st.one_of(near, st.sampled_from([-(1 << 70), 1 << 70]))
    low, high = (tuple(sorted(draw(st.sets(near, max_size=4)))) for _ in "lh")
    dec = (low, draw(cut), high, draw(cut))
    if draw(st.booleans()):
        members = {n for n in range(end + 1)
                   if n in low or dec[1] <= n <= end - dec[3] or end - n in high}
    else:
        members = draw(st.sets(st.integers(0, end)))
    counts = [draw(st.integers(t, top - 1) if n in members else st.integers(0, t - 1))
              for n in range(end + 1)]
    return size, t, counts + [0] * draw(st.integers(0, 3)), end, dec


@pytest.mark.parametrize("routing", sorted(ROUTINGS))
@given(_packed_shapes())
@example((1, 2, [2, 0, 3], 2, ((-1,), 1, (), 1)))  # a low member below 0
@example((2, 1, [0, 1, 1, 0], 2, ((3,), 1, (), 1)))  # past M
@example((4, 1, [0, 1, 0], 2, ((), 1, (3,), 1)))  # a high member past M
@example((1, 1, [0, 1, 1], 2, ((), -1, (), 2)))  # a negative cut, nonempty middle
@example((1, 1, [1, 0, 0], 2, ((0,), -1, (), 4)))  # a negative cut, empty middle
@example((8, 1, [1, 0, 0, 1], 3, ((0,), 2, (), 2)))  # an empty middle
@example((1, 3, [0, 3, 9, 3, 0], 4, ((2,), 1, (1,), 1)))  # fringes inside the middle
@example((2, 1, [1, 1, 1], 2, ((), 0, (), 1 << 70)))  # a huge cut
def test_packed_shape_test_is_the_mask_comparison(routing, drawn):
    # one comparison of a point's packed flags with the shape packed at
    # its slots gives _arrays._shape_fits's answer on the member mask,
    # under every routing
    size, t, counts, end, dec = drawn
    value = int.from_bytes(b"".join(c.to_bytes(size, "little") for c in counts), "little")
    product = repcount._Product(value, len(counts), size, None)
    with pytest.MonkeyPatch.context() as mp:
        for name, value in ROUTINGS[routing].items():
            patch(mp, name, value)
        got = repcount._packed_fits(dec, product.flags(t), end, size)
    assert got is _arrays._shape_fits(dec, [[c >= t for c in counts]], [end])[0]


def _box_points(sets, lo, width, B, cap, t, routing, bits):
    """Per point of the box, its counts and its marks at t as Python ints,
    trailing zeros stripped, under a routing of conftest.ROUTINGS with
    _PRODUCT_BITS at bits, and whether every group was a list of
    products."""
    def strip(xs):
        xs = [int(x) for x in xs]
        while xs and not xs[-1]:
            xs.pop()
        return xs

    points, kinds = [], set()
    with pytest.MonkeyPatch.context() as mp:
        for name, value in ROUTINGS[routing].items():
            patch(mp, name, value)
        patch(mp, "_PRODUCT_BITS", bits)
        for group in repcount._box_counts(sets, lo, width, B, cap):
            kinds.add(isinstance(group, list))
            counts = [p.counts() for p in group] if isinstance(group, list) else group
            points += [(strip(c), strip(m)) for c, m in zip(counts, repcount._marks(group, t))]
    return points, kinds


@pytest.mark.parametrize("routing", sorted(ROUTINGS))
@given(st.lists(st.tuples(one_point_set, st.integers(min_value=0, max_value=4)), min_size=1, max_size=3),
       st.integers(min_value=2, max_value=3),
       st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=3).map(make_set),
       st.sampled_from([None, 1, 2, 3, "T - 1", "T", 2**63]),
       st.integers(min_value=1, max_value=4))
def test_product_box_is_the_walk(routing, colors, width, B, cap, t):
    # a box of width > 1 as packed products gives the walk's counts and
    # marks at every point, the walk's rows taken under every routing:
    # {0} colors, B of 1 to 3 elements, and caps below T, at T - 1 and T
    # and far above it, marks at a t no larger than the cap
    sets, lo = [A for A, _ in colors], [h for _, h in colors]
    top = [h + width - 1 for h in lo]
    total = len(B) * math.prod(math.comb(len(A) + h - 1, h) for A, h in zip(sets, top))
    if isinstance(cap, str):
        cap = max(total + {"T - 1": -1, "T": 0}[cap], 1)
    t = t if cap is None else min(t, cap)
    product, kinds = _box_points(sets, lo, width, B, cap, t, routing, 10**18)
    walk, none = _box_points(sets, lo, width, B, cap, t, routing, -1)
    assert kinds == {True} and none == {False}
    assert len(product) == width ** len(sets)
    assert product == walk


def test_count_tables_match_the_oracle_under_every_routing(routing):
    # exact and capped tables against brute force, with repcount's route
    # choices forced one way (conftest.ROUTINGS)
    rng = random.Random(47)
    for _ in range(25):
        st, h = random_oracle_instance(rng, size_cap=20_000)
        exact = oracle_count_table(st, h).counts
        assert chromatic_count_table(st, h).counts == exact, (st, h)
        cap = rng.choice([1, 2, 3, 7, 2**40])
        capped = chromatic_count_table(st, h, cap=cap).counts
        assert capped == tuple(min(c, cap) for c in exact), (st, h, cap)
    # rows too long for the oracle, with a middle proven to saturate or
    # not, against the same routing's exact tables
    for sets, h, cap in (([[0, 1, 3, 4]], (40,), 8), ([[0, 3, 9, 12], [0, 1, 2, 7]], (40, 9), 3),
                         ([[0, 1, 2, 3]], (40,), 32768), ([[0, 2, 5]], (64,), 2)):
        st, h = make_tuple(sets), HVec(h)
        exact = chromatic_count_table(st, h).counts
        assert chromatic_count_table(st, h, cap=cap).counts == tuple(min(c, cap) for c in exact)


def test_one_element_B_starts_from_the_first_block(monkeypatch):
    # a one-element B is the fold's identity: on the numpy walk q colors
    # take q - 1 convolutions, a lone color none, and the counts do not
    # change; the packed product takes none, its indicator of B being 1
    convolve, calls = np.convolve, []
    monkeypatch.setattr(np, "convolve", lambda a, v: calls.append(1) or convolve(a, v))
    st, h = make_tuple([[0, 2, 3], [0, 1, 5], [0, 4]]), HVec((3, 2, 4))
    for bits, convolutions in ((repcount._PRODUCT_BITS, 0), (-1, 2)):
        monkeypatch.setattr(repcount, "_PRODUCT_BITS", bits)
        for B in (make_set([0]), make_set([2])):
            calls.clear()
            got = inhomogeneous_count_table(st, h, B, cap=3)
            assert len(calls) == convolutions
            assert got.offset == B.min
            assert got.counts == tuple(min(c, 3) for c in oracle_count_table(st, h).counts)
        calls.clear()
        table = multiset_count_table(make_set([0, 2, 3]), 4)
        assert list(table.counts) == _streamed_row((0, 2, 3), 4, None).tolist()
        assert calls == []


def _row_spy(monkeypatch):
    """The rows each _box_counts call folds, one list of rows per call."""
    box_counts, rows, seen = repcount._box_counts, _arrays._rows, []

    def spy(*args):
        seen.append([])
        return box_counts(*args)

    def fetched(*args):
        got = rows(*args)
        seen[-1].append(got[0])
        return got

    monkeypatch.setattr(repcount, "_box_counts", spy)
    monkeypatch.setattr(_arrays, "_rows", fetched)
    return seen


@pytest.mark.parametrize("elements, h, cap, dtype", [
    ((0, 1, 2), 3, 1 << 27, np.float64),  # T = 10: the cap reaches no count
    (tuple(range(30)), 28, 1 << 27, np.int64),  # 2^53 <= T < 2^62
    (tuple(range(20)), 80, None, object),  # T >= 2^62
], ids=["float64", "int64", "object"])
def test_identity_fold_leaves_the_shared_row_unchanged(monkeypatch, elements, h, cap, dtype):
    # on the numpy walk the dtype comes from the exact total T (float64
    # below 2^53, int64 below 2^62, else Python ints) and the clip the cap
    # can still make; the identity fold starts from the row itself where
    # it has that dtype, and no fold writes into it; every count equals
    # the object-dtype fold's
    monkeypatch.setattr(repcount, "_PRODUCT_BITS", -1)
    seen = _row_spy(monkeypatch)
    A = make_set(elements)
    [group] = repcount._box_counts([A], [h], 1, make_set([0]), cap)
    [[row]] = seen
    # a one-point box's float counts come back as int64
    assert group.dtype == (np.int64 if dtype is np.float64 else dtype)
    assert np.shares_memory(group, row) == (row.dtype == dtype)
    table = multiset_count_table(A, h, cap=cap)
    assert [int(x) for x in group[0]] == row.tolist() == list(table.counts)
    monkeypatch.setattr(_arrays, "_dtype", lambda bound: object)
    [want] = repcount._box_counts([A], [h], 1, make_set([0]), cap)
    assert want.dtype == object and want[0].tolist() == list(table.counts)
    assert row.tolist() == list(table.counts)


def test_the_walk_frees_its_rows_without_the_cycle_collector(monkeypatch):
    # the walk keeps no reference cycle: every row it read is freed as soon
    # as the walk is done or dropped, with no wait for gc
    monkeypatch.setattr(repcount, "_PRODUCT_BITS", -1)
    rows, seen = _arrays._rows, []
    monkeypatch.setattr(_arrays, "_rows", lambda *args: seen.append(rows(*args)) or seen[-1])
    A, B = make_set([0, 3, 7]), make_set([0, 2])
    gc.disable()
    try:
        list(repcount._box_counts([A, A], [2, 3], 3, B, 3))
        next(repcount._box_counts([A, A, A], [2, 3, 4], 2, B, None))
        refs = [weakref.ref(row) for got in seen for row in got]
        seen.clear()
        assert len(refs) == 12 and all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_no_row_is_kept_outside_a_scope(monkeypatch):
    # each of the product's two packed rows is stepped to once in a scope
    # and once per table outside it
    built = row_builds(monkeypatch)
    st, h = make_tuple([[0, 2, 3], [0, 1, 5]]), HVec((3, 2))
    with repcount._shared_rows():
        chromatic_count_table(st, h)
        chromatic_count_table(st, h)
    assert len(built) == 2
    assert repcount._ROWS.get() is None
    chromatic_count_table(st, h)
    chromatic_count_table(st, h)
    assert len(built) == 6


def test_chromatic_examples():
    t = make_tuple([[0, 1], [0, 2]])
    assert chromatic_count_table(t, HVec((1, 1))).counts == (1, 1, 1, 1)
    assert chromatic_count_table(t, HVec((0, 0))).counts == (1,)


def test_chromatic_validation():
    t = make_tuple([[0, 1], [0, 2]])
    with pytest.raises(DimensionError):
        chromatic_count_table(t, HVec((1,)))
    with pytest.raises(NotNormalizedError):
        chromatic_count_table(make_tuple([[0, 2], [0, 4]]), HVec((1, 1)))


def test_chromatic_is_product_of_colors():
    rng = random.Random(5)
    for _ in range(25):
        sets = []
        for _ in range(rng.randint(1, 3)):
            sets.append(sorted({0} | {rng.randint(1, 6) for _ in range(rng.randint(0, 3))}))
        t = make_tuple(sets)
        if not t.normalized:
            continue
        h = HVec(tuple(rng.randint(0, 4) for _ in range(t.q)))
        table = chromatic_count_table(t, h)
        mass = 1
        for A, hi in zip(t.sets, h.coords):
            mass *= math.comb(len(A) + hi - 1, hi)
        assert table.total() == mass
        assert table.offset == 0
        assert table.end == h.dot(t.maxima)
    # past the int64 guard: one color whose entries exceed 2^63, and two
    # colors whose own totals fit a word but whose convolved entries do not
    for sets, h in (([range(40)], (40,)), ([range(16), range(16)], (30, 30))):
        table = chromatic_count_table(make_tuple(sets), HVec(h))
        mass = 1
        for A, hi in zip(sets, h):
            mass *= math.comb(len(A) + hi - 1, hi)
        assert table.total() == mass
        assert max(table.counts) > 2**63


def test_symmetry_reversal():
    rng = random.Random(6)
    for _ in range(25):
        sets = [sorted({0} | {rng.randint(1, 7) for _ in range(2)}) for _ in range(2)]
        t = make_tuple(sets)
        if not t.normalized:
            continue
        h = HVec((rng.randint(0, 4), rng.randint(0, 4)))
        table = chromatic_count_table(t, h)
        assert chromatic_count_table(t.reflected(), h).counts == table.reversed_counts()


def test_tfold_example():
    t = make_tuple([[0, 1, 2]])
    assert tfold_set(t, HVec((2,)), 2).elements == (2,)


def test_tfold_validation_and_monotone():
    t = make_tuple([[0, 1, 2], [0, 3]])
    with pytest.raises(DomainError):
        tfold_set(t, HVec((1, 1)), 0)
    h = HVec((3, 2))
    prev = tfold_set(t, h, 1)
    for thr in (2, 3, 4):
        cur = tfold_set(t, h, thr)
        assert set(cur.elements) <= set(prev.elements)
        prev = cur


@st.composite
def _tfold_instances(draw):
    """(tuple, h, B, t): a normalized tuple of at most 3 colors, h up to 4
    per color, t from 1 to 4, and B of minimum 0 or shifted to a minimum
    past 0."""
    sets = draw(st.lists(normalized_set, min_size=1, max_size=3))
    tup = make_tuple([A.elements for A in sets])
    assume(tup.normalized)
    h = HVec(tuple(draw(st.integers(min_value=0, max_value=4)) for _ in sets))
    shift = draw(st.sampled_from([0, 1, 5]))
    B = make_set([0] + draw(st.lists(st.integers(min_value=1, max_value=6), max_size=3)))
    B = make_set([b + shift for b in B.elements])
    return tup, h, B, draw(st.integers(min_value=1, max_value=4))


@pytest.mark.parametrize("routing", sorted(ROUTINGS))
@given(_tfold_instances())
def test_tfold_reads_the_table_members(routing, drawn):
    # _tfold, the one reader of t-fold members, gives the members of the
    # translated count table at threshold t, under every routing (the
    # packed product's marks and the walk's rows alike), and those of
    # the exhaustive oracle where it is small
    tup, h, B, t = drawn
    with pytest.MonkeyPatch.context() as mp:
        for name, value in ROUTINGS[routing].items():
            patch(mp, name, value)
        got = repcount._tfold(tup.sets, h.coords, B, t)
        table = inhomogeneous_count_table(tup, h, B, cap=t)
    assert type(got) is tuple and all(type(n) is int for n in got)
    assert got == table.support_at_least(t).elements
    if enumeration_size(tup, h) <= 2000:
        plain = oracle_count_table(tup, h)
        top = plain.end + B.max
        assert got == tuple(n for n in range(B.min, top + 1)
                            if sum(plain.value(n - b) for b in B.elements) >= t)


def test_partition_example():
    table = partition_count_table(make_set([2, 3]), 12, cap=10)
    assert table.counts == (1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 3)


def test_partition_validation():
    with pytest.raises(DomainError):
        partition_count_table(make_set([0, 2]), 5, cap=3)
    with pytest.raises(DomainError):
        partition_count_table(make_set([2]), -1, cap=3)
    with pytest.raises(DomainError):
        partition_count_table(make_set([2]), 5, cap=0)


def test_inhomogeneous_examples():
    t = make_tuple([[0, 1]])
    assert inhomogeneous_count_table(t, HVec((1,)), make_set([0, 1])).counts == (1, 2, 1)
    assert inhomogeneous_count_table(t, HVec((1,)), make_set([0, 2])).counts == (1, 1, 1, 1)


def test_inhomogeneous_is_sum_of_shifts():
    rng = random.Random(7)
    for _ in range(20):
        sets = [sorted({0} | {rng.randint(1, 6) for _ in range(2)})]
        t = make_tuple(sets)
        if not t.normalized:
            continue
        h = HVec((rng.randint(0, 5),))
        B = make_set(sorted({0} | {rng.randint(1, 5) for _ in range(rng.randint(0, 2))}))
        base = chromatic_count_table(t, h)
        table = inhomogeneous_count_table(t, h, B)
        assert table.offset == B.min
        for n in range(table.offset, table.end + 1):
            assert table.value(n) == sum(base.value(n - b) for b in B.elements)


def test_inhomogeneous_empty_B():
    from chromsum.intset import FiniteSet

    with pytest.raises(EmptySetError):
        inhomogeneous_count_table(make_tuple([[0, 1]]), HVec((1,)), FiniteSet.empty())


class TestCountTable:
    def test_value_outside_range(self):
        table = multiset_count_table(make_set([0, 2]), 2)
        assert table.value(-1) == 0
        assert table.value(99) == 0

    def test_support(self):
        table = multiset_count_table(make_set([0, 2, 3]), 2)
        assert table.support().elements == (0, 2, 3, 4, 5, 6)
        assert table.support_at_least(1) == table.support()

    def test_support_at_least_needs_valid_threshold(self):
        capped = multiset_count_table(make_set([0, 1, 2]), 3, cap=2)
        # True is not read as t = 1, nor 1.5 and "2" as thresholds
        for t in (0, 3, True, 1.5, "2"):
            with pytest.raises(DomainError):
                capped.support_at_least(t)
        assert 3 in capped.support_at_least(2)

    def test_rejects_counts_above_cap(self):
        # counts as a tuple, a list (as the packed product's reader gives
        # them), an array.array (unsigned or signed) or a numpy array
        for kind in (tuple, list, lambda c: array("H", c), lambda c: array("q", c), np.array):
            with pytest.raises(ValueError, match="^counts exceed the declared cap$"):
                CountTable(offset=0, counts=kind((1, 5)), cap=2)
            assert CountTable(offset=0, counts=kind((1, 2)), cap=2).counts == (1, 2)
            assert CountTable(offset=0, counts=kind(())).counts == ()
        for kind in (tuple, list, lambda c: array("q", c), np.array):
            with pytest.raises(ValueError, match="^counts must be nonnegative$"):
                CountTable(offset=0, counts=kind((2, -1)))
        with pytest.raises(ValueError):
            CountTable(offset=0, counts=(1,), cap=0)

    def test_rejects_non_integers(self):
        for counts, offset, cap in (((1.5, 2), 0, None), ((True, 2), 0, None),
                                    ((1, 2), 0.5, None), ((1, 2), 0, 2.5)):
            with pytest.raises(TypeError, match="expected an integer"):
                CountTable(offset=offset, counts=counts, cap=cap)

    def test_json_roundtrip(self):
        table = multiset_count_table(make_set([0, 2, 3]), 2, cap=3)
        obj = table.to_json()
        assert obj["counts"] == ["1", "0", "1", "1", "1", "1", "1"]
        assert CountTable.from_json(obj) == table

    def test_json_malformed(self):
        with pytest.raises(ValueError):
            CountTable.from_json({"offset": 0})
        with pytest.raises(ValueError):
            CountTable.from_json({"offset": 0, "cap": None, "counts": ["x"]})

    def test_json_refuses_non_integers(self):
        obj = {"offset": 0, "cap": None, "counts": ["1", 2]}
        assert CountTable.from_json(obj).counts == (1, 2)
        for key, value in (("counts", [1.5]), ("counts", [True]), ("counts", ["1.5"]),
                           ("counts", "123"), ("offset", 0.5), ("cap", 2.0)):
            with pytest.raises(ValueError, match="^malformed count table: "):
                CountTable.from_json(dict(obj, **{key: value}))

    def test_big_counts_survive_json(self):
        table = multiset_count_table(make_set(range(10)), 40)
        assert table.total() == math.comb(10 + 40 - 1, 40)
        assert CountTable.from_json(table.to_json()) == table
