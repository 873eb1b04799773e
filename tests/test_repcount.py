import itertools
import math
import random
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chromsum import repcount
from chromsum.errors import (
    DimensionError,
    DomainError,
    EmptySetError,
    NotNormalizedError,
)
from chromsum.intset import HVec, make_set, make_tuple
from chromsum.oracle import oracle_count_table
from chromsum.repcount import (
    CountTable,
    chromatic_count_table,
    inhomogeneous_count_table,
    multiset_count_table,
    partition_count_table,
    tfold_set,
)

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
    with pytest.raises(NotNormalizedError):
        multiset_count_table(make_set([1, 2]), 2)
    with pytest.raises(DomainError):
        multiset_count_table(make_set([0, 1]), -1)


_A013, _T013 = make_set([0, 1, 3]), make_tuple([[0, 1, 3]])


@pytest.mark.parametrize("call, args", [
    (tfold_set, (_T013, HVec((2,)), True)),
    (tfold_set, (_T013, HVec((2,)), 2.0)),
    (multiset_count_table, (_A013, True)),
    (multiset_count_table, (_A013, 2.0)),
    (multiset_count_table, (_A013, 4, True)),
    (multiset_count_table, (_A013, 4, 2.0)),
    (chromatic_count_table, (_T013, HVec((2,)), True)),
    (inhomogeneous_count_table, (_T013, HVec((2,)), make_set([0, 1]), True)),
    (partition_count_table, (make_set([2, 3]), 5, True)),
    (partition_count_table, (make_set([2, 3]), 5, 3.0)),
    (partition_count_table, (make_set([2, 3]), 5.0, 3)),
], ids=lambda x: getattr(x, "__name__", None))
def test_scalar_parameters_refuse_bools_and_floats(monkeypatch, call, args):
    # True is not read as 1 nor 2.0 as 2: the typed error comes before
    # any row or fold is computed
    def work(*_):
        raise AssertionError("counted before refusing")

    for name in ("_box_counts", "_unbounded_rows", "_exact_row", "_multiset_rows"):
        monkeypatch.setattr(repcount, name, work)
    with pytest.raises(DomainError):
        call(*args)


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
    rows = repcount._multiset_rows(A.elements, dtype, cap)
    for m in range(h + 1):
        row = next(rows)
        assert row.dtype == np.dtype(dtype)
        exact = oracle_count_table(make_tuple([A.elements]), HVec((m,))).counts
        assert [int(c) for c in row] == [c if cap is None else min(c, cap) for c in exact]


@pytest.mark.parametrize("cap", [127, 128, 32767, 32768])
def test_narrow_capped_rows_are_clipped_exact(cap):
    # caps at the edges of uint8, uint16 and uint32 rows; the counts of
    # 20-multisets of {0..9} peak near 185,000, above every 2*cap
    dtype = repcount._row_dtype(cap)
    assert np.iinfo(dtype).max >= 2 * cap
    A = make_set(list(range(10)))
    sets = repcount._TFoldSets(make_tuple([A.elements]), make_set([0]), cap)
    for m in range(21):
        row = sets._row(0, m)
        assert row.dtype == dtype
        exact = multiset_count_table(A, m).counts
        assert row.tolist() == [min(c, cap) for c in exact]
    assert row.max() == cap


def _streamed_row(elements, h, cap):
    return next(islice(repcount._multiset_rows(elements, np.int64, cap), h, None))


@given(normalized_set, st.sampled_from([1, 2, 3]), st.integers(min_value=0, max_value=60),
       st.sampled_from([1, 2, 8, 127, 128, 32767, 32768, 2**31]))
@example(make_set([0, 1, 3, 4]), 3, 40, 8)  # a saturated middle, g = 3
@example(make_set([0, 1, 2, 3]), 1, 40, 32768)  # a middle left unproven
@example(make_set([0, 3, 5, 8]), 1, 2, 1)  # 7 = 8 - 1: no bound below 0
def test_capped_row_is_the_streamed_row(A, g, h, cap):
    # a proven row from the two partition folds is the capped kernel's
    # row h, for sets whose nonzero parts share a factor g too
    elements = tuple(g * a for a in A.elements)
    rows = repcount._capped_rows(elements, range(h, h + 1), cap)
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
    # top one come packed or streamed on either side of the handover
    elements = tuple(g * a for a in A.elements)
    bound = math.comb(len(elements) + h - 1, h)
    dtype = repcount._dtype(bound)
    hs = range(max(h - 2, 0), h + 1)
    rows = repcount._exact_row(elements, hs, bound)
    assert [row.dtype for row in rows] == [np.dtype(dtype)] * len(hs)
    stream = repcount._multiset_rows(elements, dtype, None)
    assert [row.tolist() for row in rows] == [row.tolist() for row in islice(stream, hs[0], h + 1)]


def _packed_top(elements):
    """The largest top row h whose capped rows _capped_block packs: the
    cells k * h * (h * max + 1) of a k-set are at most _PACKED_CELLS."""
    k, top = len(elements), elements[-1]
    return next(h for h in itertools.count() if k * (h + 1) * ((h + 1) * top + 1) > repcount._PACKED_CELLS)


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
    return example(make_set([0]), 1, 10**9, 3, 5)(test)


@_crossover_examples
@given(normalized_set, st.sampled_from([1, 2, 3]), st.integers(min_value=0, max_value=60),
       st.integers(min_value=0, max_value=3), st.sampled_from([1, 2, 127, 128, 32767, 32768]))
def test_capped_block_is_the_streamed_rows(A, g, h, margin, cap):
    # rows h..h + margin of the one capped-row entry, packed and clipped,
    # proven or streamed, are the capped kernel's rows, at the dtype that
    # _capped_rows gives the cap
    elements = tuple(g * a for a in A.elements)
    hs = range(h, h + margin + 1)
    rows = repcount._capped_block(elements, hs, cap)
    dtype = repcount._dtype(cap)
    stream = repcount._multiset_rows(elements, dtype, cap)
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
        monkeypatch.setattr(repcount, name, lambda *args, name=name, real=getattr(repcount, name):
                            calls.append(name) or real(*args))
    top = _packed_top(elements)
    repcount._capped_block(elements, range(top - 1, top + 1), 3)
    repcount._capped_block(elements, range(top, top + 2), 3)
    assert calls == ["_exact_row", "_capped_rows"]


def test_capped_anchor_takes_the_partition_folds(monkeypatch):
    # the counts workload's capped anchor, {0,3,7,11,19} at h = 400 and
    # cap 2 (15.2 million cells), is read off the two partition folds
    calls, capped = [], repcount._capped_rows
    monkeypatch.setattr(repcount, "_capped_rows",
                        lambda *args: calls.append(args[1]) or capped(*args))
    monkeypatch.setattr(repcount, "_exact_row", lambda *_: pytest.fail("packed a capped anchor row"))
    table = multiset_count_table(make_set([0, 3, 7, 11, 19]), 400, cap=2)
    assert calls == [range(400, 401)]
    assert table.counts == tuple(_streamed_row((0, 3, 7, 11, 19), 400, 2).tolist())


def test_capped_row_proves_saturation_or_returns_none():
    # {0,3,9,12} at h=40: the ends [0, 120] and [360, 480] from the
    # folds, every multiple of 3 between them proven to reach the cap,
    # and zeros off the multiples of 3
    [row] = repcount._capped_rows((0, 3, 9, 12), range(40, 41), 8)
    assert row.tolist() == _streamed_row((0, 3, 9, 12), 40, 8).tolist()
    middle = row[120 + 3 : 360 : 3]
    assert middle.size and (middle == 8).all() and not row[1::3].any()
    # {0,1,2,3} at h=40: the middle bounds reach no count of 32768 near
    # the ends of the middle, so the row is left to the stream
    assert repcount._capped_rows((0, 1, 2, 3), range(40, 41), 32768) is None
    rows = repcount._capped_rows((0,), range(10**9, 10**9 + 2), 5)
    assert [row.tolist() for row in rows] == [[1]] * 2


@pytest.mark.parametrize("cap", [1, 2, 5, 40, 1000])
def test_capped_table_on_a_color_with_a_common_factor(cap):
    # {0,2,4} has g = 2: its rows are 0 on every odd n, and the capped
    # table (rows from _capped_rows) is the clipped exact one (streamed)
    st = make_tuple([[0, 2, 4], [0, 3]])
    for h in (HVec((3, 2)), HVec((17, 5)), HVec((40, 1)), HVec((60, 30))):
        exact = chromatic_count_table(st, h).counts
        assert chromatic_count_table(st, h, cap=cap).counts == tuple(min(c, cap) for c in exact)


def test_float_fold_just_below_2_53_is_exact():
    # the exact table of 9-multisets of {0..9} and 46-multisets of
    # {0..11} totals 0.996 * 2^53: _box_counts folds it at float64, and
    # every count equals the same fold on Python ints
    sets, h = [make_set(range(10)), make_set(range(12))], [9, 46]
    bound, cap = repcount._bound(list(zip(sets, h)), make_set([0]), None)
    assert 2**52 < bound < 2**53 and cap is None
    rows = [[_streamed_row(A.elements, hi, None)] for A, hi in zip(sets, h)]
    got = repcount._box_counts(sets, h, make_set([0]), None, rows)
    assert got.dtype == np.float64
    blocks = [row.astype(object)[None] for [row] in rows]
    want = repcount._fold(np.ones((1, 1), dtype=object), blocks, None)
    assert max(want[0]) > 2**45
    assert [int(x) for x in got[0]] == want[0].tolist()
    table = chromatic_count_table(make_tuple([range(10), range(12)]), HVec(tuple(h)))
    assert table.counts == tuple(want[0].tolist())


def test_one_point_fold_is_one_plain_convolution_per_color(monkeypatch):
    # a count table, the search's size and a one-point box check fold one
    # row per color into one running row: one np.convolve each, with no
    # gaps or padding in either operand
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
    for run in (
        lambda: inhomogeneous_count_table(st, h, B, cap=t),
        lambda: repcount._TFoldSets(st, B, t).size(h),
        lambda: repcount._streamed_box_fits(st, B, t, dec, h, 0),
    ):
        calls.clear()
        run()
        assert calls == want


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
        with pytest.raises(DomainError):
            capped.support_at_least(0)
        with pytest.raises(DomainError):
            capped.support_at_least(3)
        assert 3 in capped.support_at_least(2)

    def test_rejects_counts_above_cap(self):
        with pytest.raises(ValueError):
            CountTable(offset=0, counts=(5,), cap=2)
        with pytest.raises(ValueError):
            CountTable(offset=0, counts=(-1,))
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
                           ("offset", 0.5), ("cap", 2.0)):
            with pytest.raises(ValueError):
                CountTable.from_json(dict(obj, **{key: value}))

    def test_big_counts_survive_json(self):
        table = multiset_count_table(make_set(range(10)), 40)
        assert table.total() == math.comb(10 + 40 - 1, 40)
        assert CountTable.from_json(table.to_json()) == table
