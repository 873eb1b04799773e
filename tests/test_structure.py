import functools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import combinations_with_replacement, islice, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from chromsum import _arrays, repcount, structure
from chromsum.errors import (
    BoundError,
    DegenerateAlphabetError,
    DimensionError,
    DomainError,
    NotNormalizedError,
    SearchExhaustedError,
)
from chromsum.intset import FiniteSet, HVec, make_set, make_tuple
from chromsum.oracle import (
    enumerate_representations,
    enumeration_size,
    oracle_count_table,
    oracle_partitions,
)
from chromsum._arrays import _fewest_partitions, _suffix_counts
from chromsum.repcount import inhomogeneous_count_table, partition_count_table
from chromsum.structure import (
    ColoredRep,
    StructureResult,
    WitnessSet,
    certified_rep_bound,
    closed_form_threshold,
    high_fringe_constants,
    low_fringe_constants,
    structure_constants,
    structure_constants_inhomogeneous,
    threshold_constructive,
    verify_box,
    verify_structure,
    witness_representations,
)

from conftest import ROUTINGS, packed_steps, random_normalized_tuple

SRC = str(Path(__file__).resolve().parent.parent / "src")

A023 = make_tuple([[0, 2, 3]])
# the empirical result of A023 at t = 1
R023 = structure._result(((0,), 2, (), 0), (1,), "empirical", 3)
# minimum 0 but gcd 2: not normalized
_A024 = make_tuple([[0, 2, 4]])
_T, _MARGIN = "t must be a positive integer", "margin must be a positive integer"
_CEILING = "ceiling must be a nonnegative integer or None"
_NO_B = "the constructive strategy takes no translation set and no ceiling"


def box(lo: HVec, margin: int) -> list[HVec]:
    """The points of the box [lo, lo + margin], the last coordinate
    varying fastest."""
    return [HVec(tuple(c + d for c, d in zip(lo.coords, deltas)))
            for deltas in product(range(margin + 1), repeat=lo.q)]


def colored_partition_counts(st, top, t):
    """Colored partition counts over [0, top], clipped at t: the partition
    tables of each color's nonzero elements, convolved."""
    counts = np.zeros(top + 1, dtype=np.int64)
    counts[0] = 1
    for A in st.sets:
        parts = FiniteSet(tuple(a for a in A.elements if a))
        color = np.array(partition_count_table(parts, top, cap=t).counts, dtype=np.int64)
        counts = np.minimum(np.convolve(counts, color)[: top + 1], t)
    return counts.tolist()


def test_certified_rep_bound_examples():
    assert certified_rep_bound(A023, 1) == 12
    assert certified_rep_bound(make_tuple([[0, 1]]), 4) == 3
    assert certified_rep_bound(make_tuple([[0, 2], [0, 3]]), 2) == 30


def test_closed_form_threshold_examples():
    assert closed_form_threshold(make_set([0, 2, 3]), 1) == 13
    assert closed_form_threshold(make_set([0, 1]), 1) == 1
    assert closed_form_threshold(make_set([0, 2, 3]), 2) == 31


def test_closed_form_threshold_hypotheses():
    with pytest.raises(DomainError):
        closed_form_threshold(make_set([0]), 1)
    with pytest.raises(DomainError):
        closed_form_threshold(make_set([1, 3]), 1)
    with pytest.raises(DomainError):
        closed_form_threshold(make_set([0, 2, 4]), 1)
    with pytest.raises(DomainError):
        closed_form_threshold(make_set([0, 2, 3]), 0)


class TestFringeConstants:
    def test_low_t1(self):
        C, c = low_fringe_constants(A023, 1)
        assert (C.elements, c) == ((0,), 2)

    def test_low_t2(self):
        C, c = low_fringe_constants(A023, 2)
        assert (C.elements, c) == ((6,), 8)

    def test_low_with_one_in_union(self):
        C, c = low_fringe_constants(make_tuple([[0, 1, 5], [0, 3]]), 1)
        assert (C.elements, c) == ((), 0)

    def test_high_is_reflected_low(self):
        D, d = high_fringe_constants(A023, 1)
        assert (D.elements, d) == ((), 0)
        D, d = high_fringe_constants(make_tuple([[0, 1, 3]]), 1)
        assert (D.elements, d) == ((0,), 2)

    def test_symmetric_tuple_gives_equal_pairs(self):
        sym = make_tuple([[0, 1, 2]])
        assert low_fringe_constants(sym, 2) == high_fringe_constants(sym, 2)

    def test_degenerate_alphabet(self):
        with pytest.raises(DegenerateAlphabetError):
            low_fringe_constants(make_tuple([[0, 1]]), 2)
        # two colors of 1 give n + 1 colored partitions of n
        pair = make_tuple([[0, 1], [0, 1]])
        res = structure_constants(pair, 3)
        assert low_fringe_constants(pair, 3) == (res.low_fringe, res.low_cut) == (
            FiniteSet.empty(), 2)

    def test_minimality(self):
        rng = random.Random(31)
        for _ in range(30):
            st = random_normalized_tuple(rng, elt_max=6)
            t = rng.randint(1, 3)
            try:
                C, c = low_fringe_constants(st, t)
            except DegenerateAlphabetError:
                continue
            table = colored_partition_counts(st, max(c, 1), t)
            if c >= 1:
                assert table[c - 1] < t
            assert all(n <= c - 2 and table[n] >= t for n in C.elements)

    @pytest.mark.parametrize("routing", ["residue-always", "table-always"], indirect=True)
    def test_match_the_table_scanned_from_the_certified_bound(self, routing):
        def scanned(st, t):
            bound = certified_rep_bound(st, t)
            table = colored_partition_counts(st, bound, t)
            cut = next((n + 1 for n in range(bound, -1, -1) if table[n] < t), 0)
            return FiniteSet(tuple(n for n in range(cut - 1) if table[n] >= t)), cut

        rng = random.Random(47)
        shared = 0
        for _ in range(200):
            st = random_normalized_tuple(rng, size_max=4, elt_max=7)
            t = rng.randint(1, 5)
            # some nonzero element in two colors
            shared += len(st.union) < sum(len(A) for A in st.sets) - st.q + 1
            for fringe, side in ((low_fringe_constants, st),
                                 (high_fringe_constants, st.reflected())):
                # a single nonzero (color, element) pair has one partition
                if sum(len(A) - 1 for A in side.sets) == 1 and t >= 2:
                    with pytest.raises(DegenerateAlphabetError):
                        fringe(st, t)
                else:
                    assert fringe(st, t) == scanned(side, t), (st.sets, t)
        assert shared >= 50
        # both cuts lie past the first 256-entry table, which doubles
        st = make_tuple([[0, 17, 40]])
        assert [scanned(side, 5)[1] for side in (st, st.reflected())] == [3344, 4538]
        assert low_fringe_constants(st, 5) == scanned(st, 5)
        assert high_fringe_constants(st, 5) == scanned(st.reflected(), 5)

    def test_no_run_below_the_bound_is_an_internal_invariant(self, monkeypatch):
        # Q >= t at every n from the certified bound on is what ends the
        # table's doubling; a bound of 0 breaks it: Q(0) = 1 < 2 on {0,2,3}
        # (the residue walk reads no bound, so the table is forced)
        for name, value in ROUTINGS["table-always"].items():
            monkeypatch.setattr(repcount, name, value)
        monkeypatch.setattr(structure, "_rep_bound", lambda st, t: 0)
        with pytest.raises(RuntimeError, match=r"^internal invariant: no run of 2 counts >= 2 below 2$"):
            low_fringe_constants(A023, 2)

    def test_a_class_short_of_t_values_is_an_internal_invariant(self, monkeypatch):
        # the residue walk needs t values in every class mod the least
        # part; parts with gcd 2 never reach the odd class
        for name, value in ROUTINGS["residue-always"].items():
            monkeypatch.setattr(repcount, name, value)
        with pytest.raises(RuntimeError, match=r"^internal invariant: fewer than 2 values in class 1 mod 2$"):
            repcount._limit_side([2, 4], [0], 2, 100)

    def test_long_cut_constants_stay_small(self):
        # d = 9,988,002: a table up to the cut took 2 s and 625 MB, and
        # each public call builds only its own side
        st = make_tuple([[0, 1, 1000]])
        tracemalloc.start()
        try:
            C, c = low_fringe_constants(st, 10)
            low_peak = tracemalloc.get_traced_memory()[1]
            D, d = high_fringe_constants(st, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (C.elements, c) == ((), 9000)
        # the least member of D is the 10th multiple of 1000 in the class
        # of 0 mod 999: 8,991 * 1000
        assert (len(D), D.min, d) == (498_501, 8_991_000, 9_988_002)
        assert low_peak < 1 << 20
        assert peak < 64 << 20


def _scanned_limit_side(parts, shifts, t, bound):
    """(fringe, cut) of {n : Q(n) >= t} by one pass of Python additions over
    [0, bound + min(parts)], Q(n) counting the pairs (b, partition of
    n - b), clipped at t; every n >= bound must have Q(n) >= t."""
    top = bound + min(parts)
    q = [0] * (top + 1)
    for b in shifts:
        q[b] += 1
    for a in parts:
        for n in range(a, top + 1):
            q[n] = min(q[n] + q[n - a], t)
    cut = next((n + 1 for n in range(top, -1, -1) if q[n] < t), 0)
    return tuple(n for n in range(cut) if q[n] >= t), cut


@given(
    hst.lists(hst.integers(1, 9), min_size=1, max_size=5),
    hst.integers(0, 2),
    hst.sets(hst.integers(1, 12), max_size=3),
    hst.integers(1, 50),
)
def test_both_limit_routes_match_the_scanned_table(parts, repeats, shifts, t):
    # the residue walk and the table, each forced, on parts that may
    # repeat the least one or hold 1, shifts that hold 0, and t up to 50
    parts = sorted(parts + [min(parts)] * repeats)
    shifts = sorted({0} | shifts)
    assume(math.gcd(*parts) == 1 and (len(parts) > 1 or t <= len(shifts)))
    a = max(parts)
    bound = max(len(parts) * (t * a - 1) * a, max(shifts))
    assume(len(parts) * bound <= 200_000)
    got = {}
    for name in ("residue-always", "table-always"):
        with pytest.MonkeyPatch.context() as mp:
            for constant, value in ROUTINGS[name].items():
                mp.setattr(repcount, constant, value)
            got[name] = repcount._limit_side(parts, shifts, t, bound)
    assert got["residue-always"] == got["table-always"] == _scanned_limit_side(parts, shifts, t, bound)


def _two_part_constants(a: int, b: int, t: int) -> tuple[FiniteSet, int]:
    """(sporadic set, cut) of a side with the coprime parts a and b, in
    closed form.  Q(n + ab) = Q(n) + 1 (Popoviciu), so Q >= t exactly on
    (t - 1)ab + <a, b>, <a, b> being the numerical semigroup of a and b;
    its largest gap is ab - a - b, so the cut is t*ab - a - b + 1."""
    gaps_end = a * b - a - b
    members = {i * a + j * b for i in range(b) for j in range(a)}
    fringe = sorted((t - 1) * a * b + s for s in members if s < gaps_end)
    return FiniteSet(tuple(fringe)), t * a * b - a - b + 1


def _check_two_part_sides(a: int, b: int, t: int) -> None:
    """Both sides of {0, a, b}, the parts (a, b) and, reflected, (b - a, b),
    match the closed form."""
    st = make_tuple([[0, a, b]])
    assert low_fringe_constants(st, t) == _two_part_constants(a, b, t)
    assert high_fringe_constants(st, t) == _two_part_constants(b - a, b, t)


@hst.composite
def _two_part_sides(draw):
    """Coprime 1 <= a < b <= 50 and t with t*a*b <= 10^5, t drawn over its
    binary orders of magnitude so that large t is not rare."""
    b = draw(hst.integers(2, 50))
    a = draw(hst.integers(1, b - 1).filter(lambda a: math.gcd(a, b) == 1))
    top = 10**5 // (a * b)
    bits = draw(hst.integers(0, top.bit_length() - 1))
    return a, b, draw(hst.integers(1 << bits, min(top, (2 << bits) - 1)))


@settings(max_examples=120)
@given(_two_part_sides())
def test_two_part_sides_match_the_closed_form(case):
    # under the default routing and each limit route forced
    for name in (None, "residue-always", "table-always"):
        with pytest.MonkeyPatch.context() as mp:
            for constant, value in ROUTINGS.get(name, {}).items():
                mp.setattr(repcount, constant, value)
            _check_two_part_sides(*case)


@pytest.mark.parametrize("a, b, t", [(3, 7, 10**4), (49, 50, 10**3)])
def test_two_part_sides_at_large_t(a, b, t):
    _check_two_part_sides(a, b, t)


@settings(max_examples=100)
@given(hst.integers(3, 22), hst.sets(hst.integers(1, 21), max_size=5))
def test_single_set_threshold_at_t_1_is_at_most_max_minus_2(top, inner):
    # Granville & Walker: a normalized A with max(A) = l >= 3 has the
    # eventual shape from h = l - 2 on, so the minimal h_1 is at most that
    st = make_tuple([sorted({0, top} | {x for x in inner if x < top})])
    assume(st.normalized)
    assert structure_constants(st, 1, "empirical").threshold.coords[0] <= top - 2


@pytest.mark.parametrize("top", range(4, 16))
def test_zero_one_top_reaches_max_minus_2(top):
    # the bound above is tight: {0, 1, l} has h_1 = l - 2
    assert structure_constants(make_tuple([[0, 1, top]]), 1, "empirical").threshold.coords == (top - 2,)


class TestWitnesses:
    def test_resum_and_distinct_q1(self):
        ws = witness_representations(A023, 12, 1)
        assert ws.n == 12
        assert len(ws.reps) == 1
        assert ws.reps[0].total() == 12

    def test_two_colors_two_reps(self):
        st = make_tuple([[0, 2], [0, 3]])
        ws = witness_representations(st, 30, 2)
        assert len(set(ws.reps)) == 2
        assert all(rep.total() == 30 for rep in ws.reps)
        for rep in ws.reps:
            for color, element, mult in rep.entries:
                assert element in st.sets[color]
                assert mult > 0

    def test_below_bound_refused(self):
        with pytest.raises(BoundError):
            witness_representations(A023, 11, 1)

    def test_degenerate_refused(self):
        with pytest.raises(DegenerateAlphabetError):
            witness_representations(make_tuple([[0, 1]]), 50, 2)

    def test_broken_invariant_is_not_a_domain_error(self, monkeypatch):
        monkeypatch.setattr(structure, "_ext_gcd", lambda a, b: (2, 0, 0))
        with pytest.raises(RuntimeError, match="internal invariant"):
            witness_representations(A023, 12, 1)

    def test_witness_appears_in_oracle_enumeration(self):
        st = make_tuple([[0, 2, 3]])
        ws = witness_representations(st, 14, 1)
        rep = ws.reps[0]
        h = HVec(tuple(rep.color_load(i) for i in range(st.q)))
        assert enumeration_size(st, h) < 10_000
        enumerated = {r.per_color for r in enumerate_representations(st, h, 14)}
        assert rep.per_color_tuples(st.q) in enumerated

    def test_json_roundtrip(self):
        ws = witness_representations(make_tuple([[0, 2], [0, 3]]), 30, 2)
        obj = ws.to_json()
        assert obj["n"] == "30"
        assert all(isinstance(row["multiplicity"], str)
                   for rep in obj["reps"] for row in rep)
        assert WitnessSet.from_json(obj) == ws

    def test_witness_json_refuses_non_integers(self):
        obj = witness_representations(make_tuple([[0, 2], [0, 3]]), 30, 2).to_json()
        for n in (30.0, 30.5, True):
            with pytest.raises(ValueError, match="expected an integer"):
                WitnessSet.from_json(dict(obj, n=n))

    def test_colored_rep_json_refuses_non_integers(self):
        row = {"color": 0, "element": 3, "multiplicity": "10"}
        assert ColoredRep.from_json([row]) == ColoredRep(entries=((0, 3, 10),))
        for key, value in (("color", 0.0), ("element", 2.5), ("element", True),
                           ("multiplicity", 10.0), ("multiplicity", "2.5")):
            with pytest.raises(ValueError):
                ColoredRep.from_json([dict(row, **{key: value})])


def _fewest(parts, n, t):
    """The selected multiplicity rows of n, as non-decreasing index tuples."""
    # the enumeration reads only which remainders the suffixes reach
    owner, mult = _fewest_partitions(parts, [n], t, _suffix_counts(parts, n, 1))
    assert (owner == 0).all()
    return [tuple(j for j, m in enumerate(row) for _ in range(m)) for row in mult.tolist()]


def test_fewest_partitions_match_oracle():
    rng = random.Random(17)
    for _ in range(300):
        parts = sorted(rng.sample(range(1, 13), rng.randint(1, 4)))
        n = rng.randint(0, 60)
        t = rng.randint(1, 6)
        got = [tuple(parts[j] for j in p) for p in _fewest(parts, n, t)]
        want = sorted(oracle_partitions(make_set(parts), n), key=lambda p: (len(p), p))[:t]
        assert got == want, (parts, n, t)
    # repeated parts (one element in several colors) are distinct parts:
    # the index multisets in order of size, each size in lexicographic order
    for _ in range(150):
        base = rng.choices(range(1, 8), k=rng.randint(1, 3))
        parts = sorted(base + [rng.choice(base)])
        n = rng.randint(0, 20)
        t = rng.randint(1, 6)
        want = [
            p
            for k in range(n // parts[0] + 1)
            for p in combinations_with_replacement(range(len(parts)), k)
            if sum(parts[j] for j in p) == n
        ][:t]
        assert _fewest(parts, n, t) == want, (parts, n, t)


def _enumerate_only(monkeypatch):
    """Send every _fewest_loads call to the enumeration."""
    monkeypatch.setattr(repcount, "_DP_CELLS", 0)
    monkeypatch.setattr(repcount, "_CELLS_PER_PARTITION", 0)


def test_missing_partitions_are_an_internal_invariant(monkeypatch):
    # the DP: 3 has no partition into 2s
    with pytest.raises(RuntimeError, match="internal invariant: n=3 has fewer than 2 colored"):
        repcount._fewest_loads([2], [0], 1, [3], 2)

    # the enumeration, told that no target has a partition
    def none_found(parts, targets, t, suffix):
        return np.zeros(0, dtype=np.int64), np.zeros((0, len(parts)), dtype=np.int64)

    _enumerate_only(monkeypatch)
    monkeypatch.setattr(_arrays, "_fewest_partitions", none_found)
    # 6 is the low fringe of {0, 2, 3} at t = 2, the first target
    with pytest.raises(RuntimeError, match="internal invariant: n=6 has fewer than 2 colored"):
        structure_constants(A023, 2, strategy="constructive")


def _listed_loads(parts, colors, q, targets, t):
    """Per color, the most parts of that color in the rows
    _fewest_partitions lists, or the shortfall error's text."""
    owner, mult = _fewest_partitions(parts, targets, t, _suffix_counts(parts, max(targets), 1))
    short = [n for k, n in enumerate(targets) if np.count_nonzero(owner == k) < t]
    if short:
        return f"n={short[0]} has fewer than {t}"
    onehot = np.zeros((len(parts), q), dtype=np.int64)
    onehot[np.arange(len(parts)), colors] = 1
    return (mult @ onehot).max(axis=0, initial=0).tolist()


def test_dp_loads_match_the_enumeration(monkeypatch):
    rng = random.Random(29)
    cases = []
    for _ in range(300):
        q = rng.randint(1, 3)
        # equal parts of different colors: the tie order picks the loads
        base = rng.sample(range(1, 10), rng.randint(1, 4))
        parts = sorted(base + rng.choices(base, k=rng.randint(0, 2)))
        colors = [rng.randrange(q) for _ in parts]
        # about a third of the cases have a target short of t partitions
        targets = rng.sample(range(20, 90), rng.randint(1, 4))
        cases.append((parts, colors, q, targets, rng.randint(1, 6)))
    # past _DP_CELLS: few partitions (the enumeration), and many (the DP)
    cases += [
        ([23, 40], [0, 0], 1, list(range(4538, 4578)), 5),
        ([5, 5, 8, 9], [0, 1, 0, 1], 2, list(range(1000, 1009)), 6),
        ([1, 1, 3], [0, 1, 0], 2, [698, 699, 700], 6),
    ]
    dp = repcount._dp_loads
    routes = []

    def spy(module, name):
        route = getattr(module, name)

        def run(*args):
            routes.append(name)
            return route(*args)

        monkeypatch.setattr(module, name, run)

    spy(repcount, "_dp_loads")
    spy(_arrays, "_enumerated_loads")
    for parts, colors, q, targets, t in cases:
        want = _listed_loads(parts, colors, q, targets, t)
        for route in (dp, repcount._fewest_loads):
            if isinstance(want, str):
                with pytest.raises(RuntimeError, match=want):
                    route(parts, colors, q, targets, t)
            else:
                assert route(parts, colors, q, targets, t) == want, (parts, colors, targets, t)
    # _fewest_loads took the DP on both sides of _DP_CELLS, and past it
    # also the enumeration
    cells = [(max(c[3]) + 1) * len(c[0]) * c[4] for c in cases]
    taken = {(r, n > repcount._DP_CELLS) for r, n in zip(routes, cells)}
    assert len(routes) == len(cases)
    assert taken == {("_dp_loads", False), ("_dp_loads", True), ("_enumerated_loads", True)}


@functools.cache
def _brute_loads(parts, colors, q, targets, t):
    """Per color, the most parts of that color in the t fewest-part
    partitions of each target, listed without repcount, or the shortfall
    error's text: oracle_partitions for distinct parts, and index
    multisets in (size, lexicographic) order for repeated ones."""
    loads = [0] * q
    for n in targets:
        if len(set(parts)) == len(parts):
            index = {a: j for j, a in enumerate(parts)}
            found = sorted(oracle_partitions(make_set(parts), n), key=lambda p: (len(p), p))
            listed = (tuple(index[a] for a in p) for p in found)
        else:
            listed = (
                p
                for k in range(n // parts[0] + 1)
                for p in combinations_with_replacement(range(len(parts)), k)
                if sum(parts[j] for j in p) == n
            )
        best = list(islice(listed, t))
        if len(best) < t:
            return f"n={n} has fewer than {t}"
        for p in best:
            for c in range(q):
                loads[c] = max(loads[c], sum(colors[j] == c for j in p))
    return loads


def _router_cases():
    rng = random.Random(31)
    cases = []
    for _ in range(100):
        q = rng.randint(1, 3)
        parts = sorted(rng.sample(range(1, 10), rng.randint(1, 4)))
        targets = rng.sample(range(20, 60), rng.randint(1, 3))
        cases.append((parts, [rng.randrange(q) for _ in parts], q, targets, rng.randint(1, 6)))
    for _ in range(60):
        q = rng.randint(1, 3)
        base = rng.choices(range(1, 7), k=rng.randint(1, 3))
        parts = sorted(base + [rng.choice(base)])
        targets = rng.sample(range(10, 25), rng.randint(1, 2))
        cases.append((parts, [rng.randrange(q) for _ in parts], q, targets, rng.randint(1, 6)))
    # past _DP_CELLS with few partitions, where the default router lists
    # them: distinct and repeated parts, and a shortfall
    cases += [
        ([23, 40], [0, 1], 2, list(range(4570, 4578)), 5),
        ([23, 40], [1, 0], 2, list(range(4570, 4578)), 6),
        ([37, 40, 40, 97], [0, 1, 2, 1], 3, [1000, 1001, 1077], 3),
    ]
    return cases


def test_fewest_loads_match_brute_force(routing):
    cases = _router_cases()
    short = 0
    for parts, colors, q, targets, t in cases:
        want = _brute_loads(tuple(parts), tuple(colors), q, tuple(targets), t)
        if isinstance(want, str):
            short += 1
            with pytest.raises(RuntimeError, match=f"internal invariant: {want} colored"):
                repcount._fewest_loads(parts, colors, q, targets, t)
        else:
            assert repcount._fewest_loads(parts, colors, q, targets, t) == want, (parts, colors, targets, t)
    # both outcomes are well covered
    assert len(cases) // 3 < short < 2 * len(cases) // 3


def test_fewest_partitions_need_no_recursion():
    # partitions of about 3,000 into parts 3 and 4 (1 and 4 reflected)
    # run a thousand parts deep
    res = structure_constants(make_tuple([[0, 3, 4]]), 256, strategy="constructive")
    assert res.low_cut == 3066
    assert res.threshold.coords == (1023,)


@pytest.mark.parametrize(
    "sets, t, cut, ht",
    [
        ([[0, 17, 40]], 5, 3344, (199,)),
        ([[0, 2, 3]], 1000, 5996, (2999,)),
        # many small parts: the enumeration listed 27.7 M partitions here
        ([[0, 1, 2, 3, 4, 200]], 2, 2, (51,)),
        ([[0, 1, 2, 3, 4, 5, 200]], 2, 2, (41,)),
    ],
)
def test_large_constructive_answers(sets, t, cut, ht):
    res = structure_constants(make_tuple(sets), t, strategy="constructive")
    assert (res.low_cut, res.threshold.coords) == (cut, ht)


def test_enumeration_changes_no_constructive_result(monkeypatch):
    rng = random.Random(23)
    cases = [(make_tuple([[0, 3, 4]]), 256)] + [
        (random_normalized_tuple(rng, size_max=4, elt_max=9), rng.randint(1, 5))
        for _ in range(120)
    ]
    cases = [(st, t) for st, t in cases if not _refused(st, t)]
    assert len(cases) >= 100

    def results():
        return [structure_constants(st, t, strategy="constructive") for st, t in cases]

    mixed = results()
    _enumerate_only(monkeypatch)
    assert results() == mixed


def _refused(st, t):
    try:
        low_fringe_constants(st, t)
    except DegenerateAlphabetError:
        return True
    return False


_HEAVY = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from chromsum.intset import make_tuple
from chromsum.structure import structure_constants
res = structure_constants(make_tuple([[0, 1, 2, 3, 100], [0, 1, 2]]), 2, strategy="constructive")
print(res.low_cut, *res.threshold.coords)
"""


_WIDE_BOX = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))
from chromsum.intset import make_tuple
from chromsum.structure import structure_constants, verify_box
st = make_tuple([[0, 2, 3], [0, 1], [0, 3]])
checked = verify_box(st, 2, structure_constants(st, 2), margin=40)
print(len(checked), all(ok for _, ok in checked))
"""


def test_wide_box_fits_in_400_mb():
    # 41^3 points: the walk holds one group of 41 rows and three partial
    # products, not the whole box
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", _WIDE_BOX], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["68921", "True"]


def test_heavy_constructive_request_fits_in_one_gib():
    # each side's target has over 400,000 partitions into the small parts,
    # and the DP picks the fewest without listing them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", _HEAVY], env=env, capture_output=True, text=True, timeout=20
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1", "34", "49"]


_ONE_PASS = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from chromsum import _arrays, repcount
routes = []
listed = _arrays._enumerated_loads
def spy(*args):
    routes.append("listed")
    return listed(*args)
_arrays._enumerated_loads = spy
print(*repcount._fewest_loads([3, 4], [0, 0], 1, list(range(300000, 300004)), 20000), *routes)
"""


def test_enumeration_lists_every_target_in_one_pass_within_one_gib():
    # about 100,000 partitions of four targets into 3 and 4, more than
    # 2^16, listed at once
    targets = range(300000, 300004)
    assert sum((n - 4 * b) % 3 == 0 for n in targets for b in range(n // 4 + 1)) > 1 << 16
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", _ONE_PASS], env=env, capture_output=True, text=True, timeout=20
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["95000", "listed"]


_LONG_CERTIFICATE = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from chromsum.intset import make_tuple
from chromsum.structure import structure_constants
res = structure_constants(make_tuple([[0, 1, 1000]]), 10, strategy="constructive")
print(*res.threshold.coords)
"""


def test_long_constructive_certificate_fits_in_one_gib():
    # the certificate reads rows of about 10^7 entries near h = 10,000,
    # and keeps only those of the points it visits
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", _LONG_CERTIFICATE], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["9999"]


@pytest.mark.parametrize("strategy, ht", [("empirical", (2998,)), ("constructive", (2999,))])
def test_certificate_rows_take_no_stream_from_row_0(monkeypatch, strategy, ht):
    # the certificate's rows near h = 3,000 come from the partition folds,
    # not from thousands of numpy kernel steps
    monkeypatch.setattr(_arrays, "_multiset_rows", lambda *_: pytest.fail("streamed rows"))
    assert structure_constants(A023, 1000, strategy=strategy).threshold.coords == ht


@pytest.mark.parametrize("sets, ht, builds, from_zero, steps", [
    ([[0, 1, 2, 3]] * 3, (1, 1, 1), 1, 1, 1),
    ([[0, 5, 13, 14], [0, 5, 13, 14], [0, 1]], (2, 2, 7), 20, 10, 62),
])
def test_equal_colors_share_their_packed_rows(monkeypatch, sets, ht, builds, from_zero, steps):
    # as packed products, the certificate steps to each (set, h, slot
    # width) row once, whichever colors ask for it, from the highest state
    # the scope keeps below it at that width: 1 and 20 rows in 1 and 62
    # steps, 1 and 10 of them from row 0.  Building each row from row 0
    # took 2 and 22 builds and 1 and 94 steps (the h = 0 rows take none
    # now); one row per color would make 6 and 31
    calls = packed_steps(monkeypatch)
    assert structure_constants(make_tuple(sets), 5).threshold == HVec(ht)
    stepped = [(elements, h, size) for _, elements, size, h, n in calls if n]
    assert len(stepped) == len(set(stepped)) == builds
    assert sum(1 for *_, h, n in calls if n == h > 0) == from_zero
    assert sum(n for *_, n in calls) == steps
    assert repcount._ROWS.get() is None


@pytest.mark.parametrize("strategy, ht", [("empirical", (2, 2, 7)), ("constructive", (12, 2, 7))])
def test_the_scope_keeps_packed_states_only(monkeypatch, strategy, ht):
    # on the numpy walk too, the certificate's scope keeps only packed
    # states, by (set, slot bytes) and then by row, each a list of ints:
    # every row array is unpacked from them, and none is kept
    monkeypatch.setattr(repcount, "_PRODUCT_BITS", -1)
    kept = []

    class scope(repcount._shared_rows):
        def __exit__(self, *exc):
            kept.append(repcount._ROWS.get())
            super().__exit__(*exc)

    monkeypatch.setattr(structure, "_shared_rows", scope)
    st = make_tuple([[0, 5, 13, 14], [0, 5, 13, 14], [0, 1]])
    assert structure_constants(st, 5, strategy=strategy).threshold == HVec(ht)
    [rows] = kept
    assert {key[0] for key in rows} == {(0, 1), (0, 5, 13, 14)}
    for key, states in rows.items():
        assert len(key) == 2 and type(key[1]) is int
        assert all(type(h) is int and type(state) is list for h, state in states.items())
        assert all(type(x) is int for state in states.values() for x in state)


def test_long_unproven_search_resumes_its_rows(monkeypatch):
    # [[0,1,2,3]] t=32768: no certificate row past the packed cells is
    # proven, so each is packed.  Rebuilt from row 0 at each probe, its 16
    # rows took 8,448 steps to reach h_t = 607; resumed from the states
    # the scope keeps, a new slot width alone starts again at row 0
    calls = packed_steps(monkeypatch)
    assert structure_constants(make_tuple([[0, 1, 2, 3]]), 32768).threshold == HVec((607,))
    assert sum(n for *_, n in calls) < 2 * 607


def test_no_row_outlives_a_structure_call():
    # the row scope ends with the call, whether it returns or raises
    for strategy in ("empirical", "constructive"):
        structure_constants(A023, 3, strategy=strategy)
        assert repcount._ROWS.get() is None
    with pytest.raises(SearchExhaustedError):
        structure_constants(A023, 3, ceiling=0)
    assert repcount._ROWS.get() is None


class TestThresholds:
    def test_constructive_stays_below_closed_form(self):
        ht = threshold_constructive(A023, 1)
        assert ht.coords == (2,)
        assert ht.coords[0] <= closed_form_threshold(make_set([0, 2, 3]), 1)

    def test_empirical_full_interval(self):
        res = structure_constants(make_tuple([[0, 1]]), 1)
        assert (res.low_fringe.elements, res.low_cut) == ((), 0)
        assert (res.high_fringe.elements, res.high_cut) == ((), 0)

    def test_empirical_worked_instance(self):
        res = structure_constants(A023, 1)
        assert (res.low_fringe.elements, res.low_cut) == ((0,), 2)
        assert (res.high_fringe.elements, res.high_cut) == ((), 0)
        assert res.strategy == "empirical"

    def test_empirical_degenerate_pair_still_works(self):
        res = structure_constants(make_tuple([[0, 1], [0, 1]]), 2)
        assert (res.low_fringe.elements, res.low_cut) == ((), 1)
        assert (res.high_fringe.elements, res.high_cut) == ((), 1)

    def test_empirical_refuses_eventually_empty(self):
        with pytest.raises(DegenerateAlphabetError):
            structure_constants(make_tuple([[0, 1]]), 2)
        with pytest.raises(DegenerateAlphabetError):
            structure_constants(make_tuple([[0, 1], [0]]), 2)

    def test_empirical_margin_validation(self):
        with pytest.raises(DomainError):
            structure_constants(A023, 1, margin=0)

    @pytest.mark.parametrize("call, args, kwargs, message", [
        (structure_constants, (A023, True), {}, _T),
        (structure_constants, (A023, 2.0), {}, _T),
        (structure_constants, (A023, 0), {}, _T),
        (structure_constants, (A023, 2), {"margin": True}, _MARGIN),
        (structure_constants, (A023, 2), {"margin": 2.0}, _MARGIN),
        (structure_constants, (A023, 2), {"margin": 0}, _MARGIN),
        (structure_constants, (A023, True), {"strategy": "constructive"}, _T),
        (structure_constants_inhomogeneous, (A023, make_set([0, 1]), True), {}, _T),
        (structure_constants_inhomogeneous, (A023, make_set([0, 1]), 2), {"margin": True}, _MARGIN),
        (structure_constants, (A023, 2), {"B": make_set([0, 1]), "margin": True}, _MARGIN),
        (threshold_constructive, (A023, True), {}, _T),
        (threshold_constructive, (A023, 0), {}, _T),
        (certified_rep_bound, (A023, True), {}, _T),
        (certified_rep_bound, (A023, 0), {}, _T),
        (low_fringe_constants, (A023, 0), {}, _T),
        (high_fringe_constants, (A023, True), {}, _T),
        (closed_form_threshold, (make_set([0, 2, 3]), 0), {}, _T),
        (witness_representations, (A023, 20, True), {}, _T),
        (witness_representations, (A023, 20, 2.0), {}, _T),
        (witness_representations, (A023, 20, 0), {}, _T),
        (witness_representations, (A023, 20.0, 1), {}, "n must be an integer"),
        (structure_constants, (A023, 2), {"ceiling": True}, _CEILING),
        (structure_constants, (A023, 2), {"ceiling": 2.5}, _CEILING),
        (structure_constants, (A023, 2), {"ceiling": -1}, _CEILING),
        (structure_constants, (A023, 2), {"strategy": "constructive", "B": make_set([0, 1])}, _NO_B),
        (structure_constants, (A023, 2), {"strategy": "constructive", "ceiling": 10}, _NO_B),
        (StructureResult.pattern_set, (R023, True), {}, "right endpoint must be an integer"),
        (StructureResult.pattern_set, (R023, 10.0), {}, "right endpoint must be an integer"),
        (verify_box, (A023, 0, R023), {}, _T),
        (verify_box, (A023, 1, R023), {"margin": -1}, "margin must be a nonnegative integer"),
        (verify_box, (A023, 1, R023), {"margin": 1.0}, "margin must be a nonnegative integer"),
    ], ids=lambda x: getattr(x, "__name__", None) if callable(x) else None)
    def test_scalar_parameters_refuse_bools_and_floats(self, monkeypatch, call, args, kwargs, message):
        # True is not read as 1 nor 2.0 as 2: the typed error comes before
        # the search, the constructive route or a witness starts; so does
        # the refusal of a negative ceiling, and of a translation set or a
        # ceiling on the constructive route; a pattern's right endpoint is
        # refused the same way
        def work(*_):
            raise AssertionError("computed before refusing")

        for name in ("_stabilize", "_limit_constants", "_ext_gcd", "_limit_fringe", "_streamed_box_fits"):
            monkeypatch.setattr(structure, name, work)
        with pytest.raises(DomainError) as refused:
            call(*args, **kwargs)
        assert str(refused.value) == message

    @pytest.mark.parametrize("call, args", [
        (structure_constants, (_A024, 2)),
        (structure_constants, (_A024, 2, "constructive")),
        (certified_rep_bound, (_A024, 2)),
        (low_fringe_constants, (_A024, 2)),
        (high_fringe_constants, (_A024, 2)),
        (threshold_constructive, (_A024, 2)),
        (witness_representations, (_A024, 100, 2)),
        (verify_box, (_A024, 1, R023)),
        (verify_structure, (_A024, 1, R023, HVec((1,)))),
    ], ids=lambda x: getattr(x, "__name__", None) if callable(x) else None)
    def test_structure_entries_refuse_a_tuple_that_is_not_normalized(self, call, args):
        # {0, 2, 4} has minimum 0 but gcd 2: every entry refuses it first
        with pytest.raises(NotNormalizedError, match="^this operation requires a normalized tuple$"):
            call(*args)

    def test_high_fringe_constants_refuses_a_tuple_off_zero(self):
        with pytest.raises(NotNormalizedError):
            high_fringe_constants(make_tuple([[1, 2]]), 1)

    def test_search_ceiling_is_enforced(self):
        with pytest.raises(SearchExhaustedError):
            structure_constants(A023, 3, ceiling=0)

    @pytest.mark.parametrize("sets, t", [([[0, 1, 3], [0, 2, 5]], 2), ([[0, 3, 10], [0, 7, 9]], 3)])
    def test_search_ceiling_is_the_first_certified_diagonal_point(self, sets, t):
        # the galloping ascent probes the ceiling itself: a ceiling at the
        # first certified diagonal point m* is enough, one below it is not
        st = make_tuple(sets)
        first, m_star = _linear_walk(st, t, make_set([0]))[:2]
        assert first < m_star
        assert structure_constants(st, t, ceiling=m_star) == structure_constants(st, t)
        with pytest.raises(SearchExhaustedError):
            structure_constants(st, t, ceiling=m_star - 1)
        # so is a ceiling below the first point with a nonempty middle
        with pytest.raises(SearchExhaustedError):
            structure_constants(st, t, ceiling=first - 1)

    def test_search_size_calls_are_pinned(self, monkeypatch):
        # one certificate size fold per cert point the galloping walks
        # visit, each at a plain coordinate tuple; a walk of one step at a
        # time made 88 here
        size, calls = structure._tfold_size, []

        def spy(st, B, t, coords):
            calls.append(coords)
            return size(st, B, t, coords)

        monkeypatch.setattr(structure, "_tfold_size", spy)
        res = structure_constants(make_tuple([[0, 3, 100], [0, 7, 99]]), 20)
        assert res.threshold == HVec((63, 28))
        assert all(type(coords) is tuple for coords in calls)
        assert len(calls) == 25 and len(set(calls)) == 25

    def test_search_makes_no_box_check(self, monkeypatch):
        # the certificate proves the margin box; only verify_box walks it
        box_fits, calls = repcount._streamed_box_fits, []

        def spy(*args):
            calls.append(args)
            return box_fits(*args)

        monkeypatch.setattr(structure, "_streamed_box_fits", spy)
        for sets, t, B in [([[0, 2, 3]], 1, None), ([[0, 1, 3], [0, 2, 5]], 2, make_set([0, 2])),
                           ([[0, 1, 7], [0, 2], [0, 3]], 2, None)]:
            res = structure_constants(make_tuple(sets), t, margin=5, B=B)
        assert calls == []
        assert all(ok for _, ok in verify_box(make_tuple(sets), t, res, B=B, margin=5))
        assert len(calls) == 1

    def test_box_walk_convolution_count_is_pinned(self, monkeypatch):
        # the walk forms each partial product once: at margin 3, two
        # colors take the last color's 4 rows times each of the first's 4,
        # 16 products, and three colors add 16 partial products of the
        # first two to 64 last-color products, 80; folding each point's
        # whole prefix again would take 2 per point, 128.  A two-element B
        # is folded once into each of the first color's 4 rows: 20 and 84
        convolve, calls = np.convolve, []
        monkeypatch.setattr(np, "convolve", lambda a, v: calls.append(1) or convolve(a, v))
        two, three = [[0, 2, 3], [0, 1, 5]], [[0, 2, 3], [0, 1, 5], [0, 4, 7]]
        for sets, B, want in [(two, None, 16), (three, None, 80),
                              (two, make_set([0, 1]), 20), (three, make_set([0, 1]), 84)]:
            st = make_tuple(sets)
            res = structure_constants(st, 2, B=B)
            calls.clear()
            checked = verify_box(st, 2, res, B=B, margin=3)
            assert len(checked) == 4 ** st.q and all(ok for _, ok in checked)
            assert len(calls) == want, (sets, B)

    def test_empirical_constants_are_the_limit(self):
        # a shape read off one t-fold set and checked on a margin box gave
        # c=14, c=11 and d=27 here
        cases = [
            ([[0, 1], [0, 7, 13, 14]], 3, ((), 13, (), 2)),
            ([[0, 5], [0, 11, 12], [0, 1]], 3, ((), 10, (), 2)),
            ([[0, 5, 13, 14]], 5, ((70, 75), 78, (), 23)),
        ]
        for sets, t, want in cases:
            res = structure_constants(make_tuple(sets), t)
            got = (res.low_fringe.elements, res.low_cut,
                   res.high_fringe.elements, res.high_cut)
            assert got == want, sets

    def test_uncertified_constructive_vector_is_an_internal_invariant(self, monkeypatch):
        monkeypatch.setattr(structure, "_certifier", lambda st, B, dec, sets: lambda h: False)
        with pytest.raises(RuntimeError, match="internal invariant"):
            structure_constants(A023, 1, strategy="constructive")

    def test_box_check_matches_the_member_comparison(self):
        rng = random.Random(53)
        for _ in range(150):
            st = random_normalized_tuple(rng, size_max=3, elt_max=6)
            B = make_set([0] + rng.sample(range(1, 4), rng.randint(0, 2)))
            t = rng.randint(1, 4)
            if structure._counts_are_bounded(st) and t > len(B):
                continue  # no limit shape: the search refuses these
            low, cut_low, high, cut_high = structure._limit_constants(st, B, t)
            # a wrong fringe, still inside [0, cut - 2], on either side
            side = rng.choice(["low", "high", None])
            if side == "low" and cut_low >= 2:
                low = tuple(sorted(set(low) ^ {rng.randrange(cut_low - 1)}))
            if side == "high" and cut_high >= 2:
                high = tuple(sorted(set(high) ^ {rng.randrange(cut_high - 1)}))
            dec = (low, cut_low, high, cut_high)
            lo = HVec(tuple(rng.randint(0, 4) for _ in range(st.q)))
            if lo.dot(st.maxima) + B.max + 1 < cut_low + cut_high:
                continue
            want = next(
                (h for h in box(lo, 2)
                 if inhomogeneous_count_table(st, h, B, cap=t).support_at_least(t).elements
                 != structure._pattern_members(dec, h.dot(st.maxima) + B.max)),
                None,
            )
            fits = repcount._streamed_box_fits(st, B, t, dec, lo.coords, 2)
            got = next((h for h, ok in zip(box(lo, 2), fits) if not ok), None)
            assert got == want, (st.sets, B.elements, t, dec, lo)
            checked = verify_box(st, t, structure._result(dec, lo.coords, "empirical", 0), lo, B, 2)
            assert [h for h, _ in checked] == box(lo, 2)
            assert next((h for h, ok in checked if not ok), None) == want

    def test_box_fold_matches_the_member_comparison_at_every_point(self):
        # corrupted limit shapes over random boxes: at every point, the
        # box walk must answer whether the t-fold set is exactly the
        # shape's members
        rng = random.Random(89)
        kinds = ["none", "flip_low", "flip_high", "move_low_cut", "move_high_cut",
                 "above_end", "negative", "huge_cut"]
        verdicts = {kind: set() for kind in kinds}
        cases = 0
        for case in range(350):
            st = random_normalized_tuple(rng, size_max=3, elt_max=6)
            B = make_set([0] + rng.sample(range(1, 4), rng.randint(0, 2)))
            t = rng.randint(1, 4)
            if structure._counts_are_bounded(st) and t > len(B):
                continue
            low, cut_low, high, cut_high = structure._limit_constants(st, B, t)
            low, high = set(low), set(high)
            lo = HVec(tuple(rng.randint(0, 4) for _ in range(st.q)))
            margin = rng.randint(0, 3)
            end = lo.dot(st.maxima) + B.max
            kind = kinds[case % len(kinds)]
            side = rng.choice([low, high])
            if kind == "flip_low":
                low ^= {rng.randrange(max(cut_low - 1, 1))}
            elif kind == "flip_high":
                high ^= {rng.randrange(max(cut_high - 1, 1))}
            elif kind == "move_low_cut":
                cut_low += rng.choice([-1, 1])
            elif kind == "move_high_cut":
                cut_high += rng.choice([-1, 1])
            elif kind == "above_end":
                side.add(end + rng.randint(1, margin * max(st.maxima) + 1))
            elif kind == "negative":
                side.add(-rng.randint(1, 3))
            elif kind == "huge_cut":  # past int64: the middle is empty
                cut_low, cut_high = rng.choice([(cut_low + (1 << 70), cut_high),
                                                (cut_low, cut_high + (1 << 70))])
            dec = (tuple(sorted(low)), cut_low, tuple(sorted(high)), cut_high)
            want = [
                inhomogeneous_count_table(st, h, B, cap=t).support_at_least(t).elements
                == structure._pattern_members(dec, h.dot(st.maxima) + B.max)
                for h in box(lo, margin)
            ]
            args = (st.sets, B.elements, t, dec, lo.coords, margin)
            assert repcount._streamed_box_fits(st, B, t, dec, lo.coords, margin) == want, args
            if cut_low + cut_high <= end:
                checked = verify_box(st, t, structure._result(dec, lo.coords, "empirical", 0), lo, B, margin)
                assert checked == list(zip(box(lo, margin), want)), args
            verdicts[kind].update(want)
            cases += 1
        assert cases >= 300
        assert verdicts["negative"] == {False}
        assert all(verdicts[kind] == {False, True} for kind in kinds[:-2]), verdicts

    @pytest.mark.parametrize(
        "top, t, fold_dtype",
        [(9, 1 << 30, np.float64), (9, 1 << 31, np.float64),
         (14, 1 << 30, np.int64), (14, 1 << 31, np.int64),
         (19, 1 << 30, object), (19, 1 << 31, object)],
    )
    def test_box_fold_on_wide_counts(self, monkeypatch, top, t, fold_dtype):
        # 100-multisets of {0..9} count up to ~2e10 near the middle, those
        # of {0..14} up to ~1e15 and those of {0..19} up to ~1e19: t-fold
        # intervals at t = 2^30 and 2^31.  Every capped bound exceeds
        # 2^62, so the fold's dtype comes from the box's total count, the
        # box's and the search's size alike, as for its count table:
        # float64 for {0..9} (every count below 2^53), int64 for {0..14}
        # (below 2^62) and dtype=object for {0..19}
        st, B, lo = make_tuple([list(range(top + 1))]), make_set([0]), HVec((100,))
        assert (100 * top + 1) * t * t >= 1 << 62
        box_counts, dtypes = repcount._box_counts, set()

        def spy(*args):
            for group in box_counts(*args):
                dtypes.add(group.dtype)
                yield group

        members = inhomogeneous_count_table(st, lo, B, cap=t).support_at_least(t).elements
        assert members == tuple(range(members[0], members[-1] + 1)) and len(members) > 100
        exact = ((), members[0], (), 100 * top - members[-1])
        monkeypatch.setattr(repcount, "_box_counts", spy)
        assert repcount._tfold_size(st, B, t, lo.coords) == len(members)
        assert repcount._streamed_box_fits(st, B, t, exact, lo.coords, 0) == [True]
        _, cut_low, _, cut_high = exact
        for dec in [exact, ((), cut_low, (), cut_high + 1), ((), cut_low + 1, (), cut_high),
                    ((), cut_low, (cut_high - 2,), cut_high)]:
            want = [
                inhomogeneous_count_table(st, h, B, cap=t).support_at_least(t).elements
                == structure._pattern_members(dec, top * h.coords[0])
                for h in (lo, HVec((101,)))
            ]
            assert repcount._streamed_box_fits(st, B, t, dec, lo.coords, 1) == want
        # a one-point box's float counts come back as int64
        assert dtypes == {np.dtype(fold_dtype), np.dtype(np.int64 if fold_dtype is np.float64 else fold_dtype)}

    def test_verify_takes_the_rows_of_zero_from_row_0(self, monkeypatch):
        # the rows of {0} are all [1]: verify at a huge coordinate of that
        # color computes no more rows than at a small one, whether they are
        # packed or streamed, also where no capped row is proven
        rows, drawn, capped = _arrays._multiset_rows, [], _arrays._capped_rows
        exact = _arrays._exact_row

        def counted(elements, dtype, cap, start=None):
            for m, row in enumerate(rows(elements, dtype, cap, start)):
                assert m <= 100, "streamed the rows of {0} up to its coordinate"
                drawn.append(m)
                yield row

        def packed(elements, hs, bound, cap=None):
            # one packed step per row up to the top one
            assert hs[-1] <= 100, "packed the rows of {0} up to its coordinate"
            drawn.append(hs[-1])
            return exact(elements, hs, bound, cap)

        st = make_tuple([[0, 2, 3], [0]])
        res = structure_constants(st, 2)
        far, near = HVec((res.threshold.coords[0], 10**9)), HVec((res.threshold.coords[0], 1))
        monkeypatch.setattr(_arrays, "_multiset_rows", counted)
        monkeypatch.setattr(_arrays, "_exact_row", packed)
        monkeypatch.setattr(
            _arrays, "_capped_rows",
            lambda elements, hs, cap: capped(elements, hs, cap) if elements == (0,) else None,
        )
        assert verify_structure(st, 2, res, far) is True
        assert verify_box(st, 2, res, far, margin=2) == [(h, True) for h in box(far, 2)]
        corrupt = StructureResult.from_json({**res.to_json(), "c": res.low_cut + 1})
        assert ([ok for _, ok in verify_box(st, 2, corrupt, far, margin=1)]
                == [ok for _, ok in verify_box(st, 2, corrupt, near, margin=1)])
        assert max(drawn) <= res.threshold.coords[0] + 2

    def test_margin_box_folds_each_partition_table_once(self, monkeypatch):
        # a margin-3 box of [[0,17,40]] reads its 4 rows off one partition
        # fold per end at the top row: 2 folds, not 2 per row, and the
        # same answers as verifying each point on its own
        st, t = make_tuple([[0, 17, 40]]), 5
        res = structure_constants(st, t)
        lo = HVec((res.threshold.coords[0] + 4,))
        want = [verify_structure(st, t, res, h) for h in box(lo, 3)]
        assert _arrays._capped_rows((0, 17, 40), range(lo.coords[0], lo.coords[0] + 4), t)
        folds, unbounded = [], _arrays._unbounded_rows

        def spy(acc, parts, cap):
            folds.append(len(acc))
            return unbounded(acc, parts, cap)

        monkeypatch.setattr(_arrays, "_unbounded_rows", spy)
        assert verify_box(st, t, res, lo, margin=3) == list(zip(box(lo, 3), want))
        assert want == [True] * 4
        assert len(folds) == 2

    def test_verify_matches_the_set_definition(self):
        # crafted results around the true shape: verify must answer exactly
        # whether the pattern set equals the t-fold set of the count table
        rng = random.Random(71)
        kinds = ["none", "low_in_middle", "high_in_middle", "low_above_end",
                 "negative_high", "low_cut_moved", "high_cut_moved"]
        seen = {kind: [0, 0] for kind in kinds}
        cases = 0
        while cases < 600:
            st = random_normalized_tuple(rng, q_max=2, size_max=3, elt_max=5)
            B = make_set([0] + rng.sample(range(1, 3), rng.randint(0, 1)))
            t = rng.randint(1, 3)
            if structure._counts_are_bounded(st) and t > len(B):
                continue
            true = structure_constants(st, t, margin=1, B=B)
            h = HVec(tuple(max(0, c + rng.randint(-1, 2)) for c in true.threshold.coords))
            m = h.dot(st.maxima) + B.max
            low, cut_low = set(true.low_fringe.elements), true.low_cut
            high, cut_high = set(true.high_fringe.elements), true.high_cut
            kind = rng.choice(kinds)
            if kind == "low_in_middle" and cut_low <= m - cut_high:
                low.add(rng.randint(cut_low, m - cut_high))
            elif kind == "high_in_middle" and cut_high <= m - cut_low:
                high.add(rng.randint(cut_high, m - cut_low))
            elif kind == "low_above_end":
                low.add(m + rng.randint(1, 3))
            elif kind == "negative_high":
                high.add(-rng.randint(1, 3))
            elif kind == "low_cut_moved":
                cut_low += rng.choice([-1, 1])
            elif kind == "high_cut_moved":
                cut_high += rng.choice([-1, 1])
            result = StructureResult(
                low_fringe=FiniteSet(tuple(sorted(low))), low_cut=cut_low,
                high_fringe=FiniteSet(tuple(sorted(high))), high_cut=cut_high,
                threshold=h, strategy="empirical", verified_box=(h, h),
            )
            if cut_low + cut_high > m:
                with pytest.raises(DomainError):
                    verify_structure(st, t, result, h, B)
                continue
            want = result.pattern_set(m) == inhomogeneous_count_table(
                st, h, B, cap=t).support_at_least(t)
            got = verify_structure(st, t, result, h, B)
            assert got == want, (st.sets, B.elements, t, result, h)
            seen[kind][want] += 1
            cases += 1
        # every kind of crafted result ran, and both answers are common
        assert all(no + yes for no, yes in seen.values()), seen
        assert min(map(sum, zip(*seen.values()))) >= 100, seen

    def test_threshold_constructive_is_the_constructive_result(self):
        rng = random.Random(89)
        cases = singles = 0
        while cases < 120:
            st = random_normalized_tuple(rng, q_max=3, size_max=3, elt_max=5)
            t = rng.randint(1, 3)
            if structure._counts_are_bounded(st) and t > 1:
                continue
            res = structure_constants(st, t, strategy="constructive")
            assert threshold_constructive(st, t) == res.threshold, (st.sets, t)
            cases += 1
            singles += st.q == 1
        assert singles >= 20

    def test_zero_color_needs_no_exponent(self):
        plain = structure_constants(make_tuple([[0, 8], [0, 5]]), 3)
        padded = structure_constants(make_tuple([[0], [0, 8], [0, 5]]), 3)
        assert (padded.low_fringe, padded.low_cut, padded.high_fringe, padded.high_cut) == (
            plain.low_fringe, plain.low_cut, plain.high_fringe, plain.high_cut)
        assert padded.threshold.coords == (0,) + plain.threshold.coords


class TestVerify:
    def test_true_at_closed_form_box(self):
        res = structure_constants(A023, 1, strategy="constructive")
        for h in range(13, 17):
            assert verify_structure(A023, 1, res, HVec((h,)))

    def test_corrupted_constant_detected(self):
        res = structure_constants(A023, 1, strategy="empirical")
        broken = StructureResult(
            low_fringe=res.low_fringe,
            low_cut=res.low_cut - 1,
            high_fringe=res.high_fringe,
            high_cut=res.high_cut,
            threshold=res.threshold,
            strategy=res.strategy,
            verified_box=res.verified_box,
        )
        assert not verify_structure(A023, 1, broken, HVec((5,)))

    def test_below_threshold_refused(self):
        res = structure_constants(A023, 1, strategy="constructive")
        with pytest.raises(DomainError):
            verify_structure(A023, 1, res, HVec((res.threshold.coords[0] - 1,)))

    def test_dimension_mismatch(self):
        res = structure_constants(A023, 1, strategy="empirical")
        with pytest.raises(DimensionError):
            verify_structure(A023, 1, res, HVec((2, 2)))

    def test_malformed_interval(self):
        bad = StructureResult(
            low_fringe=FiniteSet.empty(),
            low_cut=50,
            high_fringe=FiniteSet.empty(),
            high_cut=50,
            threshold=HVec((1,)),
            strategy="empirical",
            verified_box=(HVec((1,)), HVec((4,))),
        )
        with pytest.raises(DomainError):
            verify_structure(A023, 1, bad, HVec((2,)))

    def test_overlapping_constructive_cuts_are_an_internal_fault(self, monkeypatch):
        # cuts that overlap at the constructive vector (c + d > M) are a
        # fault of the library, not a refusal: the certificate at that
        # vector fails, and the call raises the internal invariant
        st, t = make_tuple([[0, 2, 3]]), 2
        (low, _, high, cut_high), coords = structure._constructive(st, t)
        end = sum(c * a for c, a in zip(coords, st.maxima))
        overlap = (low, end - cut_high + 1, high, cut_high)
        monkeypatch.setattr(structure, "_constructive", lambda *_: (overlap, coords))
        with pytest.raises(RuntimeError, match="internal invariant"):
            structure_constants(st, t, strategy="constructive")

    def test_box_defaults_to_the_verified_box(self):
        res = structure_constants(A023, 2)
        lo, hi = res.verified_box
        assert verify_box(A023, 2, res) == [
            (HVec((h,)), True) for h in range(lo.coords[0], hi.coords[0] + 1)]
        assert verify_box(A023, 2, res, margin=0) == [(res.threshold, True)]

    def test_box_margin_validation(self):
        res = structure_constants(A023, 2)
        for margin in (-1, True, 1.0):
            with pytest.raises(DomainError):
                verify_box(A023, 2, res, margin=margin)


class TestStructureConstants:
    def test_worked_instance_both_strategies(self):
        for strategy in ("constructive", "empirical"):
            res = structure_constants(A023, 1, strategy=strategy)
            assert res.low_fringe.elements == (0,)
            assert res.low_cut == 2
            assert res.high_fringe.elements == ()
            assert res.high_cut == 0
            assert res.strategy == strategy

    def test_symmetric_set_equal_constants(self):
        res = structure_constants(make_tuple([[0, 1, 2]]), 2, strategy="empirical")
        assert res.low_fringe == res.high_fringe
        assert res.low_cut == res.high_cut

    def test_strategies_agree_on_disjoint_two_color(self):
        for sets in ([[0, 2], [0, 3]], [[0, 1, 2], [0, 1, 2]], [[0, 3, 5], [0, 2, 7]]):
            st = make_tuple(sets)
            for t in (1, 2, 3):
                a = structure_constants(st, t, strategy="constructive")
                b = structure_constants(st, t, strategy="empirical")
                assert (a.low_fringe, a.low_cut, a.high_fringe, a.high_cut) == (
                    b.low_fringe, b.low_cut, b.high_fringe, b.high_cut), (sets, t)

    def test_overlapping_colors_match_empirical(self):
        # the first tuple shares every element between its colors; the
        # second's colors are disjoint, but their reflections {0,2,5} and
        # {0,5,7} share 5.  Colored constants describe both, over the box.
        for sets in ([[0, 1, 2], [0, 1, 2]], [[0, 3, 5], [0, 2, 7]]):
            st = make_tuple(sets)
            res = structure_constants(st, 2, strategy="constructive")
            emp = structure_constants(st, 2)
            assert (res.low_fringe, res.low_cut, res.high_fringe, res.high_cut) == (
                emp.low_fringe, emp.low_cut, emp.high_fringe, emp.high_cut)
            lo, hi = res.verified_box
            for a in range(lo.coords[0], hi.coords[0] + 1):
                for b in range(lo.coords[1], hi.coords[1] + 1):
                    assert verify_structure(st, 2, res, HVec((a, b))), (sets, a, b)

    def test_unknown_strategy(self):
        with pytest.raises(DomainError):
            structure_constants(A023, 1, strategy="guess")

    def test_reflection_duality(self):
        rng = random.Random(91)
        for _ in range(10):
            st = random_normalized_tuple(rng, q_max=2, size_max=3, elt_max=5)
            res = structure_constants(st, 1, strategy="empirical")
            mirrored = structure_constants(st.reflected(), 1, strategy="empirical")
            assert (res.low_fringe, res.low_cut) == (mirrored.high_fringe, mirrored.high_cut)
            assert (res.high_fringe, res.high_cut) == (mirrored.low_fringe, mirrored.low_cut)

    def test_persistence_inside_box(self):
        res = structure_constants(make_tuple([[0, 1, 4], [0, 2]]), 2,
                                  strategy="empirical")
        lo, hi = res.verified_box
        st = make_tuple([[0, 1, 4], [0, 2]])
        for da in range(hi.coords[0] - lo.coords[0] + 1):
            for db in range(hi.coords[1] - lo.coords[1] + 1):
                h = HVec((lo.coords[0] + da, lo.coords[1] + db))
                assert verify_structure(st, 2, res, h)

    def test_result_json_roundtrip(self):
        res = structure_constants(A023, 2, strategy="empirical")
        obj = res.to_json()
        assert set(obj) == {"C", "c", "D", "d", "h_t", "strategy", "verified_box"}
        assert StructureResult.from_json(obj) == res

    def test_result_json_malformed(self):
        with pytest.raises(ValueError):
            StructureResult.from_json({"C": []})
        with pytest.raises(ValueError):
            StructureResult.from_json([1, 2])

    def test_result_json_refuses_non_integers(self):
        obj = structure_constants(A023, 2, strategy="empirical").to_json()
        for key, value in (("C", [2.5]), ("c", 8.9), ("d", True), ("h_t", [4.7]),
                           ("verified_box", [[4], [7.0]]), ("c", "8")):
            with pytest.raises(ValueError, match="expected an integer"):
                StructureResult.from_json(dict(obj, **{key: value}))

    @pytest.mark.parametrize("strategy", [None, 5, ["x"], "greedy", "Empirical", True])
    def test_result_json_refuses_an_unknown_strategy(self, strategy):
        # to_json writes "empirical" or "constructive" only; any other
        # value is refused, not read back as its str()
        obj = dict(structure_constants(A023, 2, strategy="empirical").to_json(), strategy=strategy)
        with pytest.raises(ValueError, match=r"^malformed structure result: unknown strategy "):
            StructureResult.from_json(obj)

    def test_pattern_set(self):
        res = structure_constants(A023, 1, strategy="empirical")
        assert res == R023
        assert res.pattern_set(9).elements == (0, 2, 3, 4, 5, 6, 7, 8, 9)


class TestInhomogeneous:
    def test_b_zero_reduces_to_plain(self):
        st = make_tuple([[0, 2, 3], [0, 1]])
        plain = structure_constants(st, 2, strategy="empirical")
        shifted = structure_constants(st, 2, B=make_set([0]))
        assert (shifted.low_fringe, shifted.low_cut) == (plain.low_fringe, plain.low_cut)
        assert (shifted.high_fringe, shifted.high_cut) == (plain.high_fringe, plain.high_cut)
        assert shifted.threshold == plain.threshold

    def test_parity_gap_fills(self):
        res = structure_constants(A023, 1, B=make_set([0, 1]))
        assert (res.low_fringe.elements, res.low_cut) == ((), 0)
        assert (res.high_fringe.elements, res.high_cut) == ((), 0)
        for h in (4, 5, 6):
            assert verify_structure(A023, 1, res, HVec((h,)), make_set([0, 1]))

    def test_translation_revives_bounded_tuple(self):
        # counts are capped at 1 but |B| = 2 lifts the ceiling to 2
        res = structure_constants(make_tuple([[0, 1]]), 2, B=make_set([0, 1]))
        assert (res.low_fringe.elements, res.low_cut) == ((), 1)
        assert (res.high_fringe.elements, res.high_cut) == ((), 1)

    def test_degenerate_when_t_exceeds_B(self):
        with pytest.raises(DegenerateAlphabetError):
            structure_constants(make_tuple([[0, 1]]), 3, B=make_set([0, 1]))

    def test_min_B_must_be_zero(self):
        refused = "^the translation set must have minimum 0$"
        with pytest.raises(DomainError, match=refused):
            structure_constants(A023, 1, B=make_set([1, 2]))
        res = structure_constants(A023, 1, strategy="empirical")
        with pytest.raises(DomainError, match=refused):
            verify_structure(A023, 1, res, HVec((3,)), make_set([1]))
        with pytest.raises(DomainError, match=refused):
            verify_box(A023, 1, res, B=make_set([1]))

    def test_delegate_is_the_entry(self):
        # the benchmark's op keeps the old name: the same result, and the
        # same refusal of a ceiling too low for the search
        st, B = make_tuple([[0, 2, 3], [0, 1]]), make_set([0, 2])
        assert (structure_constants_inhomogeneous(st, B, 2, margin=1)
                == structure_constants(st, 2, margin=1, B=B))
        with pytest.raises(SearchExhaustedError):
            structure_constants_inhomogeneous(st, B, 2, ceiling=0)


small_color = hst.sets(hst.integers(1, 5), max_size=2).map(lambda xs: [0, *sorted(xs)])
small_request = hst.tuples(
    hst.lists(small_color, min_size=1, max_size=2),
    hst.integers(1, 3),
    hst.sets(hst.integers(1, 4), max_size=2).map(lambda xs: make_set({0} | xs)),
)


def _certified(request):
    sets, t, B = request
    st = make_tuple(sets)
    assume(st.normalized)
    try:
        res = structure_constants(st, t, B=B)
    except DegenerateAlphabetError:
        assume(False)
    # the certificate proves the shape over the result's own box
    lo, hi = res.verified_box
    assert all(ok for _, ok in verify_box(st, t, res, lo, B, hi.coords[0] - lo.coords[0]))
    return st, t, B, res


def _linear_walk(st, t, B):
    """The search one step at a time, on the search's own cert, which
    takes coordinate tuples: (first diagonal point with a nonempty middle,
    first certified diagonal point, the coordinates after lowering each
    one in turn while cert holds, cert)."""
    dec = structure._limit_constants(st, B, t)
    cert = structure._certifier(st, B, dec, t)
    first = max(0, -(-(dec[1] + dec[3] - B.max) // sum(st.maxima)))
    ceiling = structure._search_ceiling(st, t)
    m_star = next(m for m in range(first, ceiling + 1) if cert((m,) * st.q))
    c = [m_star] * st.q
    for i in range(st.q):
        while c[i] > 0 and cert(tuple(c[:i] + [c[i] - 1] + c[i + 1:])):
            c[i] -= 1
    return first, m_star, tuple(c), cert


@given(small_request)
def test_galloping_walks_find_the_linear_walk_vector(request):
    st, t, B, res = _certified(request)
    _, _, c, cert = _linear_walk(st, t, B)
    assert res.threshold.coords == c
    # minimal: no positive coordinate can be lowered
    assert cert(c)
    assert not any(cert(c[:i] + (c[i] - 1,) + c[i + 1:]) for i in range(st.q) if c[i])


def _oracle_tfold(st, h, B, t) -> set[int]:
    """The t-fold set of h.A + B from the brute-force table."""
    table = oracle_count_table(st, h)
    counts: dict[int, int] = {}
    for n in range(table.offset, table.end + 1):
        for b in B.elements:
            counts[n + b] = counts.get(n + b, 0) + table.value(n)
    return {n for n, c in counts.items() if c >= t}


@given(small_request, hst.lists(hst.integers(0, 4), min_size=2, max_size=2))
def test_certified_pattern_matches_oracle(request, delta):
    st, t, B, res = _certified(request)
    h = HVec(tuple(c + d for c, d in zip(res.threshold.coords, delta)))
    assume(enumeration_size(st, h) <= 50_000)
    m = h.dot(st.maxima) + B.max
    assert _oracle_tfold(st, h, B, t) == set(res.pattern_set(m).elements)


@given(small_request, hst.lists(hst.integers(0, 8), min_size=2, max_size=2))
def test_counts_never_exceed_the_limit(request, coords):
    # counts at h are at most the limit counts from both ends, so every
    # t-fold set lies inside the limit pattern at its right endpoint
    st, t, B, res = _certified(request)
    h = HVec(tuple(coords[: st.q]))
    assume(enumeration_size(st, h) <= 50_000)
    m = h.dot(st.maxima) + B.max
    assert _oracle_tfold(st, h, B, t) <= set(res.pattern_set(m).elements)


def test_colored_rep_helpers():
    rep = ColoredRep(entries=((0, 2, 3), (1, 3, 1)))
    assert rep.total() == 9
    assert rep.color_load(0) == 3
    assert rep.color_load(1) == 1
    assert rep.per_color_tuples(2) == ((2, 2, 2), (3,))
