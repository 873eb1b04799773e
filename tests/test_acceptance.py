"""Acceptance gate: one test per criterion, each printing a visible
pass/fail line.  Every comparison here is exact integer equality."""

import math
import random
import time
from itertools import combinations

import pytest

from chromsum.errors import DegenerateAlphabetError
from chromsum.intset import FiniteSet, HVec, make_set, make_tuple
from chromsum.oracle import (
    enumerate_representations,
    enumeration_size,
    oracle_count_table,
    oracle_partitions,
)
from chromsum.repcount import (
    chromatic_count_table,
    partition_count_table,
    tfold_set,
)
from chromsum.structure import (
    certified_rep_bound,
    closed_form_threshold,
    low_fringe_constants,
    structure_constants,
    verify_structure,
    witness_representations,
)

from conftest import random_normalized_tuple, random_oracle_instance

BATTERY_SEED = 20240822
BATTERY_SIZE = 200


def _report(capsys, number: int, name: str, failures: list, extra: str = ""):
    ok = not failures
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" [{extra}]"
    with capsys.disabled():
        print(f"\n{line}")
    assert ok, f"criterion {number} ({name}): {failures[:5]}"


@pytest.fixture(scope="module")
def battery():
    """Fixed instances reused by the oracle, mass, and symmetry criteria."""
    rng = random.Random(BATTERY_SEED)
    out = []
    for _ in range(BATTERY_SIZE):
        st, h = random_oracle_instance(rng, size_cap=200_000)
        out.append((st, h, chromatic_count_table(st, h)))
    return out


def test_criterion_1_oracle_equivalence(battery, capsys):
    """Fast counting equals exhaustive enumeration on every instance."""
    start = time.monotonic()
    failures = []
    for st, h, table in battery:
        if oracle_count_table(st, h) != table:
            failures.append((st, h))
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report(capsys, 1, "oracle equivalence", failures,
            f"{len(battery)} instances, {elapsed:.1f}s")


def test_criterion_2_mass_conservation(battery, capsys):
    """Total count equals the product of multiset-choose masses."""
    failures = []
    for st, h, table in battery:
        mass = 1
        for A, hi in zip(st.sets, h.coords):
            mass *= math.comb(len(A) + hi - 1, hi)
        if table.total() != mass:
            failures.append((st, h))
    _report(capsys, 2, "mass conservation", failures,
            f"{len(battery)} instances")


def _single_color_instances():
    """Every A from {0} plus 1..3 nonzero elements of [1, 6], gcd 1,
    crossed with thresholds 1..3, minus the degenerate max-1 cases."""
    sets = []
    for size in (1, 2, 3):
        for nonzero in combinations(range(1, 7), size):
            if math.gcd(*nonzero) == 1:
                sets.append((0,) + nonzero)
    out = []
    for elements in sets:
        for t in (1, 2, 3):
            if max(elements) == 1 and t >= 2:
                continue
            out.append((elements, t))
    return out


def test_criterion_3_single_color_closed_form(capsys):
    """The explicit threshold formula is sufficient for every small set."""
    start = time.monotonic()
    instances = _single_color_instances()
    assert len(instances) == 91
    failures = []
    for elements, t in instances:
        A = make_set(elements)
        st = make_tuple([elements])
        ht = closed_form_threshold(A, t)
        try:
            result = structure_constants(st, t, strategy="constructive")
        except DegenerateAlphabetError as exc:
            failures.append((elements, t, repr(exc)))
            continue
        for h in range(ht, ht + 4):
            if not verify_structure(st, t, result, HVec((h,))):
                failures.append((elements, t, h))
    elapsed = time.monotonic() - start
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.1f}s exceeds 300s")
    _report(capsys, 3, "single-color closed-form threshold", failures,
            f"{len(instances)} instances, {elapsed:.1f}s")


def test_criterion_4_multi_color_stabilization(capsys):
    """Empirical search stabilizes for two and three colors, and the
    constructive route returns the same constants on every instance."""
    start = time.monotonic()
    rng = random.Random(BATTERY_SEED + 4)
    failures = []
    done = 0
    while done < 50:
        st = random_normalized_tuple(rng, q_min=2, q_max=3)
        t = (done % 3) + 1
        try:
            result = structure_constants(st, t, margin=3)
        except DegenerateAlphabetError:
            continue
        done += 1
        lo, hi = result.verified_box
        for point in _box_points(lo, hi):
            if not verify_structure(st, t, result, point):
                failures.append((st, t, point.coords))
        cons = structure_constants(st, t, strategy="constructive")
        if (cons.low_fringe, cons.low_cut, cons.high_fringe, cons.high_cut) != (
            result.low_fringe, result.low_cut, result.high_fringe, result.high_cut
        ):
            failures.append(("strategy disagreement", st, t))
    elapsed = time.monotonic() - start
    _report(capsys, 4, "multi-color stabilization", failures,
            f"50 instances, 50 strategy cross-checks, {elapsed:.1f}s")


def _box_points(lo: HVec, hi: HVec):
    from itertools import product

    ranges = [range(a, b + 1) for a, b in zip(lo.coords, hi.coords)]
    for coords in product(*ranges):
        yield HVec(coords)


def test_criterion_5_symmetry(battery, capsys):
    """Reflecting every color reverses the count table."""
    failures = []
    for st, h, table in battery:
        if chromatic_count_table(st.reflected(), h).counts != table.reversed_counts():
            failures.append((st, h))
    _report(capsys, 5, "reflection symmetry", failures,
            f"{len(battery)} instances")


def test_criterion_6_interval_absorption(capsys):
    """[c, c+m-1] + A fills [c, c+m-1+max(A)] once m >= max(A)."""
    rng = random.Random(BATTERY_SEED + 6)
    failures = []
    for _ in range(100):
        A = make_set(sorted({0} | {rng.randint(1, 8) for _ in range(rng.randint(1, 3))}))
        c = rng.randint(-25, 25)
        m = A.max + rng.randint(0, 6)
        if m == 0:
            m = 1
        got = FiniteSet.interval(c, c + m - 1) + A
        want = FiniteSet.interval(c, c + m - 1 + A.max)
        if got != want:
            failures.append((A.elements, c, m))
    _report(capsys, 6, "interval absorption", failures, "100 instances")


def test_criterion_7_witness_construction(capsys):
    """Explicit representations at and just above the certified bound."""
    rng = random.Random(BATTERY_SEED + 7)
    failures = []
    done = membership_checks = 0
    while done < 50:
        st = random_normalized_tuple(rng)
        t = rng.randint(1, 3)
        flat = [a for A in st.sets for a in A.elements if a != 0]
        if t >= 2 and len(flat) == 1:
            continue
        done += 1
        a_star = max(st.maxima)
        bound = certified_rep_bound(st, t)
        for n in (bound, bound + 1, bound + a_star):
            ws = witness_representations(st, n, t)
            if len(ws.reps) != t or len(set(ws.reps)) != t:
                failures.append(("not t distinct", st, t, n))
                continue
            for rep in ws.reps:
                if rep.total() != n:
                    failures.append(("bad sum", st, t, n))
                if any(e not in st.sets[color] or mult <= 0
                       for color, e, mult in rep.entries):
                    failures.append(("bad entry", st, t, n))
                loads = HVec(tuple(rep.color_load(i) for i in range(st.q)))
                if enumeration_size(st, loads) <= 100_000:
                    membership_checks += 1
                    found = {r.per_color
                             for r in enumerate_representations(st, loads, n)}
                    if rep.per_color_tuples(st.q) not in found:
                        failures.append(("not in oracle enumeration", st, t, n))
    _report(capsys, 7, "witness construction", failures,
            f"50 instances, {membership_checks} oracle membership checks")


def test_criterion_8_inhomogeneous(capsys):
    """Translated-form constants stabilize and match the t-fold sets;
    the one-element translation set reduces to the plain constants."""
    start = time.monotonic()
    rng = random.Random(BATTERY_SEED + 8)
    failures = []
    done = reductions = 0
    while done < 25:
        st = random_normalized_tuple(rng)
        t = rng.randint(1, 2)
        B = make_set(sorted({0} | {rng.randint(1, 5) for _ in range(rng.randint(0, 2))}))
        bounded = all(len(A) <= 2 for A in st.sets) and sum(
            1 for A in st.sets if len(A) == 2) <= 1
        if bounded and t > len(B):
            continue
        done += 1
        result = structure_constants(st, t, B=B)
        lo, hi = result.verified_box
        for point in _box_points(lo, hi):
            if not verify_structure(st, t, result, point, B):
                failures.append((st, B.elements, t, point.coords))
        if not (bounded and t >= 2):
            reductions += 1
            plain = structure_constants(st, t, strategy="empirical")
            reduced = structure_constants(st, t, B=make_set([0]))
            if (
                (reduced.low_fringe, reduced.low_cut, reduced.high_fringe,
                 reduced.high_cut, reduced.threshold)
                != (plain.low_fringe, plain.low_cut, plain.high_fringe,
                    plain.high_cut, plain.threshold)
            ):
                failures.append(("reduction mismatch", st, t))
    elapsed = time.monotonic() - start
    _report(capsys, 8, "inhomogeneous structure", failures,
            f"25 instances, {reductions} reduction checks, {elapsed:.1f}s")


def test_criterion_9_worked_instance(capsys):
    """The fully hand-checked set {0, 2, 3}."""
    failures = []
    st = make_tuple([[0, 2, 3]])

    for strategy in ("constructive", "empirical"):
        res = structure_constants(st, 1, strategy=strategy)
        got = (res.low_fringe.elements, res.low_cut,
               res.high_fringe.elements, res.high_cut)
        if got != ((0,), 2, (), 0):
            failures.append((strategy, got))

    res = structure_constants(st, 1, strategy="empirical")
    for h in range(13, 17):
        expected = {0} | set(range(2, 3 * h + 1))
        if set(tfold_set(st, HVec((h,)), 1).elements) != expected:
            failures.append(("tfold shape", h))
        if not verify_structure(st, 1, res, HVec((h,))):
            failures.append(("verify", h))
    # cross-check one exponent against the exhaustive oracle
    oracle_support = {
        n for n in range(0, 40)
        if oracle_count_table(st, HVec((13,))).value(n) >= 1
    }
    if oracle_support != {0} | set(range(2, 40)):
        failures.append("oracle support at h=13")

    C2, c2 = low_fringe_constants(st, 2)
    if (C2.elements, c2) != ((6,), 8):
        failures.append(("t=2 constants", C2.elements, c2))
    table = partition_count_table(make_set([2, 3]), 12, cap=10)
    if table.counts != (1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 3):
        failures.append("partition table")
    direct = [len(oracle_partitions(make_set([2, 3]), n)) for n in range(13)]
    if tuple(direct) != table.counts:
        failures.append("partition table vs enumeration")

    _report(capsys, 9, "worked instance {0,2,3}", failures)
