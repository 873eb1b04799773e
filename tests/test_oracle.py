import random

import pytest

from chromsum.errors import BudgetError, DimensionError, DomainError
from chromsum.intset import HVec, make_set, make_tuple
from chromsum.oracle import (
    enumerate_representations,
    enumeration_size,
    oracle_count_table,
    oracle_partition_count,
    oracle_partitions,
)
from chromsum.repcount import chromatic_count_table, partition_count_table

from conftest import random_oracle_instance


def test_enumeration_size():
    t = make_tuple([[0, 1, 2], [0, 3]])
    # multisets of size 2 from 3 elements: 6; of size 1 from 2 elements: 2
    assert enumeration_size(t, HVec((2, 1))) == 12
    with pytest.raises(DimensionError):
        enumeration_size(t, HVec((1,)))


def test_enumerate_representations_lists_multisets():
    t = make_tuple([[0, 1, 2]])
    reps = enumerate_representations(t, HVec((2,)), 2)
    assert [r.per_color[0] for r in reps] == [(0, 2), (1, 1)]
    assert all(r.total() == 2 for r in reps)


def test_enumerate_representations_is_sorted_and_distinct():
    t = make_tuple([[0, 1, 3], [0, 2]])
    reps = enumerate_representations(t, HVec((2, 2)), 4)
    seen = [r.per_color for r in reps]
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize("budget, error, message", [
    # C(13, 10) = 286 multisets of 10 from 4 elements
    (10, BudgetError, "enumeration of 286 colored tuples exceeds the budget of 10"),
    (1.5, DomainError, "budget must be an integer or None"),
], ids=["over", "float"])
@pytest.mark.parametrize("call, args", [
    (enumerate_representations, (HVec((10,)), 5)),
    (oracle_count_table, (HVec((10,)),)),
], ids=lambda x: getattr(x, "__name__", None))
def test_budget_refusal(call, args, budget, error, message):
    with pytest.raises(error) as refused:
        call(make_tuple([[0, 1, 2, 3]]), *args, budget=budget)
    assert refused.type is error and str(refused.value) == message


def test_oracle_matches_chromatic_battery():
    rng = random.Random(2024)
    for _ in range(40):
        st, h = random_oracle_instance(rng, size_cap=20_000)
        fast = chromatic_count_table(st, h)
        slow = oracle_count_table(st, h)
        assert fast == slow


def test_oracle_count_offset_for_shifted_tuples():
    t = make_tuple([[1, 2]])
    table = oracle_count_table(t, HVec((2,)))
    assert table.offset == 2
    assert table.counts == (1, 1, 1)


def test_oracle_partitions_example():
    got = oracle_partitions(make_set([2, 3]), 12)
    assert got == [(2, 2, 2, 2, 2, 2), (2, 2, 2, 3, 3), (3, 3, 3, 3)]


def test_oracle_partitions_edges():
    assert oracle_partitions(make_set([2, 3]), 0) == [()]
    assert oracle_partitions(make_set([2, 3]), 1) == []
    assert oracle_partitions(make_set([2, 3]), -4) == []
    with pytest.raises(DomainError):
        oracle_partitions(make_set([0, 2]), 5)


def test_partition_count_agrees_with_table():
    rng = random.Random(77)
    for _ in range(30):
        parts = make_set(sorted({rng.randint(1, 6) for _ in range(rng.randint(1, 3))}))
        n_top = rng.randint(0, 25)
        cap = rng.randint(1, 5)
        table = partition_count_table(parts, n_top, cap=cap)
        for n in range(n_top + 1):
            assert table.value(n) == min(oracle_partition_count(parts, n), cap)
