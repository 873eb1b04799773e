import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chromsum.errors import (
    DegenerateTupleError,
    DimensionError,
    DomainError,
    EmptySetError,
    NotNormalizedError,
)
from chromsum.intset import (
    FiniteSet,
    HVec,
    SetTuple,
    denormalize_sumset,
    denormalize_tuple,
    dilate,
    hvec_add_unit,
    hvec_leq,
    hvec_sup,
    make_set,
    make_tuple,
    normalize_tuple,
    reflect,
    tuple_from_json,
    tuple_to_json,
)
from chromsum.lemmas import run_all
from chromsum.oracle import (
    enumerate_representations,
    enumeration_size,
    oracle_count_table,
    oracle_partition_count,
    oracle_partitions,
)
from chromsum.repcount import chromatic_count_table
from chromsum.structure import StructureResult, verify_box

sets_strategy = st.lists(
    st.integers(min_value=-30, max_value=30), min_size=1, max_size=6
)


class TestFiniteSet:
    def test_requires_strictly_increasing(self):
        with pytest.raises(ValueError):
            FiniteSet((3, 1))
        with pytest.raises(ValueError):
            FiniteSet((1, 1))

    def test_make_set_sorts_and_dedupes(self):
        assert make_set([3, 0, 3, 2]).elements == (0, 2, 3)

    @pytest.mark.parametrize("bad", [2.5, 3.0, "3", True, np.float64(1.0), np.True_, None])
    def test_only_integers_are_elements(self, bad):
        # nothing is truncated or parsed: a non-integer names itself in the error
        with pytest.raises(TypeError, match="expected an integer"):
            make_set([0, bad])
        with pytest.raises(TypeError, match="expected an integer"):
            FiniteSet((bad,))
        with pytest.raises(TypeError, match="expected an integer"):
            HVec((1, bad))

    def test_numpy_integers_are_integers(self):
        A = make_set([np.int64(3), np.uint8(0)])
        assert A.elements == (0, 3) and all(type(a) is int for a in A)
        assert HVec((np.int32(2), 1)).coords == (2, 1)

    def test_make_set_empty(self):
        with pytest.raises(EmptySetError):
            make_set([])

    def test_interval(self):
        assert FiniteSet.interval(2, 5).elements == (2, 3, 4, 5)
        assert len(FiniteSet.interval(5, 2)) == 0

    def test_membership_and_iteration(self):
        A = make_set([0, 2, 3])
        assert 2 in A and 1 not in A
        assert list(A) == [0, 2, 3]
        assert bool(A)
        assert not bool(FiniteSet.empty())

    def test_min_max_on_empty(self):
        with pytest.raises(EmptySetError):
            FiniteSet.empty().min
        with pytest.raises(EmptySetError):
            FiniteSet.empty().max

    def test_gcd(self):
        assert make_set([0]).gcd() == 0
        assert make_set([0, 2, 4]).gcd() == 2
        assert make_set([0, 2, 3]).gcd() == 1
        assert FiniteSet.empty().gcd() == 0

    def test_minkowski_sum(self):
        assert (make_set([0, 1]) + make_set([0, 2])).elements == (0, 1, 2, 3)

    def test_translate(self):
        assert make_set([0, 2]).translate(-3).elements == (-3, -1)

    @pytest.mark.parametrize("other", [1, (0, 2), HVec((1,))])
    def test_sum_with_a_non_set_is_refused(self, other):
        # __add__ returns NotImplemented, so Python raises TypeError
        with pytest.raises(TypeError):
            make_set([0, 1]) + other


class TestReflectDilate:
    def test_reflect_example(self):
        assert reflect(make_set([0, 2, 3])).elements == (0, 1, 3)

    def test_reflect_requires_min_zero(self):
        with pytest.raises(NotNormalizedError):
            reflect(make_set([1, 2]))
        with pytest.raises(EmptySetError):
            reflect(FiniteSet.empty())

    @given(sets_strategy)
    def test_reflect_involution(self, values):
        A = make_set([v - min(values) for v in values])
        assert reflect(reflect(A)) == A

    @given(sets_strategy)
    def test_reflect_preserves_gcd(self, values):
        A = make_set([v - min(values) for v in values])
        assert reflect(A).gcd() == A.gcd()

    def test_dilate(self):
        assert dilate(2, make_set([0, 1, 3])).elements == (0, 2, 6)
        with pytest.raises(DomainError):
            dilate(0, make_set([0, 1]))


class TestSetTuple:
    def test_derived_fields(self):
        t = make_tuple([[0, 2], [0, 3]])
        assert t.q == 2
        assert t.union.elements == (0, 2, 3)
        assert t.maxima == (2, 3)
        assert t.normalized

    def test_not_normalized(self):
        assert not make_tuple([[0, 2], [0, 4]]).normalized
        assert not make_tuple([[1, 2]]).normalized

    def test_empty_tuple(self):
        with pytest.raises(DimensionError):
            SetTuple(())

    def test_empty_component(self):
        with pytest.raises(EmptySetError):
            SetTuple((FiniteSet.empty(),))

    def test_components_must_be_sets_and_a_list_is_kept_as_a_tuple(self):
        with pytest.raises(TypeError, match="^SetTuple components must be FiniteSet$"):
            SetTuple((make_set([0, 1]), (0, 2)))
        t = SetTuple([make_set([0, 1]), make_set([0, 2])])
        assert type(t.sets) is tuple
        assert t == make_tuple([[0, 1], [0, 2]]) and hash(t) == hash(make_tuple([[0, 1], [0, 2]]))

    def test_reflected(self):
        t = make_tuple([[0, 2, 3], [0, 1]])
        assert t.reflected().sets[0].elements == (0, 1, 3)
        assert t.reflected().sets[1].elements == (0, 1)

    def test_reflected_is_cached_and_an_involution(self):
        t = make_tuple([[0, 2, 3], [0, 1, 5]])
        assert t.reflected() is t.reflected()
        assert t.reflected().reflected() == t
        assert t.reflected() != t
        assert t.reflected() == make_tuple([[0, 1, 3], [0, 4, 5]])


class TestHVec:
    def test_validation(self):
        with pytest.raises(DimensionError):
            HVec(())
        with pytest.raises(DomainError):
            HVec((1, -1))

    def test_sequence_protocol(self):
        h = HVec((4, 0, 2))
        assert len(h) == 3
        assert list(h) == [4, 0, 2]
        assert (h[0], h[-1]) == (4, 2)
        with pytest.raises(IndexError):
            h[3]

    def test_norm_dot(self):
        h = HVec((2, 3))
        assert h.norm == 5
        assert h.dot((3, 2)) == 12
        with pytest.raises(DimensionError):
            h.dot((1,))

    def test_order_and_sup(self):
        assert hvec_leq(HVec((1, 2)), HVec((1, 3)))
        assert not hvec_leq(HVec((2, 0)), HVec((1, 3)))
        assert hvec_sup([HVec((1, 2)), HVec((3, 0))]).coords == (3, 2)
        with pytest.raises(DimensionError):
            hvec_sup([])
        with pytest.raises(DimensionError):
            hvec_sup([HVec((1,)), HVec((1, 2))])
        with pytest.raises(DimensionError, match="^exponent vectors of different lengths$"):
            hvec_leq(HVec((1,)), HVec((1, 2)))

    def test_add_unit(self):
        assert hvec_add_unit(HVec((1, 1)), 1).coords == (1, 2)
        with pytest.raises(DimensionError):
            hvec_add_unit(HVec((1,)), 3)


_A013, _T02 = make_set([0, 1, 3]), make_tuple([[0, 1, 3], [0, 2]])


_NOT_INT = "n must be an integer"
_NOT_BUDGET = "budget must be an integer or None"


@pytest.mark.parametrize("call, args, message", [
    (dilate, (True, _A013), "dilation factor must be a positive integer"),
    (dilate, (2.0, _A013), "dilation factor must be a positive integer"),
    (dilate, (0, _A013), "dilation factor must be a positive integer"),
    (hvec_add_unit, (HVec((1, 2)), True), "coordinate index must be an integer"),
    (hvec_add_unit, (HVec((1, 2)), 1.0), "coordinate index must be an integer"),
    (FiniteSet.interval, (True, 3), "interval ends must be integers"),
    (FiniteSet.interval, (0, 3.0), "interval ends must be integers"),
    (_A013.translate, (True,), "translation must be an integer"),
    (_A013.translate, (1.5,), "translation must be an integer"),
    (oracle_partitions, (make_set([2, 3]), True), _NOT_INT),
    (oracle_partitions, (make_set([2, 3]), 2.5), _NOT_INT),
    (oracle_partition_count, (make_set([2, 3]), 6.0), _NOT_INT),
    (enumerate_representations, (_T02, HVec((2, 1)), True), _NOT_INT),
    (enumerate_representations, (_T02, HVec((2, 1)), 6.0), _NOT_INT),
    (enumerate_representations, (_T02, HVec((2, 1)), 2.0), _NOT_INT),
    (enumerate_representations, (_T02, HVec((2, 1)), 6, True), _NOT_BUDGET),
    (enumerate_representations, (_T02, HVec((2, 1)), 6, 100.5), _NOT_BUDGET),
    (enumerate_representations, (_T02, HVec((2, 1)), 6, 1.5), _NOT_BUDGET),
    (oracle_count_table, (_T02, HVec((2, 1)), True), _NOT_BUDGET),
    (oracle_count_table, (_T02, HVec((2, 1)), 100.5), _NOT_BUDGET),
    (oracle_count_table, (_T02, HVec((2, 1)), 1.5), _NOT_BUDGET),
], ids=lambda x: getattr(x, "__name__", None))
def test_scalar_parameters_refuse_bools_and_floats(call, args, message):
    # True is not read as 1 nor 2.0 as 2, here as in every other scalar
    # parameter of the library; a budget is refused as a value, not
    # compared with the enumeration's size (BudgetError)
    with pytest.raises(DomainError) as refused:
        call(*args)
    assert refused.type is DomainError
    assert str(refused.value) == message


_R13 = StructureResult.from_json({"C": [], "c": 1, "D": [], "d": 1, "h_t": [1, 1],
                                  "strategy": "empirical", "verified_box": [[1, 1], [2, 2]]})


@pytest.mark.parametrize("call, args", [
    (chromatic_count_table, (_T02, HVec((2,)))),
    (run_all, (_T02, HVec((2, 1, 1)))),
    (verify_box, (_T02, 1, _R13, HVec((1,)))),
    (verify_box, (make_tuple([[0, 1, 3]]), 1, _R13)),
    (enumeration_size, (_T02, HVec((2,)))),
], ids=lambda x: getattr(x, "__name__", None))
def test_exponent_vectors_of_the_wrong_length_are_refused(call, args):
    # one coordinate per color, or no count is started
    with pytest.raises(DimensionError, match="^exponent vector length does not match tuple$"):
        call(*args)


class TestNormalization:
    def test_example_offsets_and_gcd(self):
        st_, record = normalize_tuple(make_tuple([[6, 10], [4, 8]]))
        assert [A.elements for A in st_.sets] == [(0, 1), (0, 1)]
        assert record.d == 4
        assert record.offsets == (6, 4)

    def test_example_with_singleton(self):
        st_, record = normalize_tuple(make_tuple([[5], [7, 9]]))
        assert [A.elements for A in st_.sets] == [(0,), (0, 1)]
        assert record.d == 2
        assert record.offsets == (5, 7)

    def test_all_singletons_degenerate(self):
        with pytest.raises(DegenerateTupleError):
            normalize_tuple(make_tuple([[3], [5]]))

    def test_roundtrip(self):
        rng = random.Random(11)
        for _ in range(50):
            sets = [
                sorted({rng.randint(-20, 20) for _ in range(rng.randint(1, 4))})
                for _ in range(rng.randint(1, 3))
            ]
            original = make_tuple(sets)
            try:
                normalized, record = normalize_tuple(original)
            except DegenerateTupleError:
                continue
            assert normalized.normalized
            assert denormalize_tuple(normalized, record) == original

    def test_denormalize_sumset(self):
        # normalized sums map back through n -> d*n + sum h_i * offset_i
        _, record = normalize_tuple(make_tuple([[6, 10], [4, 8]]))
        values = denormalize_sumset(make_set([0, 1, 2]), record, HVec((1, 1)))
        assert values.elements == (10, 14, 18)

    def test_denormalize_refuses_a_record_of_another_length(self):
        _, record = normalize_tuple(make_tuple([[6, 10], [4, 8]]))
        with pytest.raises(DimensionError, match="^record length does not match tuple$"):
            denormalize_tuple(make_tuple([[0, 1]]), record)
        with pytest.raises(DimensionError, match="^exponent vector length does not match record$"):
            denormalize_sumset(make_set([0, 1]), record, HVec((1,)))


class TestTupleJson:
    def test_roundtrip(self):
        t = make_tuple([[0, 2, 3], [0, 1]])
        st_, labels = tuple_from_json(tuple_to_json(t))
        assert st_ == t and labels is None

    def test_labels(self):
        t = make_tuple([[0, 1]])
        obj = tuple_to_json(t, labels=["red"])
        st_, labels = tuple_from_json(obj)
        assert labels == ("red",)
        with pytest.raises(ValueError, match="^labels length does not match tuple$"):
            tuple_to_json(t, labels=["red", "blue"])

    @pytest.mark.parametrize("bad, message", [
        (42, 'expected an object with a "sets" field'),
        ({"sets": [[0, True]]}, '"sets" must contain integers only'),
        ({"sets": "nope"}, '"sets" must be a list of lists of integers'),
        ({"sets": [0, 1]}, '"sets" must be a list of lists of integers'),
        ({"sets": [[0, 1]], "labels": "red"}, '"labels" must be a list of strings'),
        ({"sets": [[0, 1]], "labels": [1]}, '"labels" must be a list of strings'),
        ({"sets": [[0, 1]], "labels": ["red", "blue"]}, "labels length does not match sets"),
    ])
    def test_malformed(self, bad, message):
        with pytest.raises(ValueError) as refused:
            tuple_from_json(bad)
        assert str(refused.value) == message
