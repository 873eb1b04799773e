import random

import pytest

from chromsum import lemmas
from chromsum.errors import DomainError, NotNormalizedError
from chromsum.intset import HVec, make_set, make_tuple
from chromsum.lemmas import run_all

from conftest import random_normalized_tuple

EXPECTED_NAMES = [
    "monotone_inclusion",
    "support_bounds",
    "union_bound",
    "per_color_product",
    "interval_sum",
    "reflection_table",
    "reflection_tfold",
    "translation_by_set",
    "translation_by_form",
]


def test_names_and_order():
    checks = run_all(make_tuple([[0, 2, 3]]), HVec((3,)))
    assert [c.name for c in checks] == EXPECTED_NAMES


def test_all_pass_on_worked_instance():
    checks = run_all(make_tuple([[0, 2, 3], [0, 1]]), HVec((3, 2)), t=2,
                     B=make_set([0, 2]))
    assert all(c.ok for c in checks), [c for c in checks if not c.ok]


def test_all_pass_on_random_battery():
    rng = random.Random(404)
    for _ in range(15):
        st = random_normalized_tuple(rng, size_max=3, elt_max=6)
        h = HVec(tuple(rng.randint(0, 3) for _ in range(st.q)))
        t = rng.randint(1, 3)
        checks = run_all(st, h, t=t)
        assert all(c.ok for c in checks), (st, h, t, [c for c in checks if not c.ok])


def test_to_json_shape():
    checks = run_all(make_tuple([[0, 1]]), HVec((2,)))
    obj = checks[0].to_json()
    assert set(obj) == {"name", "ok", "detail"}
    assert obj["ok"] is True


def test_validation():
    with pytest.raises(NotNormalizedError):
        run_all(make_tuple([[0, 2], [0, 4]]), HVec((1, 1)))
    with pytest.raises(DomainError):
        run_all(make_tuple([[0, 1]]), HVec((1, 1)))
    with pytest.raises(DomainError):
        run_all(make_tuple([[0, 1]]), HVec((1,)), t=0)
    with pytest.raises(DomainError):
        run_all(make_tuple([[0, 1]]), HVec((1,)), B=make_set([2, 3]))


@pytest.mark.parametrize("t", [True, 2.0])
def test_t_refuses_bools_and_floats(monkeypatch, t):
    # True is not read as t = 1 nor 2.0 as 2, and no check runs first
    monkeypatch.setattr(lemmas, "_support", lambda *_: pytest.fail("checked before refusing"))
    with pytest.raises(DomainError):
        run_all(make_tuple([[0, 1]]), HVec((2,)), t)


def test_lemma_tables_are_packed(monkeypatch):
    # the counts workload's lemma shape builds every capped table from
    # packed rows: no partition fold and no numpy kernel stream
    from chromsum import repcount

    for name in ("_capped_rows", "_multiset_rows"):
        monkeypatch.setattr(repcount, name, lambda *_, name=name: pytest.fail(f"called {name}"))
    checks = run_all(make_tuple([[0, 2, 5], [0, 3, 9]]), HVec((3, 4)), t=2, B=make_set([0, 1, 3]))
    assert all(c.ok for c in checks), [c for c in checks if not c.ok]
