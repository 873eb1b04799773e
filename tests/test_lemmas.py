import random

import pytest

from chromsum import lemmas
from chromsum.errors import DimensionError, DomainError, NotNormalizedError
from chromsum import _arrays, repcount
from chromsum.intset import HVec, make_set, make_tuple
from chromsum.lemmas import run_all
from chromsum.repcount import chromatic_count_table

from conftest import random_normalized_tuple, row_builds

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
    with pytest.raises(DimensionError):
        run_all(make_tuple([[0, 1]]), HVec((1, 1)))
    with pytest.raises(DomainError):
        run_all(make_tuple([[0, 1]]), HVec((1,)), t=0)
    with pytest.raises(DomainError, match="^the translation set must have minimum 0$"):
        run_all(make_tuple([[0, 1]]), HVec((1,)), B=make_set([2, 3]))


@pytest.mark.parametrize("t", [True, 2.0, 0])
def test_t_refuses_bools_and_floats(monkeypatch, t):
    # True is not read as t = 1 nor 2.0 as 2, and no check runs first:
    # neither a count table nor a member set is read
    for name in ("_table", "_tfold"):
        monkeypatch.setattr(lemmas, name, lambda *_, **__: pytest.fail("checked before refusing"))
    with pytest.raises(DomainError, match="^t must be a positive integer$"):
        run_all(make_tuple([[0, 1]]), HVec((2,)), t)


def test_lemma_tables_are_packed(monkeypatch):
    # the counts workload's lemma shape builds every capped table from
    # packed rows: no partition fold and no numpy kernel stream
    for name in ("_capped_rows", "_multiset_rows"):
        monkeypatch.setattr(_arrays, name, lambda *_, name=name: pytest.fail(f"called {name}"))
    checks = run_all(make_tuple([[0, 2, 5], [0, 3, 9]]), HVec((3, 4)), t=2, B=make_set([0, 1, 3]))
    assert all(c.ok for c in checks), [c for c in checks if not c.ok]


def test_one_run_checks_its_arguments_once(monkeypatch):
    # run_all checks the tuple, h, t and B itself, and its checks count
    # and read members below the public entries' checks: repcount makes
    # no scalar check and no chromatic argument check during a run
    calls = []
    for name in ("_require_int", "_colors"):
        real = getattr(repcount, name)
        monkeypatch.setattr(repcount, name, lambda *args, name=name, real=real, **kw: calls.append(name) or real(*args, **kw))
    checks = run_all(make_tuple([[0, 2, 5], [0, 3, 9]]), HVec((3, 4)), t=2, B=make_set([0, 1, 3]))
    assert all(c.ok for c in checks) and calls == []
    chromatic_count_table(make_tuple([[0, 2, 5]]), HVec((3,)), cap=2).support_at_least(2)
    assert calls == ["_require_int", "_colors", "_require_int"]


def test_one_run_builds_each_row_once(monkeypatch):
    # each distinct packed row (by set, h and slot width) of the tables'
    # products is stepped to once per run, and nothing is kept between
    # runs or outside them: 9 rows
    built = row_builds(monkeypatch)
    st, h, B = make_tuple([[0, 1, 7], [0, 3, 8]]), HVec((3, 4)), make_set([0, 3, 4])
    first = run_all(st, h, 2, B)
    assert all(c.ok for c in first)
    assert len(built) == len(set(built)) == 9
    assert run_all(st, h, 2, B) == first
    assert len(built) == 18
    assert repcount._ROWS.get() is None
    chromatic_count_table(st, h)
    chromatic_count_table(st, h)
    assert len(built) == 22


def _instance():
    st, h, t = make_tuple([[0, 2, 3], [0, 1]]), HVec((3, 2)), 2
    sumset = frozenset(chromatic_count_table(st, h, cap=1).support().elements)
    return st, h, t, sumset


def test_interval_sum_reports_a_gap():
    check = lemmas._check_interval_sum(make_tuple([[1, 9]]))
    assert not check.ok
    assert check.detail == "[0,8] + {1, 9} misses the full interval"


def test_support_bounds_reports_an_escape():
    st, h, _, sumset = _instance()
    assert lemmas._check_support_bounds(st, h, sumset).ok
    m = h.dot(st.maxima)
    for escaped in (sumset | {-1}, sumset | {m + 1}):
        check = lemmas._check_support_bounds(st, h, escaped)
        assert not check.ok
        assert check.detail == f"support escapes [0, {m}]"


def test_union_bound_reports_an_added_member():
    st, h, _, sumset = _instance()
    assert lemmas._check_union_bound(st, h, sumset).ok
    beyond = h.norm * st.union.max + 1
    assert not lemmas._check_union_bound(st, h, sumset | {beyond}).ok


def test_translation_by_form_reports_an_added_or_removed_member():
    st, h, _, sumset = _instance()
    B = make_set([0, 1])
    assert lemmas._check_translation_by_form(st, h, B, sumset).ok
    for wrong in (sumset | {max(sumset) + 5}, sumset - {0}):
        check = lemmas._check_translation_by_form(st, h, B, wrong)
        assert not check.ok
        assert check.detail == "shifted sumset differs from the union of translates"
