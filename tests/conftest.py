import inspect
import math
import random
import sys

import pytest
from hypothesis import HealthCheck, settings

from chromsum import _arrays, repcount
from chromsum.intset import HVec, SetTuple, make_tuple
from chromsum.oracle import enumeration_size

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def random_finite_set(rng: random.Random, size_max: int = 4, elt_max: int = 8) -> list[int]:
    """A sorted candidate color: contains 0, at most size_max elements."""
    size = rng.randint(1, size_max)
    elems = {0}
    while len(elems) < size:
        elems.add(rng.randint(1, elt_max))
    return sorted(elems)


def random_normalized_tuple(
    rng: random.Random,
    q_min: int = 1,
    q_max: int = 3,
    size_max: int = 4,
    elt_max: int = 8,
) -> SetTuple:
    """Rejection-sample until the union's gcd is 1."""
    while True:
        q = rng.randint(q_min, q_max)
        st = make_tuple([random_finite_set(rng, size_max, elt_max) for _ in range(q)])
        if st.normalized:
            return st


def random_hvec(rng: random.Random, q: int, h_max: int = 5) -> HVec:
    return HVec(tuple(rng.randint(0, h_max) for _ in range(q)))


def random_oracle_instance(
    rng: random.Random,
    size_cap: int = 200_000,
    **kwargs,
) -> tuple[SetTuple, HVec]:
    """Tuple plus exponents with enumeration small enough to brute-force."""
    while True:
        st = random_normalized_tuple(rng, **kwargs)
        h = random_hvec(rng, st.q)
        if enumeration_size(st, h) <= size_cap:
            return st, h


def binom_mass(sizes, coords) -> int:
    out = 1
    for k, h in zip(sizes, coords):
        out *= math.comb(k + h - 1, h)
    return out


# each routing forces repcount's route choices to one extreme: every
# capped row proven, else packed (or every one packed), every exact row
# handed over to the numpy kernel at once (or never), every one-point
# count below 2^62 one product of packed rows (or every one a numpy walk),
# the constructive loads from the DP alone (or the enumeration alone),
# every count on Python ints (its rows and the walk's folds alike, also
# where the walk would otherwise fold in float64 below 2^53), and the
# limit constants from the residue walk alone (or the partition table
# alone); all of them must give the same outputs as the default routes.
# The routings that force a row kernel, the handover or the dtype of the
# walk also turn the product off, so that every count reads its rows
# through the route they name
_WALK = {"_PRODUCT_BITS": -1}
ROUTINGS = {
    "proof-first": {"_PACKED_CELLS": -1, **_WALK},
    "packed-always": {"_PACKED_CELLS": 10**18, **_WALK},
    "product-always": {"_PRODUCT_BITS": 10**18},
    "product-never": _WALK,
    "handover-at-once": {"_HANDOVER": 2, **_WALK},
    "handover-never": {"_HANDOVER": 10**18, **_WALK},
    "dp-only": {"_DP_CELLS": 0, "_CELLS_PER_PARTITION": 10**18},
    "enumeration-only": {"_DP_CELLS": 0, "_CELLS_PER_PARTITION": 0},
    "object-counts": {"_dtype": lambda bound: object, **_WALK},
    "residue-always": {"_STEP_CELLS": 0, "_PART_CELLS": 10**18},
    "table-always": {"_STEP_CELLS": 10**18, "_PART_CELLS": 0},
}


def patch(monkeypatch, name, value) -> None:
    """Set name to value in repcount and in _arrays, its numpy half,
    wherever it is bound: a routing constant or a function lives in one
    of them, and _arrays binds the repcount names it imports too."""
    bound = [module for module in (repcount, _arrays) if name in vars(module)]
    assert bound, name
    for module in bound:
        monkeypatch.setattr(module, name, value)


@pytest.fixture(params=sorted(ROUTINGS))
def routing(request, monkeypatch):
    """One forced routing of ROUTINGS for the test, by name."""
    for name, value in ROUTINGS[request.param].items():
        patch(monkeypatch, name, value)
    return request.param


def _spy_prefixes(monkeypatch, record) -> None:
    """Call record(caller, elements, slot bytes, top row, rows stepped) for
    every call of repcount._prefixes, caller being the name of the function
    that made it (_arrays._exact_row, or _box_counts for a packed
    product).  The rows stepped are counted, not inferred: the runs of its
    one shift-and-add line, traced, over the set's nonzero elements."""
    real = repcount._prefixes
    lines, first = inspect.getsourcelines(real)
    [line] = [first + i for i, text in enumerate(lines) if "<<" in text]

    def spy(elements, size, hs):
        runs = 0

        def local(frame, event, arg):
            nonlocal runs
            runs += event == "line" and frame.f_lineno == line
            return local

        caller = sys._getframe(1).f_code.co_name
        outer = sys.gettrace()
        sys.settrace(lambda frame, event, arg: local if frame.f_code is real.__code__ else None)
        try:
            got = real(elements, size, hs)
        finally:
            sys.settrace(outer)
        record(caller, elements, size, hs[-1], runs // max(len(elements) - 1, 1))
        return got

    patch(monkeypatch, "_prefixes", spy)


def packed_steps(monkeypatch) -> list[tuple]:
    """(caller, elements, slot bytes, top row, rows stepped) of every call of
    repcount._prefixes (see _spy_prefixes); a call that stepped as many rows
    as its top row started at row 0."""
    calls = []
    _spy_prefixes(monkeypatch, lambda *call: calls.append(call))
    return calls


def row_builds(monkeypatch) -> list[tuple]:
    """The rows repcount builds rather than takes from the row scope or
    answers for {0}: (elements, h, cap) of every row array _arrays._rows
    builds, from _arrays._exact_row or from a partition fold that proves
    it, and (elements, h, slot bytes, "packed") of every packed row of a
    product that repcount._prefixes steps to, from row 0 or from a state
    the scope kept."""
    built, ran = [], []
    rows, exact, capped = _arrays._rows, _arrays._exact_row, _arrays._capped_rows

    def spy(elements, hs, cap):
        ran.clear()
        got = rows(elements, hs, cap)
        if ran:
            built.append((elements, hs[-1], cap))
        return got

    def packed(*args):
        ran.append(1)
        return exact(*args)

    def proven(*args):
        got = capped(*args)
        if got is not None:
            ran.append(1)
        return got

    def product_row(caller, elements, size, h, stepped):
        if caller == "_box_counts" and stepped:
            built.append((elements, h, size, "packed"))

    monkeypatch.setattr(_arrays, "_rows", spy)
    monkeypatch.setattr(_arrays, "_exact_row", packed)
    monkeypatch.setattr(_arrays, "_capped_rows", proven)
    _spy_prefixes(monkeypatch, product_row)
    return built
