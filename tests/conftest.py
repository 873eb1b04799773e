import math
import random

import pytest
from hypothesis import HealthCheck, settings

from chromsum import repcount
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
# the constructive loads from the DP alone (or the enumeration alone, also
# in groups of one partition), every count on Python ints, and the limit
# constants from the residue walk alone (or the partition table alone);
# all of them must give the same outputs as the default routes.  The
# routings that force a row kernel, the handover or the dtype of the walk
# also turn the product off, so that every count reads its rows through
# the route they name
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
    "groups-of-one": {"_DP_CELLS": 0, "_CELLS_PER_PARTITION": 0, "_GROUP_CAP": 1},
    "object-counts": {"_dtype": lambda bound: object, **_WALK},
    "residue-always": {"_STEP_CELLS": 0, "_PART_CELLS": 10**18},
    "table-always": {"_STEP_CELLS": 10**18, "_PART_CELLS": 0},
}


@pytest.fixture(params=sorted(ROUTINGS))
def routing(request, monkeypatch):
    """One forced routing of ROUTINGS for the test, by name."""
    for name, value in ROUTINGS[request.param].items():
        monkeypatch.setattr(repcount, name, value)
    return request.param


def row_builds(monkeypatch) -> list[tuple]:
    """The key (elements, h, cap, slot bytes) of every row repcount._rows
    builds, that is, each of its calls that runs a kernel (the packed steps,
    or a partition fold that proves the row) rather than answering from
    the row scope or for {0}."""
    built, ran = [], []
    rows, steps, capped = repcount._rows, repcount._packed_steps, repcount._capped_rows

    def spy(elements, hs, cap, size=0):
        ran.clear()
        got = rows(elements, hs, cap, size)
        if ran:
            built.append((elements, hs[-1], cap, size))
        return got

    def stepped(*args):
        ran.append(1)
        return steps(*args)

    def proven(*args):
        got = capped(*args)
        if got is not None:
            ran.append(1)
        return got

    monkeypatch.setattr(repcount, "_rows", spy)
    monkeypatch.setattr(repcount, "_packed_steps", stepped)
    monkeypatch.setattr(repcount, "_capped_rows", proven)
    return built
