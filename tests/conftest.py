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
# handed over to the numpy kernel at once (or never), the constructive
# loads from the DP alone (or the enumeration alone, also in groups of
# one partition), every count on Python ints, and the limit constants
# from the residue walk alone (or the partition table alone); all of them
# must give the same outputs as the default routes
ROUTINGS = {
    "proof-first": {"_PACKED_CELLS": -1},
    "packed-always": {"_PACKED_CELLS": 10**18},
    "handover-at-once": {"_HANDOVER": 2},
    "handover-never": {"_HANDOVER": 10**18},
    "dp-only": {"_DP_CELLS": 0, "_CELLS_PER_PARTITION": 10**18},
    "enumeration-only": {"_DP_CELLS": 0, "_CELLS_PER_PARTITION": 0},
    "groups-of-one": {"_DP_CELLS": 0, "_CELLS_PER_PARTITION": 0, "_GROUP_CAP": 1},
    "object-counts": {"_dtype": lambda bound: object},
    "residue-always": {"_STEP_CELLS": 0, "_PART_CELLS": 10**18},
    "table-always": {"_STEP_CELLS": 10**18, "_PART_CELLS": 0},
}


@pytest.fixture(params=sorted(ROUTINGS))
def routing(request, monkeypatch):
    """One forced routing of ROUTINGS for the test, by name."""
    for name, value in ROUTINGS[request.param].items():
        monkeypatch.setattr(repcount, name, value)
    return request.param
