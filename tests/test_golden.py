"""Structure results pinned against a checked-in fixture.

Each seeded request runs the empirical, constructive and translated routes
and records the result's JSON, or the name of the error the route raised.
The fixture changes only when an output is meant to change; regenerate it
with ``PYTHONPATH=src python3 tests/test_golden.py``.
"""

import json
import random
from pathlib import Path

import pytest

from chromsum.errors import ChromsumError
from chromsum.intset import make_set, make_tuple
from chromsum.structure import (
    StructureResult,
    structure_constants,
    structure_constants_inhomogeneous,
    verify_box,
)

from conftest import random_normalized_tuple

FIXTURE = Path(__file__).parent / "data" / "structure_golden.json"
GOLDEN_SEED = 4
GOLDEN_SIZE = 60


def golden_requests() -> list[dict]:
    rng = random.Random(GOLDEN_SEED)
    out = []
    for _ in range(GOLDEN_SIZE):
        st = random_normalized_tuple(rng, q_max=3, size_max=3, elt_max=8)
        t = rng.randint(1, 3)
        B = {0} | set(rng.sample(range(1, 9), rng.randint(0, 2)))
        out.append({"sets": [list(A.elements) for A in st.sets], "t": t, "B": sorted(B)})
    return out


def _outcome(route):
    try:
        return route().to_json()
    except ChromsumError as exc:
        return type(exc).__name__


def run_routes(request: dict) -> dict:
    st = make_tuple(request["sets"])
    t = request["t"]
    B = make_set(request["B"])
    return {
        "empirical": _outcome(lambda: structure_constants(st, t)),
        "constructive": _outcome(lambda: structure_constants(st, t, strategy="constructive")),
        "translated": _outcome(lambda: structure_constants_inhomogeneous(st, B, t)),
    }


def _dump(cases: list[dict]) -> str:
    """One case per line, so a changed output shows as a one-line diff."""
    return "[\n" + ",\n".join(json.dumps(c, sort_keys=True) for c in cases) + "\n]\n"


# a missing fixture fails test_fixture_covers_the_seeded_requests
_CASES = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else []


def test_fixture_covers_the_seeded_requests():
    assert [case["request"] for case in _CASES] == golden_requests()


@pytest.mark.parametrize("index", range(len(_CASES)))
def test_routes_match_fixture(index):
    case = _CASES[index]
    assert _dump([run_routes(case["request"])]) == _dump([case["outcomes"]])


def test_every_routing_matches_fixture(routing):
    """Every forced routing (conftest.ROUTINGS) gives every pinned outcome."""
    wrong = [case["request"] for case in _CASES
             if _dump([run_routes(case["request"])]) != _dump([case["outcomes"]])]
    assert _CASES and wrong == []


def test_pinned_boxes_verify():
    """The certificate proves each pinned empirical and translated result
    over its verified box; verify_box checks every point of it exactly."""
    checked_results = 0
    for case in _CASES:
        st, t = make_tuple(case["request"]["sets"]), case["request"]["t"]
        for route, B in (("empirical", None), ("translated", make_set(case["request"]["B"]))):
            if isinstance(case["outcomes"][route], str):
                continue
            res = StructureResult.from_json(case["outcomes"][route])
            lo, hi = res.verified_box
            checked = verify_box(st, t, res, lo, B, hi.coords[0] - lo.coords[0])
            assert len(checked) == 4 ** st.q, (case["request"], route)
            assert all(ok for _, ok in checked), (case["request"], route)
            checked_results += 1
    assert checked_results == 112


if __name__ == "__main__":
    cases = [{"request": r, "outcomes": run_routes(r)} for r in golden_requests()]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(_dump(cases))
