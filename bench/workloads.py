"""Seeded request streams, one per workload.

A request is a plain dict naming one public chromsum operation and its
inputs.  Each stream starts with the workload's fixed anchor requests and
then cycles through its strata, drawing one request from each per block.
A stratum fixes the operation, the number of colors, each set's size, a
narrow band for each set's maximum, and the threshold; the seed draws the
rest.  So the mix of request kinds, and with it the cost of a block, is
about the same for every seed.

No request repeats within a stream, so a cache of results across requests
has nothing to hit.  No generated input is filtered by how chromsum handles
it: a tuple is redrawn only when it is not normalized or is degenerate,
which the library documents as outside its domain, or when it repeats.
"""

from __future__ import annotations

import json
import math
import random

from reference import certified_bound, limit_constants

WORKLOADS = ("counts", "structure-search", "structure-constructive", "cli")

# Requests run once before timing, inside the measured set-up.
WARMUP = {
    "counts": {"op": "chromatic_count_table", "sets": [[0, 2, 3], [0, 1]], "h": [4, 3], "cap": None},
    "structure-search": {"op": "structure_constants", "sets": [[0, 2, 3]], "t": 2},
    "structure-constructive": {"op": "structure_constants_constructive", "sets": [[0, 2, 3]], "t": 2},
    "cli": {"op": "cli_inprocess", "cmd": "counts", "args": {"sets": [[0, 2, 3]], "h": [4]}},
}

# A plain run makes round(seconds * rate) requests, follow-ups included, at
# least MIN_REQUESTS: a fixed amount of work per seed, so that its verdicts
# (and `attempted` and `failed`) repeat exactly however fast the host runs.
# The rates are about what the workloads reach on a 2-vCPU Xeon VM, so there
# a run's timed total is close to --seconds.
REQUESTS_PER_SECOND = {
    "counts": 90,
    "structure-search": 75,
    "structure-constructive": 105,
    "cli": 5,
}
# enough for the p90 latency to have at least 10 samples beyond it
MIN_REQUESTS = 110

# How many stream requests (plus their follow-ups) one traced pass runs.
TRACE_REQUESTS = {
    "counts": 64,
    "structure-search": 45,
    "structure-constructive": 61,
    "cli": 24,
}

# One small request per public operation, appended to every traced pass so
# that every layer has spans, and so measured time, on every workload.
TRACE_COVERAGE = [
    {"op": "multiset_count_table", "A": [0, 1, 3], "h": 6, "cap": None},
    {"op": "chromatic_count_table", "sets": [[0, 1, 3], [0, 2]], "h": [4, 3], "cap": 2},
    {"op": "inhomogeneous_count_table", "sets": [[0, 1, 3]], "h": [4], "B": [0, 2], "cap": None},
    {"op": "run_all", "sets": [[0, 2, 3]], "h": [3], "t": 2, "B": [0, 1]},
    {"op": "structure_constants", "sets": [[0, 2, 3]], "t": 2, "verify": True},
    {"op": "structure_constants_inhomogeneous", "sets": [[0, 2, 3]], "B": [0, 1], "t": 2},
    {"op": "structure_constants_constructive", "sets": [[0, 2, 3]], "t": 2},
    {"op": "witness_representations", "sets": [[0, 2, 3]], "n": 30, "t": 2},
]

MARGIN = 3  # chromsum's default verification margin
# draws per stratum before a stream gives up on finding a new request
FRESH_ATTEMPTS = 1000


def _is_normalized(sets) -> bool:
    return math.gcd(*(a for A in sets for a in A)) == 1


def _counts_bounded(sets) -> bool:
    """At most one color has a second element and none has a third: colored
    counts never exceed 1 (chromsum refuses such tuples for t >= 2)."""
    return sum(1 for A in sets if len(A) >= 2) <= 1 and all(len(A) <= 2 for A in sets)


def _random_set(rng: random.Random, size: int, top: int) -> list[int]:
    return sorted({0, top} | set(rng.sample(range(1, top), size - 2)))


def shaped_tuple(rng, shape) -> list[list[int]]:
    """A normalized, non-degenerate tuple with one set per (size, lowest
    max, highest max) in shape."""
    while True:
        sets = [_random_set(rng, size, rng.randint(lo, hi)) for size, lo, hi in shape]
        if _is_normalized(sets) and not _counts_bounded(sets):
            return sets


def _exponents(sets, cells: int) -> list[int]:
    """Exponents giving each color about cells/q kernel cells, since one
    color costs about |A| * h * (h * max(A) + 1) cells."""
    share = cells / len(sets)
    return [max(1, round(math.sqrt(share / (len(A) * max(A))))) for A in sets]


# ---------------------------------------------------------------------------
# counts: exact and capped tables, translated tables, lemma suite

COUNTS_ANCHORS = [
    {"op": "multiset_count_table", "A": [0, 3, 7, 11, 19], "h": 400, "cap": None},
    {"op": "multiset_count_table", "A": [0, 3, 7, 11, 19], "h": 400, "cap": 2},
    {"op": "chromatic_count_table", "sets": [[0, 2, 3], [0, 1, 5], [0, 4, 7]], "h": [60, 60, 60], "cap": None},
    {"op": "chromatic_count_table", "sets": [[0, 2, 3], [0, 1, 5], [0, 4, 7]], "h": [60, 60, 60], "cap": 3},
]

# The exact path works on big-int lists and the capped path on int64 rows,
# about an order of magnitude apart per cell; the larger capped target keeps
# the two kinds of request within a small factor of each other in latency.
EXACT_CELLS = 100_000
CAPPED_CELLS = 400_000


def _table(op: str, shape, exact: bool, b_shape=None):
    """A stratum of count tables.  A table's cost depends on the set sizes,
    maxima and exponents only, and the exponents follow from the cell
    target, so requests of one stratum cost about the same."""

    def draw(rng):
        sets = shaped_tuple(rng, shape)
        h = _exponents(sets, EXACT_CELLS if exact else CAPPED_CELLS)
        cap = None if exact else rng.randint(2, 8)
        if op == "multiset_count_table":
            return {"op": op, "A": sets[0], "h": h[0], "cap": cap}
        req = {"op": op, "sets": sets, "h": h, "cap": cap}
        if b_shape:
            req["B"] = _random_set(rng, b_shape[0], rng.randint(*b_shape[1:]))
        return req

    return draw


def _lemmas(rng):
    return {
        "op": "run_all",
        "sets": shaped_tuple(rng, [(3, 5, 7), (3, 8, 10)]),
        "h": [3, 4],
        "t": rng.randint(1, 3),
        "B": _random_set(rng, 3, 4),
    }


COUNTS_STRATA = [
    _table("multiset_count_table", [(4, 19, 25)], True),
    _table("multiset_count_table", [(5, 19, 25)], False),
    _table("chromatic_count_table", [(3, 11, 15), (4, 18, 24)], True),
    _table("chromatic_count_table", [(2, 7, 11), (5, 21, 25)], False),
    _table("chromatic_count_table", [(2, 5, 9), (3, 9, 13), (4, 15, 19)], True),
    _table("chromatic_count_table", [(3, 13, 17), (4, 8, 12), (2, 3, 7)], False),
    _table("inhomogeneous_count_table", [(4, 14, 18)], True, (3, 5, 7)),
    _table("inhomogeneous_count_table", [(3, 6, 10), (3, 10, 14)], False, (2, 4, 6)),
    _lemmas,
]


# ---------------------------------------------------------------------------
# structure-search: the empirical route, then box verification above h_t

SEARCH_ANCHORS = [
    {"op": "structure_constants", "sets": [[0, 17, 40]], "t": 5, "verify": True},
    {"op": "structure_constants", "sets": [[0, 4, 9], [0, 6, 11], [0, 3, 10]], "t": 2, "verify": True},
    {"op": "structure_constants", "sets": [[0, 2, 3]], "t": 2, "known": [[6], 8, [], 3], "verify": True},
    # empirical constants disagree with the large-h limit on these two
    {"op": "structure_constants", "sets": [[0, 1], [0, 7, 13, 14]], "t": 3, "verify": True},
    {"op": "structure_constants", "sets": [[0, 5], [0, 11, 12], [0, 1]], "t": 3, "verify": True},
]


def _search(shape, t: int, verify: bool = False, b_shape=None):
    def draw(rng):
        req = {"op": "structure_constants", "sets": shaped_tuple(rng, shape), "t": t}
        if b_shape:
            req["op"] = "structure_constants_inhomogeneous"
            req["B"] = _random_set(rng, b_shape[0], rng.randint(*b_shape[1:]))
        if verify:
            req["verify"] = True
        return req

    return draw


SEARCH_STRATA = [
    stratum
    for t in (2, 3, 4, 5)
    for stratum in (
        _search([(4, 10, 14)], t),
        _search([(3, 6, 8), (3, 8, 10)], t, verify=True),
        _search([(3, 4, 6), (2, 2, 4), (3, 5, 7)], t),
        _search([(3, 5, 7), (2, 6, 8)], t, b_shape=(3, 3, 5)),
    )
]


def box(base, side: int) -> list[list[int]]:
    """The exponent vectors base + delta, delta in {0..side}^q."""
    points = [[]]
    for c in base:
        points = [p + [c + d] for p in points for d in range(side + 1)]
    return points


def verify_followup(req: dict, out: dict) -> dict:
    """Box verification just above the box the search already verified:
    the points h_t + (margin + 1) + delta with delta in {0, 1}^q."""
    points = box([c + MARGIN + 1 for c in out["h_t"]], 1)
    return {"op": "verify_structure", "sets": req["sets"], "t": req["t"], "result": out, "points": points}


# ---------------------------------------------------------------------------
# structure-constructive: partition tables, witnesses, colored refusals

CONSTRUCTIVE_ANCHORS = [
    {"op": "structure_constants_constructive", "sets": [[0, 17, 40]], "t": 5},
]


def _constructive(shape, t: int):
    def draw(rng):
        return {"op": "structure_constants_constructive", "sets": shaped_tuple(rng, shape), "t": t}

    return draw


def _witness(rng):
    sets = shaped_tuple(rng, [(3, 6, 8), (2, 5, 7)])
    t = rng.randint(2, 5)
    return {"op": "witness_representations", "sets": sets, "n": certified_bound(sets, t) + rng.randint(0, 200), "t": t}


CONSTRUCTIVE_STRATA = [
    _constructive(shape, t)
    for t in (2, 3, 4)
    for shape in ([(4, 10, 18)], [(3, 6, 10), (3, 7, 11)], [(3, 3, 6), (3, 5, 8), (2, 4, 7)])
] + [_witness]  # one witness per block: more would put the median among them


# ---------------------------------------------------------------------------
# cli: one `python -m chromsum` process per request

CLI_ANCHORS = [
    {"op": "cli", "cmd": "counts", "args": {"sets": [[0, 2, 3]], "h": [4]}},
    {"op": "cli", "cmd": "structure", "args": {"sets": [[0, 2, 3]], "t": 2}},
]


def _cli_counts(rng):
    sets = shaped_tuple(rng, [(3, 4, 6), (3, 6, 8)])
    return {"op": "cli", "cmd": "counts", "args": {"sets": sets, "h": [rng.randint(2, 6) for _ in sets]}}


def _cli_counts_stdin(rng):
    args = {"sets": shaped_tuple(rng, [(4, 7, 9)]), "h": [rng.randint(2, 6)], "cap": rng.randint(2, 5)}
    return {"op": "cli", "cmd": "counts", "args": args, "stdin": True}


def _cli_sumset(rng):
    args = {"sets": shaped_tuple(rng, [(3, 5, 8), (2, 4, 7)]), "h": [3, 4], "t": rng.randint(1, 3)}
    return {"op": "cli", "cmd": "sumset", "args": args}


def _cli_structure(rng):
    return {"op": "cli", "cmd": "structure", "args": {"sets": shaped_tuple(rng, [(3, 4, 8), (2, 2, 5)]), "t": 2}}


def _cli_witness(rng):
    sets = shaped_tuple(rng, [(3, 5, 7), (2, 4, 6), (3, 3, 5)])
    t = rng.randint(2, 4)
    args = {"sets": sets, "n": certified_bound(sets, t) + rng.randint(0, 100), "t": t}
    return {"op": "cli", "cmd": "witness", "args": args, "stdin": True}


def _cli_verify(rng):
    """Verify a result built from the reference constants, at exponents far
    enough up that the two cuts cannot overlap."""
    sets = shaped_tuple(rng, [(3, 4, 8), (2, 2, 5)])
    C, c, D, d = limit_constants(sets, 2)
    k = max(2, -(-(c + d) // sum(max(A) for A in sets)))
    lo, hi = [k] * len(sets), [k + 1] * len(sets)
    result = {"C": C, "c": c, "D": D, "d": d, "h_t": lo, "strategy": "empirical", "verified_box": [lo, hi]}
    args = {"sets": sets, "t": 2, "margin": 1, "result": result}
    return {"op": "cli", "cmd": "verify", "args": args, "stdin": True}


CLI_STRATA = [_cli_counts, _cli_counts_stdin, _cli_sumset, _cli_structure, _cli_witness, _cli_verify]


_STREAMS = {
    "counts": (COUNTS_ANCHORS, COUNTS_STRATA),
    "structure-search": (SEARCH_ANCHORS, SEARCH_STRATA),
    "structure-constructive": (CONSTRUCTIVE_ANCHORS, CONSTRUCTIVE_STRATA),
    "cli": (CLI_ANCHORS, CLI_STRATA),
}


def stream(workload: str, seed: int):
    """Anchors, then one request per stratum in turn, without end and
    without repeats; the same seed gives the same sequence."""
    anchors, strata = _STREAMS[workload]
    rng = random.Random(f"{workload}:{seed}")
    seen = set()
    for req in anchors:
        seen.add(json.dumps(req, sort_keys=True))
        yield dict(req, tag="anchor")
    while True:
        for draw in strata:
            for _ in range(FRESH_ATTEMPTS):
                req = draw(rng)
                key = json.dumps(req, sort_keys=True)
                if key not in seen:
                    break
            else:
                raise RuntimeError(f"{workload}: no new request in {FRESH_ATTEMPTS} draws of one stratum")
            seen.add(key)
            yield dict(req, tag="random")


def followups(req: dict, status: str, out) -> list[dict]:
    """Requests issued because of a result: structure results of requests
    marked "verify" are checked with verify_structure over a box above
    their threshold."""
    if req.get("verify") and status == "ok":
        return [verify_followup(req, out)]
    return []
