"""Time both routes of the constructive loads on the rows of repcount's
DP/listing table, and print the route the rule takes.

Usage:
    python tools/loads_table.py [--root DIR] [--runs N] [--max-listed M]

Each row is one side of one constructive request.  The script runs
structure_constants(sets, t, strategy="constructive") of the checkout at
DIR (default: this checkout), takes the repcount._fewest_loads call whose
parts are the row's, and times in-process, best of N runs (default 3):

    DP       repcount._dp_loads on that call;
    listing  repcount._enumerated_loads on it, its suffix counts built
             outside the timing, skipped ("-") where it would list more
             than M partitions (default 2,000,000), since it holds them
             all at once;
    rule     the route repcount._fewest_loads takes on it.

It prints parts, t, top (the largest target), cells ((top + 1) *
len(parts) * t), the partitions the listing would hold, both times in ms
and the rule's route.  The table calibrates the crossovers _DP_CELLS and
_CELLS_PER_PARTITION; re-run it after changing either route.  Nothing is
written to DIR.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

# (sets, t, parts): the side of the request whose sorted parts are parts
ROWS = [
    ([[0, 5, 8], [0, 5, 11]], 2, [5, 5, 8, 11]),
    ([[0, 1, 2, 3, 4, 5, 200]], 2, [1, 2, 3, 4, 5, 200]),
    ([[0, 1, 3, 5, 7, 8, 10, 15, 70], [0, 1]], 12, [1, 1, 3, 5, 7, 8, 10, 15, 70]),
    ([[0, 13, 38, 39]], 5, [13, 38, 39]),
    ([[0, 35, 58, 60]], 4, [35, 58, 60]),
    ([[0, 16, 37]], 5, [16, 37]),
    ([[0, 17, 40]], 5, [23, 40]),
    ([[0, 1, 2, 3, 4, 5, 200]], 2, [195, 196, 197, 198, 199, 200]),
    ([[0, 3, 4]], 256, [3, 4]),
]


def best_ms(runs: int, call) -> float:
    times = []
    for _ in range(runs):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    return min(times) * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--max-listed", type=int, default=2_000_000)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.root).resolve() / "src"))
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    from chromsum import repcount, structure
    from chromsum.intset import make_tuple

    calls, listings = [], []
    fewest, enumerated = repcount._fewest_loads, repcount._enumerated_loads
    structure._fewest_loads = lambda *call: calls.append(call) or fewest(*call)
    print(f"{'parts':<28} {'t':>4} {'top':>6} {'cells':>10} {'listed':>11} {'DP':>9} {'listing':>9}  rule")
    for sets, t, want in ROWS:
        calls.clear()
        structure.structure_constants(make_tuple(sets), t, strategy="constructive")
        [call] = [c for c in calls if list(c[0]) == want]
        parts, colors, q, targets, _ = call
        top = max(targets)
        cells = (top + 1) * len(parts) * t
        # exact below 2^61 / (top + 1) partitions per target
        suffix = repcount._suffix_counts(parts, top, (1 << 61) // (top + 1))
        listed = int(suffix[0][list(targets)].sum())
        dp = best_ms(args.runs, lambda: repcount._dp_loads(*call))
        listing = "-"
        if listed <= args.max_listed:
            ms = best_ms(args.runs, lambda: enumerated(*call, suffix))
            listing = f"{ms:.3f}"
        listings.clear()
        repcount._enumerated_loads = lambda *listing: listings.append(listing) or enumerated(*listing)
        try:
            fewest(*call)
        finally:
            repcount._enumerated_loads = enumerated
        rule = "listing" if listings else "DP"
        label = "{" + ",".join(map(str, parts)) + "}"
        print(f"{label:<28} {t:>4} {top:>6} {cells:>10,} {listed:>11,} {dp:>9.3f} {listing:>9}  {rule}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
