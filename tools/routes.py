"""Count the routes the count engine takes on the benchmark's request
streams, per in-process workload.

Usage:
    python tools/routes.py [--root DIR] [--requests N] [--seeds S ...]
                           [--workloads W ...]

Replays the same streams as tools/replay.py (its replay loop, seeds and
request counts; DIR defaults to this checkout) with a counter on each of
the engine's forks, and prints one line per workload and route that was
taken at least once, summed over the seeds:

    workload route calls

The routes:
    product                  one-point counts as one packed product
    product w>1              wider boxes as packed products
    walk w=W dtype           box walks (_arrays._walk), by width (1 or
                             more) and fold dtype (float64, int64, object)
    capped proven|unproven   _arrays._capped_rows calls, by whether the
                             partition folds proved every row
    handover                 exact rows handed over to the numpy kernel
    table pass               _limit_side's partition-fold table passes
    residue walk             _limit_side's residue walks
    dp | listing             _fewest_loads's t-best DP or enumeration
    scope hit|resume|fresh   packed-state requests inside a row scope:
                             kept at its row, stepped on from a kept
                             state, or stepped from row 0

Counters wrap the module functions by name, so they see every call the
engine makes through them; the numbers count calls, not time.  Nothing
is written to DIR.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from replay import WORKLOADS, replay


def install(cs, tally: Counter) -> None:
    """Wrap the engine's forks of the chromsum package cs so that each
    call adds one to its route in tally."""
    import chromsum._arrays as arrays

    repcount = cs.repcount

    def wrap(module, name, route):
        real = getattr(module, name)

        def spy(*args):
            got = real(*args)
            tally[route(args, got) if callable(route) else route] += 1
            return got

        setattr(module, name, spy)

    box_counts = repcount._box_counts

    def products(sets, lo, width, *rest):
        for i, group in enumerate(box_counts(sets, lo, width, *rest)):
            if not i and isinstance(group, list):
                tally["product" if width == 1 else "product w>1"] += 1
            yield group

    repcount._box_counts = products

    def walk_route(args, got):
        # the fold dtype _arrays._walk picks from its bound
        width, bound = args[2], args[-1]
        dtype = "object" if bound >= 1 << 62 else "int64" if bound >= 1 << 53 else "float64"
        return f"walk w={'1' if width == 1 else '>1'} {dtype}"

    wrap(arrays, "_walk", walk_route)
    wrap(arrays, "_capped_rows", lambda args, got: "capped " + ("unproven" if got is None else "proven"))
    wrap(arrays, "_multiset_rows", "handover")
    wrap(arrays, "_table_side", "table pass")
    wrap(repcount, "_residue_side", "residue walk")
    wrap(repcount, "_dp_loads", "dp")
    wrap(arrays, "_enumerated_loads", "listing")

    prefixes = repcount._prefixes

    def scoped(elements, size, hs):
        shared = repcount._ROWS.get()
        if shared is not None and len(elements) > 1:
            kept = shared.get((elements, size), {})
            if hs[0] == hs[-1] and hs[-1] in kept:
                tally["scope hit"] += 1
            else:
                tally["scope " + ("resume" if any(0 < m <= hs[0] for m in kept) else "fresh")] += 1
        return prefixes(elements, size, hs)

    repcount._prefixes = scoped
    # _arrays binds _prefixes by name too
    arrays._prefixes = scoped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    parser.add_argument("--requests", type=int, default=700)
    parser.add_argument("--seeds", type=int, nargs="+", default=[101, 102, 103])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args(argv)
    root = str(Path(args.root).resolve())
    sys.path.insert(0, str(Path(root) / "bench"))
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    import worker
    import workloads

    cs = worker.load_chromsum(root)
    executor = worker.Executor(cs, root)
    tally: Counter = Counter()
    install(cs, tally)
    for workload in args.workloads:
        tally.clear()
        for seed in args.seeds:
            replay(executor, cs, worker, workloads, workload, seed, args.requests)
        for route, calls in sorted(tally.items()):
            print(f"{workload} {route} {calls}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
