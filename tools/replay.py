"""Replay the benchmark's request streams in-process and print one output
digest and the time spent in the library per workload and seed.

Usage:
    python tools/replay.py [--root DIR] [--requests N] [--seeds S ...]
                           [--workloads W ...]

Imports chromsum from DIR/src and the benchmark's streams, executor and
follow-ups from DIR/bench (DIR defaults to this checkout), runs the first
N requests of each stream in stream order, each request's follow-ups
first, as the benchmark does, and prints per workload and seed:

    workload seed calls digest seconds op=seconds ...

calls counts the requests and their follow-ups, digest is a SHA-256 over
every request and its reply (the output as plain data, or the refusal),
and seconds sums the library calls alone; one op=seconds field per
request op, sorted by op, splits those seconds by the op of each request
or follow-up (they sum to seconds, within rounding).  Two checkouts with
the same outputs print the same digests; run it on each to compare.
Nothing is written to DIR.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import deque
from pathlib import Path
from time import perf_counter

WORKLOADS = ("counts", "structure-search", "structure-constructive")


def replay(executor, cs, worker, workloads, workload: str, seed: int, requests: int):
    """(calls, digest, seconds, {op: seconds}) of the first requests of one
    stream."""
    digest, seconds, calls, per_op = hashlib.sha256(), 0.0, 0, {}
    stream, pending, drawn = workloads.stream(workload, seed), deque(), 0
    while pending or drawn < requests:
        if pending:
            req = pending.popleft()
        else:
            req, drawn = next(stream), drawn + 1
        start = perf_counter()
        try:
            value = executor.call(req)
            reply = {"status": "ok"}
        except cs.ChromsumError as exc:
            value, reply = None, {"status": "refused", "error": f"{type(exc).__name__}: {exc}"}
        spent = perf_counter() - start
        seconds += spent
        per_op[req["op"]] = per_op.get(req["op"], 0.0) + spent
        if value is not None:
            reply["out"] = worker.plain(req["op"], value)
        digest.update(json.dumps([req, reply], sort_keys=True, default=str).encode() + b"\n")
        calls += 1
        pending.extend(workloads.followups(req, reply["status"], reply.get("out")))
    return calls, digest.hexdigest(), seconds, per_op


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
    for workload in args.workloads:
        for seed in args.seeds:
            calls, digest, seconds, per_op = replay(
                executor, cs, worker, workloads, workload, seed, args.requests)
            ops = " ".join(f"{op}={per_op[op]:.3f}" for op in sorted(per_op))
            print(f"{workload} {seed} {calls} {digest} {seconds:.3f} {ops}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
