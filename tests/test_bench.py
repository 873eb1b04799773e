"""The benchmark's in-process path, untimed: the first requests of each
library workload, and their follow-ups, run through the benchmark's own
executor and checks, so a library change that breaks a benchmark op
fails here before a benchmark run."""

from collections import deque
from pathlib import Path

import pytest

import chromsum

ROOT = Path(__file__).resolve().parent.parent
SEED, REQUESTS = 101, 40


@pytest.mark.parametrize("workload", ["counts", "structure-search", "structure-constructive"])
def test_first_requests_pass_the_benchmark_checks(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import checks
    import worker
    import workloads

    executor, checker = worker.Executor(chromsum, str(ROOT)), checks.Checker(SEED)
    requests = workloads.stream(workload, SEED)
    pending: deque = deque()
    ops, drawn = [], 0
    # stream order, each request's follow-ups first, as the benchmark runs them
    while pending or drawn < REQUESTS:
        if pending:
            req = pending.popleft()
        else:
            req, drawn = next(requests), drawn + 1
        try:
            reply = {"status": "ok", "out": worker.plain(req["op"], executor.call(req))}
        except chromsum.ChromsumError as exc:
            reply = {"status": "refused", "error": f"{type(exc).__name__}: {exc}"}
        verdict, reason = checker.verdict(req, reply)
        assert verdict == "ok", (req, reason)
        ops.append(req["op"])
        pending.extend(workloads.followups(req, reply["status"], reply.get("out")))
    # the search's results are checked again by their verify_structure follow-ups
    assert ("verify_structure" in ops) == (workload == "structure-search")
