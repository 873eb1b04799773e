"""The benchmark's outputs, pinned: the digests that tools/replay.py
prints for the first 150 requests, with their follow-ups, of seeds
101-103 of each library workload (a SHA-256 over every request and its
reply, the output or the refusal) must equal those kept in
tests/data/replay_digests.json.  A change meant to change an output
regenerates that file from the checkout with

    PYTHONPATH=src python tests/test_replay.py

and says which outputs changed and why.  The tool itself runs from a
checkout on the first 20 requests of one seed."""

import json
import subprocess
import sys
from pathlib import Path

import chromsum

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "data" / "replay_digests.json"
SEEDS, REQUESTS = (101, 102, 103), 150


def digests() -> dict:
    """{workload: {seed: [calls, digest]}} of this checkout's replays."""
    import replay
    import worker
    import workloads

    executor = worker.Executor(chromsum, str(ROOT))
    return {
        workload: {
            str(seed): list(replay.replay(executor, chromsum, worker, workloads, workload, seed, REQUESTS)[:2])
            for seed in SEEDS
        }
        for workload in replay.WORKLOADS
    }


def test_replay_digests_are_pinned(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    assert digests() == json.loads(DIGESTS.read_text())


def test_replay_splits_its_seconds_by_op():
    # each line ends with one op=seconds field per op, sorted by op, and
    # they sum to the line's seconds within the rounding of its fields
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay.py"), "--requests", "20", "--seeds", "101"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    lines = [line.split() for line in out.stdout.splitlines()]
    assert [line[0] for line in lines] == ["counts", "structure-search", "structure-constructive"]
    for workload, seed, calls, digest, seconds, *fields in lines:
        assert seed == "101" and int(calls) >= 20 and len(digest) == 64
        ops = [field.split("=") for field in fields]
        assert ops and [op for op, _ in ops] == sorted({op for op, _ in ops}), fields
        assert abs(sum(float(spent) for _, spent in ops) - float(seconds)) <= 0.0005 * (len(ops) + 1)


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tools")]
    sys.dont_write_bytecode = True
    DIGESTS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
