"""What a fresh process imports: `import chromsum` alone loads none of
numpy, the oracle and lemmas; the short requests of the benchmark's cli
workload (counts by flags and by --stdin, sumset, structure, witness,
and verify, whose small margin box is counted as packed products)
finish without loading numpy or the oracle, verify answering at every
point of its box."""

import json
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_import_loads_neither_numpy_nor_the_oracle_nor_lemmas(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import startup

    done, loaded = startup.probe(str(ROOT), ["-c", "import chromsum"], None)
    assert done.returncode == 0, done.stderr
    assert set(startup.WATCHED) == {"numpy", "chromsum.oracle", "chromsum.lemmas"} and loaded == set()


def test_short_cli_requests_load_neither_numpy_nor_the_oracle(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import startup
    import worker
    import workloads

    # the two anchors and one request of each of the six shapes
    requests = list(islice(workloads.stream("cli", 101), 8))
    seen = set()
    for req in requests:
        argv, stdin = worker.cli_invocation(req)
        done, loaded = startup.probe(str(ROOT), ["-m", "chromsum", *argv], stdin)
        assert done.returncode == 0, (req, done.stderr)
        reply = json.loads(done.stdout)
        assert loaded == set(), req
        if req["cmd"] == "verify":
            assert len(reply["results"]) == 2 ** len(req["args"]["sets"])
        seen.add((req["cmd"], bool(req.get("stdin"))))
    assert seen == {("counts", False), ("counts", True), ("sumset", False), ("structure", False),
                    ("witness", True), ("verify", True)}

