"""End-to-end command-line checks through real subprocesses."""

import json
import os
import subprocess
import sys
from pathlib import Path

# the subprocesses run the package from this checkout, installed or not
SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}


def run_cli(*args, stdin: str | None = None):
    return subprocess.run(
        [sys.executable, "-m", "chromsum", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=ENV,
    )


def test_counts_example():
    proc = run_cli("counts", "--sets", "[[0,1]]", "--h", "3")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload == {"offset": 0, "cap": None, "counts": ["1", "1", "1", "1"]}


def test_counts_with_translation_set():
    proc = run_cli("counts", "--sets", "[[0,1]]", "--h", "1", "--B", "0,2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["counts"] == ["1", "1", "1", "1"]


def test_sumset_example():
    proc = run_cli("sumset", "--sets", "[[0,1],[0,2]]", "--h", "1,1", "--t", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == [0, 1, 2, 3]


def test_structure_example():
    proc = run_cli("structure", "--sets", "[[0,2,3]]", "--t", "1")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["C"] == [0]
    assert payload["c"] == 2
    assert payload["D"] == []
    assert payload["d"] == 0


def test_structure_verify_pipeline():
    first = run_cli("structure", "--sets", "[[0,2],[0,3]]", "--t", "1")
    assert first.returncode == 0
    second = run_cli("verify", "--sets", "[[0,2],[0,3]]", "--t", "1",
                     stdin=first.stdout)
    assert second.returncode == 0
    report = json.loads(second.stdout)
    assert report["all_ok"] is True
    assert all(row["ok"] for row in report["results"])


def test_structure_reports_threshold_box():
    proc = run_cli("structure", "--sets", "[[0,2,3]]", "--t", "1",
                   "--strategy", "constructive")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["strategy"] == "constructive"
    assert payload["h_t"] == [2]
    assert payload["verified_box"] == [[2], [5]]


def test_witness_payload():
    proc = run_cli("witness", "--sets", "[[0,2],[0,3]]", "--n", "30", "--t", "2")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["n"] == "30"
    assert len(payload["reps"]) == 2
    for rep in payload["reps"]:
        total = sum(int(r["multiplicity"]) * r["element"] for r in rep)
        assert total == 30


def test_structure_with_translation_set():
    proc = run_cli("structure", "--sets", "[[0,2,3]]", "--B", "0,1", "--t", "1")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["C"] == [] and payload["c"] == 0
    assert payload["D"] == [] and payload["d"] == 0


def test_lemmas_command():
    proc = run_cli("lemmas", "--sets", "[[0,2],[0,3]]", "--h", "2,1", "--t", "1")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["all_ok"] is True
    assert len(payload["checks"]) == 9


def test_lemmas_translate_by_0_and_1_by_default():
    # the README's one exception to the default B = {0}
    proc = run_cli("lemmas", "--sets", "[[0,2,3]]", "--h", "3", "--output", "text")
    assert proc.returncode == 0
    assert "translated by each of {0, 1}" in proc.stdout


def test_text_output():
    proc = run_cli("structure", "--sets", "[[0,2,3]]", "--t", "1",
                   "--output", "text")
    assert proc.returncode == 0
    assert "C={0}" in proc.stdout
    assert "c=2" in proc.stdout


def test_stdin_request_with_flag_override():
    request = json.dumps({"sets": [[0, 2, 3]], "t": 2, "strategy": "empirical"})
    proc = run_cli("structure", "--stdin", "--t", "1", stdin=request)
    assert proc.returncode == 0
    # the flag wins over the request body: t=1 constants, not t=2
    assert json.loads(proc.stdout)["c"] == 2


def test_stdin_command_mismatch_is_usage_error():
    request = json.dumps({"command": "sumset", "sets": [[0, 1]]})
    proc = run_cli("structure", "--stdin", stdin=request)
    assert proc.returncode == 2


def test_malformed_sets_is_usage_error():
    proc = run_cli("counts", "--sets", "[[0,1]", "--h", "1")
    assert proc.returncode == 2
    assert proc.stderr.strip() != ""


def test_non_integer_elements_are_usage_errors():
    for sets in ("[[0,2.5,3]]", '[["3",0]]', "[[0,true,3]]"):
        proc = run_cli("structure", "--sets", sets, "--t", "2")
        assert proc.returncode == 2, sets
        assert proc.stdout == "" and "expected an integer" in proc.stderr


def test_wrong_h_length_is_usage_error():
    proc = run_cli("counts", "--sets", "[[0,1],[0,2]]", "--h", "1")
    assert proc.returncode == 2


def test_missing_required_flag_is_usage_error():
    proc = run_cli("counts", "--h", "1")
    assert proc.returncode == 2


def test_domain_error_payload_and_exit_code():
    proc = run_cli("witness", "--sets", "[[0,2,3]]", "--n", "5", "--t", "2")
    assert proc.returncode == 3
    err = json.loads(proc.stderr)
    assert err["error"]["type"] == "BoundError"
    assert "bound" in err["error"]["message"]


def test_degenerate_structure_is_domain_error():
    proc = run_cli("structure", "--sets", "[[0,1]]", "--t", "2")
    assert proc.returncode == 3
    assert json.loads(proc.stderr)["error"]["type"] == "DegenerateAlphabetError"


def test_deterministic_output():
    args = ("structure", "--sets", "[[0,1,4],[0,2]]", "--t", "2")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_verify_round_trip_types():
    from chromsum.structure import StructureResult

    proc = run_cli("structure", "--sets", "[[0,2,3]]", "--t", "2")
    assert proc.returncode == 0
    res = StructureResult.from_json(json.loads(proc.stdout))
    assert res.low_cut == 8
    assert res.low_fringe.elements == (6,)
