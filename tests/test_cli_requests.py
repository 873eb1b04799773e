"""Request parsing of the command line, run in-process through cli.main:
the flags of each subcommand, the keys of a --stdin request, and the
agreement of the two."""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

from chromsum import cli

RESULT = {"C": [6], "c": 8, "D": [], "d": 3, "h_t": [4], "strategy": "empirical",
          "verified_box": [[4], [7]]}

# one request per subcommand, naming every field it takes
REQUESTS = {
    "counts": {"sets": [[0, 2, 3], [0, 1]], "h": [2, 1], "B": [0, 2], "cap": 2},
    "sumset": {"sets": [[0, 1], [0, 2]], "h": [1, 1], "t": 1},
    "structure": {"sets": [[0, 2, 3]], "t": 2, "strategy": "constructive", "margin": 2},
    "threshold": {"sets": [[0, 2, 3]], "t": 2, "strategy": "empirical", "margin": 1},
    "verify": {"sets": [[0, 2, 3]], "t": 2, "h": [5], "B": [0], "margin": 1},
    "inhom": {"sets": [[0, 2, 3]], "B": [0, 1], "t": 2, "margin": 1},
    "witness": {"sets": [[0, 2, 3]], "n": 30, "t": 2},
    "lemmas": {"sets": [[0, 2], [0, 3]], "h": [2, 1], "t": 1, "B": [0, 1]},
}


def call(monkeypatch, *argv, stdin=""):
    """(exit code, stdout, stderr) of one invocation."""
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse: --help and unknown flags
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def as_flags(request: dict) -> list[str]:
    argv = []
    for key, value in request.items():
        argv += [f"--{key}", value if isinstance(value, str) else json.dumps(value)]
    return argv


def test_requests_name_every_field():
    assert set(REQUESTS) == set(cli._COMMANDS)
    for name, cmd in cli._COMMANDS.items():
        assert set(REQUESTS[name]) == {*cmd.needs, *cmd.takes}, name


@pytest.mark.parametrize("output", ["json", "text"])
@pytest.mark.parametrize("command", sorted(REQUESTS))
def test_flags_and_stdin_give_the_same_output(monkeypatch, command, output):
    request = dict(REQUESTS[command], output=output)
    result = json.dumps(RESULT) if command == "verify" else ""
    by_flags = call(monkeypatch, command, *as_flags(request), stdin=result)
    body = dict(request, command=command)
    if command == "verify":
        body["result"] = RESULT
    by_stdin = call(monkeypatch, command, "--stdin", stdin=json.dumps(body))
    assert by_flags[0] == 0, by_flags
    assert by_stdin == by_flags


@pytest.mark.parametrize("command", sorted(REQUESTS))
def test_help_lists_exactly_the_declared_fields(monkeypatch, command):
    code, out, _ = call(monkeypatch, command, "--help")
    assert code == 0
    cmd = cli._COMMANDS[command]
    assert set(re.findall(r"--(\w+)", out)) == {*cmd.needs, *cmd.takes, "output", "stdin", "help"}


@pytest.mark.parametrize("command, flag", [
    ("counts", "--t"),
    ("counts", "--margin"),
    ("sumset", "--margin"),
    ("witness", "--margin"),
    ("lemmas", "--margin"),
])
def test_a_flag_the_command_does_not_read_is_a_usage_error(monkeypatch, command, flag):
    argv = [command, *as_flags(REQUESTS[command])]
    assert call(monkeypatch, *argv)[0] == 0
    code, out, err = call(monkeypatch, *argv, flag, "5")
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag} 5" in err


@pytest.mark.parametrize("key", ["cpa", "budget", "margin"])
def test_an_undeclared_stdin_field_is_a_usage_error(monkeypatch, key):
    body = {"command": "counts", "sets": [[0, 1, 3]], "h": [3], key: 5}
    code, out, err = call(monkeypatch, "counts", "--stdin", stdin=json.dumps(body))
    assert (code, out) == (2, "")
    assert f"counts takes no field {key!r}" in err


def test_only_verify_takes_a_result(monkeypatch):
    body = dict(REQUESTS["structure"], result=RESULT)
    code, _, err = call(monkeypatch, "structure", "--stdin", stdin=json.dumps(body))
    assert code == 2 and "'result'" in err


@pytest.mark.parametrize("body", [
    {"sets": [[0, 2, 3]], "t": "2"},
    {"sets": [[0, 2, 3]], "t": None},
    {"sets": [[0, 2, 3]], "t": 2.0},
    {"sets": [[0, 2, 3]], "margin": True},
    {"sets": [[0, 2, 3]], "strategy": None},
    {"sets": None},
])
def test_malformed_stdin_values_are_usage_errors(monkeypatch, body):
    code, out, _ = call(monkeypatch, "structure", "--stdin", stdin=json.dumps(body))
    assert (code, out) == (2, "")


def test_null_optional_fields_are_absent(monkeypatch):
    body = {"sets": [[0, 2, 3]], "h": [2], "B": None, "cap": None}
    plain = call(monkeypatch, "counts", "--sets", "[[0,2,3]]", "--h", "2")
    assert plain[0] == 0
    assert call(monkeypatch, "counts", "--stdin", stdin=json.dumps(body)) == plain


@pytest.mark.parametrize("field, value", [("C", [2.5]), ("c", 8.9), ("h_t", [4.7]), ("d", True)])
def test_verify_refuses_a_result_with_non_integers(monkeypatch, field, value):
    result = json.dumps(dict(RESULT, **{field: value}))
    code, out, err = call(monkeypatch, "verify", "--sets", "[[0,2,3]]", "--t", "2", stdin=result)
    assert (code, out) == (2, "")
    assert "expected an integer" in err


@pytest.mark.parametrize("field, value", [("h_t", [-1]), ("h_t", []), ("verified_box", [[4], [-7]])])
def test_verify_refuses_a_result_with_a_bad_vector(monkeypatch, field, value):
    # the exponent vector's own refusal is a malformed result, not a domain refusal
    result = json.dumps(dict(RESULT, **{field: value}))
    code, out, err = call(monkeypatch, "verify", "--sets", "[[0,2,3]]", "--t", "2", stdin=result)
    assert (code, out) == (2, "")
    assert "malformed structure result" in err


@pytest.mark.parametrize("argv", [
    ["structure", "--sets", "[[0,2,3]]", "--h", "3"],  # once a prefix of --help
    ["structure", "--sets", "[[0,2,3]]", "--mar", "2"],  # once a prefix of --margin
    ["--he"],
])
def test_abbreviated_flags_are_usage_errors(monkeypatch, argv):
    code, out, _ = call(monkeypatch, *argv)
    assert (code, out) == (2, "")
