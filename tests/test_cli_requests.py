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
    "structure": {"sets": [[0, 2, 3]], "t": 2, "B": [0], "strategy": "constructive", "margin": 2},
    "verify": {"sets": [[0, 2, 3]], "t": 2, "h": [5], "B": [0], "margin": 1},
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


@pytest.mark.parametrize("strategy", [None, 5, "greedy"])
def test_verify_refuses_a_result_with_an_unknown_strategy(monkeypatch, strategy):
    result = json.dumps(dict(RESULT, strategy=strategy))
    code, out, err = call(monkeypatch, "verify", "--sets", "[[0,2,3]]", "--t", "2", stdin=result)
    assert (code, out) == (2, "")
    assert "malformed structure result: unknown strategy" in err


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


@pytest.mark.parametrize("argv", [
    ["counts", "--sets", "[[0,2,3],[0,1]]", "--h", "1,,2"],
    ["counts", "--sets", "[[0,2,3],[0,1]]", "--h", "1,2,"],
    ["counts", "--sets", "[[0,2,3],[0,1]]", "--h", ",1,2"],
    ["counts", "--sets", "[[0,2,3]]", "--h", "2", "--B", "0,,2"],
    ["counts", "--sets", "[[0,2,3]]", "--h", "2", "--B", "0, ,2"],
])
def test_an_empty_list_item_is_a_usage_error(monkeypatch, argv):
    # an empty item is refused, not dropped: "1,,2" is not the vector [1, 2]
    code, out, err = call(monkeypatch, *argv)
    assert (code, out) == (2, "")
    assert "empty item" in err


@pytest.mark.parametrize("command", ["inhom", "threshold"])
def test_removed_commands_are_unknown(monkeypatch, command):
    # structure --B replaces inhom, and structure's payload holds threshold's
    code, out, err = call(monkeypatch, command, "--sets", "[[0,2,3]]")
    assert (code, out) == (2, "")
    assert "invalid choice" in err


def test_help_lists_the_six_commands(monkeypatch):
    code, out, _ = call(monkeypatch, "--help")
    assert code == 0
    assert "{counts,sumset,structure,verify,witness,lemmas}" in out


def test_constructive_structure_refuses_a_translation(monkeypatch):
    argv = ["structure", "--sets", "[[0,2,3]]", "--t", "2", "--strategy", "constructive"]
    code, out, err = call(monkeypatch, *argv, "--B", "0,1")
    assert (code, out) == (3, "")
    assert json.loads(err)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("argv, stdin", [
    (["structure", "--sets", "[[0,2,4]]", "--t", "2"], ""),
    (["structure", "--sets", "[[0,2,4]]", "--t", "2", "--strategy", "constructive"], ""),
    (["witness", "--sets", "[[0,2,4]]", "--t", "2", "--n", "100"], ""),
    (["verify", "--sets", "[[0,2,4]]", "--t", "2"], json.dumps(RESULT)),
])
def test_structure_commands_refuse_a_tuple_that_is_not_normalized(monkeypatch, argv, stdin):
    # the command line passes the tuple as given; the library refuses it
    code, out, err = call(monkeypatch, *argv, stdin=stdin)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == {
        "type": "NotNormalizedError", "message": "this operation requires a normalized tuple",
    }
