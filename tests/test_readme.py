"""The README's command-line examples, run as written."""

import json
import re
import shlex
from itertools import takewhile
from pathlib import Path

from chromsum import cli
from test_cli import run_cli

README = Path(__file__).resolve().parent.parent / "README.md"


def examples() -> list[tuple[str, str]]:
    """(command line, shown output) for every ``$ chromsum`` line of the
    README; the output runs to the next blank line or end of block."""
    lines = README.read_text().splitlines()
    return [
        (line[2:], "\n".join(takewhile(
            lambda row: row.strip() and not row.startswith("```"), lines[i + 1:])))
        for i, line in enumerate(lines)
        if line.startswith("$ chromsum ")
    ]


def run(command: str, stdin: str | None = None):
    proc = run_cli(*shlex.split(command)[1:], stdin=stdin)
    assert proc.returncode == 0, (command, proc.stderr)
    return proc.stdout


def test_json_examples_match():
    single = [(cmd, shown) for cmd, shown in examples() if "|" not in cmd]
    assert sorted(cmd.split()[1] for cmd, _ in single) == ["counts", "structure", "witness"]
    for cmd, shown in single:
        assert json.loads(run(cmd)) == json.loads(shown), cmd


def test_structure_verify_pipeline():
    [(cmd, _)] = [(cmd, shown) for cmd, shown in examples() if "|" in cmd]
    first, second = cmd.split(" | ")
    payload = json.loads(run(second, stdin=run(first)))
    assert payload["all_ok"] is True
    assert [row["h"] for row in payload["results"]] == [[4], [5], [6], [7]]
    assert all(row["ok"] for row in payload["results"])


def test_command_fields_match_the_parser():
    """The README's field list per command is the parser's."""
    rows = re.findall(r"^\| `(\w+)` +\| `([^`]*)` +\|", README.read_text(), re.M)
    listed = {name: fields.split() for name, fields in rows}
    assert listed == {
        name: [f"--{f}" for f in cmd.needs] + [f"[--{f}]" for f in cmd.takes]
        for name, cmd in cli._COMMANDS.items()
    }
