"""Command-line front door.

Every command takes the tuple inline (``--sets "[[0,2,3],[0,1]]"``),
reports JSON on stdout by default, and uses three exit codes: 0 for
success, 2 for malformed input, 3 for a domain refusal (degenerate
alphabet, below-bound witness request, exhausted search), which arrives
as a machine-readable error object on stderr.

A request is a set of named fields.  ``_FIELDS`` gives each field its
help text and the one parser that reads it, from flag text or from the
JSON value of a ``--stdin`` request, and ``_COMMANDS`` gives each
subcommand the fields it reads.  A subcommand has a flag for each of its
fields and no other; a ``--stdin`` request may carry its fields,
``command``, ``output`` and (for ``verify``) ``result``, and flags
override its fields.  Without ``--stdin``, ``verify`` still reads the
structure result to check from stdin.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from typing import NamedTuple

from .errors import ChromsumError
from .intset import FiniteSet, HVec, SetTuple, make_set, make_tuple
from .lemmas import run_all
from .repcount import inhomogeneous_count_table, tfold_set
from .structure import (
    DEFAULT_MARGIN,
    StructureResult,
    _box_points,
    _verify_box,
    structure_constants,
    structure_constants_inhomogeneous,
    witness_representations,
)

__all__ = ["main"]


class UsageError(Exception):
    """Malformed invocation or unparseable input: exit code 2."""


def _loads(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} is not valid JSON: {exc}") from exc


def _parse_sets(value, text: bool) -> SetTuple:
    if isinstance(value, str):
        value = _loads(value, "--sets")
    if not isinstance(value, list) or not all(isinstance(s, list) for s in value):
        raise UsageError("--sets expects a JSON list of integer lists")
    try:
        return make_tuple(value)
    except (ChromsumError, TypeError, ValueError) as exc:
        raise UsageError(f"bad set tuple: {exc}") from exc


def _parse_ints(value, what: str) -> list[int]:
    if isinstance(value, str):
        text = value.strip()
        if text.startswith("["):
            value = _loads(text, what)
        else:
            try:
                value = [int(p) for p in text.split(",") if p.strip() != ""]
            except ValueError as exc:
                raise UsageError(f"{what} expects integers: {exc}") from exc
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise UsageError(f"{what} expects a list of integers")
    return value


def _parse_hvec(value, text: bool) -> HVec:
    coords = _parse_ints(value, "--h")
    try:
        return HVec(tuple(coords))
    except (ChromsumError, ValueError) as exc:
        raise UsageError(f"bad exponent vector: {exc}") from exc


def _parse_B(value, text: bool) -> FiniteSet:
    try:
        return make_set(_parse_ints(value, "--B"))
    except (ChromsumError, ValueError) as exc:
        raise UsageError(f"bad --B: {exc}") from exc


def _integer(flag: str, positive: bool = False, strings: bool = False):
    """The parser of an integer field: flag text is read with int(), a
    JSON string only when strings is set (to_json writes n as one)."""
    kind = "a positive integer" if positive else "an integer"

    def parse(value, text: bool) -> int:
        if isinstance(value, str) and (text or strings):
            try:
                value = int(value)
            except ValueError:
                pass  # refused below
        if not isinstance(value, int) or isinstance(value, bool) or (positive and value < 1):
            raise UsageError(f"{flag} must be {kind}")
        return value

    return parse


def _choice(flag: str, *options: str):
    def parse(value, text: bool) -> str:
        if value not in options:
            raise UsageError(f"{flag} must be " + " or ".join(map(repr, options)))
        return value

    return parse


class _Field(NamedTuple):
    help: str
    # (flag text or JSON value, whether it is flag text) -> parsed value
    parse: Callable[[object, bool], object]
    default: object = None


_FIELDS = {
    "sets": _Field('tuple of sets, e.g. "[[0,2,3],[0,1]]"', _parse_sets),
    "h": _Field('exponent vector, e.g. "1,2" or "[1,2]"', _parse_hvec),
    "t": _Field("representation threshold (default 1)", _integer("--t", positive=True), 1),
    "B": _Field('translation set, e.g. "0,1" or "[0,1]"', _parse_B),
    "strategy": _Field(
        "computation route, constructive or empirical (default empirical)",
        _choice("--strategy", "constructive", "empirical"),
        "empirical",
    ),
    "margin": _Field(
        f"verification box width per coordinate (default {DEFAULT_MARGIN})",
        _integer("--margin", positive=True),
        DEFAULT_MARGIN,
    ),
    "cap": _Field("saturate counts at this value", _integer("--cap", positive=True)),
    "n": _Field("integer to represent", _integer("--n", strings=True)),
    "output": _Field(
        "report format, json or text (default json)",
        _choice("--output", "json", "text"),
        "json",
    ),
}


def _read_stdin(what: str):
    text = sys.stdin.read()
    if not text.strip():
        raise UsageError(f"expected {what} JSON on stdin")
    return _loads(text, what)


def _fmt_set(elements) -> str:
    return "{" + ", ".join(str(x) for x in elements) + "}"


def _fmt_result(res: StructureResult) -> str:
    lo, hi = res.verified_box
    return (
        f"C={_fmt_set(res.low_fringe.elements)} c={res.low_cut} "
        f"D={_fmt_set(res.high_fringe.elements)} d={res.high_cut}\n"
        f"h_t={list(res.threshold.coords)} strategy={res.strategy} "
        f"verified over [{list(lo.coords)}, {list(hi.coords)}]"
    )


def _cmd_counts(req: dict):
    # the plain table is the translated one with B = {0}
    B = req["B"] or make_set([0])
    table = inhomogeneous_count_table(req["sets"], req["h"], B, cap=req["cap"])
    text = (
        f"offset={table.offset} cap={table.cap} "
        f"counts={' '.join(str(c) for c in table.counts)}"
    )
    return table.to_json(), text


def _cmd_sumset(req: dict):
    S = tfold_set(req["sets"], req["h"], req["t"])
    return list(S.elements), _fmt_set(S.elements)


def _cmd_structure(req: dict):
    res = structure_constants(req["sets"], req["t"], strategy=req["strategy"], margin=req["margin"])
    return res.to_json(), _fmt_result(res)


def _cmd_threshold(req: dict):
    """The threshold fields of the structure result and its last text line."""
    full, text = _cmd_structure(req)
    payload = {key: full[key] for key in ("h_t", "verified_box", "strategy")}
    return payload, text.split("\n")[-1]


def _cmd_verify(req: dict):
    st, t = req["sets"], req["t"]
    if req["body"] is None:
        raw = _read_stdin("structure result")
    else:
        raw = req["body"].get("result")
        if raw is None:
            raise UsageError("the request on stdin must carry a 'result' object")
    try:
        result = StructureResult.from_json(raw)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # the plain t-fold sets are the translated ones with B = {0}
    B = req["B"] or make_set([0])
    lo, margin = req["h"] or result.threshold, req["margin"]
    oks = _verify_box(st, B, t, result, lo, margin)
    rows = [{"h": list(h.coords), "ok": ok} for h, ok in zip(_box_points(lo, margin), oks)]
    payload = {
        "t": t,
        "h_t": list(result.threshold.coords),
        "results": rows,
        "all_ok": all(oks),
    }
    lines = [f"h={r['h']} {'ok' if r['ok'] else 'MISMATCH'}" for r in rows]
    lines.append("all ok" if payload["all_ok"] else "MISMATCH found")
    return payload, "\n".join(lines)


def _cmd_inhom(req: dict):
    res = structure_constants_inhomogeneous(req["sets"], req["B"], req["t"], margin=req["margin"])
    return res.to_json(), _fmt_result(res)


def _cmd_witness(req: dict):
    ws = witness_representations(req["sets"], req["n"], req["t"])
    lines = [f"n={ws.n}"]
    for idx, rep in enumerate(ws.reps, start=1):
        parts = " + ".join(f"{m}*{a}(color {c})" for c, a, m in rep.entries) or "0"
        lines.append(f"rep {idx}: {parts}")
    return ws.to_json(), "\n".join(lines)


def _cmd_lemmas(req: dict):
    checks = run_all(req["sets"], req["h"], t=req["t"], B=req["B"])
    payload = {
        "checks": [c.to_json() for c in checks],
        "all_ok": all(c.ok for c in checks),
    }
    lines = [
        f"{c.name}: {'ok' if c.ok else 'FAIL'} — {c.detail}" for c in checks
    ]
    lines.append("all ok" if payload["all_ok"] else "FAILURES present")
    return payload, "\n".join(lines)


class _Command(NamedTuple):
    run: Callable[[dict], tuple]
    help: str
    needs: tuple[str, ...]  # required fields
    takes: tuple[str, ...] = ()  # optional fields
    stdin_keys: tuple[str, ...] = ()  # further keys a --stdin request may carry


_COMMANDS = {
    "counts": _Command(_cmd_counts, "count table of the colored sumset",
        ("sets", "h"), ("B", "cap")),
    "sumset": _Command(_cmd_sumset, "members with at least t representations",
        ("sets", "h"), ("t",)),
    "structure": _Command(_cmd_structure, "fringe constants, cuts, and threshold vector",
        ("sets",), ("t", "strategy", "margin")),
    "threshold": _Command(_cmd_threshold, "threshold vector and its verification box",
        ("sets",), ("t", "strategy", "margin")),
    "verify": _Command(_cmd_verify, "check a structure result (JSON on stdin) over an exponent box",
        ("sets",), ("t", "h", "B", "margin"), ("result",)),
    "inhom": _Command(_cmd_inhom, "structure constants of the translated form",
        ("sets", "B"), ("t", "margin")),
    "witness": _Command(_cmd_witness, "explicit t distinct representations of n",
        ("sets", "n"), ("t",)),
    "lemmas": _Command(_cmd_lemmas, "run the self-check suite on one instance",
        ("sets", "h"), ("t", "B")),
}


def _request(args: argparse.Namespace, cmd: _Command) -> dict:
    """Each field of the command, read by its parser from the flag or else
    from the --stdin request, and that request as "body" (None without
    --stdin).  An absent field takes its default; a null one counts as
    absent only where that default is None."""
    names = cmd.needs + cmd.takes + ("output",)
    body = None
    if args.stdin:
        body = _read_stdin("request")
        if not isinstance(body, dict):
            raise UsageError("the request on stdin must be a JSON object")
        if "command" in body and body["command"] != args.command:
            raise UsageError(
                f"request command {body['command']!r} does not match "
                f"invoked command {args.command!r}"
            )
        unknown = sorted(set(body) - {*names, *cmd.stdin_keys, "command"})
        if unknown:
            raise UsageError(
                f"{args.command} takes no field {', '.join(map(repr, unknown))} "
                f"(its fields: {', '.join(names)})"
            )
    req = {"body": body}
    for name in names:
        field, flag = _FIELDS[name], getattr(args, name)
        value = (body or {}).get(name, field.default) if flag is None else flag
        if value is None and name in cmd.needs:
            raise UsageError(f"--{name} is required for this command")
        if value is not None or field.default is not None:
            value = field.parse(value, flag is not None)
        req[name] = value
    h, q = req.get("h"), req["sets"].q
    if h is not None and h.q != q:
        raise UsageError(f"--h has {h.q} coordinates but the tuple has {q} colors")
    return req


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromsum",
        description="Colored sumset counting and eventual-structure computation.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help, allow_abbrev=False)
        for field in cmd.needs + cmd.takes + ("output",):
            p.add_argument(f"--{field}", help=_FIELDS[field].help)
        p.add_argument("--stdin", action="store_true",
                       help="read a request JSON object from standard input; "
                            "flags override its fields")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cmd = _COMMANDS[args.command]
    try:
        req = _request(args, cmd)
        payload, text = cmd.run(req)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChromsumError as exc:
        json.dump(
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 3
    print(text if req["output"] == "text" else json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
