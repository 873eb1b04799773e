"""Command-line front door.

Every command takes the tuple inline (``--sets "[[0,2,3],[0,1]]"``),
reports JSON on stdout by default, and uses three exit codes: 0 for
success, 2 for malformed input, 3 for a domain refusal (degenerate
alphabet, below-bound witness request, exhausted search), which arrives
as a machine-readable error object on stderr.

With ``--stdin`` the full request is read as one JSON object from
standard input and individual flags override its fields.  Without it,
``verify`` still reads the structure result to check from stdin.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ChromsumError
from .intset import FiniteSet, HVec, SetTuple, make_set, make_tuple
from .lemmas import run_all
from .repcount import inhomogeneous_count_table, tfold_set
from .structure import (
    DEFAULT_MARGIN,
    StructureResult,
    _box_points,
    structure_constants,
    structure_constants_inhomogeneous,
    verify_structure_inhomogeneous,
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


def _parse_sets(value) -> SetTuple:
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


def _parse_hvec(value, q: int) -> HVec:
    coords = _parse_ints(value, "--h")
    if len(coords) != q:
        raise UsageError(f"--h has {len(coords)} coordinates but the tuple has {q} colors")
    try:
        return HVec(tuple(coords))
    except (ChromsumError, ValueError) as exc:
        raise UsageError(f"bad exponent vector: {exc}") from exc


def _parse_fset(value, what: str) -> FiniteSet:
    try:
        return make_set(_parse_ints(value, what))
    except (ChromsumError, ValueError) as exc:
        raise UsageError(f"bad {what}: {exc}") from exc


def _positive(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise UsageError(f"{what} must be a positive integer")
    return value


class _Request:
    """Merged view of stdin JSON fields and command-line flags."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.body: dict = {}
        if getattr(args, "stdin", False):
            body = _read_stdin("request")
            if not isinstance(body, dict):
                raise UsageError("the request on stdin must be a JSON object")
            if "command" in body and body["command"] != args.command:
                raise UsageError(
                    f"request command {body['command']!r} does not match "
                    f"invoked command {args.command!r}"
                )
            self.body = body

    def field(self, name: str, default=None):
        flag = getattr(self.args, name, None)
        if flag is not None:
            return flag
        return self.body.get(name, default)


def _read_stdin(what: str):
    text = sys.stdin.read()
    if not text.strip():
        raise UsageError(f"expected {what} JSON on stdin")
    return _loads(text, what)


def _require(req: _Request, name: str, flag: str):
    value = req.field(name)
    if value is None:
        raise UsageError(f"{flag} is required for this command")
    return value


def _tuple_of(req: _Request) -> SetTuple:
    return _parse_sets(_require(req, "sets", "--sets"))


def _t_of(req: _Request) -> int:
    return _positive(req.field("t", 1), "--t")


def _margin_of(req: _Request) -> int:
    return _positive(req.field("margin", DEFAULT_MARGIN), "--margin")


def _cap_of(req: _Request):
    cap = req.field("cap")
    if cap is None:
        return None
    return _positive(cap, "--cap")


def _optional_B(req: _Request):
    value = req.field("B")
    if value is None:
        return None
    return _parse_fset(value, "--B")


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


def _cmd_counts(req: _Request):
    st = _tuple_of(req)
    h = _parse_hvec(_require(req, "h", "--h"), st.q)
    # the plain table is the translated one with B = {0}
    table = inhomogeneous_count_table(st, h, _optional_B(req) or make_set([0]), cap=_cap_of(req))
    text = (
        f"offset={table.offset} cap={table.cap} "
        f"counts={' '.join(str(c) for c in table.counts)}"
    )
    return table.to_json(), text


def _cmd_sumset(req: _Request):
    st = _tuple_of(req)
    h = _parse_hvec(_require(req, "h", "--h"), st.q)
    S = tfold_set(st, h, _t_of(req))
    return list(S.elements), _fmt_set(S.elements)


def _cmd_structure(req: _Request):
    st = _tuple_of(req)
    strategy = req.field("strategy", "empirical")
    if strategy not in ("constructive", "empirical"):
        raise UsageError("--strategy must be 'constructive' or 'empirical'")
    res = structure_constants(st, _t_of(req), strategy=strategy, margin=_margin_of(req))
    return res.to_json(), _fmt_result(res)


def _cmd_threshold(req: _Request):
    """The threshold fields of the structure result and its last text line."""
    full, text = _cmd_structure(req)
    payload = {key: full[key] for key in ("h_t", "verified_box", "strategy")}
    return payload, text.split("\n")[-1]


def _cmd_verify(req: _Request):
    st = _tuple_of(req)
    t = _t_of(req)
    if getattr(req.args, "stdin", False):
        raw = req.body.get("result")
        if raw is None:
            raise UsageError("the request on stdin must carry a 'result' object")
    else:
        raw = _read_stdin("structure result")
    try:
        result = StructureResult.from_json(raw)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # the plain t-fold sets are the translated ones with B = {0}
    B = _optional_B(req) or make_set([0])
    h_field = req.field("h")
    base = _parse_hvec(h_field, st.q) if h_field is not None else result.threshold
    rows = []
    all_ok = True
    for h in _box_points(base, _margin_of(req)):
        ok = verify_structure_inhomogeneous(st, B, t, result, h)
        rows.append({"h": list(h.coords), "ok": ok})
        all_ok = all_ok and ok
    payload = {
        "t": t,
        "h_t": list(result.threshold.coords),
        "results": rows,
        "all_ok": all_ok,
    }
    lines = [f"h={r['h']} {'ok' if r['ok'] else 'MISMATCH'}" for r in rows]
    lines.append("all ok" if all_ok else "MISMATCH found")
    return payload, "\n".join(lines)


def _cmd_inhom(req: _Request):
    st = _tuple_of(req)
    B = _parse_fset(_require(req, "B", "--B"), "--B")
    res = structure_constants_inhomogeneous(st, B, _t_of(req), margin=_margin_of(req))
    return res.to_json(), _fmt_result(res)


def _cmd_witness(req: _Request):
    st = _tuple_of(req)
    n = req.field("n")
    if n is None:
        raise UsageError("--n is required for this command")
    if isinstance(n, str):
        try:
            n = int(n)
        except ValueError as exc:
            raise UsageError("--n must be an integer") from exc
    if not isinstance(n, int) or isinstance(n, bool):
        raise UsageError("--n must be an integer")
    ws = witness_representations(st, n, _t_of(req))
    lines = [f"n={ws.n}"]
    for idx, rep in enumerate(ws.reps, start=1):
        parts = " + ".join(f"{m}*{a}(color {c})" for c, a, m in rep.entries) or "0"
        lines.append(f"rep {idx}: {parts}")
    return ws.to_json(), "\n".join(lines)


def _cmd_lemmas(req: _Request):
    st = _tuple_of(req)
    h = _parse_hvec(_require(req, "h", "--h"), st.q)
    checks = run_all(st, h, t=_t_of(req), B=_optional_B(req))
    payload = {
        "checks": [c.to_json() for c in checks],
        "all_ok": all(c.ok for c in checks),
    }
    lines = [
        f"{c.name}: {'ok' if c.ok else 'FAIL'} — {c.detail}" for c in checks
    ]
    lines.append("all ok" if payload["all_ok"] else "FAILURES present")
    return payload, "\n".join(lines)


_COMMANDS = {
    "counts": _cmd_counts,
    "sumset": _cmd_sumset,
    "structure": _cmd_structure,
    "threshold": _cmd_threshold,
    "verify": _cmd_verify,
    "inhom": _cmd_inhom,
    "witness": _cmd_witness,
    "lemmas": _cmd_lemmas,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromsum",
        description="Colored sumset counting and eventual-structure computation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, h=False, B=False, strategy=False,
            cap=False, n=False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--sets", help='tuple of sets, e.g. "[[0,2,3],[0,1]]"')
        if h:
            p.add_argument("--h", help='exponent vector, e.g. "1,2" or "[1,2]"')
        p.add_argument("--t", type=int, help="representation threshold (default 1)")
        if B:
            p.add_argument("--B", help='translation set, e.g. "0,1" or "[0,1]"')
        if strategy:
            p.add_argument("--strategy", choices=["constructive", "empirical"],
                           help="computation route (default empirical)")
        p.add_argument("--margin", type=int,
                       help="verification box width per coordinate (default 3)")
        if cap:
            p.add_argument("--cap", type=int, help="saturate counts at this value")
        if n:
            p.add_argument("--n", type=int, help="integer to represent")
        p.add_argument("--stdin", action="store_true",
                       help="read a request JSON object from standard input; "
                            "flags override its fields")
        p.add_argument("--output", choices=["json", "text"],
                       help="report format (default json)")
        return p

    add("counts", "count table of the colored sumset", h=True, B=True, cap=True)
    add("sumset", "members with at least t representations", h=True)
    add("structure", "fringe constants, cuts, and threshold vector", strategy=True)
    add("threshold", "threshold vector and its verification box", strategy=True)
    add("verify", "check a structure result over an exponent box "
        "(result JSON on stdin)", h=True, B=True)
    add("inhom", "structure constants of the translated form", B=True)
    add("witness", "explicit t distinct representations of n", n=True)
    add("lemmas", "run the self-check suite on one instance", h=True, B=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        req = _Request(args)
        output = req.field("output", "json")
        if output not in ("json", "text"):
            raise UsageError("--output must be 'json' or 'text'")
        payload, text = _COMMANDS[args.command](req)
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
    if output == "text":
        print(text)
    else:
        print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
