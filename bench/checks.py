"""Verdicts: every request the worker ran is ok, refused or wrong.

* refused: the library raised a typed ChromsumError (exit code 3 on the
  command line).  Refusals are failures: the request had an answer.
* wrong: the output disagrees with the independent reference, or the call
  failed in any other way.
* ok: the output passed every check in reference.py.

Thresholds h_t are never compared with anything: they are not unique.  What
is checked is that the returned pattern holds over the returned box and
that the constants are the eventual ones.
"""

from __future__ import annotations

import json

import numpy as np

from reference import (
    BRUTE_FORCE_BUDGET,
    LEMMA_NAMES,
    Reference,
    ReferenceFailure,
    brute_force_table,
    enumeration_size,
    limit_constants,
    pattern,
    right_end,
)
from workloads import MARGIN, box


class Checker:
    def __init__(self, seed: int):
        self.ref = Reference(seed)
        self._limits: dict = {}

    def verdict(self, req: dict, reply: dict) -> tuple[str, str]:
        """("ok" | "refused" | "wrong", reason)."""
        if reply["status"] == "refused":
            return "refused", reply["error"]
        if reply["status"] != "ok":
            return "wrong", f"untyped failure {reply['error']}"
        problem = getattr(self, "_" + req["op"])(req, reply["out"])
        if isinstance(problem, tuple):
            return problem
        return ("ok", "") if problem is None else ("wrong", problem)

    # -- count tables -------------------------------------------------------

    def table(self, sets, h, B, cap, out) -> str | None:
        offset, end = min(B), right_end(sets, h, B)
        counts = out["counts"]
        if out["offset"] != offset or len(counts) != end - offset + 1:
            return f"table covers {out['offset']}..{out['offset'] + len(counts) - 1}, not {offset}..{end}"
        if out["cap"] != cap:
            return f"table cap {out['cap']} instead of {cap}"
        if cap is None:
            total = enumeration_size(sets, h) * len(B)
            if min(counts) < 0 or sum(counts) != total:
                return f"counts sum to {sum(counts)}, not to the {total} colored tuples"
            fingerprint = self.ref.fingerprint
            if fingerprint.table_values(offset, counts) != fingerprint.generating_values(sets, h, B):
                return "generating-function fingerprint differs"
            if total <= BRUTE_FORCE_BUDGET and counts != brute_force_table(sets, h, B):
                return "differs from literal enumeration"
            return None
        _, exact = self.ref.exact_table(sets, h, B)
        want = np.minimum(exact, cap)
        if not np.array_equal(np.asarray(counts, dtype=want.dtype), want):
            bad = int(np.flatnonzero(np.asarray(counts, dtype=want.dtype) != want)[0])
            return f"entry {offset + bad} is {counts[bad]}, min(exact, cap) is {want[bad]}"
        return None

    def _multiset_count_table(self, req, out):
        return self.table([req["A"]], [req["h"]], (0,), req["cap"], out)

    def _chromatic_count_table(self, req, out):
        return self.table(req["sets"], req["h"], (0,), req["cap"], out)

    def _inhomogeneous_count_table(self, req, out):
        return self.table(req["sets"], req["h"], req["B"], req["cap"], out)

    def _run_all(self, req, out):
        names = [name for name, _ in out]
        if len(names) != len(LEMMA_NAMES) or set(names) != LEMMA_NAMES:
            return f"lemma suite ran {names}"
        failed = [name for name, ok in out if not ok]
        return f"true lemmas reported as failing: {failed}" if failed else None

    # -- structure ----------------------------------------------------------

    def limit(self, sets, t, B=(0,)):
        key = (json.dumps(sets), t, tuple(B))
        if key not in self._limits:
            self._limits[key] = limit_constants(sets, t, B)
        return self._limits[key]

    def structure(self, req, out, B=(0,)) -> str | None:
        sets, t = req["sets"], req["t"]
        want = self.limit(sets, t, B)
        if "known" in req and list(want) != req["known"]:
            raise ReferenceFailure(f"limit {want} differs from the known answer {req['known']}")
        got = (out["C"], out["c"], out["D"], out["d"])
        if got != want:
            labels = ("C", "c", "D", "d")
            diff = [f"{k}={g} but the large-h limit gives {k}={w}" for k, g, w in zip(labels, got, want) if g != w]
            return "; ".join(diff)
        lo, hi = out["verified_box"]
        if lo != out["h_t"] or [b - a for a, b in zip(lo, hi)] != [MARGIN] * len(lo):
            return f"verified box {lo}..{hi} is not h_t..h_t+{MARGIN}"
        for h in box(lo, MARGIN):
            m = right_end(sets, h, B)
            if self.ref.tfold(sets, h, t, B) != pattern(*want, m):
                return f"pattern fails inside the verified box at h={h}"
        return None

    def _structure_constants(self, req, out):
        return self.structure(req, out)

    def _structure_constants_constructive(self, req, out):
        return self.structure(req, out)

    def _structure_constants_inhomogeneous(self, req, out):
        return self.structure(req, out, req["B"])

    def verify_box(self, sets, t, result, points, out) -> str | None:
        if [h for h, _ in out] != points:
            return f"verified points {[h for h, _ in out]}, not {points}"
        C, c, D, d = (result[k] for k in ("C", "c", "D", "d"))
        for h, ok in out:
            want = self.ref.tfold(sets, h, t) == pattern(C, c, D, d, right_end(sets, h))
            if ok != want:
                return f"verify says {ok} at h={h}, the reference says {want}"
        return None

    def _verify_structure(self, req, out):
        return self.verify_box(req["sets"], req["t"], req["result"], req["points"], out)

    def _witness_representations(self, req, out):
        return self.witnesses(req["sets"], req["n"], req["t"], out)

    def witnesses(self, sets, n, t, out) -> str | None:
        if out["n"] != n:
            return f"witnesses for {out['n']}, not {n}"
        if len(out["reps"]) != t:
            return f"{len(out['reps'])} representations, not {t}"
        seen = set()
        for rep in out["reps"]:
            pairs = [(color, a) for color, a, _ in rep]
            if len(set(pairs)) != len(pairs):
                return f"representation {rep} repeats a colored element"
            for color, a, mult in rep:
                if not 0 <= color < len(sets) or a not in sets[color] or a == 0 or mult < 1:
                    return f"entry {(color, a, mult)} is not a positive multiple of a nonzero element of its color"
            if sum(a * mult for _, a, mult in rep) != n:
                return f"representation {rep} does not sum to {n}"
            key = tuple(sorted(map(tuple, rep)))
            if key in seen:
                return f"representation {rep} is repeated"
            seen.add(key)
        return None

    # -- command line -------------------------------------------------------

    def _cli(self, req, out):
        if out["rc"] == 3:
            try:
                err = json.loads(out["stderr"])["error"]
                return "refused", f"{err['type']}: {err['message']}"
            except (ValueError, KeyError, TypeError):
                return f"exit code 3 without an error object: {out['stderr'][:200]!r}"
        if out["rc"] != 0:
            return f"exit code {out['rc']}: {out['stderr'][-200:]!r}"
        cmd = req["cmd"]
        try:
            payload = _cli_payload(cmd, json.loads(out["stdout"]))
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed {cmd} output ({exc}): {out['stdout'][:200]!r}"
        args = req["args"]
        sets, t = args["sets"], args.get("t", 1)
        if cmd == "counts":
            return self.table(sets, args["h"], (0,), args.get("cap"), payload)
        if cmd == "sumset":
            want = self.ref.tfold(sets, args["h"], t)
            return None if payload == want else f"sumset {payload} differs from the reference {want}"
        if cmd == "structure":
            return self.structure(args, payload)
        if cmd == "witness":
            return self.witnesses(sets, args["n"], t, payload)
        if cmd == "verify":
            rows, all_ok = payload
            problem = self.verify_box(sets, t, args["result"], box(args["result"]["h_t"], args["margin"]), rows)
            if problem is None and all_ok != all(ok for _, ok in rows):
                problem = "all_ok disagrees with the per-point results"
            return problem
        raise ValueError(f"no check for command {cmd!r}")


def _cli_payload(cmd: str, payload):
    """The command's JSON output in the shape the library checks take."""
    if cmd == "counts":
        return dict(payload, counts=[int(c) for c in payload["counts"]])
    if cmd == "witness":
        reps = [
            [[r["color"], r["element"], int(r["multiplicity"])] for r in rows]
            for rows in payload["reps"]
        ]
        return {"n": int(payload["n"]), "reps": reps}
    if cmd == "verify":
        return [[r["h"], r["ok"]] for r in payload["results"]], payload["all_ok"]
    if cmd == "structure":
        return {k: payload[k] for k in ("C", "c", "D", "d", "h_t", "verified_box")}
    return payload
