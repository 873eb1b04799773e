"""The benchmark's request executor: the only benchmark process that imports
chromsum.

Usage: python worker.py ROOT SPANS_PATH WARMUP_REQUEST_JSON

Imports chromsum from ROOT/src, runs the warm-up request, prints
"ready", then serves one JSON command per stdin line with one JSON reply
per stdout line:

  {"cmd": "run", "req": {...}}            -> {"lat": s, "status": ..., ...}
  {"cmd": "run", "req": {...}, "rid": i}  -> the same with chromsum's public
                                             functions wrapped in spans tagged i
  {"cmd": "report"}                       -> write the spans to SPANS_PATH and
                                             reply with the per-layer metrics
  {"cmd": "exit"}                         -> {"rss_kb": ..., "children_rss_kb": ...}

Only the library call and the construction of its inputs are timed.  A
request's status is "ok" when the call returned, "refused" when it raised a
ChromsumError, and "crashed" on any other exception; the result is turned
into plain data after the clock stops.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from time import perf_counter


def load_chromsum(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import chromsum  # noqa: E402

    if not os.path.abspath(chromsum.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"chromsum was imported from {chromsum.__file__}, not {src}")
    return chromsum


class Executor:
    def __init__(self, cs, root: str):
        self.cs = cs
        self.cli_env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def _st(self, sets):
        return self.cs.intset.make_tuple(sets)

    def _h(self, coords):
        return self.cs.intset.HVec(tuple(coords))

    def _result(self, out: dict):
        cs = self.cs
        return cs.structure.StructureResult(
            low_fringe=cs.intset.FiniteSet(tuple(out["C"])),
            low_cut=out["c"],
            high_fringe=cs.intset.FiniteSet(tuple(out["D"])),
            high_cut=out["d"],
            threshold=self._h(out["h_t"]),
            strategy=out["strategy"],
            verified_box=(self._h(out["verified_box"][0]), self._h(out["verified_box"][1])),
        )

    def call(self, req: dict):
        """Run one request; module attributes are looked up per call so that
        tracing wrappers apply."""
        cs, op = self.cs, req["op"]
        if op == "multiset_count_table":
            return cs.repcount.multiset_count_table(cs.intset.make_set(req["A"]), req["h"], req["cap"])
        if op == "chromatic_count_table":
            return cs.repcount.chromatic_count_table(self._st(req["sets"]), self._h(req["h"]), req["cap"])
        if op == "inhomogeneous_count_table":
            return cs.repcount.inhomogeneous_count_table(
                self._st(req["sets"]), self._h(req["h"]), cs.intset.make_set(req["B"]), req["cap"]
            )
        if op == "run_all":
            return cs.lemmas.run_all(
                self._st(req["sets"]), self._h(req["h"]), req["t"], cs.intset.make_set(req["B"])
            )
        if op == "structure_constants":
            return cs.structure.structure_constants(self._st(req["sets"]), req["t"])
        if op == "structure_constants_constructive":
            return cs.structure.structure_constants(self._st(req["sets"]), req["t"], strategy="constructive")
        if op == "structure_constants_inhomogeneous":
            return cs.structure.structure_constants_inhomogeneous(
                self._st(req["sets"]), cs.intset.make_set(req["B"]), req["t"]
            )
        if op == "verify_structure":
            st, result = self._st(req["sets"]), self._result(req["result"])
            return [
                (h, cs.structure.verify_structure(st, req["t"], result, self._h(h)))
                for h in req["points"]
            ]
        if op == "witness_representations":
            return cs.structure.witness_representations(self._st(req["sets"]), req["n"], req["t"])
        if op == "cli":
            argv, stdin = cli_invocation(req)
            return subprocess.run(
                [sys.executable, "-m", "chromsum", *argv],
                input=stdin, capture_output=True, text=True, env=self.cli_env, timeout=60,
            )
        if op == "cli_inprocess":
            from chromsum import cli

            argv, _ = cli_invocation(req)
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)
        raise ValueError(f"unknown op {op!r}")


def cli_invocation(req: dict):
    """(argv, stdin text): the arguments as flags, or as one JSON request
    on stdin when the request says so."""
    args = req["args"]
    if req.get("stdin"):
        return [req["cmd"], "--stdin"], json.dumps(dict(args, command=req["cmd"]))
    argv = [req["cmd"]]
    for key, value in args.items():
        argv += [f"--{key}", json.dumps(value, separators=(",", ":"))]
    return argv, None


def plain(op: str, value):
    """Output as JSON-ready data, read from attributes (not to_json)."""
    if op in ("multiset_count_table", "chromatic_count_table", "inhomogeneous_count_table"):
        return {"offset": value.offset, "cap": value.cap, "counts": list(value.counts)}
    if op.startswith("structure_constants"):
        lo, hi = value.verified_box
        return {
            "C": list(value.low_fringe.elements), "c": value.low_cut,
            "D": list(value.high_fringe.elements), "d": value.high_cut,
            "h_t": list(value.threshold.coords), "strategy": value.strategy,
            "verified_box": [list(lo.coords), list(hi.coords)],
        }
    if op == "verify_structure":
        return [[h, bool(ok)] for h, ok in value]
    if op == "witness_representations":
        return {"n": value.n, "reps": [[list(e) for e in rep.entries] for rep in value.reps]}
    if op == "run_all":
        return [[c.name, bool(c.ok)] for c in value]
    if op == "cli":
        return {"rc": value.returncode, "stdout": value.stdout, "stderr": value.stderr}
    return value


def main(argv) -> int:
    root, spans_path, warmup = argv
    cs = load_chromsum(root)
    executor = Executor(cs, root)
    executor.call(json.loads(warmup))
    print("ready", flush=True)

    tracer = None
    for line in sys.stdin:
        msg = json.loads(line)
        if msg["cmd"] == "run":
            req = msg["req"]
            traced = "rid" in msg
            if traced:
                if tracer is None:
                    from tracing import Tracer

                    tracer = Tracer(cs)
                tracer.begin_request(msg["rid"], req)
                tracer.install()
            reply: dict = {}
            start = perf_counter()
            try:
                value = executor.call(req)
                reply["status"] = "ok"
            except cs.ChromsumError as exc:
                reply["status"] = "refused"
                reply["error"] = f"{type(exc).__name__}: {exc}"
            except Exception as exc:  # noqa: BLE001 - an untyped failure is a verdict
                reply["status"] = "crashed"
                reply["error"] = f"{type(exc).__name__}: {exc}"
            reply["lat"] = perf_counter() - start
            if traced:
                tracer.uninstall()
            if reply["status"] == "ok":
                reply["out"] = plain(req["op"], value)
                value = None
        elif msg["cmd"] == "report":
            tracer.write(spans_path)
            reply = tracer.layer_metrics()
        elif msg["cmd"] == "exit":
            print(json.dumps({
                "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "children_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            }), flush=True)
            return 0
        else:
            raise ValueError(f"unknown command {msg['cmd']!r}")
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
