"""chromsum benchmark: one closed-loop client, one request at a time.

Usage (from the repository root):

    python3 bench/run.py --workload counts --seed 1 --seconds 22 --trace 0

Workloads are listed in workloads.py and BENCHMARK.json.  This process
generates the seeded requests, starts bench/worker.py (the only process that
imports chromsum, from ./src) and sends it one request at a time.  Each
output is checked here against the references in reference.py, after the
worker's clock has stopped, so checks never count toward timed time.

--trace 0 runs a fixed number of requests for the seed, about --seconds of
timed work on a 2-vCPU Xeon VM (REQUESTS_PER_SECOND in workloads.py), and
reports the end-to-end metrics.  --trace 1 runs a fixed list of requests
(the start of the stream plus one small request per public operation)
once to settle it, then each request once plain and once with spans around
chromsum's public functions, and reports the per-layer metrics from the
spans (work counts repeat exactly for a seed) and the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  `failed` counts
refused plus wrong requests, and every wrong request is listed above it.
`correct` is false when a check could not give a verdict, for example when
a reference table fails its own fingerprint check.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from collections import Counter, deque
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

from checks import Checker  # noqa: E402
from reference import ReferenceFailure, self_test  # noqa: E402
from workloads import (  # noqa: E402
    MIN_REQUESTS, REQUESTS_PER_SECOND, TRACE_COVERAGE, TRACE_REQUESTS, WARMUP, WORKLOADS, followups, stream,
)

# set-up is measured this many times, spread over the run so that the
# median is not taken from one stretch of machine load
SETUP_SAMPLES = 5
WORKER_TIMEOUT = 60  # seconds a worker or probe process may take to exit
# give up on the run (printing no result) past this many seconds of wall
# time: a run must end within 180 seconds
DEADLINE = 170
CLI_PROBES = {
    "cli.interp_ms": ["-c", "pass"],
    "cli.import_ms": ["-c", "import chromsum"],
    "cli.request_ms": ["-m", "chromsum", "counts", "--sets", "[[0,2,3]]", "--h", "4"],
}
CLI_PROBE_SAMPLES = 3


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


class Worker:
    def __init__(self, workload: str, seed: int):
        spans = os.path.join(OUT, f"spans-{workload}-{seed}.json")
        cmd = [sys.executable, os.path.join(BENCH, "worker.py"), ROOT, spans, json.dumps(WARMUP[workload])]
        start = perf_counter()
        # own process group, so that kill() also ends a command-line child
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True
        )
        line = self.proc.stdout.readline()
        self.setup_s = perf_counter() - start
        if line.strip() != "ready":
            self.kill()
            raise BenchmarkError(f"worker failed to start (exit {self.proc.returncode})")

    def send(self, msg: dict) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise BenchmarkError(f"worker exited with code {self.proc.returncode}")
        return json.loads(line)

    def close(self) -> dict:
        usage = self.send({"cmd": "exit"})
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=WORKER_TIMEOUT)
        return usage

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()


class Ledger:
    """Verdicts and latencies of the requests of one pass."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.latencies: list[float] = []
        self.verdicts: Counter = Counter()
        self.by_op: Counter = Counter()
        self.wrong: list[tuple[dict, str]] = []
        self.refusals: Counter = Counter()
        self.errors: list[str] = []
        self.op_latencies: dict[str, list[float]] = {}

    def run(self, worker: Worker, req: dict, traced: bool = False):
        msg = {"cmd": "run", "req": req}
        if traced:
            msg["rid"] = len(self.latencies)
        reply = worker.send(msg)
        self.latencies.append(reply["lat"])
        self.op_latencies.setdefault(req["op"], []).append(reply["lat"])
        try:
            verdict, reason = self.checker.verdict(req, reply)
        except ReferenceFailure as exc:
            self.errors.append(f"no verdict for {_brief(req)}: {exc}")
            verdict, reason = "unchecked", str(exc)
        self.verdicts[verdict] += 1
        self.by_op[(req["op"], verdict)] += 1
        if verdict == "wrong":
            self.wrong.append((req, reason))
        elif verdict == "refused":
            self.refusals[reason.split(":", 1)[0]] += 1
        return reply

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.verdicts["refused"] + self.verdicts["wrong"]


def _brief(req: dict) -> str:
    shown = {k: v for k, v in req.items() if k not in ("result", "tag")}
    text = json.dumps(shown, separators=(",", ":"))
    return text if len(text) <= 300 else text[:297] + "..."


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def run_length(workload: str, seconds: float) -> int:
    return max(MIN_REQUESTS, round(seconds * REQUESTS_PER_SECOND[workload]))


def timed_loop(worker: Worker, ledger: Ledger, workload: str, seed: int, seconds: float, setups: list) -> float:
    """The first run_length() requests in stream order, follow-ups first;
    returns their timed total.  Between requests, at even steps of the run,
    another worker is started and stopped to add a set-up sample."""
    requests = stream(workload, seed)
    pending: deque = deque()
    timed = 0.0
    total = run_length(workload, seconds)
    while ledger.attempted < total:
        if ledger.attempted >= total * len(setups) / SETUP_SAMPLES:
            setups.append(setup_sample(workload, seed))
        req = pending.popleft() if pending else next(requests)
        reply = ledger.run(worker, req)
        timed += reply["lat"]
        pending.extend(followups(req, reply["status"], reply.get("out")))
    return timed


def setup_sample(workload: str, seed: int) -> float:
    """Start a worker, stop it, and return its set-up time."""
    probe = Worker(workload, seed)
    probe.close()
    return probe.setup_s


def trace_list(worker: Worker, ledger: Ledger, workload: str, seed: int) -> list[dict]:
    """The fixed request list of a traced run: the first stream requests,
    the coverage requests and their follow-ups, found by running them once
    (this also lets each request's first-run costs, such as heap growth,
    pass before timing)."""
    requests = stream(workload, seed)
    done: list[dict] = []
    for req in [next(requests) for _ in range(TRACE_REQUESTS[workload])] + TRACE_COVERAGE:
        pending = deque([req])
        while pending:
            req = pending.popleft()
            reply = ledger.run(worker, req)
            done.append(req)
            pending.extend(followups(req, reply["status"], reply.get("out")))
    return done


def traced_pass(worker: Worker, requests: list[dict], plain: Ledger, traced: Ledger) -> None:
    """Each request once plain and once traced, alternating which goes
    first, so that the difference of the totals is the tracing overhead."""
    for i, req in enumerate(requests):
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            (traced if with_spans else plain).run(worker, req, traced=with_spans)


def cli_probes() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = {}
    for name, args in CLI_PROBES.items():
        samples = []
        for _ in range(CLI_PROBE_SAMPLES):
            start = perf_counter()
            subprocess.run([sys.executable, *args], env=env, cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT)
            samples.append((perf_counter() - start) * 1000)
        out[name] = statistics.median(samples)
    return out


def report(ledger: Ledger, metrics: dict, units: dict, extra: dict) -> None:
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"info {name} = {value}")
    for op, lats in sorted(ledger.op_latencies.items()):
        counts = " ".join(f"{v}={ledger.by_op[(op, v)]}" for v in ("ok", "refused", "wrong") if ledger.by_op[(op, v)])
        p50, p90 = (quantile(lats, q) * 1000 for q in (0.5, 0.9))
        print(f"ops {op}: {counts} p50={p50:.3g}ms p90={p90:.3g}ms")
    for kind, n in sorted(ledger.refusals.items()):
        print(f"refused {kind} x{n}")
    for req, reason in ledger.wrong:
        print(f"WRONG {_brief(req)}: {reason}")
    for error in ledger.errors:
        print(f"UNCHECKED {error}")


def _out_of_time(signum, frame):
    raise BenchmarkError(f"run exceeded {DEADLINE} seconds")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "chromsum", "__init__.py")):
        print(f"error: no chromsum sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    os.makedirs(OUT, exist_ok=True)
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(DEADLINE)
    self_test()

    worker = Worker(args.workload, args.seed)
    setups = [worker.setup_s]
    checker = Checker(args.seed)
    try:
        if args.trace:
            discovery, plain, ledger = Ledger(checker), Ledger(checker), Ledger(checker)
            requests = trace_list(worker, discovery, args.workload, args.seed)
            traced_pass(worker, requests, plain, ledger)
            # functions no request reached have no spans: their counts are zero
            metrics = {m["name"]: 0 for m in declared if m["name"].endswith((".calls", ".busy_s", ".self_s"))}
            metrics.update(worker.send({"cmd": "report"}))
            worker.close()
            untraced, traced = sum(plain.latencies), sum(ledger.latencies)
            metrics["trace.untraced_s"] = untraced
            metrics["trace.traced_s"] = traced
            metrics["trace.overhead_s"] = traced - untraced
            # per request, so that one long request's noise does not decide it
            metrics["trace.overhead_ratio_p50"] = statistics.median(
                t / u - 1 for t, u in zip(ledger.latencies, plain.latencies)
            )
            metrics.update(cli_probes())
            for m in declared:
                kind, _, op = m["name"].partition(".")
                if kind in ("ops_refused", "ops_wrong"):
                    metrics[m["name"]] = ledger.by_op[(op, kind[4:])]
            errors = discovery.errors + plain.errors + ledger.errors
        else:
            ledger = Ledger(checker)
            timed = timed_loop(worker, ledger, args.workload, args.seed, args.seconds, setups)
            usage = worker.close()
            rss_kb = usage["children_rss_kb"] if args.workload == "cli" else usage["rss_kb"]
            metrics = {
                "setup_s": statistics.median(setups),
                "solved_per_s": ledger.verdicts["ok"] / timed,
                "req_p50_ms": quantile(ledger.latencies, 0.50) * 1000,
                "req_p90_ms": quantile(ledger.latencies, 0.90) * 1000,
                "ops_ok_ratio": ledger.verdicts["ok"] / ledger.attempted,
                "peak_rss_mb": rss_kb / 1024,
            }
            errors = ledger.errors
    finally:
        worker.kill()
    signal.alarm(0)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchmarkError(f"metrics not measured: {missing}")
    metrics = {m["name"]: metrics[m["name"]] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    extra = {
        "attempted": ledger.attempted,
        "timed_s": round(sum(ledger.latencies), 3),
        "ops_failed_ratio": round(ledger.failed / ledger.attempted, 6),
        "setup_samples_s": [round(s, 4) for s in setups],
    }
    report(ledger, metrics, units, extra)
    print(json.dumps({
        "correct": not errors,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
