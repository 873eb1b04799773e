"""Time fresh command-line processes and report what each one imported.

Usage:
    python tools/startup.py --root DIR [--root DIR2] [--runs N] [--seed S]

For each of the six request shapes of the benchmark's cli workload
(counts by flags and by --stdin, sumset, structure, witness and verify:
the first request of each shape in stream S of DIR/bench/workloads.py,
default 101), each run as `python -m chromsum`, and for
`python -c pass` and `python -c "import chromsum"`, runs N fresh
processes (default 9) with PYTHONPATH=DIR/src and prints, per root, the
median wall time in ms and whether numpy, chromsum.oracle and
chromsum.lemmas were loaded when the process exited (from one more
process run under probe(), which reports sys.modules at exit).  With two
roots the processes alternate between them, one of each root per round.
Nothing is written to DIR.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

# the modules whose presence at exit is reported
WATCHED = ("numpy", "chromsum.oracle", "chromsum.lemmas")

# run by `python -c` ahead of the command: reports which of WATCHED are
# loaded when the process exits, on the last line of stderr
_PROBE = (
    "import atexit, sys\n"
    "atexit.register(lambda: print('loaded', *(m in sys.modules for m in {watched!r}), file=sys.stderr))\n"
    "{run}\n"
)
_RUN_CLI = "import runpy; runpy.run_module('chromsum', run_name='__main__', alter_sys=True)"


def shapes(root: str, seed: int) -> list[tuple[str, list[str], str | None]]:
    """(label, argv after `python`, stdin text) of `python -c pass`, of
    `python -c "import chromsum"` and of the first request of each cli
    shape in the stream of seed."""
    sys.path.insert(0, str(Path(root) / "bench"))
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    import worker
    import workloads

    found: dict[str, tuple[list[str], str | None]] = {}
    for req in workloads.stream("cli", seed):
        label = req["cmd"] + (" --stdin" if req.get("stdin") else "")
        if label not in found:
            argv, stdin = worker.cli_invocation(req)
            found[label] = (["-m", "chromsum", *argv], stdin)
        if len(found) == 6:
            break
    bare = [("python -c pass", ["-c", "pass"], None), ("import chromsum", ["-c", "import chromsum"], None)]
    return bare + [(label, *found[label]) for label in sorted(found)]


def _env(root: str) -> dict:
    return dict(os.environ, PYTHONPATH=str(Path(root) / "src"))


def wall(command: list[str], stdin: str | None = None, env: dict | None = None) -> float:
    """Wall seconds of one process of command, stdin written to it, from
    start to exit; a failed command raises, and one still running after
    120 s is killed.  The wait blocks until the process exits:
    subprocess.run's wait with a timeout polls with sleeps of up to 50
    ms, which rounded a 70 ms process up to about 114 ms."""
    start = perf_counter()
    with subprocess.Popen(command, stdin=None if stdin is None else subprocess.PIPE, env=env, text=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) as proc:
        deadline = threading.Timer(120, proc.kill)
        deadline.start()
        try:
            proc.communicate(stdin)
        finally:
            deadline.cancel()
    spent = perf_counter() - start
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, command)
    return spent


def probe(root: str, argv: list[str], stdin: str | None) -> tuple[subprocess.CompletedProcess, set[str]]:
    """One process of the command argv (after `python`), run by a probe
    that reports sys.modules at exit: the finished process, its last
    stderr line taken off, and which of WATCHED it had loaded."""
    run_it = argv[1] if argv[:1] == ["-c"] else _RUN_CLI
    args = argv[2:] if argv[:2] == ["-m", "chromsum"] else []
    code = _PROBE.format(watched=WATCHED, run=run_it)
    done = subprocess.run([sys.executable, "-c", code, *args], input=stdin, env=_env(root),
                          capture_output=True, text=True, timeout=120)
    *rest, last = done.stderr.splitlines() or [""]
    words = last.split()
    if words[:1] != ["loaded"]:
        raise RuntimeError(f"no probe report from {argv}: {done.stderr!r}")
    done.stderr = "\n".join(rest)
    return done, {name for name, flag in zip(WATCHED, words[1:]) if flag == "True"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", action="append", required=True)
    parser.add_argument("--runs", type=int, default=9)
    parser.add_argument("--seed", type=int, default=101)
    args = parser.parse_args(argv)
    roots = [str(Path(root).resolve()) for root in args.root]
    columns = [name.rpartition(".")[2] for name in WATCHED]
    header = f"{'request':<16}" + "".join(f" {'ms':>7}" + "".join(f" {c:>6}" for c in columns) for _ in roots)
    print("roots: " + "  ".join(roots))
    print(header)
    for label, command, stdin in shapes(roots[0], args.seed):
        times: dict[str, list[float]] = {root: [] for root in roots}
        for _ in range(args.runs):
            for root in roots:
                times[root].append(wall([sys.executable, *command], stdin, _env(root)))
        row = f"{label:<16}"
        for root in roots:
            _, loaded = probe(root, command, stdin)
            flags = "".join(f" {'yes' if name in loaded else 'no':>6}" for name in WATCHED)
            row += f" {statistics.median(times[root]) * 1000:>7.1f}{flags}"
        print(row, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
