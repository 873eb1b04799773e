"""Spans around chromsum's public functions, recorded from outside the
library by replacing module attributes.

Every public function of chromsum.repcount, .oracle, .structure and .lemmas
is wrapped once; every attribute of those four modules that refers to such a
function is pointed at the wrapper, so calls between modules (structure ->
repcount.tfold_set, structure -> oracle.oracle_partitions, lemmas ->
repcount) are seen too.  Calls inside one module to a private helper are
not: they count toward the calling span's self time.

A span is (name, start, end, parent index, request id, capped, count);
spans stay in memory until written out.
"""

from __future__ import annotations

import inspect
import json
import types
from time import perf_counter

MODULES = ("repcount", "oracle", "structure", "lemmas")
# kernels whose arguments imply a DP cell count
_KERNELS = ("repcount.multiset_count_table", "repcount.chromatic_count_table")
# every table build a structure request can cause
_TABLES = _KERNELS + ("repcount.partition_count_table",)
_STRUCTURE_OPS = (
    "structure_constants",
    "structure_constants_inhomogeneous",
    "structure_constants_constructive",
)


def _cells(args: dict) -> int:
    if "A" in args:
        sets, h = [args["A"]], [args["h"]]
    else:
        sets, h = args["st"].sets, args["h"].coords
    return sum(len(A) * hi * (hi * A.max + 1) for A, hi in zip(sets, h))


class Tracer:
    """Spans are stored as tuples of numbers and strings, which the garbage
    collector stops scanning, so a long trace does not slow collections in
    the traced program."""

    FIELDS = ("name", "start", "end", "parent", "request", "capped", "count")

    def __init__(self, package):
        self.modules = [getattr(package, name) for name in MODULES]
        self.spans: list[tuple] = []
        self.request_ops: dict[int, dict] = {}
        self._stack: list[int] = []
        self._rid = -1
        self._wrappers = {}
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for public in mod.__all__:
                fn = getattr(mod, public)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    self._wrappers[fn] = self._wrap(f"{short}.{fn.__name__}", fn)
        self._saved: list[tuple] = []

    def begin_request(self, rid: int, req: dict) -> None:
        self._rid = rid
        self.request_ops[rid] = req

    def _wrap(self, name: str, fn):
        """count is the DP cells for a kernel and the partitions listed for
        oracle_partitions; capped says whether a repcount call saturates."""
        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack
        repcount = name.startswith("repcount.")
        kernel = name in _KERNELS
        listing = name == "oracle.oracle_partitions"

        def wrapper(*args, **kwargs):
            capped = count = None
            if repcount:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                capped = name.endswith("tfold_set") or a.get("cap") is not None
                if kernel:
                    count = _cells(a)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._rid, capped, count)
            if listing:
                spans[index] = (name, start, end, parent, self._rid, capped, len(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in self._wrappers:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, self._wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in self._saved:
            setattr(mod, attr, value)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": self.FIELDS, "spans": self.spans}, fh)

    # -- aggregation --------------------------------------------------------

    def layer_metrics(self) -> dict:
        """calls, busy_s (outermost spans) and self_s per function, plus the
        derived counts; functions never called are absent."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]

        def ancestors(i):
            p = spans[i][3]
            while p >= 0:
                yield spans[p]
                p = spans[p][3]

        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        self_s: dict[str, float] = {}
        out: dict[str, float] = {}
        exact_busy = capped_busy = 0.0
        cells = 0
        kernel_busy = 0.0
        enumerated = used = 0
        tables = 0
        for i, (name, start, end, _parent, rid, capped, count) in enumerate(spans):
            dur = end - start
            up = [a[0] for a in ancestors(i)]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child_time[i]
            if name not in up:
                busy[name] = busy.get(name, 0.0) + dur
            if name.startswith("repcount.") and not any(u.startswith("repcount.") for u in up):
                if capped:
                    capped_busy += dur
                else:
                    exact_busy += dur
            if name in _KERNELS and not any(u in _KERNELS for u in up):
                cells += count
                kernel_busy += dur
            if name == "oracle.oracle_partitions":
                enumerated += count
                used += self.request_ops[rid].get("t", 0)
            if name in _TABLES and self.request_ops[rid]["op"] in _STRUCTURE_OPS:
                tables += 1

        for name, n in calls.items():
            out[f"{name}.calls"] = n
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = self_s[name]
        out["repcount.exact.busy_s"] = exact_busy
        out["repcount.capped.busy_s"] = capped_busy
        out["repcount.cells"] = cells
        out["repcount.cells_per_s"] = cells / kernel_busy if kernel_busy else 0.0
        structure_requests = sum(1 for r in self.request_ops.values() if r["op"] in _STRUCTURE_OPS)
        out["structure.tables_per_request"] = tables / structure_requests if structure_requests else 0.0
        out["oracle.partitions_enumerated"] = enumerated
        out["oracle.partitions_used_ratio"] = used / enumerated if enumerated else 0.0
        out["trace.spans"] = len(spans)
        return out
