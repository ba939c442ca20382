"""Spans recorded around the calls a request makes into fpt.

Tracing lives in the benchmark's own files: a request runner passes each
public call through `Tracer.call`, which records name, start, end, parent
span, request id and whether the call raised.  Spans stay in memory and
are written out once, when the run ends.  A disabled tracer calls through
with no recording, which is how the timed (untraced) runs use it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, request, ok]
        self.request = None
        self._parent = None

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        rec = [name, perf_counter_ns(), 0, self._parent, self.request, False]
        parent, self._parent = self._parent, len(self.spans)
        self.spans.append(rec)
        try:
            out = fn(*args)
            rec[5] = True
            return out
        finally:
            rec[2] = perf_counter_ns()
            self._parent = parent

    def layer_table(self) -> dict[str, dict]:
        """Per layer (the module prefix of a span name): calls, failed,
        total and self milliseconds.  Self time is a span's duration minus
        the part its child spans cover."""
        child_ns = defaultdict(int)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent, _, ok) in enumerate(self.spans):
            row = out.setdefault(name.split(".")[0], {"calls": 0, "failed": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["failed"] += not ok
            row["total_ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - child_ns[i]) / 1e6
        return out

    def durations_ms(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, *_ in self.spans:
            out[name].append((end - start) / 1e6)
        return out

    def write(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "request", "ok")
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")
