"""Span records for traced runs, and the self-time summary of a trace file.

A span is one JSON line: ``{"id", "name", "layer", "start", "end", "parent",
"job"}``.  Times are ``time.monotonic()`` seconds, a clock shared by every
process on the host, so the spans of the benchmark process and of a job's process line
up.  A span's self time is its duration minus that of its direct children.

Run ``python3 perfbench/spans.py TRACE.jsonl`` to print the per-layer summary
of a trace file.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    """Collects the spans of one job in memory; ``dump`` appends them to a file."""

    def __init__(self, job: int, root: str):
        self.job = job
        self.spans: list[dict] = []
        self._stack = [root]
        self._next = 1

    def add(self, name: str, layer: str, start: float, end: float):
        """Record a span whose times were taken elsewhere, under the current span."""
        self.spans.append({"id": f"{self.job}.{self._next}", "name": name, "layer": layer,
                           "start": start, "end": end, "parent": self._stack[-1], "job": self.job})
        self._next += 1

    @contextmanager
    def span(self, name: str, layer: str):
        """Record a span around the block; the block may add ``counts`` to the yielded record."""
        sid = f"{self.job}.{self._next}"
        self._next += 1
        rec = {"id": sid, "name": name, "layer": layer, "start": time.monotonic(), "end": None,
               "parent": self._stack[-1], "job": self.job}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.monotonic()

    def wrap(self, module, attr: str, name: str, layer: str):
        """Record a span around every call of ``module.attr`` made through the module."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)

        setattr(module, attr, traced)

    def dump(self, path: str):
        with open(path, "a") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time of each span, by span id."""
    child = defaultdict(float)
    for s in spans:
        child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - child[s["id"]] for s in spans}


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summary(spans: list[dict]) -> str:
    """Per-layer and per-span-name self time; the job span's self time is the benchmark's own overhead."""
    own = self_times(spans)
    by_layer, by_name, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for s in spans:
        by_layer[s["layer"]] += own[s["id"]]
        by_name[s["name"]] += own[s["id"]]
        calls[s["name"]] += 1
    total = sum(by_layer.values()) or 1.0
    lines = [f"{'layer':<28} {'self_s':>10} {'share':>7}"]
    for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        shown = "bench (overhead, job spans)" if layer == "bench" else layer
        lines.append(f"{shown:<28} {t:10.4f} {t / total:7.1%}")
    lines.append(f"{'span':<28} {'calls':>6} {'self_s':>10}")
    for name, t in sorted(by_name.items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:<28} {calls[name]:6d} {t:10.4f}")
    return "\n".join(lines)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 perfbench/spans.py TRACE.jsonl")
    print(summary(load(sys.argv[1])))
