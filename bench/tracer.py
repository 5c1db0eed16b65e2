"""In-memory span tracer for the benchmark's own calls.

The harness wraps each call it makes into a layer's public function in
a span -- ``name, start, end, parent, trace_id`` -- kept in memory and
flushed to ``trace-<workload>.jsonl`` when the run ends.  Spans of one
request (or one analyst session) share a ``trace_id``; the parent is
whatever span the same thread had open.  Nothing inside ``src/repro``
is instrumented: spans inside the program are a later change.

A disabled tracer still runs the ``with`` blocks (so the traced and
untraced runs execute the same harness code) but records nothing; the
difference between the two is what ``trace_overhead_ratio`` reports.
"""

import contextlib
import itertools
import json
import threading
import time


class Tracer:
    """Collects spans from any number of harness threads."""

    def __init__(self, enabled=False):
        self.enabled = enabled
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name, trace_id=None):
        """Time the enclosed block as one span (no-op when disabled)."""
        if not self.enabled:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "trace_id": trace_id if trace_id is not None
            else (parent["trace_id"] if parent else None),
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            # list.append is atomic under the GIL; order is irrelevant.
            self.spans.append(record)

    def flush(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.spans, key=lambda r: r["id"]):
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_trace(path):
    """The spans of a flushed trace file, in id order."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def self_times(spans):
    """``{span id: self seconds}``: duration minus the children's.

    Children of one span run one after another on the parent's thread,
    so the interval they cover is the sum of their durations.
    """
    covered = {}
    for record in spans:
        if record["parent"] is not None:
            covered[record["parent"]] = (
                covered.get(record["parent"], 0.0)
                + record["end"] - record["start"]
            )
    return {
        record["id"]: record["end"] - record["start"]
        - covered.get(record["id"], 0.0)
        for record in spans
    }


def span_ms(record):
    """Duration (ms) of one finished span."""
    return (record["end"] - record["start"]) * 1000.0


def durations_ms(spans, name):
    """Durations (ms) of every span called ``name``."""
    return [span_ms(record) for record in spans if record["name"] == name]
