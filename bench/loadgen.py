"""Load generation over ``ServingClient``: closed loop, open loop, writes.

One thread per connection and at most two connections, so the whole
generator fits the 2-core reference box beside the server process.

*Closed loop* (every reader): a connection sends its next request when
the previous answer arrived.  *Open loop* (the ``serve_rw`` writer):
writes are due on a seeded schedule whatever the server does; a write
that cannot be sent on time waits, its latency is counted from the
*due* time, and how late the generator ran is reported beside it.

Every attempt becomes exactly one :class:`Sample` that is either
``ok`` or failed -- a non-200, an admission refusal, an exception, a
structural violation or an oracle mismatch all fail the attempt.
"""

import concurrent.futures
import http.client
import json
import random
import time

from repro.serving import ServerError

from corpus import K


#: What one failed attempt can raise: a non-2xx answer, a transport
#: fault, or a malformed payload.
_REQUEST_ERRORS = (ServerError, OSError, http.client.HTTPException,
                   ValueError, KeyError)


class Sample:
    """One attempted operation, timed against the run's clock."""

    __slots__ = ("kind", "due", "sent", "done", "ok", "cache_hit",
                 "server_s", "empty", "error", "traced")

    def __init__(self, kind, due, sent):
        self.kind = kind
        self.due = due
        self.sent = sent
        self.done = sent
        self.ok = False
        self.cache_hit = False
        self.server_s = 0.0
        self.empty = False
        self.error = None
        self.traced = False

    @property
    def latency_ms(self):
        """Client-observed latency, from the due time."""
        return (self.done - self.due) * 1000.0


def wire(results):
    """Canonical JSON of a result list (what the oracle compares)."""
    return json.dumps(results, sort_keys=True, separators=(",", ":"))


class ReadChecker:
    """Structural checks on every answer, byte checks on oracle queries.

    ``expected`` maps ``repr(query)`` to the canonical answer at
    ``base_generation``; answers computed at a later generation (after
    an online write) are checked structurally only.
    """

    def __init__(self, expected, base_generation):
        self.expected = expected
        self.base_generation = base_generation

    def check(self, query, response, previous_generation):
        results = response["results"]
        scores = [result["score"] for result in results]
        if len(results) > K:
            return "more than k results"
        if scores != sorted(scores, reverse=True):
            return "scores not descending"
        generation = response["generation"]
        if previous_generation is not None and generation < previous_generation:
            return "generation went backwards"
        expected = self.expected.get(repr(query))
        if (expected is not None and generation == self.base_generation
                and wire(results) != expected):
            return "answer differs from the offline oracle"
        return None


def _read(client, query, checker, sample, state, tracer, trace_id):
    """Send one ``/search`` and settle ``sample``."""
    try:
        with tracer.span("loadgen.read", trace_id=trace_id):
            with tracer.span("serving.http_search"):
                response = client.search(query, k=K)
        sample.done = time.perf_counter()
        sample.error = checker.check(query, response, state.get("generation"))
        state["generation"] = response["generation"]
        sample.cache_hit = response["cache_hit"]
        sample.server_s = response["latency"]
        sample.empty = not response["results"]
    except _REQUEST_ERRORS as error:
        sample.done = time.perf_counter()
        sample.error = f"{type(error).__name__}: {error}"
        client.close()
    sample.ok = sample.error is None


def _write(client, document, sample, state, tracer, trace_id):
    """Send one 1-document ``/add_documents`` and settle ``sample``."""
    try:
        with tracer.span("loadgen.write", trace_id=trace_id):
            with tracer.span("serving.http_add_documents"):
                response = client.add_documents([list(document)])
        sample.done = time.perf_counter()
        if response["added"] != 1:
            sample.error = f"added {response['added']} documents, not 1"
        elif response["documents"] != state["documents"] + 1:
            sample.error = "document count did not advance by one"
        state["documents"] = response["documents"]
    except _REQUEST_ERRORS as error:
        sample.done = time.perf_counter()
        sample.error = f"{type(error).__name__}: {error}"
        client.close()
    sample.ok = sample.error is None


def run_threads(targets):
    """Run each callable on its own thread; their results, in order
    (re-raising what any of them raised)."""
    with concurrent.futures.ThreadPoolExecutor(len(targets)) as executor:
        futures = [executor.submit(target) for target in targets]
        return [future.result() for future in futures]


def reader(server, lane, stream, checker, deadline, tracer):
    """One closed-loop reader: next request when the answer arrived.

    ``lane`` is ``"<connection>.<phase>"``: it names the connection's
    seeded stream and prefixes its trace IDs, so no two requests of a
    run share one.
    """
    samples, state = [], {}
    with server.client(f"bench-reader-{lane}") as client:
        while True:
            now = time.perf_counter()
            if now >= deadline:
                return samples
            sample = Sample("read", now, now)
            samples.append(sample)
            _read(client, next(stream), checker, sample, state, tracer,
                  f"r{lane}-{len(samples)}")


def _schedule(rate, seconds, seed):
    """Due offsets: one request per ``1/rate`` slot, jittered inside it.

    Jitter keeps the writer from phase-locking with anything periodic
    in the server, without the bursts of a Poisson process that make a
    ten-second percentile unrepeatable.
    """
    rng = random.Random(f"{seed}:schedule")
    return [
        (slot + rng.random()) / rate
        for slot in range(int(seconds * rate))
    ]


def scheduled_writer(server, documents, rate, seconds, seed, phase,
                     documents_before, tracer):
    """One open-loop writer: a 1-document batch per schedule slot.

    A write that cannot go out on time waits for the previous one; its
    latency still counts from the due time.
    """
    slots = _schedule(rate, seconds, f"{seed}:{phase}")
    if len(documents) < len(slots):
        raise ValueError("not enough holdout documents for the write rate")
    samples = []
    state = {"documents": documents_before}
    start = time.perf_counter()
    with server.client("bench-writer") as client:
        for index, offset in enumerate(slots):
            delay = start + offset - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sample = Sample("write", start + offset, time.perf_counter())
            samples.append(sample)
            _write(client, documents[index], sample, state, tracer,
                   f"w{phase}-{index}")
    return samples


def backlog_max(samples):
    """Most requests already due but not yet sent when one went out."""
    dues = sorted(sample.due for sample in samples)
    worst = 0
    for sample in samples:
        waiting = sum(1 for due in dues if sample.due < due <= sample.sent)
        worst = max(worst, waiting)
    return worst


def write_tail(server, documents, documents_before, tracer):
    """Closed-loop 1-document writes on one connection; the samples."""
    samples = []
    state = {"documents": documents_before}
    with server.client("bench-writer") as client:
        for index, document in enumerate(documents):
            now = time.perf_counter()
            sample = Sample("write", now, now)
            samples.append(sample)
            _write(client, document, sample, state, tracer, f"wt{index}")
    return samples
