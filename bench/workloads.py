"""The five workloads: set-up, timed run, checks, metrics.

``run_workload`` is the single entry point.  An untraced run
(``trace=False``) returns the end-to-end metrics; a traced run returns
the per-layer metrics: it drives the same traffic -- alternating
quarters with the tracer off and on -- and then replays a fixed
number of the workload's own requests through each layer's public
functions in-process (on a *copy* of the snapshot, so the live
server's write-ahead log is never touched), one span per call.

Only public entry points are used: the ``repro serve`` CLI and
``ServingClient`` over HTTP, and ``Seda``/``ShardedSeda``/
``SedaSession``/``ServingApp``/``WriteAheadLog`` calls in-process.
"""

import functools
import math
import os
import shutil
import statistics
import time

from repro.cube.keys import RelativeKey
from repro.datasets.factbook import FactbookGenerator
from repro.serving.app import (
    ServingApp,
    load_serving_system,
    parse_query_payload,
    result_to_dict,
)
from repro.shard import ShardedSeda
from repro.storage.snapshot import fsck_report
from repro.storage.wal import WriteAheadLog
from repro.summaries.connection import TreeConnection
from repro.system import Seda
from repro.xmlio import parse

import loadgen
from corpus import (
    K,
    Corpus,
    anchor_stream,
    cold_stream,
    hot_pool,
    oracle_subset,
    query_pools,
    user_bytes,
    write_order,
    zipf_stream,
)
from server import WORKERS, ServerProcess, rss_mb
from tracer import Tracer, durations_ms, span_ms

#: The workloads; why each exists is recorded in BENCHMARK.json and
#: bench/README.md.
WORKLOADS = ("serve_hot", "serve_cold", "serve_sharded", "serve_rw",
             "explore_cube")

HOT_POOL = 32          # hot queries; far below the 256-entry result cache
COLD_POOL = 2048       # distinct cold queries; 8x the result cache
ORACLE_QUERIES = 128   # pool queries whose answers are byte-checked
END_STATE_QUERIES = 32  # of those, re-checked on the drained snapshot
WARMUP_READS = 16      # cold workloads: untimed reads before the run
WRITE_TAIL = 16        # one-document writes after the timed reads
PROBE_REQUESTS = 96    # in-process layer replays of the workload's stream
PROBE_WRITES = 8       # in-process write-path replays
FIXED_SESSIONS = 16    # sessions whose row counts must repeat exactly
CLIENTS = 2            # connections (= nproc)
SETUP_REPEATS = 3      # set-ups per untraced run; setup_s is their median
WRITE_RATE = 3.0       # serve_rw: scheduled one-document writes per second


def percentile(values, share):
    """Linear-interpolated percentile of a non-empty list."""
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values, default=0.0):
    return statistics.median(values) if values else default


def end_to_end(primary, writes, spans, setup_s, stored, user, rss):
    """The end-to-end metrics from one untraced run's samples.

    Whole-run statistics, not medians over sub-windows: on this
    workload size the sampling noise a two-second window adds is
    larger than the noise bursts it would shield against.
    """
    ok = [sample for sample in primary if sample.ok]
    latencies = [sample.latency_ms for sample in ok] or [0.0]
    timed = sum(end - start for start, end in spans)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(ok) / timed,
        "op_p50_ms": median(latencies),
        "op_p90_ms": percentile(latencies, 0.9),
        "write_p50_ms": median(
            [sample.latency_ms for sample in writes if sample.ok]),
        "stored_bytes_per_user_byte": stored / user,
        "rss_mb": rss,
    }


def disk_bytes(path):
    """``{"snapshot", "sidecar", "wal"}`` bytes on disk for a snapshot
    file (with its ``.cols`` and ``.wal`` neighbours) or a sharded
    directory."""
    if os.path.isdir(path):
        files = [
            os.path.join(root, name)
            for root, _dirs, names in os.walk(path) for name in names
        ]
    else:
        files = [
            path + suffix for suffix in ("", ".cols", ".wal")
            if os.path.exists(path + suffix)
        ]
    sizes = {"snapshot": 0, "sidecar": 0, "wal": 0}
    for name in files:
        if name.endswith(".cols"):
            kind = "sidecar"
        elif name.endswith((".wal", "wal.log")):
            kind = "wal"
        else:
            kind = "snapshot"
        sizes[kind] += os.path.getsize(name)
    return sizes


def copy_snapshot(path, directory):
    """Copy a snapshot (file + sidecar, or sharded directory) aside,
    under its own name: the header records the sidecar's basename."""
    target = os.path.join(directory, "probe", os.path.basename(path))
    if os.path.isdir(path):
        shutil.copytree(path, target)
    else:
        os.makedirs(os.path.dirname(target))
        shutil.copy(path, target)
        shutil.copy(path + ".cols", target + ".cols")
    return target


def answers(search, queries):
    """``{repr(query): canonical answer}`` via ``search(Query, k)``."""
    return {
        repr(query): loadgen.wire([
            result_to_dict(result)
            for result in search(parse_query_payload(query), K)
        ])
        for query in queries
    }


class Context:
    """What one run of one workload was asked to do."""

    def __init__(self, name, seed, seconds, trace, scale, directory):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        # A traced run reports no setup_s: it sets up once.
        self.setup_repeats = 1 if trace else SETUP_REPEATS
        self.directory = directory
        self.tracer = Tracer()
        self.errors = []

    def phases(self):
        """``[(tracer on?, seconds)]``: a traced run measures its own
        overhead by alternating untraced and traced quarters, so a
        server that is still warming up biases neither side."""
        if not self.trace:
            return [(False, self.seconds)]
        return [(traced, self.seconds / 4)
                for traced in (False, True, False, True)]

    def fail(self, message):
        self.errors.append(message)

    def note_failures(self, samples):
        for sample in samples:
            if not sample.ok and len(self.errors) < 20:
                self.errors.append(f"{sample.kind}: {sample.error}")


def run_workload(name, seed, seconds, trace, scale, out):
    """Run one workload once; returns the result dictionary.

    ``{"correct", "attempted", "failed", "metrics": {name: value},
    "errors": [...], "valid": bool}``.  The scratch directory under
    ``out`` is removed and every server reaped, whatever happens.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    directory = os.path.join(out, f"work-{os.getpid()}-{name}")
    os.makedirs(directory)
    context = Context(name, seed, seconds, trace, scale, directory)
    try:
        if name == "explore_cube":
            result = _run_explore(context)
        else:
            result = _run_serve(context)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        if trace:
            context.tracer.flush(os.path.join(out, f"trace-{name}.jsonl"))
    result["errors"] = context.errors
    result["correct"] = result["failed"] == 0 and not context.errors
    return result


# -- serve_* -----------------------------------------------------------------

class ServeInputs:
    """Seed-derived traffic for one serve workload (made once, untimed)."""

    def __init__(self, context):
        self.corpus = Corpus(context.scale)
        pools = query_pools(
            self.corpus.facts(), context.seed, COLD_POOL)
        self.hot = context.name == "serve_hot"
        if self.hot:
            self.pool = hot_pool(pools, context.seed, HOT_POOL)
            self.checked = self.pool
            self.warmup = self.pool
        else:
            self.pools = pools
            self.checked = oracle_subset(
                pools, context.seed, ORACLE_QUERIES)
            self.warmup = self.checked[:WARMUP_READS]
        self.writes = write_order(
            self.corpus.holdout, context.seed)
        self.seed = context.seed
        #: The offline oracle: an unsharded build nobody serves from.
        self.oracle = Seda.from_documents(list(self.corpus.preload))
        self.expected = answers(self.oracle.topk.search, self.checked)

    def stream(self, lane):
        if self.hot:
            return zipf_stream(self.pool, self.seed, lane)
        return cold_stream(self.pools, self.seed, lane)


def _setup_serve(context, inputs, directory):
    """One complete set-up: generate, build, save, spawn, warm up.

    Returns ``(server, snapshot path, step timings)``; the server is
    running and warm.  Every step a later change could move work into
    is inside ``setup_s``.
    """
    os.makedirs(directory)
    sharded = context.name == "serve_sharded"
    start = time.perf_counter()
    corpus = Corpus(context.scale)
    built = time.perf_counter()
    if sharded:
        system = ShardedSeda.from_documents(
            list(corpus.preload), shards=2, parallel=False)
        path = os.path.join(directory, "factbook.shards")
    else:
        system = Seda.from_documents(list(corpus.preload))
        path = os.path.join(directory, "factbook.snapshot")
    build_s = time.perf_counter() - built
    saved = time.perf_counter()
    system.save(path)
    save_s = time.perf_counter() - saved
    server = ServerProcess(path, os.path.join(directory, "server.log"))
    try:
        def lane(queries):
            with server.client("bench-warmup") as client:
                for query in queries:
                    client.search(query, k=K)

        loadgen.run_threads([
            (lambda index=index: lane(inputs.warmup[index::CLIENTS]))
            for index in range(CLIENTS)
        ])
    except BaseException:
        server.stop()
        raise
    timings = {
        "setup_s": time.perf_counter() - start,
        "datasets.generate_s": corpus.generate_s,
        "system.build_s": 0.0 if sharded else build_s,
        "shard.build_s": build_s if sharded else 0.0,
        "system.build_docs_per_s": len(corpus.preload) / build_s,
        "storage.save_s": save_s,
        "serving.server_ready_s": server.ready_s,
    }
    return server, path, timings


def _run_serve(context):
    inputs = ServeInputs(context)
    setups = []
    server = None
    try:
        for repeat in range(context.setup_repeats):
            if server is not None:
                server.stop()
            server, path, timings = _setup_serve(
                context, inputs,
                os.path.join(context.directory, f"setup-{repeat}"))
            setups.append(timings)
        return _drive_serve(context, inputs, server, path, setups)
    finally:
        if server is not None:
            server.stop()


def _drive_serve(context, inputs, server, path, setups):
    tracer = context.tracer
    documents = len(inputs.corpus.preload)
    with server.client("bench-setup") as client:
        base_generation = client.healthz()["generation"]
    checker = loadgen.ReadChecker(inputs.expected, base_generation)
    probe_path = (
        copy_snapshot(path, context.directory) if context.trace else None
    )
    scrape_before = server.metrics()

    samples, spans, written = [], [], []
    for traced, seconds in context.phases():
        tracer.enabled = traced
        start = time.perf_counter()
        # serve_rw trades the second reader for the scheduled writer:
        # it is serve_cold's lane 0 plus concurrent writes.
        readers = 1 if context.name == "serve_rw" else CLIENTS
        lanes = [
            functools.partial(
                loadgen.reader, server, lane, inputs.stream(lane), checker,
                start + seconds, tracer)
            for lane in (f"{index}.{len(spans)}" for index in range(readers))
        ]
        if context.name == "serve_rw":
            batch = inputs.writes[len(written):]
            lanes.append(functools.partial(
                loadgen.scheduled_writer, server, batch, WRITE_RATE, seconds,
                context.seed, len(spans), documents + len(written), tracer))
        phase = [s for lane in loadgen.run_threads(lanes) for s in lane]
        spans.append((start, time.perf_counter()))
        for sample in phase:
            sample.traced = traced
        if context.name == "serve_rw":
            written.extend(
                batch[:sum(1 for s in phase if s.kind == "write")])
        samples.extend(phase)

    if context.name != "serve_rw":
        tail = inputs.writes[:WRITE_TAIL]
        samples.extend(loadgen.write_tail(server, tail, documents, tracer))
        written.extend(tail)
    tracer.enabled = context.trace
    context.note_failures(samples)

    reads = [sample for sample in samples if sample.kind == "read"]
    writes = [sample for sample in samples if sample.kind == "write"]
    if any(not sample.ok for sample in writes):
        # A refused write never reached the log: the end state is the
        # acknowledged sequence only.
        written = [
            document for document, sample in zip(written, writes)
            if sample.ok
        ]
    scrape_after = server.metrics()
    rss = rss_mb(server.pid)
    disk = disk_bytes(path)
    user = user_bytes(inputs.corpus.preload + written)

    if server.stop() != 0:
        context.fail("server did not exit cleanly after SIGTERM")
    report = fsck_report(path)
    if not report["ok"]:
        context.fail(f"fsck after drain: {report['problems'][:2]}")
    _check_end_state(context, inputs, path, written)

    result = {
        "attempted": len(samples),
        "failed": sum(1 for sample in samples if not sample.ok),
        # A generator that fell a second behind its schedule measured
        # its own queue, not the server: invalid, not slow.
        "valid": all(s.sent - s.due < 1.0 for s in samples),
    }
    if not context.trace:
        result["metrics"] = end_to_end(
            reads, writes, spans,
            median([entry["setup_s"] for entry in setups]),
            sum(disk.values()), user, rss)
        return result

    metrics = dict(setups[-1])
    del metrics["setup_s"]
    metrics.update(_http_layers(
        reads, writes, scrape_before, scrape_after,
        disk["wal"], user_bytes(written)))
    probe_disk = disk_bytes(probe_path)
    metrics.update({
        "storage.snapshot_bytes": probe_disk["snapshot"],
        "compact.sidecar_bytes": probe_disk["sidecar"],
    })
    metrics.update(_probe_serve(context, inputs, probe_path))
    result["metrics"] = metrics
    return result


def _check_end_state(context, inputs, path, written):
    """The drained snapshot must answer like an offline rebuild of the
    whole acknowledged document sequence."""
    queries = inputs.checked[:END_STATE_QUERIES]
    rebuilt = Seda.from_documents(list(inputs.corpus.preload) + written)
    drained = load_serving_system(path)
    search = (
        drained.search if isinstance(drained, ShardedSeda)
        else drained.topk.search
    )
    expected = answers(rebuilt.topk.search, queries)
    if answers(search, queries) != expected:
        context.fail(
            "drained snapshot answers differ from an offline rebuild")


def _loadgen_layers(ok):
    """The generator's own view of the primary operations that passed."""
    latencies = [sample.latency_ms for sample in ok] or [0.0]
    traced = [s.latency_ms for s in ok if s.traced]
    untraced = [s.latency_ms for s in ok if not s.traced]
    return {
        "loadgen.op_p99_ms": percentile(latencies, 0.99),
        "loadgen.op_max_ms": max(latencies),
        "loadgen.samples": len(ok),
        "trace_overhead_ratio": (
            median(traced) / median(untraced)
            if traced and untraced else 0.0
        ),
    }


def _http_layers(reads, writes, before, after, wal_bytes, written_bytes):
    """Per-layer numbers read off the HTTP traffic and ``/metrics``."""
    def rtt(sample):
        return (sample.done - sample.sent) * 1000.0

    ok = [sample for sample in reads if sample.ok]
    hits = [sample for sample in ok if sample.cache_hit]
    misses = [sample for sample in ok if not sample.cache_hit]
    windows = [(w.sent, w.done) for w in writes]
    during, quiet = [], []
    for sample in ok:
        overlaps = any(sample.sent < end and start < sample.done
                       for start, end in windows)
        (during if overlaps else quiet).append(sample)
    per_shard = {}
    for row in after["registry"]["fingerprints"].values():
        for shard, counters in row["per_shard"].items():
            per_shard[shard] = (
                per_shard.get(shard, 0) + counters["sorted_accesses"]
            )
    return {
        **_loadgen_layers(ok),
        "serving.http_overhead_ms": median(
            [rtt(s) - s.server_s * 1000.0 for s in ok]),
        "serving.requests_total": (
            sum(after["server"]["requests_total"].values())
            - sum(before["server"]["requests_total"].values())
        ),
        "serving.admission_rejected": (
            sum(after["admission"]["rejected"].values())
            - sum(before["admission"]["rejected"].values())
        ),
        "serving.read_ms_during_write": median([rtt(s) for s in during]),
        "serving.read_ms_quiet": median([rtt(s) for s in quiet]),
        "service.cache_hit_ratio": len(hits) / len(ok) if ok else 0.0,
        "service.execute_hit_ms": median(
            [s.server_s * 1000.0 for s in hits]),
        "service.execute_miss_ms": median(
            [s.server_s * 1000.0 for s in misses]),
        "shard.traffic_imbalance": (
            max(per_shard.values()) / statistics.mean(per_shard.values())
            if per_shard and sum(per_shard.values()) else 0.0
        ),
        "storage.wal_bytes_per_user_byte": (
            wal_bytes / written_bytes if written_bytes else 0.0
        ),
        # Lateness of what has a schedule: the serve_rw writes (a
        # closed-loop request is due when it is sent).
        "loadgen.late_p95_ms": percentile(
            [(s.sent - s.due) * 1000.0 for s in writes] or [0.0], 0.95),
        "loadgen.backlog_max": loadgen.backlog_max(writes),
        "loadgen.empty_result_ratio": (
            sum(1 for s in ok if s.empty) / len(ok) if ok else 0.0
        ),
    }


def _stream_counters(system):
    """Summed impact-stream hit/miss counters of a (sharded) system."""
    stores = (
        [shard.streams for shard in system.shards]
        if isinstance(system, ShardedSeda) else [system.streams]
    )
    totals = {"stream_hits": 0, "stream_misses": 0}
    for store in stores:
        for name, value in store.counters().items():
            totals[name] += value
    return totals


def _column_bytes(report):
    if "totals" in report:
        return report["totals"]["column_bytes"]
    return sum(
        report[key]["column_bytes"]
        for key in ("inverted", "path_index", "streams")
    )


def _probe_serve(context, inputs, probe_path):
    """Replay the workload's requests through each layer, in-process.

    One ``probe.request`` trace per replayed request, with one child
    span per layer call the harness makes on the loaded snapshot copy:
    ``query.parse`` (``parse_query_payload``), ``serving.app_handle``
    (the socket-free ``ServingApp.handle``, which hits or misses the
    result cache exactly as the server does and reports its own
    ``latency``), then the search that handle ran, repeated directly:
    ``search.topk`` (``Seda.topk.search``) or, on a sharded snapshot,
    ``shard.scatter`` (``ShardedSeda.search``) beside a ``search.topk``
    on the unsharded oracle build, its streams primed, as the baseline
    of ``shard.overhead_ratio``.

    The repeat finds every impact stream it needs already built, so it
    is the top-k work alone and ``search.topk_share`` -- repeats of the
    requests that missed over the latency the same handles reported --
    stays below 1.  Both search metrics charge a request only when it
    missed: they read as search time per request of *this* workload.
    """
    tracer = context.tracer
    loaded = time.perf_counter()
    system = load_serving_system(probe_path)
    load_s = time.perf_counter() - loaded
    sharded = isinstance(system, ShardedSeda)
    app = ServingApp(system, probe_path, workers=WORKERS)
    for query in inputs.warmup:
        app.handle("POST", "/search", body={"query": query, "k": K},
                   client="probe")
    topk = inputs.oracle.topk if sharded else system.topk
    stream = inputs.stream("0.0")
    counters = {"sorted_accesses": 0, "tuples_scored": 0, "pruned": 0,
                "early_stop": 0}
    streams = {"stream_hits": 0, "stream_misses": 0}
    reported_ms = topk_missed_ms = searched_missed_ms = 0.0
    for index in range(PROBE_REQUESTS):
        body = {"query": next(stream), "k": K}
        with tracer.span("probe.request", trace_id=f"p{index}"):
            with tracer.span("query.parse"):
                query = parse_query_payload(body["query"])
            before = _stream_counters(system)
            with tracer.span("serving.app_handle"):
                response = app.handle("POST", "/search", body=body,
                                      client="probe")
            for name, value in _stream_counters(system).items():
                streams[name] += value - before[name]
            if response.status != 200:
                context.fail(f"in-process /search gave {response.status}")
                continue
            reported_ms += response.payload["latency"] * 1000.0
            if sharded:
                with tracer.span("shard.scatter") as searched:
                    system.search(query, k=K)
                topk.search(query, k=K)  # builds the oracle's streams
            with tracer.span("search.topk") as unsharded:
                topk.search(query, k=K)
            if not sharded:
                searched = unsharded
            for name in counters:
                counters[name] += int(topk.stats[name])
            if not response.payload["cache_hit"]:
                topk_missed_ms += span_ms(unsharded)
                searched_missed_ms += span_ms(searched)
    stream_total = streams["stream_hits"] + streams["stream_misses"]

    search = system.search if sharded else system.topk.search
    wal = WriteAheadLog(os.path.join(context.directory, "probe.wal"))
    cold_ms = []
    try:
        for index, document in enumerate(inputs.writes[-PROBE_WRITES:]):
            with tracer.span("probe.write", trace_id=f"pw{index}"):
                with tracer.span("xmlio.parse"):
                    parse(document[1])
                with tracer.span("storage.wal_append"):
                    wal.append({"op": "add_documents", "seq": index,
                                "documents": [list(document)],
                                "value_links": []})
                with tracer.span("system.add_documents"):
                    system.add_documents([document])
                # The version bump dropped every impact stream: the
                # first search of a term rebuilds it, the repeat does not.
                for _repeat in range(2):
                    query = parse_query_payload(next(stream))
                    begin = time.perf_counter()
                    with tracer.span("index.stream_cold"):
                        search(query, k=K)
                    middle = time.perf_counter()
                    with tracer.span("index.stream_warm"):
                        search(query, k=K)
                    cold_ms.append(max(0.0, (
                        (middle - begin) - (time.perf_counter() - middle)
                    ) * 1000.0))
    finally:
        wal.close()

    spans = tracer.spans
    topk_all = sum(durations_ms(spans, "search.topk"))
    scatter_all = sum(durations_ms(spans, "shard.scatter"))
    considered = counters["tuples_scored"] + counters["pruned"]
    return {
        "storage.load_s": load_s,
        "compact.index_memory_bytes": _column_bytes(system.index_memory()),
        "query.parse_ms": median(durations_ms(spans, "query.parse")),
        "search.topk_ms": topk_missed_ms / PROBE_REQUESTS,
        "search.topk_share":
            searched_missed_ms / reported_ms if reported_ms else 0.0,
        "search.sorted_accesses_per_query":
            counters["sorted_accesses"] / PROBE_REQUESTS,
        "search.scored_per_query":
            counters["tuples_scored"] / PROBE_REQUESTS,
        "search.pruned_ratio":
            counters["pruned"] / considered if considered else 0.0,
        "search.early_stop_ratio": counters["early_stop"] / PROBE_REQUESTS,
        "serving.app_handle_ms": median(
            durations_ms(spans, "serving.app_handle")),
        "shard.scatter_ms": median(durations_ms(spans, "shard.scatter")),
        "shard.overhead_ratio":
            scatter_all / topk_all if sharded and topk_all else 0.0,
        "index.stream_hit_ratio":
            streams["stream_hits"] / stream_total if stream_total else 0.0,
        "index.stream_cold_ms": statistics.mean(cold_ms) if cold_ms else 0.0,
        "storage.wal_append_ms": median(
            durations_ms(spans, "storage.wal_append")),
        "system.add_documents_ms": median(
            durations_ms(spans, "system.add_documents")),
        "xmlio.parse_ms_per_doc": median(durations_ms(spans, "xmlio.parse")),
    }


# -- explore_cube ------------------------------------------------------------

def _register_definitions(registry):
    """The standard (Figure 3b) registry plus the export twins, so both
    partner facts build a cube."""
    FactbookGenerator.register_standard_definitions(registry)
    base = "/country/economy/export_partners/item"
    registry.add_dimension("export-country", [(
        f"{base}/trade_country",
        RelativeKey(["/country", "/country/year", "."]),
    )])
    registry.add_fact("export-trade-percentage", [(
        f"{base}/percentage",
        RelativeKey(["/country", "/country/year", "../trade_country"]),
    )])


def _session(seda, country, kind, tracer, trace_id):
    """One analyst session, search to OLAP; ``(twig rows, fact rows,
    report)``.  Each stage is one span named after the layer it runs."""
    item = f"/country/economy/{kind}_partners/item"
    partner, share = f"{item}/trade_country", f"{item}/percentage"
    fact, dimension = f"{kind}-trade-percentage", f"{kind}-country"
    with tracer.span("session", trace_id=trace_id):
        with tracer.span("search.session_search"):
            session = seda.search(
                [("*", f'"{country}"'), ("trade_country", "*"),
                 ("percentage", "*")], k=K)
        with tracer.span("summaries.context"):
            session.context_summary
        with tracer.span("summaries.refine_contexts"):
            refined = session.refine_contexts(
                {0: ["/country"], 1: [partner], 2: [share]})
        with tracer.span("summaries.connection"):
            refined.connection_summary
        with tracer.span("summaries.refine_connections"):
            chosen = refined.refine_connections([
                ((0, 1), TreeConnection("/country", partner, "/country")),
                ((1, 2), TreeConnection(partner, share, item)),
            ])
        with tracer.span("twig.complete_results"):
            table = chosen.complete_results()
        with tracer.span("cube.build"):
            schema = chosen.build_cube(table)
        with tracer.span("olap.report"):
            engine = chosen.olap(schema)
            report = engine.report(fact, [dimension], agg="avg")
            engine.cube(fact).pivot("year", dimension)
    return len(table), sorted(schema.fact(fact).rows), report


def _session_error(rows, report, expected):
    """Why a session's cube is wrong, or ``None``."""
    if rows != expected:
        return f"fact rows {rows[:2]}... differ from oracle {expected[:2]}..."
    by_partner = {}
    for _country, _year, partner, share in expected:
        by_partner.setdefault(partner, []).append(share)
    if sorted(partner for partner, _value in report) != sorted(by_partner):
        return "OLAP report partners differ from the oracle"
    for partner, value in report:
        if not math.isclose(value, statistics.mean(by_partner[partner]),
                            rel_tol=1e-9):
            return f"OLAP average for {partner} differs from the oracle"
    return None


def _setup_explore(context, directory, anchors):
    """Generate, build with value links, register, save, warm up."""
    os.makedirs(directory)
    start = time.perf_counter()
    corpus = Corpus(context.scale)
    built = time.perf_counter()
    seda = Seda.from_documents(
        list(corpus.preload),
        value_links=FactbookGenerator.value_link_specs())
    _register_definitions(seda.registry)
    build_s = time.perf_counter() - built
    path = os.path.join(directory, "factbook.snapshot")
    saved = time.perf_counter()
    seda.save(path)
    save_s = time.perf_counter() - saved
    for country, kind in anchors:
        _session(seda, country, kind, context.tracer, None)
    timings = {
        "setup_s": time.perf_counter() - start,
        "datasets.generate_s": corpus.generate_s,
        "system.build_s": build_s,
        "system.build_docs_per_s": len(corpus.preload) / build_s,
        "storage.save_s": save_s,
    }
    return seda, path, timings


def _run_explore(context):
    tracer = context.tracer
    corpus = Corpus(context.scale)
    oracle = corpus.trade_rows()
    stream = anchor_stream(oracle, context.seed)
    warmup = [next(stream) for _ in range(4)]
    writes = write_order(corpus.holdout, context.seed)

    setups = []
    for repeat in range(context.setup_repeats):
        seda, path, timings = _setup_explore(
            context, os.path.join(context.directory, f"setup-{repeat}"),
            warmup)
        setups.append(timings)

    samples, spans, counts = [], [], []
    for traced, seconds in context.phases():
        tracer.enabled = traced
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            country, kind = next(stream)
            now = time.perf_counter()
            sample = loadgen.Sample("session", now, now)
            sample.traced = traced
            samples.append(sample)
            try:
                rows, facts, report = _session(
                    seda, country, kind, tracer, f"s{len(samples)}")
                sample.error = _session_error(
                    facts, report, oracle[(country, kind)])
                counts.append((rows, len(facts)))
            except Exception as error:  # noqa: BLE001 - one failed attempt
                sample.error = f"{type(error).__name__}: {error}"
            sample.done = time.perf_counter()
            sample.ok = sample.error is None
        spans.append((start, time.perf_counter()))

    tracer.enabled = context.trace
    tail = []
    for index, document in enumerate(writes[:WRITE_TAIL]):
        now = time.perf_counter()
        sample = loadgen.Sample("write", now, now)
        tail.append(sample)
        try:
            with tracer.span("loadgen.write", trace_id=f"wt{index}"):
                with tracer.span("system.add_documents"):
                    seda.add_documents([document])
        except Exception as error:  # noqa: BLE001 - one failed attempt
            sample.error = f"{type(error).__name__}: {error}"
        sample.done = time.perf_counter()
        sample.ok = sample.error is None
    expected_documents = len(corpus.preload) + sum(s.ok for s in tail)
    if len(seda.collection.documents) != expected_documents:
        context.fail("document count after the write tail is wrong")
    context.note_failures(samples + tail)
    disk = disk_bytes(path)
    written = writes[:WRITE_TAIL]
    user = user_bytes(corpus.preload + written)

    result = {
        "attempted": len(samples) + len(tail),
        "failed": sum(1 for s in samples + tail if not s.ok),
        "valid": True,
    }
    if not context.trace:
        result["metrics"] = end_to_end(
            samples, tail, spans,
            median([entry["setup_s"] for entry in setups]),
            sum(disk.values()), user, rss_mb())
        return result

    def stage(name):
        return median(durations_ms(tracer.spans, name))

    probe_path = copy_snapshot(path, context.directory)
    loaded = time.perf_counter()
    Seda.load(probe_path)
    load_s = time.perf_counter() - loaded
    metrics = dict(setups[-1])
    del metrics["setup_s"]
    metrics.update(_loadgen_layers([s for s in samples if s.ok]))
    metrics.update({
        "storage.load_s": load_s,
        "storage.snapshot_bytes": os.path.getsize(probe_path),
        "compact.sidecar_bytes": os.path.getsize(probe_path + ".cols"),
        "compact.index_memory_bytes": _column_bytes(seda.index_memory()),
        "storage.wal_bytes_per_user_byte": (
            disk["wal"] / user_bytes(written)
            if written else 0.0
        ),
        "system.add_documents_ms": stage("system.add_documents"),
        "search.session_search_ms": stage("search.session_search"),
        "summaries.context_ms": stage("summaries.context"),
        "summaries.refine_contexts_ms": stage("summaries.refine_contexts"),
        "summaries.connection_ms": stage("summaries.connection"),
        "twig.complete_results_ms": stage("twig.complete_results"),
        "cube.build_ms": stage("cube.build"),
        "olap.report_ms": stage("olap.report"),
        "twig.rows": sum(rows for rows, _facts in counts[:FIXED_SESSIONS]),
        "cube.fact_rows": sum(
            facts for _rows, facts in counts[:FIXED_SESSIONS]),
    })
    result["metrics"] = metrics
    return result
