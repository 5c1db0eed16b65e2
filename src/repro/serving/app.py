"""The serving application: endpoint logic behind ``repro serve``.

:class:`ServingApp` is the whole server minus the sockets: it owns a
loaded system (single-file :class:`~repro.system.Seda` or sharded
:class:`~repro.shard.ShardedSeda`), its query service, the
readers-writer discipline, admission control, and the drain/reload
lifecycle, and maps ``(method, path, body)`` triples to JSON-clean
responses.  The HTTP layer (:mod:`repro.serving.server`) is a thin
translator over :meth:`ServingApp.handle`, so every behavior here is
unit-testable without opening a port.

Consistency contract
--------------------

* Queries run under the **read** side of one
  :class:`~repro.serving.rwlock.ReadWriteLock`; ``add_documents``,
  ``reload``, and the snapshot commit inside ``drain`` take the
  **write** side.  Combined with the result cache keyed on the
  system's ``generation()``, every answer is computed against exactly one
  index generation -- answers served *during* online ingestion are
  byte-identical to an offline rebuild from the same document
  sequence (property-tested in ``tests/test_serving_properties.py``).
* Writes are durable before they are acknowledged: the system is
  loaded from a snapshot, so ``add_documents`` appends to the
  write-ahead log (fsynced) before any index mutates.  A crash at any
  point recovers to pre- or post-batch, never a hybrid
  (``tests/test_crash_recovery.py`` SIGKILLs the server to prove it).
* **Drain** quiesces: admission stops (new requests get 503), in-flight
  requests finish, the write lock is taken, the snapshot is committed
  (truncating the WAL), and the server exits with an fsck-clean
  directory.

Request shapes (all POST bodies JSON)::

    /search        {"query": <query>, "k": 10}
    /search_many   {"queries": [<query>, ...], "k": 10}
    /explain       {"query": <query>, "k": 10}
    /add_documents {"documents": [[name|null, xml], ...],
                    "value_links": [spec, ...]}
    /admin/drain   {}
    /admin/reload  {}
    /admin/rebalance {"op": "split", "shard": 0}
                     | {"op": "merge", "a": 0, "b": 1}
                     | {"op": "rebalance", "metric": "documents"}
                     | {"op": "rebalance", "moves": {"3": 1, ...}}

A ``<query>`` is either a list of ``[context, search]`` pairs or a
string in the CLI's query-line syntax (``ctx:term ;; ctx:term``).
``GET /healthz`` and ``GET /metrics`` bypass admission control so
monitoring keeps working at saturation.
"""

import json
import os
import threading
import time

from repro.obs import explain
from repro.query.term import Query
from repro.serving.admission import (
    REJECT_DRAINING,
    AdmissionController,
)
from repro.serving.rwlock import ReadWriteLock
from repro.storage.snapshot import SnapshotError

#: Endpoints that pass through admission control (the work-bearing
#: ones); monitoring and lifecycle endpoints bypass it by design.
ADMITTED_ENDPOINTS = ("search", "search_many", "explain", "add_documents")


def parse_term(text):
    """``context:search`` -> a ``(context, search)`` pair."""
    if ":" in text:
        context, search = text.split(":", 1)
    else:
        context, search = "*", text
    return context.strip() or "*", search.strip() or "*"


def parse_query_line(line):
    """One query-line string -> a list of ``(context, search)`` pairs."""
    return [
        parse_term(piece.strip())
        for piece in line.split(";;")
        if piece.strip()
    ]


def parse_query_payload(value):
    """A wire-form query (string or pair list) -> a ``Query``."""
    if isinstance(value, str):
        pairs = parse_query_line(value)
        if not pairs:
            raise ValueError(f"query string {value!r} holds no terms")
        return Query.parse(pairs)
    if isinstance(value, (list, tuple)):
        return Query.parse([tuple(pair) for pair in value])
    raise ValueError(
        f"a query is a string or a list of [context, search] pairs, "
        f"not {type(value).__name__}"
    )


def parse_int(body, key, default=None):
    """The request's integer ``key`` (``k``, ``shard``, ``a``, ``b``), or
    a 400; ``default`` stands in for a missing key.

    JSON numbers also decode to bools, floats and infinities;
    ``int()`` would silently truncate the first two and overflow on
    the last, so anything but a plain integer is rejected here.
    """
    value = body.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, not {value!r}")
    return value


def _json_clean(token):
    """A hashable generation token with its tuples turned into lists."""
    if isinstance(token, tuple):
        return [_json_clean(part) for part in token]
    return token


def result_to_dict(result):
    """One :class:`~repro.search.result.ResultTuple`, JSON-clean.

    Scores serialize through ``repr``-exact floats, so two servers (or
    a server and an offline rebuild) that agree produce byte-identical
    JSON -- the serving equality gates compare these dictionaries
    directly.
    """
    return {
        "node_ids": list(result.node_ids),
        "content_scores": list(result.content_scores),
        "compactness": result.compactness,
        "score": result.score,
    }


def load_serving_system(path):
    """Load the system to serve: snapshot file or sharded directory.

    Either way the load replays any write-ahead log beside the
    snapshot and leaves durability attached, so the served system is
    exactly what a crash-recovered restart would see.
    """
    if os.path.isdir(path):
        from repro.shard import ShardedSeda

        return ShardedSeda.load(path)
    from repro.system import Seda

    return Seda.load(path)


def explain_system(system, query, k=10):
    """Explain one query on a loaded system of either kind.

    Returns ``(reports, payload)``: one
    :class:`~repro.obs.explain.ExplainReport` per shard of a sharded
    system, in shard order (a single-file system has the one), and the
    JSON-clean answer ``/explain`` sends -- ``{"sharded": true,
    "per_shard": [...]}`` over shards, the lone report's dict otherwise.
    """
    from repro.shard import ShardedSeda

    if isinstance(system, ShardedSeda):
        reports = [explain(shard.new_searcher(), query, k=k)
                   for shard in system.shards]
        return reports, {"sharded": True, "per_shard": [
            report.as_dict() for report in reports
        ]}
    report = explain(system.new_searcher(), query, k=k)
    return [report], report.as_dict()


class _Response:
    """One endpoint outcome: status, JSON payload (or text), headers."""

    __slots__ = ("status", "payload", "headers", "text")

    def __init__(self, status, payload=None, headers=None, text=None):
        self.status = status
        self.payload = payload
        self.headers = dict(headers or {})
        self.text = text

    def body(self):
        """The encoded response body (JSON unless ``text`` was set)."""
        if self.text is not None:
            return self.text.encode("utf-8"), "text/plain; charset=utf-8"
        data = json.dumps(self.payload, sort_keys=True, indent=None,
                          separators=(",", ":"))
        return data.encode("utf-8"), "application/json"


class ServingApp:
    """Endpoint logic, lifecycle, and shared state of one server."""

    def __init__(self, system, snapshot_path, *, workers=4,
                 max_inflight=64, per_client=16, retry_after=1,
                 slow_threshold=0.1, debug=False):
        self.snapshot_path = os.fspath(snapshot_path)
        self.workers = workers
        self.lock = ReadWriteLock()
        self.admission = AdmissionController(
            max_inflight=max_inflight, per_client=per_client,
            retry_after=retry_after,
        )
        self.slow_threshold = slow_threshold
        #: ``debug=True`` honors the ``X-Repro-Test-Delay`` header
        #: (sleep inside the admitted section) -- the deterministic
        #: hook the admission-control tests use to hold a slot open.
        #: Never enabled by the CLI.
        self.debug = debug
        self.state = "serving"  # serving -> draining -> drained
        self._state_lock = threading.Lock()
        self._started = time.monotonic()
        self.requests_total = {}
        self._counter_lock = threading.Lock()
        #: Set by the HTTP server: called (once) after the drain
        #: response is written, to stop accepting connections.
        self.on_drained = None
        self._attach(system)

    def _attach(self, system):
        """Wire a (re)loaded system in: service, registry, topology."""
        from repro.shard import ShardedSeda

        self.system = system
        self.sharded = isinstance(system, ShardedSeda)
        self.registry = system.enable_observability(
            slow_threshold=self.slow_threshold
        )
        self.service = system.query_service(workers=self.workers)

    # -- introspection --------------------------------------------------------

    def generation(self):
        """An opaque, JSON-clean token naming the served index
        generation: queries answered under one token are mutually
        consistent.  Unsharded: the graph version; sharded: the
        per-shard versions plus the routing epoch."""
        return _json_clean(self.system.generation())

    def uptime(self):
        return time.monotonic() - self._started

    def _count(self, endpoint):
        with self._counter_lock:
            self.requests_total[endpoint] = (
                self.requests_total.get(endpoint, 0) + 1
            )

    # -- the dispatcher -------------------------------------------------------

    def handle(self, method, path, body=None, client="-", params=None,
               test_delay=None):
        """Serve one request; returns a :class:`_Response`.

        ``body`` is the decoded JSON payload (or ``None``), ``client``
        the admission identity, ``params`` the query-string dict.
        Never raises for request-level problems -- malformed input is a
        400, unknown paths 404, wrong methods 405, races with the
        lifecycle 409/503 -- so the HTTP layer stays a dumb pipe.  A
        snapshot or shard file that cannot be read is the server's
        fault, not the client's: a 500 naming the file.
        """
        params = params or {}
        route = self._ROUTES.get(path)
        if route is None:
            return _Response(404, {"error": f"no such endpoint: {path}"})
        expected_method, endpoint, admitted = route
        if method != expected_method:
            return _Response(
                405,
                {"error": f"{path} expects {expected_method}, got {method}"},
                headers={"Allow": expected_method},
            )
        self._count(endpoint)
        if not admitted:
            return self._dispatch(endpoint, body, params)
        decision = self.admission.admit(client)
        if not decision:
            if decision.reason == REJECT_DRAINING:
                # A drain is usually a rolling restart, not a
                # disappearance: well-behaved clients should back off
                # and retry the (re)started server, so the 503 carries
                # Retry-After exactly like the 429 path.
                return _Response(
                    503,
                    {
                        "error": "server is draining",
                        "reason": decision.reason,
                        "retry_after": decision.retry_after,
                    },
                    headers={"Retry-After": str(decision.retry_after)},
                )
            return _Response(
                429,
                {
                    "error": "too many requests",
                    "reason": decision.reason,
                    "retry_after": decision.retry_after,
                },
                headers={"Retry-After": str(decision.retry_after)},
            )
        try:
            if self.debug and test_delay:
                time.sleep(float(test_delay))
            return self._dispatch(endpoint, body, params)
        finally:
            self.admission.release(client)

    def _dispatch(self, endpoint, body, params):
        handler = getattr(self, f"_endpoint_{endpoint}")
        if body is None:
            body = {}
        if not isinstance(body, dict):
            return _Response(400, {
                "error": "the request body must be a JSON object, not "
                         f"{type(body).__name__}"
            })
        try:
            return handler(body, params)
        except SnapshotError as error:  # a ValueError: must come first
            return _Response(500, {"error": str(error)})
        except (ValueError, KeyError, TypeError) as error:
            return _Response(400, {"error": str(error)})

    # -- serving endpoints ----------------------------------------------------

    def _endpoint_search(self, body, params):
        query = parse_query_payload(body["query"])
        k = parse_int(body, "k", 10)
        with self.lock.read():
            generation = self.generation()
            results, stats = self.service.execute(query, k=k)
        return _Response(200, {
            "results": [result_to_dict(result) for result in results],
            "k": k,
            "generation": generation,
            "cache_hit": bool(stats.cache_hit),
            "latency": stats.latency,
        })

    def _endpoint_search_many(self, body, params):
        queries = body["queries"]
        if not isinstance(queries, list):
            # A string or an object would iterate as characters or keys.
            raise ValueError(
                f"'queries' must be a list of queries, not "
                f"{type(queries).__name__}"
            )
        queries = [parse_query_payload(value) for value in queries]
        k = parse_int(body, "k", 10)
        with self.lock.read():
            generation = self.generation()
            results, stats = self.service.execute_batch(queries, k=k)
        return _Response(200, {
            "results": [
                [result_to_dict(result) for result in per_query]
                for per_query in results
            ],
            "k": k,
            "generation": generation,
            "cache_hits": [
                bool(entry.cache_hit) for entry in stats.per_query
            ],
            "wall": stats.wall_time,
        })

    def _endpoint_explain(self, body, params):
        query = parse_query_payload(body["query"])
        k = parse_int(body, "k", 10)
        with self.lock.read():
            _reports, payload = explain_system(self.system, query, k=k)
        return _Response(200, payload)

    def _endpoint_add_documents(self, body, params):
        documents = body["documents"]
        if not isinstance(documents, list) or not documents:
            raise ValueError(
                "add_documents needs a non-empty 'documents' list of "
                "[name_or_null, xml] pairs"
            )
        pairs = []
        for entry in documents:
            if isinstance(entry, str):
                pairs.append(entry)
            else:
                name, xml = entry
                pairs.append((name, xml))
        specs = self._value_link_specs(body.get("value_links"))
        with self.lock.write():
            added = self.system.add_documents(pairs, value_links=specs)
            generation = self.generation()
            total = self.system.document_count
        return _Response(200, {
            "added": len(added),
            "documents": total,
            "generation": generation,
        })

    @staticmethod
    def _value_link_specs(payloads):
        if not payloads:
            return None
        from repro.model.links import ValueLinkSpec

        return [ValueLinkSpec.from_dict(payload) for payload in payloads]

    # -- monitoring endpoints -------------------------------------------------

    def _endpoint_healthz(self, body, params):
        with self._state_lock:
            state = self.state
        return _Response(200, {
            "status": state,
            "sharded": self.sharded,
            "documents": self.system.document_count,
            "generation": self.generation(),
            "inflight": self.admission.inflight,
            "uptime_seconds": self.uptime(),
            "snapshot": self.snapshot_path,
        })

    def _endpoint_metrics(self, body, params):
        metrics = {
            "server": {
                "state": self.state,
                "uptime_seconds": self.uptime(),
                "requests_total": dict(self.requests_total),
                "documents": self.system.document_count,
            },
            "admission": self.admission.counters(),
            "registry": self.registry.metrics(),
        }
        if params.get("format") == "json":
            return _Response(200, metrics)
        return _Response(200, text=render_prometheus(metrics))

    # -- lifecycle endpoints --------------------------------------------------

    def _endpoint_drain(self, body, params):
        with self._state_lock:
            if self.state != "serving":
                return _Response(
                    409, {"error": f"server is already {self.state}"}
                )
            self.state = "draining"
        # Quiesce: no new admissions, wait out the in-flight requests
        # (this request bypassed admission, so idle means zero).
        self.admission.begin_drain()
        self.admission.wait_idle(leftover=0)
        with self.lock.write():
            # The snapshot commit absorbs every WAL batch and truncates
            # the log -- the directory the process leaves behind is
            # exactly what `repro fsck` calls clean.
            self.system.save(self.snapshot_path)
            documents = self.system.document_count
        with self._state_lock:
            self.state = "drained"
        return _Response(200, {
            "drained": True,
            "snapshot": self.snapshot_path,
            "documents": documents,
        }, headers={"Connection": "close"})

    def _endpoint_reload(self, body, params):
        with self._state_lock:
            if self.state != "serving":
                return _Response(
                    409, {"error": f"server is {self.state}; cannot reload"}
                )
        with self.lock.write():
            old = self.system
            system = load_serving_system(self.snapshot_path)
            # The old system's WAL handle must not outlive the swap:
            # two appenders on one log would interleave records.
            old.close()
            self._attach(system)
            documents = self.system.document_count
            generation = self.generation()
        return _Response(200, {
            "reloaded": True,
            "snapshot": self.snapshot_path,
            "documents": documents,
            "generation": generation,
        })

    def _endpoint_rebalance(self, body, params):
        """Online topology change: split/merge/rebalance under traffic.

        Runs the rewrite under the write lock, so in-flight reads
        finish against the old topology and every later read runs
        against the new one -- the routing epoch inside the generation
        token keeps the two regimes distinguishable while answers stay
        byte-identical (placement independence).
        """
        if not self.sharded:
            return _Response(
                400, {"error": "topology operations need a sharded system"}
            )
        with self._state_lock:
            if self.state != "serving":
                return _Response(
                    409, {"error": f"server is {self.state}; cannot "
                          "change topology"}
                )
        op = body.get("op")
        with self.lock.write():
            if op == "split":
                summary = self.system.split(parse_int(body, "shard"))
            elif op == "merge":
                summary = self.system.merge(
                    parse_int(body, "a"), parse_int(body, "b")
                )
            elif op == "rebalance":
                if "moves" in body:
                    plan = {"moves": body["moves"]}
                else:
                    plan = self.system.propose_rebalance(
                        metric=body.get("metric", "documents")
                    )
                summary = self.system.rebalance(plan)
            else:
                raise ValueError(
                    "rebalance op must be 'split', 'merge', or "
                    f"'rebalance', not {op!r}"
                )
            summary["generation"] = self.generation()
        return _Response(200, summary)

    #: path -> (method, endpoint name, passes through admission).
    _ROUTES = {
        "/search": ("POST", "search", True),
        "/search_many": ("POST", "search_many", True),
        "/explain": ("POST", "explain", True),
        "/add_documents": ("POST", "add_documents", True),
        "/healthz": ("GET", "healthz", False),
        "/metrics": ("GET", "metrics", False),
        "/admin/drain": ("POST", "drain", False),
        "/admin/reload": ("POST", "reload", False),
        "/admin/rebalance": ("POST", "rebalance", False),
    }

    def __repr__(self):
        return (
            f"ServingApp({self.snapshot_path!r}, state={self.state}, "
            f"sharded={self.sharded}, documents={self.system.document_count})"
        )


def _escape_label(value):
    """Prometheus label-value escaping (backslash, quote, newline)."""
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r'\"')
        .replace("\n", r"\n")
    )


def render_prometheus(metrics):
    """The ``/metrics`` text exposition, from the JSON metrics tree.

    Plain Prometheus text format (no client library -- the repo vendors
    nothing): server counters, admission state, and the retained
    per-fingerprint statistics of the
    :class:`~repro.obs.registry.StatsRegistry`.
    """
    server = metrics["server"]
    admission = metrics["admission"]
    registry = metrics["registry"]
    lines = [
        "# TYPE repro_uptime_seconds gauge",
        f"repro_uptime_seconds {server['uptime_seconds']:.3f}",
        "# TYPE repro_documents gauge",
        f"repro_documents {server['documents']}",
        "# TYPE repro_requests_total counter",
    ]
    for endpoint in sorted(server["requests_total"]):
        lines.append(
            f'repro_requests_total{{endpoint="{_escape_label(endpoint)}"}} '
            f"{server['requests_total'][endpoint]}"
        )
    lines += [
        "# TYPE repro_admission_inflight gauge",
        f"repro_admission_inflight {admission['inflight']}",
        "# TYPE repro_admission_admitted_total counter",
        f"repro_admission_admitted_total {admission['admitted_total']}",
        "# TYPE repro_admission_rejected_total counter",
    ]
    for reason in sorted(admission["rejected"]):
        lines.append(
            f'repro_admission_rejected_total{{reason="'
            f'{_escape_label(reason)}"}} {admission["rejected"][reason]}'
        )
    lines += [
        "# TYPE repro_queries_total counter",
        f"repro_queries_total {registry['total_queries']}",
        "# TYPE repro_query_fingerprints_evicted_total counter",
        "repro_query_fingerprints_evicted_total "
        f"{registry['fingerprints_evicted']}",
        "# TYPE repro_query_count counter",
        "# TYPE repro_query_cache_hits counter",
        "# TYPE repro_query_latency_seconds summary",
    ]
    for fingerprint in sorted(registry["fingerprints"]):
        row = registry["fingerprints"][fingerprint]
        label = f'fingerprint="{_escape_label(fingerprint)}"'
        lines.append(f"repro_query_count{{{label}}} {row['count']}")
        lines.append(
            f"repro_query_cache_hits{{{label}}} {row['cache_hits']}"
        )
        for quantile in ("p50", "p95", "p99"):
            lines.append(
                f'repro_query_latency_seconds{{{label},quantile='
                f'"{quantile}"}} {row[quantile]:.6f}'
            )
    return "\n".join(lines) + "\n"
