"""The serving-path battery: lifecycle, consistency, and admission.

``repro serve`` turns the system into a long-running daemon; this file
tests the daemon the way operators meet it -- over a real socket --
plus unit coverage for the two primitives underneath it
(:class:`~repro.serving.rwlock.ReadWriteLock`,
:class:`~repro.serving.admission.AdmissionController`) and the
socket-free :class:`~repro.serving.app.ServingApp` protocol surface:

* start / serve / online-ingest / drain over HTTP, with the drained
  directory fsck-clean and its write-ahead log empty;
* concurrent readers against a mutating writer, every answer checked
  against ground truth at the generation it was served under;
* admission rejection (429 + ``Retry-After``, per-client and global)
  and recovery once slots free up, driven deterministically via the
  debug-only test-delay header;
* ``/healthz`` and ``/metrics`` (JSON and Prometheus text) contents;
* ``/admin/reload`` swapping in the on-disk snapshot + WAL;
* the ``repro serve`` CLI as a real subprocess, drained over HTTP and
  via SIGTERM;
* the cross-process fault-injection seam (``REPRO_KILL_SWITCH``),
  regression-testing that a subprocess really dies at its own durable
  seams (monkeypatching never crosses exec -- see
  ``repro.testing.faults``).
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.query.term import Query
from repro.serving import (
    AdmissionController,
    ReadWriteLock,
    ServerError,
    ServingApp,
    ServingClient,
    load_serving_system,
    start_server,
)
from repro.serving.admission import (
    REJECT_CLIENT_LIMIT,
    REJECT_DRAINING,
    REJECT_SATURATED,
)
from repro.serving.app import parse_query_payload, result_to_dict
from repro.storage.snapshot import SnapshotError, fsck_report
from repro.storage.wal import verify_wal, wal_file_name
from repro.system import Seda

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _doc(index):
    names = ("France", "Spain", "Chile", "Japan", "Ghana", "Peru")
    name = names[index % len(names)]
    return (
        f"doc-{index}",
        f"<country><name>{name} city{index}</name>"
        f"<gdp>{100 * (index + 1)}</gdp>"
        f"<year>{2000 + index}</year></country>",
    )


BASE_DOCS = [_doc(index) for index in range(6)]
QUERY = "name:* ;; gdp:*"


def _build_snapshot(tmp_path, name="seda.snapshot"):
    path = str(tmp_path / name)
    Seda.from_documents(list(BASE_DOCS)).save(path)
    return path


def _offline_results(documents, query=QUERY, k=10):
    """Ground truth: a fresh offline build over ``documents``."""
    system = Seda.from_documents(list(documents))
    results = system.topk.search(parse_query_payload(query), k=k)
    return [result_to_dict(result) for result in results]


# -- the primitives ----------------------------------------------------------------


class TestReadWriteLock:
    def test_readers_share_writers_exclude(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        lock.acquire_read()       # two readers coexist
        lock.release_read()

        acquired = []

        def writer():
            with lock.write():
                acquired.append("write")

        thread = threading.Thread(target=writer)
        thread.start()
        time.sleep(0.05)
        assert acquired == []     # blocked behind the live reader
        lock.release_read()
        thread.join(timeout=5)
        assert acquired == ["write"]

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        order = []

        def writer():
            with lock.write():
                order.append("writer")

        def late_reader():
            with lock.read():
                order.append("reader")

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        time.sleep(0.05)          # writer is now waiting on the reader
        reader_thread = threading.Thread(target=late_reader)
        reader_thread.start()
        time.sleep(0.05)
        assert order == []        # late reader must queue behind the writer
        lock.release_read()
        writer_thread.join(timeout=5)
        reader_thread.join(timeout=5)
        assert order == ["writer", "reader"]


class TestAdmissionController:
    def test_global_saturation(self):
        control = AdmissionController(max_inflight=2, per_client=2)
        assert control.admit("a")
        assert control.admit("b")
        decision = control.admit("c")
        assert not decision
        assert decision.reason == REJECT_SATURATED
        assert decision.retry_after == 1
        control.release("a")
        assert control.admit("c")
        assert control.inflight == 2
        assert control.peak_inflight == 2

    def test_per_client_limit(self):
        control = AdmissionController(max_inflight=10, per_client=1)
        assert control.admit("greedy")
        decision = control.admit("greedy")
        assert not decision
        assert decision.reason == REJECT_CLIENT_LIMIT
        assert control.admit("other")   # global budget still open
        control.release("greedy")
        assert control.admit("greedy")

    def test_drain_rejects_and_quiesces(self):
        control = AdmissionController(max_inflight=4, per_client=4)
        assert control.admit("a")
        control.begin_drain()
        decision = control.admit("b")
        assert not decision and decision.reason == REJECT_DRAINING
        # Draining is a transient condition like saturation: the
        # rejection carries the backoff hint too.
        assert decision.retry_after == control.retry_after
        assert not control.wait_idle(timeout=0.05)   # still one in flight
        control.release("a")
        assert control.wait_idle(timeout=5)

    def test_counters_shape(self):
        control = AdmissionController(max_inflight=1, per_client=1)
        control.admit("a")
        control.admit("a")              # rejected: saturated
        counters = control.counters()
        assert counters["inflight"] == 1
        assert counters["admitted_total"] == 1
        assert counters["rejected"][REJECT_SATURATED] == 1
        assert counters["draining"] is False

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionController(per_client=0)

    def test_unpaired_release_clamps_at_zero(self):
        # Regression: a buggy caller releasing without a matching
        # admit used to drive ``inflight`` negative, silently widening
        # the admission window (and wedging ``wait_idle`` semantics).
        control = AdmissionController(max_inflight=2, per_client=2)
        control.release("ghost")
        counters = control.counters()
        assert counters["inflight"] == 0
        assert counters["unpaired_release"] == 1

        assert control.admit("a")
        control.release("a")
        control.release("a")            # second release is unpaired
        counters = control.counters()
        assert counters["inflight"] == 0
        assert counters["unpaired_release"] == 2

        # The window did not widen: capacity is still exactly 2.
        assert control.admit("x")
        assert control.admit("y")
        assert not control.admit("z")
        assert control.wait_idle(timeout=0) is False
        control.release("x")
        control.release("y")
        assert control.wait_idle(timeout=5)


# -- the socket-free protocol surface ----------------------------------------------


class TestServingAppProtocol:
    @pytest.fixture(params=["single-file", "sharded"])
    def app(self, request, tmp_path):
        if request.param == "single-file":
            snapshot = _build_snapshot(tmp_path)
        else:
            from repro.shard import ShardedSeda

            snapshot = str(tmp_path / "seda.shards")
            ShardedSeda.from_documents(
                list(BASE_DOCS), shards=2, parallel=False
            ).save(snapshot)
        return ServingApp(load_serving_system(snapshot), snapshot)

    def test_unknown_path_404(self, app):
        assert app.handle("GET", "/nope").status == 404

    def test_wrong_method_405(self, app):
        response = app.handle("GET", "/search")
        assert response.status == 405
        assert response.headers["Allow"] == "POST"

    def test_malformed_query_400(self, app):
        assert app.handle("POST", "/search", body={}).status == 400
        assert app.handle(
            "POST", "/search", body={"query": 7}
        ).status == 400
        assert app.handle(
            "POST", "/add_documents", body={"documents": []}
        ).status == 400
        # ``k`` is an integer: not an overflowing float (JSON 1e400),
        # not a fraction, not a bool -- on every endpoint that takes it.
        pairs = [["*", "x"]]
        for path, body in [
            ("/search", {"query": pairs, "k": float("inf")}),
            ("/search_many", {"queries": [pairs], "k": 2.5}),
            ("/explain", {"query": pairs, "k": True}),
        ]:
            response = app.handle("POST", path, body=body)
            assert response.status == 400, path
            assert "k must be an integer" in response.payload["error"]
        # Bodies are JSON objects, and a move plan is one too.
        for body in ([1], {"op": "rebalance", "moves": 5}):
            assert app.handle(
                "POST", "/admin/rebalance", body=body
            ).status == 400
        assert app.handle("POST", "/search", body=[pairs]).status == 400

    def test_draining_rejects_admitted_endpoints_503(self, app):
        app.admission.begin_drain()
        response = app.handle("POST", "/search", body={"query": QUERY})
        assert response.status == 503
        assert response.payload["reason"] == REJECT_DRAINING
        # Like the 429s, the 503 tells clients when to come back.
        assert response.headers["Retry-After"] == str(
            app.admission.retry_after
        )
        assert response.payload["retry_after"] == app.admission.retry_after
        # Monitoring still answers.
        assert app.handle("GET", "/healthz").status == 200

    def test_drain_is_once_only(self, app):
        assert app.handle("POST", "/admin/drain").status == 200
        assert app.state == "drained"
        assert app.handle("POST", "/admin/drain").status == 409
        assert app.handle("POST", "/admin/reload").status == 409


# -- the real socket ---------------------------------------------------------------


def _raw_post(server, content_length, tail):
    """``POST /search`` over a raw socket; every byte the server sends
    until it closes its side."""
    with socket.create_connection(
        (server.host, server.port), timeout=10
    ) as connection:
        connection.sendall(
            b"POST /search HTTP/1.1\r\nHost: x\r\nContent-Length: "
            + content_length.encode("ascii") + b"\r\n\r\n" + tail
        )
        received = b""
        while True:
            chunk = connection.recv(65536)
            if not chunk:
                return received
            received += chunk


@pytest.fixture
def served(tmp_path):
    """A started server over a fresh snapshot; stops on teardown."""
    snapshot = _build_snapshot(tmp_path)
    server = start_server(snapshot)
    try:
        yield snapshot, server
    finally:
        server.stop()


class TestServerLifecycle:
    def test_serve_ingest_drain_roundtrip(self, served):
        snapshot, server = served
        with ServingClient(server.host, server.port) as client:
            health = client.healthz()
            assert health["status"] == "serving"
            assert health["sharded"] is False
            assert health["documents"] == len(BASE_DOCS)
            assert health["snapshot"] == snapshot

            before = client.search(QUERY)
            assert before["results"] == _offline_results(BASE_DOCS)

            extra = _doc(100)
            added = client.add_documents([list(extra)])
            assert added["added"] == 1
            assert added["documents"] == len(BASE_DOCS) + 1
            assert added["generation"] != before["generation"]

            # Acknowledged means WAL-durable, before any drain.
            wal = verify_wal(wal_file_name(snapshot))
            assert wal["present"] and wal["records"] == 1

            after = client.search(QUERY)
            assert after["results"] == _offline_results(BASE_DOCS + [extra])

            drained = client.drain()
            assert drained["drained"] is True
            assert drained["documents"] == len(BASE_DOCS) + 1

        # The listener shuts itself down after the drain response.
        assert server.wait(timeout=10)

        # The directory left behind is exactly a clean cold-start:
        # fsck-clean snapshot, empty WAL, and the online write inside.
        report = fsck_report(snapshot)
        assert report["ok"], report
        wal = verify_wal(wal_file_name(snapshot))
        assert wal["records"] == 0 and wal["error"] is None
        reloaded = Seda.load(snapshot)
        assert len(reloaded.collection.documents) == len(BASE_DOCS) + 1

    def test_search_many_and_explain(self, served):
        _, server = served
        queries = [QUERY, "year:*", [["name", "france"]]]
        with ServingClient(server.host, server.port) as client:
            batch = client.search_many(queries, k=5)
            assert len(batch["results"]) == len(queries)
            single = [
                client.search(query, k=5)["results"] for query in queries
            ]
            assert batch["results"] == single

            report = client.explain(QUERY, k=5)
            assert report["k"] == 5
            assert len(report["results"]) == len(
                client.search(QUERY, k=5)["results"]
            )
            assert report["per_term"]

            # Explains build their own searchers, so overlapping ones
            # do not serialise -- and report exactly what each would
            # have reported alone.
            explained = ["name:* ;; gdp:* ;; year:*", "name:france ;; gdp:*"]
            alone = [client.explain(query, k=5) for query in explained]
            barrier = threading.Barrier(len(explained))
            overlapped = [[] for _ in explained]

            def explain_repeatedly(index):
                with ServingClient(server.host, server.port) as own:
                    barrier.wait(timeout=10)
                    for _round in range(20):
                        overlapped[index].append(
                            own.explain(explained[index], k=5)
                        )

            threads = [
                threading.Thread(target=explain_repeatedly, args=(index,))
                for index in range(len(explained))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            for index, reports in enumerate(overlapped):
                assert reports == [alone[index]] * 20

    @pytest.mark.parametrize("content_length", ["99999999999", "many"])
    def test_unread_body_closes_the_connection(self, served, content_length):
        """A body the server refuses to read must not be parsed as the
        connection's next request: the 400 closes the connection."""
        _, server = served
        smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        received = _raw_post(server, content_length, smuggled)
        head = received.partition(b"\r\n\r\n")[0]
        assert head.startswith(b"HTTP/1.1 400")
        assert b"connection: close" in head.lower()
        assert received.count(b"HTTP/1.1 ") == 1  # nothing served after it

    def test_malformed_batch_leaves_no_trace(self, served):
        """One unparsable document fails the whole batch with a 400 that
        logged and applied nothing, so the snapshot still cold-starts."""
        snapshot, server = served
        with ServingClient(server.host, server.port) as client:
            before = client.search(QUERY)["results"]
            with pytest.raises(ServerError) as raised:
                client.add_documents([["c", "<r><x>ok</x></r>"],
                                      ["d", "<r><x>broken"]])
            assert raised.value.status == 400
            assert "unclosed element" in raised.value.payload["error"]
            assert client.healthz()["documents"] == len(BASE_DOCS)
            assert client.search(QUERY)["results"] == before
        assert verify_wal(wal_file_name(snapshot))["records"] == 0
        assert len(Seda.load(snapshot).collection.documents) == len(BASE_DOCS)

    def test_deeply_nested_body_is_a_400(self, served):
        """A body nested past the JSON decoder's recursion limit is
        answered 400 and the connection closed, not dropped silently."""
        _, server = served
        body = b"[" * 50_000
        received = _raw_post(server, str(len(body)), body)
        head, _, payload = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert b"connection: close" in head.lower()
        assert b"bad request body" in payload
        with ServingClient(server.host, server.port) as client:
            assert client.healthz()["status"] == "serving"

    def test_metrics_exposition(self, served):
        _, server = served
        with ServingClient(server.host, server.port) as client:
            client.search(QUERY)
            client.search(QUERY)        # second hit comes from the cache
            tree = client.metrics(as_json=True)
            assert tree["server"]["requests_total"]["search"] == 2
            assert tree["server"]["documents"] == len(BASE_DOCS)
            assert tree["admission"]["admitted_total"] == 2
            assert tree["registry"]["total_queries"] == 2
            (row,) = tree["registry"]["fingerprints"].values()
            assert row["count"] == 2 and row["cache_hits"] == 1

            text = client.metrics(as_json=False)
            assert f"repro_documents {len(BASE_DOCS)}" in text
            assert 'repro_requests_total{endpoint="search"} 2' in text
            assert "repro_queries_total 2" in text
            assert 'quantile="p99"' in text

    def test_reload_keeps_online_writes(self, served):
        snapshot, server = served
        extra = _doc(200)
        with ServingClient(server.host, server.port) as client:
            client.add_documents([list(extra)])
            reloaded = client.reload()
            # The reload replays the WAL beside the snapshot, so the
            # acknowledged-but-not-snapshotted write survives the swap.
            assert reloaded["reloaded"] is True
            assert reloaded["documents"] == len(BASE_DOCS) + 1
            results = client.search(QUERY)["results"]
            assert results == _offline_results(BASE_DOCS + [extra])

    def test_concurrent_readers_with_online_writer(self, served):
        _, server = served
        rounds, readers = 5, 3
        errors = []
        observed = []
        truth = {}
        truth_lock = threading.Lock()

        def snapshot_truth(documents, generation):
            with truth_lock:
                truth[json.dumps(generation)] = _offline_results(documents)

        def reader():
            try:
                with ServingClient(server.host, server.port) as client:
                    for _ in range(rounds):
                        response = client.search(QUERY)
                        observed.append(
                            (json.dumps(response["generation"]),
                             response["results"])
                        )
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def writer():
            try:
                documents = list(BASE_DOCS)
                with ServingClient(server.host, server.port) as client:
                    snapshot_truth(
                        documents, client.healthz()["generation"]
                    )
                    for index in range(3):
                        extra = _doc(300 + index)
                        documents.append(extra)
                        added = client.add_documents([list(extra)])
                        snapshot_truth(documents, added["generation"])
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(readers)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert len(observed) == rounds * readers
        for generation, results in observed:
            assert generation in truth, (
                f"answer served under unknown generation {generation}"
            )
            assert results == truth[generation], (
                f"stale answer at generation {generation}"
            )


class TestShardedServerLifecycle:
    def test_sharded_serve_ingest_drain(self, tmp_path):
        from repro.shard import ShardedSeda
        from repro.storage.wal import sharded_wal_file_name

        directory = str(tmp_path / "seda.shards")
        ShardedSeda.from_documents(
            list(BASE_DOCS), shards=2, parallel=False
        ).save(directory)
        server = start_server(directory)
        try:
            with ServingClient(server.host, server.port) as client:
                health = client.healthz()
                assert health["sharded"] is True
                assert health["documents"] == len(BASE_DOCS)

                extra = _doc(500)
                client.add_documents([list(extra)])
                results = client.search(QUERY)["results"]
                offline = ShardedSeda.from_documents(
                    list(BASE_DOCS) + [extra], shards=2, parallel=False
                ).search(parse_query_payload(QUERY), k=10)
                assert results == [
                    result_to_dict(result) for result in offline
                ]
                # ... which is the unsharded oracle's answer too.
                assert results == _offline_results(BASE_DOCS + [extra])

                report = client.explain(QUERY, k=5)
                assert report["sharded"] is True
                assert len(report["per_shard"]) == 2

                assert client.drain()["drained"] is True
            assert server.wait(timeout=10)
        finally:
            server.stop()
        assert fsck_report(directory)["ok"]
        wal = verify_wal(sharded_wal_file_name(directory))
        assert wal["records"] == 0 and wal["error"] is None
        reloaded = ShardedSeda.load(directory)
        assert reloaded.document_count == len(BASE_DOCS) + 1


class TestBadShardFile:
    """A shard file that goes bad under a running server fails the
    next load -- startup or ``/admin/reload`` -- with a 500 naming the
    file, before anything is swapped: the server keeps answering from
    the system it already holds, since no shard file is read after a
    load."""

    @pytest.fixture
    def directory(self, tmp_path):
        from repro.shard import ShardedSeda

        directory = str(tmp_path / "seda.shards")
        ShardedSeda.from_documents(
            list(BASE_DOCS), shards=2, parallel=False
        ).save(directory)
        return directory

    def _search(self, app):
        return app.handle("POST", "/search", body={"query": QUERY})

    def test_missing_shard_file_is_a_500(self, directory):
        app = ServingApp(load_serving_system(directory), directory)
        answers = self._search(app).payload["results"]
        victim = os.path.join(directory, "shard-0000.snapshot")
        with open(victim, "rb") as handle:
            blob = handle.read()
        os.remove(victim)
        response = app.handle("POST", "/admin/reload", body={})
        assert response.status == 500
        assert "shard-0000.snapshot" in response.payload["error"]
        searched = self._search(app)
        assert searched.status == 200
        assert searched.payload["results"] == answers
        # Restoring the file heals the next reload.
        with open(victim, "wb") as handle:
            handle.write(blob)
        assert app.handle("POST", "/admin/reload", body={}).status == 200
        assert self._search(app).payload["results"] == answers

    def test_corrupt_shard_header_is_a_500(self, directory):
        app = ServingApp(load_serving_system(directory), directory)
        before = self._search(app)
        assert before.status == 200
        victim = os.path.join(directory, "shard-0000.snapshot")
        with open(victim, "rb") as handle:
            blob = handle.read()
        with open(victim, "wb") as handle:
            handle.write(blob.replace(b'"max_hops":12', b'"max_hops":13', 1))
        response = app.handle("POST", "/admin/reload", body={})
        assert response.status == 500
        assert "shard-0000.snapshot" in response.payload["error"]
        assert "corrupt snapshot" in response.payload["error"]
        # The reload failed before the swap: the old system still
        # serves, with the old answers.
        after = self._search(app)
        assert after.status == 200
        assert after.payload["results"] == before.payload["results"]
        assert after.payload["results"] == _offline_results(BASE_DOCS)

    def test_missing_shard_file_over_http(self, directory):
        server = start_server(directory)
        try:
            os.remove(os.path.join(directory, "shard-0001.snapshot"))
            with ServingClient(server.host, server.port) as client:
                with pytest.raises(ServerError) as raised:
                    client.reload()
                assert raised.value.status == 500
                assert "shard-0001.snapshot" in raised.value.payload["error"]
                # The server survives the error and keeps answering.
                assert client.search(QUERY)["results"] == (
                    _offline_results(BASE_DOCS)
                )
                metrics = client.metrics()
                assert metrics["server"]["requests_total"]["reload"] == 1
        finally:
            server.stop()
        # Startup loads the same way: the bad file fails it up front.
        with pytest.raises(SnapshotError, match="shard-0001.snapshot"):
            start_server(directory)

    def test_load_names_a_deleted_shard_file(self, directory):
        os.remove(os.path.join(directory, "shard-0001.snapshot"))
        with pytest.raises(SnapshotError, match="shard-0001.snapshot"):
            load_serving_system(directory)


class TestAdmissionOverHttp:
    @pytest.fixture
    def debug_server(self, tmp_path):
        """A tiny admission window + the test-delay header enabled."""
        snapshot = _build_snapshot(tmp_path)
        app = ServingApp(
            load_serving_system(snapshot), snapshot,
            max_inflight=2, per_client=1, retry_after=3, debug=True,
        )
        from repro.serving.server import ReproServer

        server = ReproServer(app).start()
        try:
            yield server
        finally:
            server.stop()

    def _hold_slot(self, server, client_id, seconds):
        """A thread holding one admitted slot open for ``seconds``."""
        def hold():
            with ServingClient(server.host, server.port,
                               client_id=client_id) as client:
                client.search(QUERY, test_delay=seconds)

        thread = threading.Thread(target=hold)
        thread.start()
        return thread

    def _await_inflight(self, server, count):
        with ServingClient(server.host, server.port) as client:
            deadline = time.monotonic() + 10
            while client.healthz()["inflight"] < count:
                assert time.monotonic() < deadline, "slots never filled"
                time.sleep(0.01)

    def test_per_client_then_global_rejection_then_recovery(
        self, debug_server
    ):
        server = debug_server
        holders = [self._hold_slot(server, "holder-1", 0.8)]
        self._await_inflight(server, 1)

        # Same identity as the holder, global budget still open: the
        # per-client cap fires (saturation is checked first, so this
        # must happen below max_inflight).
        with ServingClient(server.host, server.port,
                           client_id="holder-1") as client:
            with pytest.raises(ServerError) as excinfo:
                client.search(QUERY)
        assert excinfo.value.status == 429
        assert excinfo.value.payload["reason"] == REJECT_CLIENT_LIMIT
        assert excinfo.value.retry_after == 3.0

        holders.append(self._hold_slot(server, "holder-2", 0.8))
        self._await_inflight(server, 2)

        # A fresh identity: the global max_inflight=2 cap fires.
        with ServingClient(server.host, server.port,
                           client_id="fresh") as client:
            with pytest.raises(ServerError) as excinfo:
                client.search(QUERY)
            assert excinfo.value.status == 429
            assert excinfo.value.payload["reason"] == REJECT_SATURATED

            # Monitoring bypasses admission even at saturation.
            assert client.healthz()["inflight"] == 2

            for thread in holders:
                thread.join(timeout=30)
            # Slots released: the same client is admitted again.
            assert client.search(QUERY)["results"]

        rejected = server.app.admission.counters()["rejected"]
        assert rejected[REJECT_CLIENT_LIMIT] == 1
        assert rejected[REJECT_SATURATED] == 1

    def test_draining_503_carries_retry_after(self, debug_server):
        # A client hitting a draining server gets the same machine-
        # readable backoff as a saturated one -- over the real socket,
        # surfaced on ServerError by ServingClient.
        server = debug_server
        server.app.admission.begin_drain()
        with ServingClient(server.host, server.port) as client:
            with pytest.raises(ServerError) as excinfo:
                client.search(QUERY)
        assert excinfo.value.status == 503
        assert excinfo.value.payload["reason"] == REJECT_DRAINING
        assert excinfo.value.retry_after == 3.0
        assert excinfo.value.payload["retry_after"] == 3


# -- the CLI subprocess ------------------------------------------------------------


def _spawn_serve(snapshot, env_extra=None):
    env = dict(os.environ,
               PYTHONPATH=os.path.join(REPO_ROOT, "src"),
               **(env_extra or {}))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--snapshot", snapshot, "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=REPO_ROOT,
    )
    banner = process.stdout.readline()
    match = re.search(r"http://([\d.]+):(\d+)", banner)
    if match is None:
        process.kill()
        raise AssertionError(f"no address in serve banner: {banner!r}"
                             f"\n{process.stdout.read()}")
    return process, match.group(1), int(match.group(2))


class TestServeCli:
    def test_subprocess_serve_drain_exits_clean(self, tmp_path):
        snapshot = _build_snapshot(tmp_path)
        process, host, port = _spawn_serve(snapshot)
        try:
            with ServingClient(host, port) as client:
                assert client.healthz()["status"] == "serving"
                client.add_documents([list(_doc(400))])
                assert client.drain()["drained"] is True
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
        assert "drained: snapshot committed" in process.stdout.read()
        assert fsck_report(snapshot)["ok"]
        assert verify_wal(wal_file_name(snapshot))["records"] == 0

    def test_subprocess_sigterm_drains(self, tmp_path):
        snapshot = _build_snapshot(tmp_path)
        process, host, port = _spawn_serve(snapshot)
        try:
            with ServingClient(host, port) as client:
                client.add_documents([list(_doc(401))])
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
        # SIGTERM took the same graceful path as /admin/drain.
        assert fsck_report(snapshot)["ok"]
        assert verify_wal(wal_file_name(snapshot))["records"] == 0
        reloaded = Seda.load(snapshot)
        assert len(reloaded.collection.documents) == len(BASE_DOCS) + 1


# -- the cross-process fault seam --------------------------------------------------

_KILL_CHILD = """
import sys
from repro.testing.faults import maybe_install_kill_switch_from_env
from repro.system import Seda

maybe_install_kill_switch_from_env()
seda = Seda.from_documents(["<a>payload</a>"])
seda.save(sys.argv[1])
print("SURVIVED", flush=True)
"""


class TestKillSwitchEnv:
    def test_env_parsing(self, monkeypatch):
        from repro.testing import faults

        monkeypatch.delenv(faults.KILL_SWITCH_ENV, raising=False)
        assert faults.maybe_install_kill_switch_from_env() is None
        assert faults.maybe_install_kill_switch_from_env(
            {faults.KILL_SWITCH_ENV: "garbage"}) is None
        assert faults.maybe_install_kill_switch_from_env(
            {faults.KILL_SWITCH_ENV: "0"}) is None
        state = faults.maybe_install_kill_switch_from_env(
            {faults.KILL_SWITCH_ENV: "7"})
        try:
            assert state is not None and state["limit"] == 7
        finally:
            faults.uninstall_kill_switch()

    def _run_child(self, tmp_path, env_extra):
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        env.pop("REPRO_KILL_SWITCH", None)
        env.update(env_extra)
        return subprocess.run(
            [sys.executable, "-c", _KILL_CHILD,
             str(tmp_path / "child.snapshot")],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_armed_subprocess_dies_at_first_durable_operation(
        self, tmp_path
    ):
        # The regression: the switch must fire in the *subprocess* --
        # in-process monkeypatching never crosses the exec boundary.
        result = self._run_child(tmp_path, {"REPRO_KILL_SWITCH": "1"})
        assert result.returncode == -signal.SIGKILL
        assert "SURVIVED" not in result.stdout
        assert not os.path.exists(tmp_path / "child.snapshot")

    def test_unarmed_subprocess_survives(self, tmp_path):
        result = self._run_child(tmp_path, {})
        assert result.returncode == 0, result.stdout
        assert "SURVIVED" in result.stdout
        assert os.path.exists(tmp_path / "child.snapshot")
