"""Serving under concurrent readers and a mutating writer.

The serving contract (see ``repro.service.query_service``) is
single-writer / many-readers: mutations are serialized against query
execution, but *between* mutations any number of threads may hammer
the service.  This battery drives both facades through that regime:

* N reader threads issue batches while a writer thread ingests
  documents (under the product
  :class:`~repro.serving.rwlock.ReadWriteLock` -- the same lock
  ``repro serve`` uses for this exact discipline);
* every answer a reader observes must equal the ground truth computed
  by a bare searcher *at the graph version the answer was served
  under* -- a stale cache hit surviving a version bump would surface
  here as a cross-version mismatch;
* no thread may observe an exception;
* with observability on, the registry's total must equal the number
  of queries actually served.
"""

import json
import threading

import pytest

from repro.query.term import Query
from repro.search.topk import TopKSearcher
from repro.serving.rwlock import ReadWriteLock
from repro.system import Seda

READERS = 4
ROUNDS = 6
INGESTS = 3

QUERIES = (
    [("*", "france"), ("gdp", "*")],
    [("name", "*")],
    [("*", "spain"), ("year", "*")],
    [("gdp", "*"), ("year", "*")],
)


def _doc(index):
    names = ("France", "Spain", "Chile", "Japan", "Ghana", "Peru", "Oman")
    name = names[index % len(names)]
    return (
        f"doc-{index}.xml",
        f"<country><name>{name} city{index}</name>"
        f"<gdp>{100 * (index + 1)}</gdp>"
        f"<year>{2000 + index}</year></country>",
    )


def _canonical(results):
    return json.dumps(
        [[list(r.node_ids), round(r.score, 12)] for r in results],
        separators=(",", ":"),
    )


def _stress(system, service, version_of, searcher_factory):
    """Drive readers + writer; return (errors, served_count, truth_map)."""
    lock = ReadWriteLock()
    errors = []
    served = []
    ground_truth = {}

    def snapshot_truth():
        version = version_of()
        searcher = searcher_factory()
        ground_truth[version] = {
            index: _canonical(searcher(Query.parse(pairs), 5))
            for index, pairs in enumerate(QUERIES)
        }

    snapshot_truth()
    start = threading.Barrier(READERS + 1)

    def reader():
        try:
            start.wait()
            for _ in range(ROUNDS):
                lock.acquire_read()
                try:
                    version = version_of()
                    results, _stats = service.execute_batch(
                        list(QUERIES), k=5
                    )
                    observed = [
                        (version, index, _canonical(result))
                        for index, result in enumerate(results)
                    ]
                finally:
                    lock.release_read()
                served.extend(observed)  # GIL-atomic appends
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    def writer():
        try:
            start.wait()
            for round_index in range(INGESTS):
                lock.acquire_write()
                try:
                    system.add_documents([_doc(100 + round_index)])
                    snapshot_truth()
                finally:
                    lock.release_write()
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=reader) for _ in range(READERS)]
    threads.append(threading.Thread(target=writer))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors, served, ground_truth


class TestQueryServiceStress:
    def test_concurrent_readers_with_mutating_writer(self):
        system = Seda.from_documents([_doc(index) for index in range(5)])
        registry = system.enable_observability(slow_threshold=10.0)
        service = system.query_service(workers=3)
        errors, served, ground_truth = _stress(
            system,
            service,
            lambda: system.graph.version,
            lambda: TopKSearcher(system.matcher, system.scoring).search,
        )
        assert errors == []
        assert len(served) == READERS * ROUNDS * len(QUERIES)
        for version, index, answer in served:
            assert answer == ground_truth[version][index], (
                f"stale answer for query {index} at version {version}"
            )
        assert registry.total_queries == len(served)

    def test_sharded_service_stress(self):
        from repro.shard import ShardedSeda

        sharded = ShardedSeda.from_documents(
            [_doc(index) for index in range(6)], shards=2, parallel=False
        )
        registry = sharded.enable_observability(slow_threshold=10.0)
        service = sharded.query_service(workers=3)
        errors, served, ground_truth = _stress(
            sharded,
            service,
            lambda: tuple(
                shard.graph.version for shard in sharded.shards
            ),
            lambda: (lambda pairs, k: sharded.search(pairs, k=k)),
        )
        assert errors == []
        assert len(served) == READERS * ROUNDS * len(QUERIES)
        for version, index, answer in served:
            assert answer == ground_truth[version][index], (
                f"stale answer for query {index} at version {version}"
            )
        assert registry.total_queries == len(served)
