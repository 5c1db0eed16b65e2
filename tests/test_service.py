"""The query service: concurrency, result caching, invalidation."""

import gc
import itertools
import json
import sys
import threading
import time
import tracemalloc

import pytest

from repro.model.graph import EdgeKind
from repro.obs.registry import StatsRegistry
from repro.query.term import Query
from repro.service.cache import ResultCache
from repro.service.query_service import QueryService
from repro.shard import ShardedSeda
from repro.system import Seda

BATCH = [
    [("*", '"United States"'), ("trade_country", "*")],
    [("trade_country", "*"), ("percentage", "*")],  # all scores tied
    [("*", "canada")],
    [("trade_country", "*"), ("percentage", "*")],  # duplicate of #2
    [("*", '"United States"')],
]


def _canonical(results):
    return json.dumps(
        [[list(r.node_ids), round(r.score, 12)] for r in results],
        separators=(",", ":"),
    )


@pytest.fixture
def seda(figure2_collection):
    return Seda(figure2_collection)


class TestQueryServiceConcurrency:
    def test_one_vs_many_workers_identical(self, figure2_collection):
        """The same batch must yield byte-identical results for any
        worker count (tied-score queries included)."""
        single = QueryService(Seda(figure2_collection), workers=1)
        multi = QueryService(Seda(figure2_collection), workers=4)
        sequential, _ = single.execute_batch(BATCH, k=5)
        parallel, _ = multi.execute_batch(BATCH, k=5)
        assert [_canonical(r) for r in sequential] == [
            _canonical(r) for r in parallel
        ]

    def test_batch_matches_plain_search(self, seda):
        service = QueryService(seda, workers=4)
        batched, _ = service.execute_batch(BATCH, k=5)
        direct = [seda.topk.search(Query.parse(q), k=5) for q in BATCH]
        assert [_canonical(r) for r in batched] == [
            _canonical(r) for r in direct
        ]

    def test_duplicates_computed_once(self, seda):
        service = QueryService(seda, workers=4)
        _, stats = service.execute_batch(BATCH, k=5)
        # BATCH has 5 entries, 4 distinct: exactly one in-batch hit.
        assert stats.queries == 5
        assert stats.computed == 4
        assert stats.cache_hits == 1

    def test_search_many_sessions(self, seda):
        sessions = seda.search_many(BATCH, k=5, workers=3)
        assert len(sessions) == len(BATCH)
        for pairs, session in zip(BATCH, sessions):
            expected = seda.topk.search(Query.parse(pairs), k=5)
            assert _canonical(session.results) == _canonical(expected)

    def test_empty_batch(self, seda):
        results, stats = QueryService(seda, workers=2).execute_batch([])
        assert results == []
        assert stats.queries == 0
        assert stats.hit_rate == 0.0


class TestResultCaching:
    def test_repeat_query_hits_cache(self, seda):
        service = QueryService(seda, workers=2)
        first, stats1 = service.execute(BATCH[0], k=5)
        second, stats2 = service.execute(BATCH[0], k=5)
        assert not stats1.cache_hit
        assert stats2.cache_hit
        assert _canonical(first) == _canonical(second)
        assert service.cache.hits == 1

    def test_cached_batch_identical(self, seda):
        service = QueryService(seda, workers=4)
        cold, _ = service.execute_batch(BATCH, k=5)
        warm, stats = service.execute_batch(BATCH, k=5)
        assert stats.cache_hits == len(BATCH)
        assert [_canonical(r) for r in cold] == [_canonical(r) for r in warm]

    def test_key_includes_k(self, seda):
        service = QueryService(seda, workers=1)
        top2, _ = service.execute(BATCH[1], k=2)
        top5, stats = service.execute(BATCH[1], k=5)
        assert not stats.cache_hit
        assert len(top2) == 2 and len(top5) > 2

    def test_normalized_spellings_share_entry(self, seda):
        service = QueryService(seda, workers=1)
        _, stats1 = service.execute([("*", "canada")], k=5)
        _, stats2 = service.execute([("", "canada")], k=5)
        assert not stats1.cache_hit
        assert stats2.cache_hit

    def test_lru_eviction(self, seda):
        service = QueryService(seda, workers=1, cache_size=2)
        for query in BATCH[:3]:
            service.execute(query, k=5)
        assert len(service.cache) == 2

    def test_cache_rejects_bad_size(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)


class TestInvalidation:
    def test_add_documents_invalidates(self, figure2_collection):
        """After ingestion the same query must be recomputed and see the
        new documents."""
        seda = Seda(figure2_collection)
        service = seda.query_service(workers=2)
        before, stats1 = service.execute([("*", "canada")], k=10)
        version_before = seda.graph.version
        seda.add_documents(
            ["<country>Canada<year>2006</year></country>"]
        )
        assert seda.graph.version > version_before
        assert len(service.cache) == 0
        after, stats2 = service.execute([("*", "canada")], k=10)
        assert not stats2.cache_hit
        new_root = seda.collection.documents[-1].root.node_id
        assert any(new_root in r.node_ids for r in after)
        assert len(after) > len(before)

    def test_version_keyed_entries_unreachable_after_bump(self, seda):
        service = QueryService(seda, workers=1)
        service.execute([("*", "canada")], k=5)
        seda.graph.bump_version()
        _, stats = service.execute([("*", "canada")], k=5)
        assert not stats.cache_hit

    def test_one_reachability_map_per_graph_version(self, figure2_collection):
        """The scoring model holds one link structure (edge index and
        reachability map) per ``graph.version``: after add_documents, 8
        concurrent first queries rebuild it exactly once and all read
        that one map."""
        seda = Seda(figure2_collection)
        service = seda.query_service(workers=8)
        service.execute(BATCH[0], k=5)
        before = seda.scoring.document_reachability()
        assert seda.scoring.document_reachability() is before

        builds = []
        build = seda.scoring._build_links

        def counted_build():
            builds.append(seda.graph.version)
            time.sleep(0.05)  # hold the build open while the others arrive
            return build()

        seda.scoring._build_links = counted_build
        seda.add_documents(["<country>Canada<year>2006</year></country>"])
        barrier = threading.Barrier(8)
        seen, errors = [], []

        def first_query(index):
            try:
                barrier.wait(timeout=10)
                # Distinct k per thread: no result-cache sharing.
                service.execute(BATCH[0], k=index + 1)
                seen.append(seda.scoring.document_reachability())
            except Exception as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=first_query, args=(index,))
                for index in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert builds == [seda.graph.version]
        assert len(seen) == 8
        assert all(reach is seen[0] for reach in seen)
        assert seen[0] is not before

    def test_version_bumps_on_add_edge(self, seda):
        before = seda.graph.version
        nodes = [node.node_id for node in seda.collection.iter_nodes()]
        seda.graph.add_edge(nodes[0], nodes[-1], EdgeKind.VALUE)
        assert seda.graph.version == before + 1


class TestStats:
    def test_batch_stats_aggregates(self, seda):
        service = QueryService(seda, workers=2)
        _, stats = service.execute_batch(BATCH, k=5)
        assert stats.queries == len(BATCH)
        assert stats.throughput > 0
        assert stats.sorted_accesses > 0
        assert 0.0 <= stats.hit_rate <= 1.0
        assert str(stats.queries) in stats.summary()

    def test_query_stats_record(self, seda):
        service = QueryService(seda, workers=1)
        _, stats = service.execute(BATCH[0], k=5)
        payload = stats.as_dict()
        assert payload["k"] == 5
        assert payload["latency"] >= 0.0
        assert payload["sorted_accesses"] > 0

    def test_rejects_bad_worker_count(self, seda):
        with pytest.raises(ValueError):
            QueryService(seda, workers=0)

    def test_scoring_cache_counters_surfaced(self, seda):
        """Batch stats report the scoring pipeline's shared-cache work:
        the impact-stream hit rate, and pruned combos."""
        service = QueryService(seda, workers=2)
        _, first = service.execute_batch(BATCH, k=5)
        assert first.pruned >= 0
        assert "stream cache" in first.summary()
        assert "pruned" in first.summary()
        # A second pass over the same workload after dropping the result
        # cache recomputes every query; by then every stream is
        # materialized, so the store must answer without a single miss.
        service.invalidate()
        _, second = service.execute_batch(BATCH, k=5)
        assert second.scoring_caches["stream_misses"] == 0
        assert second.scoring_caches["stream_hits"] > 0
        assert second.stream_hit_rate == 1.0

    def test_searchers_share_one_stream_store(self, seda):
        assert seda.new_searcher().streams is seda.streams
        assert seda.new_searcher() is not seda.new_searcher()
        assert seda.topk.streams is seda.streams


class TestServiceReuse:
    def test_defaults_reuse_configured_service(self, seda):
        """search_many and parameterless query_service must not clobber
        an explicitly configured service (its warm cache included)."""
        configured = seda.query_service(workers=8, cache_size=1024)
        assert seda.query_service() is configured
        seda.search_many(BATCH[:2], k=5)
        assert seda._service is configured
        assert len(configured.cache) > 0  # warmed by search_many

    def test_explicit_reconfiguration_replaces(self, seda):
        first = seda.query_service(workers=2)
        second = seda.query_service(workers=3)
        assert second is not first
        assert second.workers == 3
        assert seda.query_service(workers=3) is second


SHARD_DOCS = [
    ("alpha", "<r><a>red blue</a><b>green</b><a>blue</a></r>"),
    ("bravo", "<r><a>blue green</a><c>red</c></r>"),
    ("charlie", "<r><b>red red blue</b><a>green red</a></r>"),
    ("delta", "<r><a>red</a><b>blue</b><c>green blue</c></r>"),
    ("echo", "<r><c>blue blue</c><a>red green</a></r>"),
    ("golf", "<r><a>blue</a><a>blue</a></r>"),  # tied scores
]
SHARD_BATCH = [
    [("a", "red"), ("b", "*")],
    [("*", "blue")],
    [("a", "red"), ("b", "*")],  # duplicate of #0
    [("a", "*"), ("b", "*"), ("c", "*")],
    [("*", "blue")],  # duplicate of #1
]


def _exact(results):
    return [
        (r.node_ids, r.content_scores, r.compactness, r.score)
        for r in results
    ]


@pytest.fixture(params=["single-file", "three-shards"])
def any_system(request):
    if request.param == "single-file":
        return Seda.from_documents(SHARD_DOCS)
    return ShardedSeda.from_documents(SHARD_DOCS, shards=3, parallel=False)


class TestOneServiceForBothSystems:
    """The same contract, asserted through the single service class
    over a single-file and a sharded system."""

    def test_answers_byte_identical_to_an_unsharded_build(self, any_system):
        oracle = Seda.from_documents(SHARD_DOCS)
        service = QueryService(any_system, workers=2, cache_size=16)
        batch, _stats = service.execute_batch(SHARD_BATCH, k=5)
        for pairs, answer in zip(SHARD_BATCH, batch):
            expected = oracle.topk.search(Query.parse(pairs), k=5)
            assert _exact(answer) == _exact(expected)
            single, _ = service.execute(pairs, k=5)
            assert _exact(single) == _exact(expected)

    def test_in_batch_duplicates_are_cache_hits(self, any_system):
        service = QueryService(any_system, workers=2, cache_size=16)
        _, stats = service.execute_batch(SHARD_BATCH, k=5)
        assert [entry.cache_hit for entry in stats.per_query] == [
            False, False, True, False, True,
        ]
        assert stats.computed == 3 and stats.cache_hits == 2
        sharded = isinstance(any_system, ShardedSeda)
        for entry in stats.per_query:
            expected = 3 if sharded and not entry.cache_hit else 0
            assert len(entry.per_shard) == expected
        assert set(stats.shard_totals) == ({0, 1, 2} if sharded else set())

    def test_registry_total_equals_served(self, any_system):
        registry = any_system.enable_observability(slow_threshold=10.0)
        service = any_system.query_service(workers=2)
        service.execute_batch(SHARD_BATCH, k=5)
        service.execute(SHARD_BATCH[0], k=5)
        assert registry.total_queries == len(SHARD_BATCH) + 1


class TestRetainedMemory:
    """A read retains (almost) nothing: every structure a query fills
    is either bounded or dies with the search."""

    #: Distinct queries in the first phase; the second runs 3x as many
    #: more, reaching 4N.
    N = 25
    #: Allowed retained growth from N to 4N distinct queries.  A
    #: distance memo that outlives its search retains over 1 MiB here;
    #: the registry's 75 new fingerprints retain about 55 KiB.
    MARGIN = 256 * 1024

    def test_retained_memory_flat_across_distinct_queries(self):
        from repro.datasets.factbook import FactbookGenerator

        seda = Seda(
            FactbookGenerator(scale=0.05).build_collection(),
            value_links=FactbookGenerator.value_link_specs(),
        )
        tags = sorted({node.tag for node in seda.collection.iter_nodes()})
        terms = [(tag, "*") for tag in tags]
        pairs = itertools.combinations(terms, 2)
        queries = [list(pair) for pair in itertools.islice(pairs, 4 * self.N)]
        service = QueryService(
            seda, workers=1, cache_size=8,
            registry=StatsRegistry(slow_threshold=10.0),
        )
        # Build every term's impact stream first: streams are bounded
        # by the vocabulary, not by the number of distinct queries.
        for term in terms:
            service.execute([term], k=10)

        def retained():
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            for query in queries[: self.N]:
                service.execute(query, k=10)
            first = retained()
            for query in queries[self.N:]:
                service.execute(query, k=10)
            growth = retained() - first
        finally:
            tracemalloc.stop()
        assert service.registry.total_queries == len(terms) + 4 * self.N
        assert growth < self.MARGIN, f"retained +{growth} B"
