"""The observability suite: fingerprints, histograms, the registry,
EXPLAIN, and their integration with both serving facades."""

import json

import pytest

from repro.obs import (
    LatencyHistogram,
    StatsRegistry,
    explain,
    query_fingerprint,
    term_fingerprint,
)
from repro.obs.registry import FingerprintStats
from repro.query.term import Query
from repro.search.scoring import ScoringModel
from repro.search.topk import TopKSearcher
from repro.service.stats import QueryStats
from repro.system import Seda

DOCS = [
    ("a.xml", "<country><name>France</name><gdp>2000</gdp></country>"),
    ("b.xml", "<country><name>Spain</name><gdp>1400</gdp></country>"),
    ("c.xml", "<country><name>Chile</name><gdp>300</gdp></country>"),
    ("d.xml", "<country><name>Japan</name><gdp>5000</gdp></country>"),
]


@pytest.fixture(scope="module")
def seda():
    return Seda.from_documents(DOCS)


def _stats(latency=0.0, cache_hit=False, **kwargs):
    defaults = dict(sorted_accesses=0, tuples_scored=0, pruned=0,
                    early_stop=False)
    defaults.update(kwargs)
    return QueryStats(("key",), 10, latency, cache_hit=cache_hit, **defaults)


class TestFingerprint:
    def test_collapses_term_order(self):
        a = query_fingerprint(Query.parse([("*", "x"), ("gdp", "*")]), 5)
        b = query_fingerprint(Query.parse([("gdp", "*"), ("*", "x")]), 5)
        assert a == b

    def test_collapses_case_and_whitespace(self):
        a = query_fingerprint(Query.parse([("*", "  France  ")]), 5)
        b = query_fingerprint(Query.parse([("*", "france")]), 5)
        assert a == b

    def test_k_distinguishes(self):
        query = Query.parse([("*", "x")])
        assert query_fingerprint(query, 5) != query_fingerprint(query, 10)

    def test_boolean_operands_sorted(self):
        a = term_fingerprint(Query.parse([("*", "b AND a")]).terms[0])
        b = term_fingerprint(Query.parse([("*", "a AND b")]).terms[0])
        assert a == b

    def test_reserved_words_render_reparsable(self):
        term = Query.parse([("*", '"and"')]).terms[0]
        rendered = term_fingerprint(term)
        context, _, search = rendered.partition(":")
        reparsed = Query.parse([(context, search)]).terms[0]
        assert term_fingerprint(reparsed) == rendered

    def test_idempotent_roundtrip(self):
        for search in ("x", "a AND b", "a OR b", "NOT a", '"two words"',
                       "*", "(a OR b) AND c"):
            term = Query.parse([("*", search)]).terms[0]
            rendered = term_fingerprint(term)
            context, _, body = rendered.partition(":")
            again = term_fingerprint(
                Query.parse([(context, body)]).terms[0]
            )
            assert again == rendered, search


class TestHistogram:
    def test_bucket_bounds_contain_observation(self):
        for seconds in (0.0, 1e-7, 1e-6, 3e-6, 0.1, 5.0, 1e9):
            index = LatencyHistogram.bucket_index(seconds)
            lower, upper = LatencyHistogram.bucket_bounds(index)
            assert lower <= seconds or seconds > upper  # clamped tails
            if seconds <= upper:
                assert lower < seconds or seconds == 0.0 or index == 0

    def test_quantiles_empty(self):
        histogram = LatencyHistogram()
        assert histogram.p50 == 0.0
        assert histogram.bracket(0.5) is None

    def test_single_observation(self):
        histogram = LatencyHistogram()
        histogram.observe(0.003)
        lower, upper = histogram.bracket(0.5)
        assert lower < 0.003 <= upper
        assert histogram.p50 == upper

    def test_merge_adds_counts(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.observe(0.001)
        b.observe(0.1)
        a.merge(b)
        assert a.total == 2

    def test_dict_roundtrip_trims_trailing_zeros(self):
        histogram = LatencyHistogram()
        histogram.observe(1e-6)
        payload = histogram.to_dict()
        assert payload["counts"][-1] != 0
        restored = LatencyHistogram.from_dict(payload)
        assert restored.counts == histogram.counts
        assert restored.total == histogram.total

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            LatencyHistogram(counts=[-1])
        with pytest.raises(ValueError):
            LatencyHistogram(counts=[0] * 41)


class TestRegistry:
    def test_counts_and_rates(self):
        registry = StatsRegistry(slow_threshold=10.0)
        registry.record("fp", _stats(sorted_accesses=4, tuples_scored=2,
                                     pruned=2, early_stop=True))
        registry.record("fp", _stats(cache_hit=True))
        entry = registry.fingerprint_stats()["fp"]
        assert entry.count == 2
        assert entry.cache_hit_rate == 0.5
        assert entry.early_stop_rate == 0.5
        assert entry.prune_rate == 0.5
        assert registry.total_queries == 2

    def test_slow_log_threshold_and_bound(self):
        registry = StatsRegistry(slow_threshold=0.05, slow_log_size=2)
        registry.record("fast", _stats(latency=0.01))
        for index in range(3):
            registry.record(f"slow-{index}", _stats(latency=0.1))
        slow = registry.slow_queries()
        assert [entry["fingerprint"] for entry in slow] == [
            "slow-1", "slow-2"
        ]

    def test_per_shard_skew(self):
        registry = StatsRegistry()
        stats = QueryStats(
            ("key",), 10, 0.0, cache_hit=False,
            sorted_accesses=5, tuples_scored=3, pruned=1, early_stop=True,
            per_shard=[
                {"shard": 0, "sorted_accesses": 5, "tuples_scored": 3,
                 "pruned": 1, "early_stop": True},
                {"shard": 1, "sorted_accesses": 0, "tuples_scored": 0,
                 "pruned": 0, "early_stop": False},
            ],
        )
        registry.record("fp", stats)
        per_shard = registry.fingerprint_stats()["fp"].per_shard
        assert per_shard["0"]["sorted_accesses"] == 5
        assert per_shard["0"]["early_stops"] == 1
        assert per_shard["1"]["tuples_scored"] == 0

    def test_dict_roundtrip(self):
        registry = StatsRegistry(slow_threshold=0.0, slow_log_size=4)
        registry.record("fp", _stats(latency=0.2, sorted_accesses=7))
        registry.record("other", _stats(cache_hit=True))
        restored = StatsRegistry.from_dict(registry.to_dict())
        assert restored.to_dict() == registry.to_dict()
        assert restored.total_queries == 2
        assert restored.slow_log_size == 4

    def test_clear(self):
        registry = StatsRegistry(slow_threshold=0.0)
        registry.record("fp", _stats(latency=1.0))
        registry.clear()
        assert registry.total_queries == 0
        assert registry.fingerprint_stats() == {}
        assert registry.slow_queries() == []

    def test_validates_configuration(self):
        with pytest.raises(ValueError):
            StatsRegistry(slow_log_size=0)
        with pytest.raises(ValueError):
            StatsRegistry(slow_threshold=-1)

    def test_render_table_smoke(self):
        registry = StatsRegistry(slow_threshold=0.0)
        registry.record("fp", _stats(latency=0.2))
        text = registry.render_table()
        assert "query statistics: 1 served" in text
        assert "fp" in text
        assert "slow queries" in text


class TestServiceIntegration:
    def test_registry_counts_equal_served_queries(self, seda):
        registry = seda.enable_observability(slow_threshold=10.0)
        registry.clear()
        service = seda.query_service(workers=2)
        service.cache.invalidate()
        query = [("*", "france"), ("gdp", "*")]
        service.execute(query, k=5)          # computed
        service.execute(query, k=5)          # cache hit
        service.execute_batch(                # 1 computed, 2 duplicates,
            [query, query, [("*", "spain")]], k=5
        )                                     # 1 cache hit for `query`
        assert registry.total_queries == 5
        stats = registry.fingerprint_stats()
        fingerprint = query_fingerprint(Query.parse(query), 5)
        assert stats[fingerprint].count == 4
        assert stats[fingerprint].cache_hits == 3
        assert sum(entry.count for entry in stats.values()) == 5

    def test_results_identical_with_observability_on_and_off(self):
        query = [("*", "france"), ("gdp", "*")]
        plain = Seda.from_documents(DOCS)
        observed = Seda.from_documents(DOCS)
        observed.enable_observability()
        baseline, _ = plain.query_service().execute(query, k=5)
        recorded, _ = observed.query_service().execute(query, k=5)
        assert [(r.node_ids, r.score) for r in baseline] == [
            (r.node_ids, r.score) for r in recorded
        ]

    def test_enable_is_idempotent(self, seda):
        first = seda.enable_observability()
        second = seda.enable_observability(slow_threshold=9.9)
        assert first is second

    def test_sharded_service_records_per_shard_skew(self):
        from repro.shard import ShardedSeda

        sharded = ShardedSeda.from_documents(DOCS, shards=2, parallel=False)
        registry = sharded.enable_observability(slow_threshold=10.0)
        query = [("*", "france"), ("gdp", "*")]
        sharded.search_many([query, query], k=5)
        assert registry.total_queries == 2
        entry = registry.fingerprint_stats()[
            query_fingerprint(Query.parse(query), 5)
        ]
        assert entry.count == 2
        assert set(entry.per_shard) == {"0", "1"}


class TestExplain:
    def test_counters_match_searcher_stats(self, seda):
        searcher = seda.topk
        for pairs in ([("*", "france")],
                      [("*", "france"), ("gdp", "*")],
                      [("name", "*"), ("gdp", "*"), ("*", "chile")]):
            report = explain(searcher, pairs, k=5)
            raw = searcher.stats
            assert report.sorted_accesses == raw["sorted_accesses"]
            assert report.tuples_scored == raw["tuples_scored"]
            assert report.pruned == raw["pruned"]
            assert report.early_stop == raw["early_stop"]
            assert report.stop_reason == raw["stop_reason"]
            assert [entry["sorted_accesses"] for entry in report.per_term] \
                == raw["per_term_accesses"]
            assert [entry["candidates"] for entry in report.per_term] \
                == raw["candidates"]

    def test_stop_reason_empty_stream(self, seda):
        report = explain(seda.topk, [("*", "zzz-missing"), ("gdp", "*")])
        assert report.stop_reason == "empty-stream"
        assert report.results == []

    def test_stop_reason_exhaustion(self, seda):
        report = explain(seda.topk, [("name", "*"), ("gdp", "*")], k=50)
        assert report.stop_reason == "exhaustion"
        assert report.early_stop is False

    def test_stop_reason_corner_bound(self):
        # Content-only ranking (the paper's ablation) scores a tuple at
        # the stopping threshold's compactness cap of 1.  The hub pair
        # formed in the first round scores exactly the threshold, which
        # does not certify it (a tie could still win on node ids); the
        # second round's frontiers drop the threshold below it.
        filler = " ".join(f"pad{j}" for j in range(100))
        docs = [("hub.xml",
                 "<r><t>alpha beta alpha beta alpha</t><u>beta</u></r>")]
        docs += [
            (f"w{i}.xml", f"<r><t>alpha beta {filler}</t></r>")
            for i in range(10)
        ]
        system = Seda.from_documents(docs)
        scoring = ScoringModel(system.collection, system.inverted,
                               system.graph, structure_weight=0.0)
        searcher = TopKSearcher(system.matcher, scoring)
        report = explain(searcher, [("*", "alpha"), ("*", "beta")], k=1)
        assert report.stop_reason == "corner-bound"
        assert report.early_stop is True
        assert report.sorted_accesses == 4  # streams were not drained

    def test_single_term_k_satisfied(self, seda):
        report = explain(seda.topk, [("name", "*")], k=1)
        assert report.stop_reason == "k-satisfied"
        assert report.early_stop is True

    def test_report_render_and_json(self, seda):
        report = explain(seda.topk, [("*", "france"), ("gdp", "*")], k=5)
        text = report.render()
        assert text.startswith("EXPLAIN ")
        assert "stopped:" in text
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["k"] == 5
        assert len(payload["per_term"]) == 2

    def test_explain_results_match_plain_search(self, seda):
        pairs = [("*", "france"), ("gdp", "*")]
        report = explain(seda.topk, pairs, k=5)
        plain = seda.topk.search(Query.parse(pairs), k=5)
        assert [(r.node_ids, r.score) for r in report.results] == [
            (r.node_ids, r.score) for r in plain
        ]


class TestPersistence:
    def test_snapshot_roundtrip_keeps_registry(self, tmp_path):
        seda = Seda.from_documents(DOCS)
        registry = seda.enable_observability(slow_threshold=0.0)
        seda.query_service().execute([("*", "france")], k=5)
        path = tmp_path / "obs.snapshot"
        seda.save(str(path))
        loaded = Seda.load(str(path))
        assert loaded.obs is not None
        assert loaded.obs.to_dict() == registry.to_dict()
        # the restored registry keeps recording through the service
        loaded.query_service().execute([("*", "france")], k=5)
        assert loaded.obs.total_queries == registry.total_queries + 1

    def test_snapshot_without_observability_has_no_obs(self, tmp_path):
        seda = Seda.from_documents(DOCS)
        path = tmp_path / "plain.snapshot"
        seda.save(str(path))
        assert Seda.load(str(path)).obs is None

    def test_sharded_roundtrip_keeps_registry(self, tmp_path):
        from repro.shard import ShardedSeda

        sharded = ShardedSeda.from_documents(DOCS, shards=2, parallel=False)
        registry = sharded.enable_observability(slow_threshold=0.0)
        sharded.search_many([[("*", "france")]], k=5)
        directory = tmp_path / "shards"
        sharded.save(str(directory))
        assert (directory / "obs.json").exists()
        loaded = ShardedSeda.load(str(directory))
        assert loaded.obs is not None
        assert loaded.obs.to_dict() == registry.to_dict()

    def test_sharded_resave_without_observability_clears(self, tmp_path):
        from repro.shard import ShardedSeda

        sharded = ShardedSeda.from_documents(DOCS, shards=2, parallel=False)
        sharded.enable_observability()
        directory = tmp_path / "shards"
        sharded.save(str(directory))
        reloaded = ShardedSeda.load(str(directory))
        reloaded.obs = None
        reloaded.save(str(directory))
        assert not (directory / "obs.json").exists()
