"""Sharded collections: routing, translation, snapshots, serving."""

import os

import pytest

from repro.query.term import Query
from repro.search.topk import SharedBound, TopKSearcher
from repro.service.query_service import QueryService
from repro.shard import (
    ShardedSeda,
    hash_partition,
    resolve_partitioner,
    round_robin_partition,
    skew_report,
)
from repro.storage.snapshot import SnapshotError, fsck_report
from repro.system import Seda

DOCS = [
    ("alpha", "<r><a>red blue</a><b>green</b><a>blue</a></r>"),
    ("bravo", "<r><a>blue green</a><c>red</c></r>"),
    ("charlie", "<r><b>red red blue</b><a>green red</a></r>"),
    ("delta", "<r><a>red</a><b>blue</b><c>green blue</c></r>"),
    ("echo", "<r><c>blue blue</c><a>red green</a></r>"),
    ("foxtrot", "<r><b>green green</b><a>red blue green</a></r>"),
    ("golf", "<r><a>blue</a><a>blue</a></r>"),  # tied scores
    ("hotel", "<r><a>blue</a><b>red</b></r>"),
]

QUERIES = [
    [("*", "red"), ("*", "blue")],
    [("a", "blue"), ("*", "green")],
    [("*", "red"), ("*", "blue"), ("*", "green")],
    [("*", "blue")],
    [("b", "*"), ("*", "red")],
]


def _canon(results):
    return [
        (r.node_ids, r.content_scores, r.compactness, r.score)
        for r in results
    ]


@pytest.fixture(scope="module")
def unsharded():
    return Seda.from_documents(DOCS)


@pytest.fixture(scope="module")
def sharded():
    return ShardedSeda.from_documents(DOCS, shards=3, parallel=False)


#: Factbook query shapes: Query 1's terms and variants.  The match-all
#: pairs produce long runs of tied scores, so the merge's tie-break is
#: exercised across shard boundaries.
FACTBOOK_QUERIES = [
    [("*", '"United States"'), ("trade_country", "*")],
    [("trade_country", "*"), ("percentage", "*")],
    [("*", '"United States"'), ("trade_country", "*"), ("percentage", "*")],
    [("*", "canada"), ("year", "*")],
    [("*", "germany"), ("percentage", "*")],
    [("percentage", "*")],
]


@pytest.fixture(scope="module")
def factbook():
    """The Factbook at pipeline scale, unsharded and on three shards.

    Built without value links: the hash partitioner does not co-locate
    value-linked documents (see docs/ARCHITECTURE.md, "Sharding").
    """
    from repro.datasets.factbook import FactbookGenerator

    corpus = list(FactbookGenerator(scale=0.05).documents())
    return (
        Seda.from_documents(corpus),
        ShardedSeda.from_documents(corpus, shards=3, parallel=False),
    )


class TestFactoryRouting:
    def test_seda_from_documents_routes_to_sharded(self):
        system = Seda.from_documents(DOCS, shards=2)
        assert isinstance(system, ShardedSeda)
        assert system.shard_count == 2

    def test_explicit_shard_count_always_routes(self):
        # Config-driven callers may land on shards=1; sharding-only
        # kwargs must still be honored, so any explicit count routes.
        degenerate = Seda.from_documents(
            DOCS, shards=1, partitioner="round-robin", parallel=False
        )
        assert isinstance(degenerate, ShardedSeda)
        assert degenerate.shard_count == 1
        assert isinstance(Seda.from_documents(DOCS), Seda)

    def test_partitioners_are_stable_and_bounded(self):
        for name, _source in DOCS:
            for shards in (1, 2, 5):
                assert 0 <= hash_partition(name, 0, shards) < shards
        # Stability: the same name always routes identically.
        assert hash_partition("alpha", 0, 4) == hash_partition("alpha", 9, 4)
        assert round_robin_partition("x", 7, 3) == 1
        with pytest.raises(ValueError, match="unknown partitioner"):
            resolve_partitioner("no-such-policy")


class TestMergeEquivalence:
    def test_byte_identical_to_unsharded(self, unsharded, sharded):
        for pairs in QUERIES:
            query = Query.parse(pairs)
            for k in (1, 2, 10, 500, None):
                assert _canon(sharded.search(pairs, k=k)) == _canon(
                    unsharded.topk.search(query, k=k)
                ), f"diverged on {pairs} k={k}"

    def test_factbook_sweep_byte_identical_to_unsharded(self, factbook):
        """Every query shape at every k, k beyond the corpus included;
        per-shard searches with a fresh, never-offered bound each merge
        to the same answer; so does the service, computed and cached."""
        plain, sharded = factbook
        for pairs in FACTBOOK_QUERIES:
            query = Query.parse(pairs)
            for k in (1, 3, 10, 10_000, None):
                assert _canon(sharded.search(pairs, k=k)) == _canon(
                    plain.topk.search(query, k=k)
                ), f"diverged on {pairs} k={k}"
            independent = sharded._merge(
                [
                    TopKSearcher(
                        shard.matcher, shard.scoring, streams=shard.streams
                    ).search(query, k=10, shared_bound=SharedBound())
                    for shard in sharded.shards
                ],
                10,
            )
            assert _canon(independent) == _canon(
                plain.topk.search(query, k=10)
            )
        service = QueryService(sharded, workers=2)
        expected = [_canon(plain.topk.search(Query.parse(pairs), k=10))
                    for pairs in FACTBOOK_QUERIES]
        for _round in range(2):  # computed, then from the result cache
            answers, stats = service.execute_batch(FACTBOOK_QUERIES, k=10)
            assert [_canon(answer) for answer in answers] == expected
        assert stats.hit_rate == 1.0

    def test_every_shard_count_agrees(self, unsharded):
        baseline = [
            _canon(unsharded.topk.search(Query.parse(pairs), k=10))
            for pairs in QUERIES
        ]
        for shards in (1, 2, 4, 8, 20):
            system = ShardedSeda.from_documents(
                DOCS, shards=shards, parallel=False,
                partitioner="round-robin",
            )
            for pairs, want in zip(QUERIES, baseline):
                assert _canon(system.search(pairs, k=10)) == want

    def test_global_ids_resolve_through_the_view(self, unsharded, sharded):
        results = sharded.search(QUERIES[0], k=5)
        view = sharded.collection
        for result in results:
            for node_id in result.node_ids:
                assert view.node(node_id).path == (
                    unsharded.collection.node(node_id).path
                )
                assert view.content(node_id) == (
                    unsharded.collection.content(node_id)
                )
            assert result.describe(view) == result.describe(
                unsharded.collection
            )

    def test_k_of_zero_returns_empty_everywhere(self, unsharded, sharded):
        query = Query.parse(QUERIES[0])
        assert unsharded.topk.search(query, k=0) == []
        assert sharded.search(QUERIES[0], k=0) == []
        results, stats = sharded.query_service().execute(QUERIES[0], k=0)
        assert results == [] and stats.k == 0

    def test_translation_roundtrip(self, sharded):
        for global_id in range(sharded.node_count):
            shard_system, local_id = sharded.to_local(global_id)
            shard_index = sharded.shards.index(shard_system)
            assert sharded.to_global(shard_index, local_id) == global_id
        with pytest.raises(KeyError):
            sharded.to_local(sharded.node_count)

    def test_shared_bound_only_prunes_strictly_worse(self, unsharded):
        bound = SharedBound()
        assert bound.value == float("-inf")
        bound.offer(0.5)
        bound.offer(0.25)  # lower offers never move the bound down
        assert bound.value == 0.5
        # A coupled scatter must answer exactly like independent
        # searches merged afterwards.
        system = ShardedSeda.from_documents(DOCS, shards=4, parallel=False)
        for pairs in QUERIES:
            query = Query.parse(pairs)
            independent = system._merge(
                [
                    shard.topk.search(query, k=3)
                    for shard in system.shards
                ],
                3,
            )
            assert _canon(system.search(pairs, k=3)) == _canon(independent)


class TestGlobalStatistics:
    def test_shards_score_with_corpus_wide_idf(self, unsharded, sharded):
        for shard in sharded.shards:
            for term in ("red", "blue", "green", "unseen-term"):
                assert shard.inverted.inverse_document_frequency(term) == (
                    unsharded.inverted.inverse_document_frequency(term)
                )

    def test_lazy_ingestion_defers_untouched_shard_bumps(self, tmp_path):
        """Ingesting into a lazily restored collection must not
        rehydrate untouched shards -- their invalidation is recorded
        on the slot -- yet searches and re-saves still see exactly
        the post-ingest statistics."""
        system = ShardedSeda.from_documents(
            DOCS, shards=4, parallel=False, partitioner="round-robin"
        )
        source = tmp_path / "lazy-ingest.shards"
        system.save(str(source))
        # Loading attaches a write-ahead log to the directory, so a
        # later load would replay the batch ingested below; the second
        # phase loads this pristine copy instead.
        import shutil

        pristine = tmp_path / "lazy-ingest-pristine.shards"
        shutil.copytree(str(source), str(pristine))

        new = [("november", "<r><a>red red red</a><b>blue</b></r>")]
        plain = Seda.from_documents(DOCS + new)

        lazy = ShardedSeda.load(str(source))
        lazy.add_documents(new)  # round-robin routes it to shard 0
        untouched = [
            slot for slot in lazy._slots[1:] if not slot.loaded
        ]
        assert untouched, "ingestion rehydrated every deferred shard"
        assert all(slot.pending_bumps == 1 for slot in untouched)
        for pairs in QUERIES:
            assert _canon(lazy.search(pairs, k=10)) == _canon(
                plain.topk.search(Query.parse(pairs), k=10)
            )

        # Saving with bumps still pending must not byte-copy stale
        # stream versions: the restored copy answers post-ingest too.
        fresh = ShardedSeda.load(str(pristine))
        fresh.add_documents(new)
        target = tmp_path / "post-ingest.shards"
        fresh.save(str(target))
        restored = ShardedSeda.load(str(target))
        for pairs in QUERIES:
            assert _canon(restored.search(pairs, k=10)) == _canon(
                plain.topk.search(Query.parse(pairs), k=10)
            )

    def test_ingestion_keeps_statistics_global(self):
        plain = Seda.from_documents(DOCS)
        system = ShardedSeda.from_documents(DOCS, shards=3, parallel=False)
        new = [
            ("india", "<r><a>red red red</a><b>blue</b></r>"),
            ("juliet", "<r><c>green</c><a>blue red</a></r>"),
        ]
        plain.add_documents(new)
        added = system.add_documents(new)
        assert len(added) == 2
        for pairs in QUERIES:
            assert _canon(system.search(pairs, k=10)) == _canon(
                plain.topk.search(Query.parse(pairs), k=10)
            )
        assert system.document_count == len(DOCS) + 2
        assert system.node_count == plain.collection.node_count


class TestShardedSnapshots:
    def test_save_load_roundtrip_lazy(self, sharded, tmp_path):
        target = tmp_path / "collection.shards"
        sharded.save(str(target))
        assert sorted(os.listdir(target)) == [
            "manifest.json",
            "shard-0000.snapshot",
            "shard-0000.snapshot.cols",
            "shard-0001.snapshot",
            "shard-0001.snapshot.cols",
            "shard-0002.snapshot",
            "shard-0002.snapshot.cols",
        ]
        restored = ShardedSeda.load(str(target))
        # Lazy: the topology is known before any shard file is opened.
        assert all(not slot.loaded for slot in restored._slots)
        assert restored.node_count == sharded.node_count
        assert restored.document_count == sharded.document_count
        for pairs in QUERIES:
            assert _canon(restored.search(pairs, k=10)) == _canon(
                sharded.search(pairs, k=10)
            )
        assert all(slot.loaded for slot in restored._slots)

    def test_resave_without_rehydration(self, sharded, tmp_path):
        """Backing up a lazily restored collection is file-copy cheap:
        no shard is rehydrated, and the copy answers identically."""
        import shutil

        source = tmp_path / "source.shards"
        sharded.save(str(source))
        lazy = ShardedSeda.load(str(source))
        backup = tmp_path / "backup.shards"
        lazy.save(str(backup))
        assert all(not slot.loaded for slot in lazy._slots)
        # save() makes the backup home: the live system is backed by
        # the copies it just wrote, so deleting the source strands
        # nothing.
        assert all(os.path.dirname(slot.path) == str(backup)
                   for slot in lazy._slots)
        shutil.rmtree(source)
        assert _canon(lazy.search(QUERIES[0], k=5)) == _canon(
            sharded.search(QUERIES[0], k=5)
        )
        # A parallel build's payload-backed shards save the same way.
        parallel = ShardedSeda.from_documents(
            DOCS, shards=2, parallel=True, max_workers=2
        )
        fresh = tmp_path / "fresh.shards"
        parallel.save(str(fresh))
        assert all(not slot.loaded for slot in parallel._slots)
        for directory in (backup, fresh):
            restored = ShardedSeda.load(str(directory))
            assert _canon(restored.search(QUERIES[0], k=10)) == _canon(
                sharded.search(QUERIES[0], k=10)
            )

    def test_resave_over_existing_directory_is_generational(self, tmp_path):
        """Re-saving over a live directory must never let a crash leave
        the old manifest pointing at new shard files: the new
        generation gets fresh file names, the manifest commit flips
        atomically, and superseded files are cleaned up."""
        import json

        system = ShardedSeda.from_documents(DOCS, shards=2, parallel=False)
        target = tmp_path / "live.shards"
        system.save(str(target))
        first = sorted(
            name for name in os.listdir(target) if name.startswith("shard-")
        )
        assert first == [
            "shard-0000.snapshot", "shard-0000.snapshot.cols",
            "shard-0001.snapshot", "shard-0001.snapshot.cols",
        ]

        system.add_documents([("mike", "<r><a>red blue</a></r>")])
        system.save(str(target))
        manifest = json.loads((target / "manifest.json").read_text())
        assert manifest["generation"] == 1
        second = sorted(
            name for name in os.listdir(target) if name.startswith("shard-")
        )
        assert manifest["shard_files"] == [
            "shard-0000.g1.snapshot", "shard-0001.g1.snapshot",
        ]
        # Superseded generation-0 files (and their column sidecars) are
        # cleaned up; the new generation's pairs remain.
        assert second == [
            "shard-0000.g1.snapshot", "shard-0000.g1.snapshot.cols",
            "shard-0001.g1.snapshot", "shard-0001.g1.snapshot.cols",
        ]

        plain = Seda.from_documents(
            DOCS + [("mike", "<r><a>red blue</a></r>")]
        )
        restored = ShardedSeda.load(str(target))
        # A lazily loaded system survives a re-save into its own
        # source directory (its slots are repointed at the new files).
        restored.save(str(target))
        for pairs in QUERIES:
            assert _canon(restored.search(pairs, k=10)) == _canon(
                plain.topk.search(Query.parse(pairs), k=10)
            )

    def test_eager_load(self, sharded, tmp_path):
        target = tmp_path / "eager.shards"
        sharded.save(str(target))
        restored = ShardedSeda.load(str(target), lazy=False)
        assert all(slot.loaded for slot in restored._slots)

    def test_info_reads_only_the_manifest(self, sharded, tmp_path):
        target = tmp_path / "info.shards"
        sharded.save(str(target))
        info = skew_report(str(target))
        assert info["meta"]["shards"] == 3
        assert info["meta"]["partitioner"] == "hash"
        assert info["documents"] == len(DOCS)
        assert info["nodes"] == sharded.node_count
        assert len(info["per_shard"]) == 3
        assert info["total_bytes"] == sum(
            entry["bytes"] for entry in info["per_shard"]
        )

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="no manifest.json"):
            ShardedSeda.load(str(tmp_path))

    def test_missing_shard_file_rejected(self, sharded, tmp_path):
        target = tmp_path / "torn.shards"
        sharded.save(str(target))
        os.remove(target / "shard-0001.snapshot")
        with pytest.raises(SnapshotError, match="missing shard files"):
            ShardedSeda.load(str(target))

    def test_shard_file_lost_after_load_is_a_snapshot_error(self, sharded,
                                                            tmp_path):
        """A lazily restored shard whose file vanished after the manifest
        was read fails as a SnapshotError naming the file and pointing
        at fsck -- and putting the file back heals the next call."""
        target = tmp_path / "lost.shards"
        sharded.save(str(target))
        system = ShardedSeda.load(str(target))
        victim = target / "shard-0000.snapshot"
        blob = victim.read_bytes()
        victim.unlink()
        with pytest.raises(SnapshotError, match="shard-0000.snapshot") as info:
            system.search(QUERIES[0], k=10)
        assert "fsck" in str(info.value)
        assert not system._slots[0].loaded
        victim.write_bytes(blob)
        assert _canon(system.search(QUERIES[0], k=10)) == _canon(
            sharded.search(QUERIES[0], k=10)
        )

    def test_save_elsewhere_survives_losing_the_old_home(self, tmp_path):
        """``save(backup)`` writes every acknowledged batch into the
        backup and makes it home: with the old home gone, both the live
        lazy system and a fresh eager load equal an offline build."""
        import shutil

        documents = DOCS[:4]
        batch = DOCS[4:]
        home = str(tmp_path / "home.shards")
        backup = str(tmp_path / "backup.shards")
        ShardedSeda.from_documents(documents, shards=2,
                                   parallel=False).save(home)
        system = ShardedSeda.load(home)
        system.add_documents(batch)
        system.save(backup)
        shutil.rmtree(home)
        offline = Seda.from_documents(documents + batch)
        reloaded = ShardedSeda.load(backup, lazy=False)
        for pairs in QUERIES:
            expected = _canon(offline.topk.search(Query.parse(pairs), k=10))
            assert _canon(system.search(pairs, k=10)) == expected
            assert _canon(reloaded.search(pairs, k=10)) == expected

    def test_unknown_partitioner_name_rejected_at_load(self, sharded,
                                                       tmp_path):
        import json

        target = tmp_path / "future.shards"
        sharded.save(str(target))
        manifest_path = target / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["meta"]["partitioner"] = "range"  # a future policy
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="unknown partitioner"):
            ShardedSeda.load(str(target))
        # An explicit override still loads it.
        rescued = ShardedSeda.load(str(target), partitioner="hash")
        assert rescued.search(QUERIES[0], k=3) == sharded.search(
            QUERIES[0], k=3
        )

    def test_out_of_range_shard_index_rejected(self, sharded, tmp_path):
        """Damaged manifests are SnapshotErrors, never tracebacks.

        Each case is ``(damage, message, shape_error)``: shape errors
        are caught by the manifest reader itself, so manifest-only
        readers (``skew_report``, fsck) reject them too.
        """
        import json

        def set_row_shard(manifest):
            manifest["documents"][0][1] = 5  # only 3 shard files exist

        def version_1(manifest):
            manifest["version"] = 1
            del manifest["routing_epoch"]
            del manifest["shard_doc_bases"]

        cases = [
            (set_row_shard, "malformed document row", True),
            (lambda m: m.update(meta=[]), "malformed meta", True),
            (lambda m: m.update(shard_files=[1, 2]),
             "malformed shard_files", True),
            (lambda m: m.update(generation="1"), "malformed generation",
             True),
            (lambda m: m.pop("routing_epoch"), "malformed routing_epoch",
             True),
            (version_1, "reads version 2 only -- rebuild", True),
            (lambda m: m["meta"].update(value_links=[1]),
             "does not reconstruct", False),
        ]
        target = tmp_path / "damaged.shards"
        sharded.save(str(target))
        manifest_path = target / "manifest.json"
        pristine = manifest_path.read_text()
        for damage, message, shape_error in cases:
            manifest = json.loads(pristine)
            damage(manifest)
            manifest_path.write_text(json.dumps(manifest))
            with pytest.raises(SnapshotError, match=message):
                ShardedSeda.load(str(target))
            if shape_error:
                with pytest.raises(SnapshotError, match=message):
                    skew_report(str(target))
                report = fsck_report(str(target))
                assert not report["ok"], message
                assert any(message in problem
                           for problem in report["problems"])

    def test_foreign_manifest_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            '{"format": "something-else", "version": 1}'
        )
        with pytest.raises(SnapshotError, match="not a "):
            ShardedSeda.load(str(tmp_path))

    def test_custom_partitioner_roundtrip(self, tmp_path):
        def by_length(doc_name, index, shards):
            return len(doc_name) % shards

        system = ShardedSeda.from_documents(
            DOCS, shards=2, parallel=False, partitioner=by_length
        )
        target = tmp_path / "custom.shards"
        system.save(str(target))
        assert skew_report(str(target))["meta"][
            "partitioner"
        ] == "custom"
        restored = ShardedSeda.load(str(target))
        # Search works without the routing function...
        assert restored.search(QUERIES[0], k=3) == system.search(
            QUERIES[0], k=3
        )
        # ...but ingestion needs it back explicitly.
        with pytest.raises(ValueError, match="custom"):
            restored.add_documents([("kilo", "<r><a>red</a></r>")])
        rerouted = ShardedSeda.load(str(target), partitioner=by_length)
        rerouted.add_documents([("kilo", "<r><a>red</a></r>")])
        assert rerouted.document_count == len(DOCS) + 1

    def test_round_robin_ingest_after_load_matches_single_process(
        self, tmp_path
    ):
        # Regression: round-robin routes by *global index*, so a
        # restored system must keep counting from the persisted corpus
        # size -- ingest-after-load has to land every document on the
        # same shard as one uninterrupted build.
        extra = [
            ("kilo", "<r><a>red green</a></r>"),
            ("lima", "<r><b>blue</b><c>red</c></r>"),
            ("mike", "<r><c>green green</c></r>"),
        ]
        target = tmp_path / "rr.shards"
        ShardedSeda.from_documents(
            DOCS, shards=3, parallel=False, partitioner="round-robin"
        ).save(str(target))
        restored = ShardedSeda.load(str(target))
        restored.add_documents(extra)

        oneshot = ShardedSeda.from_documents(
            DOCS + extra, shards=3, parallel=False,
            partitioner="round-robin",
        )
        assert (
            [row[1] for row in restored._docs]
            == [row[1] for row in oneshot._docs]
        )
        baseline = Seda.from_documents(DOCS + extra)
        for pairs in QUERIES:
            assert restored.search(pairs, k=10) == (
                baseline.topk.search(Query.parse(pairs), k=10)
            )


class TestShardedService:
    def test_batch_matches_single_queries(self, sharded):
        service = QueryService(sharded, workers=3, cache_size=32)
        batch, stats = service.execute_batch(
            QUERIES + QUERIES[:2], k=10
        )
        for pairs, answer in zip(QUERIES + QUERIES[:2], batch):
            assert _canon(answer) == _canon(sharded.search(pairs, k=10))
        # The repeated queries are reported as in-batch cache hits.
        assert stats.cache_hits >= 2
        assert stats.queries == len(QUERIES) + 2

    def test_per_shard_stats_aggregate(self, sharded):
        service = QueryService(sharded, workers=2, cache_size=32)
        _results, stats = service.execute_batch(QUERIES, k=10)
        totals = stats.shard_totals
        assert set(totals) <= {0, 1, 2}
        assert stats.tuples_scored == sum(
            entry["tuples_scored"] for entry in totals.values()
        )
        assert stats.shard_summary().count("shard ") == len(totals)
        computed = [s for s in stats.per_query if not s.cache_hit]
        assert all(len(s.per_shard) == 3 for s in computed)
        record = computed[0].as_dict()
        assert "per_shard" in record and "sorted_accesses" in record

    def test_cache_hits_and_invalidation(self, sharded):
        service = sharded.query_service(workers=2)
        assert sharded.query_service() is service
        first, stats_a = service.execute(QUERIES[0], k=10)
        again, stats_b = service.execute(QUERIES[0], k=10)
        assert not stats_a.cache_hit and stats_b.cache_hit
        assert _canon(first) == _canon(again)
        service.invalidate()
        _third, stats_c = service.execute(QUERIES[0], k=10)
        assert not stats_c.cache_hit

    def test_mutation_expires_cached_results(self):
        system = ShardedSeda.from_documents(DOCS, shards=2, parallel=False)
        plain = Seda.from_documents(DOCS)
        service = system.query_service(workers=2)
        before, _ = service.execute(QUERIES[0], k=10)
        new = [("lima", "<r><a>red blue</a><b>blue</b></r>")]
        system.add_documents(new)
        plain.add_documents(new)
        after, stats = service.execute(QUERIES[0], k=10)
        assert not stats.cache_hit  # version key changed on every shard
        assert _canon(after) == _canon(
            plain.topk.search(Query.parse(QUERIES[0]), k=10)
        )

    def test_search_many_facade(self, sharded):
        batches = sharded.search_many(QUERIES, k=5, workers=2)
        for pairs, answer in zip(QUERIES, batches):
            assert _canon(answer) == _canon(sharded.search(pairs, k=5))

    def test_shard_failure_propagates(self):
        """The scatter is fail-fast: a shard's exception reaches the
        caller as raised, and nothing partial is cached."""
        system = ShardedSeda.from_documents(DOCS, shards=2, parallel=False)
        service = system.query_service(workers=1)

        def wedged():
            raise RuntimeError("shard wedged")

        system.shard(1).new_searcher = wedged
        with pytest.raises(RuntimeError, match="shard wedged"):
            service.execute(QUERIES[0], k=10)
        assert len(service.cache) == 0

    def test_rejects_nonpositive_workers(self, sharded):
        with pytest.raises(ValueError):
            QueryService(sharded, workers=0)


class TestParallelBuild:
    def test_parallel_build_is_lazy_and_identical(self):
        serial = ShardedSeda.from_documents(DOCS, shards=2, parallel=False)
        parallel = ShardedSeda.from_documents(
            DOCS, shards=2, parallel=True, max_workers=2
        )
        assert all(not slot.loaded for slot in parallel._slots)
        def topology(system):
            return [
                (entry["shard"], entry["documents"], entry["nodes"])
                for entry in system.info()["per_shard"]
            ]
        assert topology(parallel) == topology(serial)
        for pairs in QUERIES:
            assert _canon(parallel.search(pairs, k=10)) == _canon(
                serial.search(pairs, k=10)
            )

    def test_empty_shards_are_harmless(self):
        system = ShardedSeda.from_documents(
            DOCS[:2], shards=6, parallel=False, partitioner="round-robin"
        )
        plain = Seda.from_documents(DOCS[:2])
        for pairs in QUERIES:
            assert _canon(system.search(pairs, k=10)) == _canon(
                plain.topk.search(Query.parse(pairs), k=10)
            )

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError, match="shards must be"):
            ShardedSeda.from_documents(DOCS, shards=0)
