"""Graceful shard degradation: retries, recovery, timeouts, partial serving.

The default scatter is fail-fast and byte-identical to the unsharded
system; every behaviour here is opt-in through
:meth:`ShardedSeda.configure_degradation`.
"""

import time

import pytest

from repro.query.term import Query
from repro.shard import ShardedSeda
from repro.shard.sharded import ShardSearchTimeout
from repro.system import Seda

DOCS = [
    ("alpha", "<r><a>red blue</a><b>green</b></r>"),
    ("bravo", "<r><a>blue</a><c>red red</c></r>"),
    ("charlie", "<r><b>green green</b><a>red</a></r>"),
    ("delta", "<r><a>red green</a><b>blue blue</b></r>"),
]
BATCH = [("echo", "<r><c>red blue green</c></r>")]
QUERY = [("*", "red")]


def _canon(results):
    return [
        (r.node_ids, r.content_scores, r.compactness, r.score)
        for r in results
    ]


class _BrokenSearcher:
    """Stands in for a shard searcher whose process state is wedged."""

    def __init__(self, error=None):
        self.error = error if error is not None else RuntimeError(
            "shard wedged"
        )

    def search(self, query, k=10, shared_bound=None):
        raise self.error


class _StallingSearcher:
    """A searcher that never comes back within any sane timeout."""

    def search(self, query, k=10, shared_bound=None):
        time.sleep(5)
        return []


def _inject(system, stand_ins):
    """Hand the scatter a faulty searcher, once per listed shard.

    ``stand_ins`` maps a shard index to the object the *next*
    :meth:`ShardedSeda._new_searcher` call for that shard returns;
    every later call builds a real searcher again -- exactly a fault
    that a retry on a fresh searcher (or the next query) gets past.
    """
    build = system._new_searcher
    pending = dict(stand_ins)

    def new_searcher(index):
        if index in pending:
            return pending.pop(index)
        return build(index)

    system._new_searcher = new_searcher


@pytest.fixture
def saved(tmp_path):
    directory = str(tmp_path / "col.shards")
    ShardedSeda.from_documents(DOCS, shards=2, parallel=False).save(
        directory
    )
    return directory


class TestFailFastDefault:
    def test_shard_failure_propagates_without_a_policy(self, saved):
        system = ShardedSeda.load(saved)
        _inject(system, {0: _BrokenSearcher()})
        with pytest.raises(RuntimeError, match="shard wedged"):
            system.search(QUERY, k=10)


class TestRetryAndRecovery:
    def test_retry_recovers_crashed_shard(self, saved):
        system = ShardedSeda.load(saved)
        expected = _canon(system.search(QUERY, k=10))
        _inject(system, {0: _BrokenSearcher()})
        system.configure_degradation(retries=1, backoff=0)
        assert _canon(system.search(QUERY, k=10)) == expected
        assert system.recovery_epoch == 1
        assert system.last_search_stats["failed_shards"] == []

    def test_recovery_replays_live_wal_batches(self, saved):
        """A recovered shard must include batches acknowledged since the
        last save: they live only in the write-ahead log."""
        system = ShardedSeda.load(saved)
        system.add_documents(BATCH)
        expected = _canon(system.search(QUERY, k=10))
        _inject(system, {0: _BrokenSearcher(), 1: _BrokenSearcher()})
        system.configure_degradation(retries=1, backoff=0)
        assert _canon(system.search(QUERY, k=10)) == expected
        assert system.recovery_epoch == 2

    def test_recovery_after_saving_elsewhere(self, tmp_path):
        """``save(backup)`` makes the backup home: recovery restores the
        shards from the files that save just wrote, which hold the
        batch acknowledged before it (the previous home's files do
        not)."""
        documents = DOCS + [
            ("foxtrot", "<r><b>blue</b><a>green red</a></r>"),
            ("golf", "<r><a>red red</a><c>blue</c></r>"),
            ("hotel", "<r><c>green</c><b>red blue</b></r>"),
            ("india", "<r><a>blue green</a></r>"),
        ]
        batch = [
            ("juliet", "<r><a>red</a><b>green blue</b></r>"),
            ("kilo", "<r><c>red green</c></r>"),
        ]
        home = str(tmp_path / "home.shards")
        ShardedSeda.from_documents(documents, shards=2,
                                   parallel=False).save(home)
        system = ShardedSeda.load(home, lazy=False)
        system.add_documents(batch)
        system.save(str(tmp_path / "backup.shards"))
        _inject(system, {0: _BrokenSearcher(), 1: _BrokenSearcher()})
        system.configure_degradation(retries=1, backoff=0)
        offline = Seda.from_documents(documents + batch)
        assert _canon(system.search(QUERY, k=10)) == _canon(
            offline.topk.search(Query.parse(QUERY), k=10)
        )
        assert system.recovery_epoch == 2
        assert sum(len(shard.collection.documents)
                   for shard in system.shards) == len(documents + batch)

    def test_disabling_restores_fail_fast(self, saved):
        system = ShardedSeda.load(saved)
        system.configure_degradation(retries=1, backoff=0)
        assert system.configure_degradation(enabled=False) is None
        _inject(system, {0: _BrokenSearcher()})
        with pytest.raises(RuntimeError, match="shard wedged"):
            system.search(QUERY, k=10)


class TestPartialServing:
    def test_partial_results_flag_failed_shards(self, saved):
        system = ShardedSeda.load(saved)
        full = _canon(system.search(QUERY, k=10))
        _inject(system, {0: _BrokenSearcher()})
        system.configure_degradation(
            retries=0, backoff=0, recover=False, allow_partial=True
        )
        partial = _canon(system.search(QUERY, k=10))
        failed = system.last_search_stats["failed_shards"]
        assert [entry["shard"] for entry in failed] == [0]
        assert "shard wedged" in failed[0]["error"]
        # The healthy shard's answers survive, nothing is invented.
        assert set(partial) <= set(full)
        assert partial != full
        # A healed shard serves complete answers again.
        assert _canon(system.search(QUERY, k=10)) == full
        assert system.last_search_stats["failed_shards"] == []

    def test_partial_answers_are_never_cached(self, saved):
        system = ShardedSeda.load(saved)
        system.configure_degradation(
            retries=0, backoff=0, recover=False, allow_partial=True
        )
        service = system.query_service(workers=1)
        full, _stats = service.execute(QUERY, k=10)
        _inject(system, {0: _BrokenSearcher()})
        service.cache.invalidate()
        partial, stats = service.execute(QUERY, k=10)
        assert [entry["shard"] for entry in stats.failed_shards] == [0]
        assert stats.partial
        assert _canon(partial) != _canon(full)
        # The shard is healthy again: the same query must be
        # recomputed, not served from a cache poisoned with the
        # partial merge.
        healed, stats = service.execute(QUERY, k=10)
        assert not stats.cache_hit
        assert _canon(healed) == _canon(full)
        assert not stats.failed_shards
        # ... and a complete answer *is* cached as usual.
        again, stats = service.execute(QUERY, k=10)
        assert stats.cache_hit
        assert _canon(again) == _canon(full)


class TestTimeouts:
    def test_stalled_shard_times_out(self, saved):
        system = ShardedSeda.load(saved)
        _inject(system, {0: _StallingSearcher()})
        system.configure_degradation(
            retries=0, backoff=0, timeout=0.05, recover=False
        )
        with pytest.raises(ShardSearchTimeout, match="0.05"):
            system.search(QUERY, k=10)

    def test_timeout_retries_on_a_fresh_searcher(self, saved):
        system = ShardedSeda.load(saved)
        expected = _canon(system.search(QUERY, k=10))
        _inject(system, {0: _StallingSearcher()})
        system.configure_degradation(
            retries=1, backoff=0, timeout=0.2, recover=False
        )
        assert _canon(system.search(QUERY, k=10)) == expected
        # A timeout is a slow shard, not a broken one: no recovery ran.
        assert system.recovery_epoch == 0
