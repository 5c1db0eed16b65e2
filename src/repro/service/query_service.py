"""Query execution with result caching: the one read path.

The ROADMAP's north star is a serving layer, not a single-user
prototype: many queries in flight, repeated hot queries answered from
memory, and no per-request rebuilding of read structures.  This module
is that layer, as one facade over a built system -- a single-file
:class:`~repro.system.Seda` or a sharded
:class:`~repro.shard.ShardedSeda` alike.

The read protocol
-----------------

The service never looks inside the system it serves.  It calls:

* ``system.generation()`` -- a hashable token naming the index
  generation answers are computed against: ``graph.version`` for a
  single-file system; ``(per-shard graph versions, routing epoch)``
  for a sharded one, so a mutation anywhere or a split/merge/rebalance
  expires every cached answer.
* ``system.run_query(query, k)`` -- run one parsed query on freshly
  built searchers; returns ``(results, searched)`` with one counter
  entry per searcher run.  A sharded system scatters across its shards
  under one :class:`~repro.search.topk.SharedBound` and merges; a
  single-file system is the one-entry case with no bound and no merge.
  A failing searcher's exception propagates: an answer is complete or
  it is not served.

plus ``system.cache_counters()`` for batch reporting only.

Threading model
---------------

* A :class:`~repro.search.topk.TopKSearcher` carries only its
  per-query ``stats``, so every ``run_query`` call builds its own and
  nothing is pooled, warmed, or repaired after a topology change.
* Every structure searches share is version-keyed and owned by the
  system: the graph-derived link structure (per-document edge index
  and document reachability) on the scoring model, index-derived ones
  in the impact-stream store.  Each is built at most once per graph
  version and read concurrently.  Pair distances are memoized per
  search only, so a read retains nothing it computed.
* ``workers`` bounds how many searches execute at once inside one
  service; a batch runs its unique queries one after another (under
  the GIL a thread pool never beat the plain loop -- see
  ``docs/OPERATIONS.md``).
* Results are cached in a thread-safe LRU keyed on ``(normalized
  query, k, generation)``.  Mutations bump the generation and
  invalidate the cache, so mutation and serving never mix stale
  answers in.  Mutations themselves must be externally serialized with
  query execution (the usual single-writer / many-readers discipline).

Determinism: identical batches produce byte-identical results for any
worker count.  Duplicate queries within a batch are computed exactly
once (the others are served from the shared computation), and the top-k
unit breaks score ties deterministically, so neither scheduling nor
arrival order leaks into answers.
"""

import threading
import time

from repro.obs.fingerprint import query_fingerprint
from repro.query.term import Query
from repro.service.cache import ResultCache
from repro.service.stats import BatchStats, QueryStats


class QueryService:
    """Caching query execution over one SEDA system, sharded or not."""

    def __init__(self, system, workers=4, cache_size=256, registry=None):
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.system = system
        self.workers = workers
        self.cache = ResultCache(cache_size)
        #: Optional retained :class:`~repro.obs.registry.StatsRegistry`.
        #: ``None`` (the default) keeps serving at zero observability
        #: overhead; attach one (``enable_observability()``) and every
        #: served query -- computed, cached, or batch-duplicate -- is
        #: recorded under its normalized fingerprint.
        self.registry = registry
        self._search_slots = threading.BoundedSemaphore(workers)

    @classmethod
    def keep_or_replace(cls, current, system, workers, cache_size):
        """The lazy contract behind ``system.query_service(...)``.

        Repeated calls with ``None`` (or matching) configuration return
        ``current`` unchanged -- its warm cache survives; an
        *explicitly* different configuration builds a replacement with
        the defaults (4 workers, 256 cache entries) filled in.  Either
        way the service records into the system's retained registry.
        """
        if current is None or not (
            (workers is None or current.workers == workers)
            and (cache_size is None
                 or current.cache.max_entries == cache_size)
        ):
            current = cls(
                system,
                workers=4 if workers is None else workers,
                cache_size=256 if cache_size is None else cache_size,
            )
        current.registry = system.obs
        return current

    # -- single queries -------------------------------------------------------

    def execute(self, query, k=10):
        """Serve one query; returns ``(results, QueryStats)``.

        ``query`` is a :class:`Query` or a list of ``(context, search)``
        pairs.  Results come from the LRU cache when the same normalized
        query was served at the current generation; otherwise the
        system runs it and the answer is cached.
        """
        query = self._as_query(query)
        key = (query.cache_key(), k, self.system.generation())
        start = time.perf_counter()
        cached = self.cache.get(key)
        if cached is not None:
            results = cached
            stats = QueryStats(
                key, k, time.perf_counter() - start, cache_hit=True
            )
        else:
            with self._search_slots:
                results, searched = self.system.run_query(query, k)
            stats = QueryStats.computed(key, k, 0.0, searched)
            results = self.cache.put(key, results)
            stats.latency = time.perf_counter() - start
        if self.registry is not None:
            self.registry.record(query_fingerprint(query, k), stats)
        return list(results), stats

    # -- batches --------------------------------------------------------------

    def execute_batch(self, queries, k=10):
        """Serve a batch; ``(results_per_query, BatchStats)``.

        Results are returned in input order.  Duplicate queries within
        the batch are computed once and fanned out; the extra
        occurrences are reported (and recorded in the registry -- every
        occurrence a client received counts) as cache hits with no
        extra work.
        """
        parsed = [self._as_query(query) for query in queries]
        counters_before = self.system.cache_counters()
        start = time.perf_counter()
        outcomes = {}
        results, per_query = [], []
        for query in parsed:
            key = query.cache_key()
            if key not in outcomes:
                outcomes[key] = self.execute(query, k=k)
                answer, stats = outcomes[key]
            else:
                answer, first = outcomes[key]
                stats = QueryStats(first.cache_key, k, 0.0, cache_hit=True)
                if self.registry is not None:
                    self.registry.record(query_fingerprint(query, k), stats)
            results.append(list(answer))
            per_query.append(stats)
        wall = time.perf_counter() - start
        counters_after = self.system.cache_counters()
        scoring_caches = {
            name: counters_after[name] - counters_before[name]
            for name in counters_after
        }
        return results, BatchStats(
            per_query, wall, self.workers, scoring_caches=scoring_caches
        )

    # -- maintenance ----------------------------------------------------------

    def invalidate(self):
        """Drop all cached results (used after document ingestion)."""
        self.cache.invalidate()

    @staticmethod
    def _as_query(query):
        if isinstance(query, Query):
            return query
        return Query.parse(query)

    def __repr__(self):
        return (
            f"QueryService(workers={self.workers}, cache={self.cache!r})"
        )
