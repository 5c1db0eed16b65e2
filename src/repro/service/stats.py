"""Per-query and aggregate serving statistics.

The paper's Section 8 tracks *user* effort per exploration; the query
service tracks *system* effort per served query: wall-clock latency,
whether the result came from the cache, and the top-k unit's own
counters (sorted accesses, tuples scored, early termination).  Batch
execution aggregates these into throughput and hit-rate numbers; the
system benchmark (``bench/``) reports the serving-side series as
``service.cache_hit_ratio``, ``service.execute_hit_ms`` and
``service.execute_miss_ms``.

A scatter-gather query runs one top-k search *per shard*, so
:class:`QueryStats` keeps the per-shard breakdown beside the totals and
:class:`BatchStats` aggregates that breakdown across a batch -- the
numbers an operator reads to spot a hot or skewed shard (see
``docs/OPERATIONS.md``).  A single-file system has no shards: its
breakdowns are simply empty.
"""

#: Counter names aggregated per shard across a batch.
_SHARD_COUNTERS = ("sorted_accesses", "tuples_scored", "pruned")


class QueryStats:
    """One served query's record.

    The totals (``sorted_accesses``, ``tuples_scored``, ``pruned``)
    sum over every searcher the query ran; ``per_shard`` holds one dict
    per shard -- ``{"shard", "sorted_accesses", "tuples_scored",
    "pruned", "early_stop"}`` -- in shard order, and is empty for a
    single-file system and for cache hits.
    """

    __slots__ = (
        "cache_key",
        "k",
        "latency",
        "cache_hit",
        "sorted_accesses",
        "tuples_scored",
        "pruned",
        "early_stop",
        "per_shard",
    )

    def __init__(self, cache_key, k, latency, cache_hit,
                 sorted_accesses=0, tuples_scored=0, pruned=0,
                 early_stop=False, per_shard=()):
        self.cache_key = cache_key
        self.k = k
        self.latency = latency
        self.cache_hit = cache_hit
        self.sorted_accesses = sorted_accesses
        self.tuples_scored = tuples_scored
        self.pruned = pruned
        self.early_stop = early_stop
        self.per_shard = tuple(dict(entry) for entry in per_shard)

    @classmethod
    def computed(cls, cache_key, k, latency, searched):
        """The record of a query that ran: ``searched`` is the read
        protocol's per-searcher entry list (one entry naming no shard
        for a single-file system, one per shard otherwise)."""
        return cls(
            cache_key, k, latency, cache_hit=False,
            sorted_accesses=sum(e["sorted_accesses"] for e in searched),
            tuples_scored=sum(e["tuples_scored"] for e in searched),
            pruned=sum(e["pruned"] for e in searched),
            early_stop=all(e["early_stop"] for e in searched),
            per_shard=[e for e in searched if "shard" in e],
        )

    def as_dict(self):
        record = {name: getattr(self, name) for name in self.__slots__}
        record["per_shard"] = [dict(entry) for entry in self.per_shard]
        return record

    def __repr__(self):
        source = "cache" if self.cache_hit else "computed"
        return (
            f"QueryStats({source}, k={self.k}, "
            f"latency={self.latency * 1000:.2f}ms, "
            f"sorted_accesses={self.sorted_accesses})"
        )


class BatchStats:
    """Aggregate record for one :meth:`QueryService.execute_batch` call.

    ``scoring_caches`` carries the scoring pipeline's shared-cache
    activity **during this batch** (deltas of cumulative counters):
    ``stream_hits``/``stream_misses`` for the impact-stream store.

    Every ``per_query`` entry that carries a ``per_shard`` breakdown
    (computed scatter-gather queries do; cache hits and single-file
    queries ran no shard search) is folded into :attr:`shard_totals`.
    """

    def __init__(self, per_query, wall_time, workers, scoring_caches=None):
        self.per_query = list(per_query)
        self.wall_time = wall_time
        self.workers = workers
        self.scoring_caches = dict(scoring_caches or {})
        self._shard_totals = None

    @property
    def queries(self):
        return len(self.per_query)

    @property
    def cache_hits(self):
        return sum(1 for stats in self.per_query if stats.cache_hit)

    @property
    def computed(self):
        return self.queries - self.cache_hits

    @property
    def hit_rate(self):
        return self.cache_hits / self.queries if self.per_query else 0.0

    @property
    def throughput(self):
        """Queries served per second of batch wall-clock time."""
        return self.queries / self.wall_time if self.wall_time > 0 else 0.0

    @property
    def sorted_accesses(self):
        return sum(stats.sorted_accesses for stats in self.per_query)

    @property
    def tuples_scored(self):
        return sum(stats.tuples_scored for stats in self.per_query)

    @property
    def pruned(self):
        """Candidate tuples skipped by the content-score upper bound."""
        return sum(stats.pruned for stats in self.per_query)

    @property
    def stream_hit_rate(self):
        """Impact-stream store hit rate during this batch."""
        hits = self.scoring_caches.get("stream_hits", 0)
        total = hits + self.scoring_caches.get("stream_misses", 0)
        return hits / total if total else 0.0

    def summary(self):
        """One-line human-readable digest (CLI and benchmark output)."""
        return (
            f"{self.queries} queries in {self.wall_time * 1000:.1f}ms "
            f"({self.throughput:.0f} q/s, {self.workers} workers, "
            f"{self.cache_hits} cache hits, "
            f"hit rate {self.hit_rate:.0%}, "
            f"{self.sorted_accesses} sorted accesses, "
            f"{self.pruned} pruned, "
            f"stream cache {self.stream_hit_rate:.0%})"
        )

    @property
    def shard_totals(self):
        """``{shard_index: {counter: total, "early_stops": n}}``.

        Computed once (``per_query`` is fixed at construction) and
        cached for the repeated accesses reporting paths make.
        """
        totals = self._shard_totals
        if totals is None:
            totals = {}
            for stats in self.per_query:
                for entry in stats.per_shard:
                    shard = totals.setdefault(
                        entry["shard"],
                        {name: 0 for name in _SHARD_COUNTERS}
                        | {"early_stops": 0},
                    )
                    for name in _SHARD_COUNTERS:
                        shard[name] += entry[name]
                    shard["early_stops"] += bool(entry.get("early_stop"))
            self._shard_totals = totals
        return totals

    def shard_summary(self):
        """One line per shard: the skew/hot-shard diagnostic."""
        lines = []
        for index, counters in sorted(self.shard_totals.items()):
            lines.append(
                f"shard {index}: {counters['sorted_accesses']} sorted "
                f"accesses, {counters['tuples_scored']} tuples scored, "
                f"{counters['pruned']} pruned, "
                f"{counters['early_stops']} early stops"
            )
        return "\n".join(lines)

    def __repr__(self):
        return f"BatchStats({self.summary()})"
