"""The retained, thread-safe statistics registry and slow-query log.

One :class:`StatsRegistry` outlives individual queries: the serving
facade (:class:`~repro.service.query_service.QueryService`, over a
single-file or a sharded system) records every served query's
:class:`~repro.service.stats.QueryStats` under its normalized
fingerprint, and an operator later reads per-fingerprint execution
counts, cache-hit/prune/early-stop rates, latency percentiles, and
per-shard skew -- ``repro stats --queries/--json`` renders exactly
this object.

Two retained structures:

* ``fingerprints`` -- fingerprint -> :class:`FingerprintStats`
  (counters plus a :class:`~repro.obs.histogram.LatencyHistogram`),
  at most :data:`MAX_FINGERPRINTS` of them: recording a new
  fingerprint past the cap evicts the least recently recorded one and
  counts it in ``fingerprints_evicted``, so a stream of distinct
  queries retains constant memory.
* the **slow-query log** -- a bounded ring buffer
  (``collections.deque(maxlen=...)``) of the full stats records of
  queries at or above ``slow_threshold`` seconds; old entries fall
  off, so a long-running service retains the recent offenders at
  constant memory.

All mutation and snapshotting happens under one lock -- recording is a
handful of integer adds, so the lock is never contended long enough to
matter next to a search.  ``to_dict``/``from_dict`` round-trip the
whole registry through JSON; :meth:`Seda.snapshot_payload` embeds it
as the optional ``obs`` snapshot record and sharded directories carry
it as ``obs.json``, so a reloaded service keeps its history.
"""

import collections
import threading

from repro.obs.histogram import LatencyHistogram

#: Per-shard counters folded from ``QueryStats.per_shard``.
_SHARD_COUNTERS = ("sorted_accesses", "tuples_scored", "pruned")

#: Most fingerprints a registry retains; the least recently recorded
#: one is evicted past it.
MAX_FINGERPRINTS = 1024


class FingerprintStats:
    """Retained counters for one query fingerprint."""

    __slots__ = (
        "fingerprint",
        "count",
        "cache_hits",
        "early_stops",
        "sorted_accesses",
        "tuples_scored",
        "pruned",
        "histogram",
        "per_shard",
    )

    def __init__(self, fingerprint):
        self.fingerprint = fingerprint
        self.count = 0
        self.cache_hits = 0
        self.early_stops = 0
        self.sorted_accesses = 0
        self.tuples_scored = 0
        self.pruned = 0
        self.histogram = LatencyHistogram()
        #: shard index (as str, for a JSON-stable round trip) ->
        #: counter dict; only scatter-gather queries populate this.
        self.per_shard = {}

    def record(self, stats):
        """Fold one served query's :class:`QueryStats` in."""
        self.count += 1
        self.cache_hits += 1 if stats.cache_hit else 0
        self.early_stops += 1 if stats.early_stop else 0
        self.sorted_accesses += stats.sorted_accesses
        self.tuples_scored += stats.tuples_scored
        self.pruned += stats.pruned
        self.histogram.observe(stats.latency)
        for entry in stats.per_shard:
            shard = self.per_shard.setdefault(
                str(entry["shard"]),
                {name: 0 for name in _SHARD_COUNTERS} | {"early_stops": 0},
            )
            for name in _SHARD_COUNTERS:
                shard[name] += entry[name]
            shard["early_stops"] += 1 if entry.get("early_stop") else 0

    # -- derived rates --------------------------------------------------------

    @property
    def cache_hit_rate(self):
        return self.cache_hits / self.count if self.count else 0.0

    @property
    def early_stop_rate(self):
        return self.early_stops / self.count if self.count else 0.0

    @property
    def prune_rate(self):
        """Pruned combos over all combos considered (scored + pruned)."""
        considered = self.tuples_scored + self.pruned
        return self.pruned / considered if considered else 0.0

    def as_dict(self):
        """JSON-clean metrics row (counters plus derived rates)."""
        return {
            "count": self.count,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "early_stops": self.early_stops,
            "early_stop_rate": self.early_stop_rate,
            "sorted_accesses": self.sorted_accesses,
            "tuples_scored": self.tuples_scored,
            "pruned": self.pruned,
            "prune_rate": self.prune_rate,
            "p50": self.histogram.p50,
            "p95": self.histogram.p95,
            "p99": self.histogram.p99,
            "per_shard": {
                shard: dict(counters)
                for shard, counters in self.per_shard.items()
            },
        }

    # -- persistence ----------------------------------------------------------

    def to_dict(self):
        return {
            "count": self.count,
            "cache_hits": self.cache_hits,
            "early_stops": self.early_stops,
            "sorted_accesses": self.sorted_accesses,
            "tuples_scored": self.tuples_scored,
            "pruned": self.pruned,
            "histogram": self.histogram.to_dict(),
            "per_shard": {
                shard: dict(counters)
                for shard, counters in self.per_shard.items()
            },
        }

    @classmethod
    def from_dict(cls, fingerprint, payload):
        stats = cls(fingerprint)
        stats.count = int(payload["count"])
        stats.cache_hits = int(payload["cache_hits"])
        stats.early_stops = int(payload["early_stops"])
        stats.sorted_accesses = int(payload["sorted_accesses"])
        stats.tuples_scored = int(payload["tuples_scored"])
        stats.pruned = int(payload["pruned"])
        stats.histogram = LatencyHistogram.from_dict(payload["histogram"])
        stats.per_shard = {
            str(shard): {name: int(value) for name, value in counters.items()}
            for shard, counters in payload.get("per_shard", {}).items()
        }
        return stats

    def __repr__(self):
        return (
            f"FingerprintStats({self.fingerprint!r}, count={self.count}, "
            f"hit_rate={self.cache_hit_rate:.0%})"
        )


class StatsRegistry:
    """Thread-safe retained statistics keyed on query fingerprints."""

    def __init__(self, slow_threshold=0.1, slow_log_size=128):
        if slow_log_size < 1:
            raise ValueError("slow_log_size must be >= 1")
        if slow_threshold < 0:
            raise ValueError("slow_threshold must be >= 0 seconds")
        self.slow_threshold = float(slow_threshold)
        self._lock = threading.Lock()
        # Least recently recorded first.
        self._fingerprints = collections.OrderedDict()
        self._slow = collections.deque(maxlen=int(slow_log_size))
        self.total_queries = 0
        self.fingerprints_evicted = 0

    @property
    def slow_log_size(self):
        return self._slow.maxlen

    def record(self, fingerprint, stats):
        """Record one served query under its fingerprint.

        ``stats`` is a :class:`~repro.service.stats.QueryStats`; a
        scatter-gather query's ``per_shard`` breakdown feeds the skew
        counters.  Queries at or above the slow threshold additionally
        enter the slow-query ring buffer with their full record.
        """
        with self._lock:
            self.total_queries += 1
            entry = self._fingerprints.get(fingerprint)
            if entry is None:
                entry = FingerprintStats(fingerprint)
                self._fingerprints[fingerprint] = entry
                self._evict_past_cap()
            else:
                self._fingerprints.move_to_end(fingerprint)
            entry.record(stats)
            if stats.latency >= self.slow_threshold:
                self._slow.append(self._slow_entry(fingerprint, stats))

    def _evict_past_cap(self):
        """Drop the least recently recorded fingerprints past the cap."""
        while len(self._fingerprints) > MAX_FINGERPRINTS:
            self._fingerprints.popitem(last=False)
            self.fingerprints_evicted += 1

    @staticmethod
    def _slow_entry(fingerprint, stats):
        """The full (JSON-clean) record of one slow query."""
        entry = {
            "fingerprint": fingerprint,
            "k": stats.k,
            "latency": stats.latency,
            "cache_hit": bool(stats.cache_hit),
            "sorted_accesses": stats.sorted_accesses,
            "tuples_scored": stats.tuples_scored,
            "pruned": stats.pruned,
            "early_stop": bool(stats.early_stop),
        }
        if stats.per_shard:
            entry["per_shard"] = [dict(shard) for shard in stats.per_shard]
        return entry

    # -- reading --------------------------------------------------------------

    def fingerprint_stats(self):
        """Snapshot: fingerprint -> :class:`FingerprintStats` (live
        objects; treat them as read-only)."""
        with self._lock:
            return dict(self._fingerprints)

    def slow_queries(self):
        """Slow-log snapshot, oldest first (most recent last)."""
        with self._lock:
            return [dict(entry) for entry in self._slow]

    def per_shard_traffic(self):
        """Query traffic summed per shard across all fingerprints.

        Returns ``{shard_index: {"sorted_accesses": n, "tuples_scored":
        n, "pruned": n, "early_stops": n}}`` -- the per-shard work
        counters the skew report (``repro snapshot info DIR``) reads to
        tell a hot shard from a merely large one.  Shards that served
        no recorded query are absent.
        """
        totals = {}
        with self._lock:
            for entry in self._fingerprints.values():
                for shard, counters in entry.per_shard.items():
                    bucket = totals.setdefault(
                        int(shard),
                        {name: 0 for name in _SHARD_COUNTERS}
                        | {"early_stops": 0},
                    )
                    for name, value in counters.items():
                        bucket[name] = bucket.get(name, 0) + value
        return totals

    def metrics(self):
        """The full JSON-clean metrics dump (``repro stats --json``)."""
        with self._lock:
            return {
                "total_queries": self.total_queries,
                "fingerprints_evicted": self.fingerprints_evicted,
                "slow_threshold": self.slow_threshold,
                "fingerprints": {
                    fingerprint: entry.as_dict()
                    for fingerprint, entry in sorted(
                        self._fingerprints.items()
                    )
                },
                "slow_queries": [dict(entry) for entry in self._slow],
            }

    def render_table(self):
        """The human-readable stats table (``repro stats --queries``)."""
        metrics = self.metrics()
        lines = [
            f"query statistics: {metrics['total_queries']} served, "
            f"{len(metrics['fingerprints'])} fingerprints "
            f"(slow threshold {metrics['slow_threshold'] * 1000:.1f}ms)"
        ]
        if metrics["fingerprints"]:
            lines.append(
                "  count   hits    p50ms    p95ms    p99ms  prune%  "
                "early%  fingerprint"
            )
            rows = sorted(
                metrics["fingerprints"].items(),
                key=lambda item: (-item[1]["count"], item[0]),
            )
            for fingerprint, row in rows:
                lines.append(
                    f"  {row['count']:5d}  {row['cache_hits']:5d}  "
                    f"{row['p50'] * 1000:7.2f}  {row['p95'] * 1000:7.2f}  "
                    f"{row['p99'] * 1000:7.2f}  {row['prune_rate']:5.0%}  "
                    f"{row['early_stop_rate']:5.0%}  {fingerprint}"
                )
            for fingerprint, row in rows:
                if row["per_shard"]:
                    lines.append(f"  per-shard skew for {fingerprint}:")
                    for shard in sorted(row["per_shard"], key=int):
                        counters = row["per_shard"][shard]
                        lines.append(
                            f"    shard {shard}: "
                            f"{counters['sorted_accesses']} sorted accesses, "
                            f"{counters['tuples_scored']} tuples scored, "
                            f"{counters['pruned']} pruned, "
                            f"{counters['early_stops']} early stops"
                        )
        slow = metrics["slow_queries"]
        if slow:
            lines.append(
                f"slow queries (most recent last, {len(slow)} retained):"
            )
            for entry in slow:
                source = "cache" if entry["cache_hit"] else "computed"
                lines.append(
                    f"  {entry['latency'] * 1000:9.2f}ms  "
                    f"k={entry['k']}  [{source}]  {entry['fingerprint']}"
                )
        else:
            lines.append("slow queries: none recorded")
        return "\n".join(lines)

    # -- maintenance ----------------------------------------------------------

    def clear(self):
        """Drop all retained statistics (threshold/capacity kept)."""
        with self._lock:
            self._fingerprints.clear()
            self._slow.clear()
            self.total_queries = 0
            self.fingerprints_evicted = 0

    # -- persistence ----------------------------------------------------------

    def to_dict(self):
        """JSON-clean serialized form (the ``obs`` snapshot record).

        Fingerprints are kept least recently recorded first, so a
        restored registry evicts in the same order.
        """
        with self._lock:
            return {
                "slow_threshold": self.slow_threshold,
                "slow_log_size": self._slow.maxlen,
                "total_queries": self.total_queries,
                "fingerprints_evicted": self.fingerprints_evicted,
                "fingerprints": {
                    fingerprint: entry.to_dict()
                    for fingerprint, entry in self._fingerprints.items()
                },
                "slow_queries": [dict(entry) for entry in self._slow],
            }

    @classmethod
    def from_dict(cls, payload):
        registry = cls(
            slow_threshold=payload.get("slow_threshold", 0.1),
            slow_log_size=payload.get("slow_log_size", 128),
        )
        registry.total_queries = int(payload.get("total_queries", 0))
        registry.fingerprints_evicted = int(
            payload.get("fingerprints_evicted", 0)
        )
        for fingerprint, record in payload.get("fingerprints", {}).items():
            registry._fingerprints[fingerprint] = FingerprintStats.from_dict(
                fingerprint, record
            )
        registry._evict_past_cap()
        for entry in payload.get("slow_queries", ()):
            registry._slow.append(dict(entry))
        return registry

    def __repr__(self):
        return (
            f"StatsRegistry(queries={self.total_queries}, "
            f"fingerprints={len(self._fingerprints)}, "
            f"slow={len(self._slow)}/{self._slow.maxlen})"
        )
