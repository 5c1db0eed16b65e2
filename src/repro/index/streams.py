"""Impact-ordered per-term score streams, precomputed and shared.

The top-k unit is a threshold algorithm over one sorted stream per
query term.  The seed built those streams from scratch on every query:
candidate enumeration, a content score per candidate (which re-analyzed
each node's text), and a sort.  This module moves that work out of the
per-query loop:

* :class:`ImpactStream` is one materialized stream in **columnar** form
  -- parallel ``(scores, node_ids)`` arrays sorted by descending
  content score (ties by ascending node id), exactly the order the TA
  loop's sorted access consumes.  Streams are immutable once built, so
  concurrent workers share instances read-only and a repeated query's
  "stream build" is an array lookup.
* :class:`ImpactStreamStore` caches streams per ``(term, graph
  version)``.  The store is owned by the system (one per
  :class:`~repro.system.Seda`), shared across every worker searcher of
  a :class:`~repro.service.query_service.QueryService`.  It is a cache,
  not an index: snapshots do not carry it, so a restored system builds
  each stream on first use, exactly as after any write.

Scores inside a stream are the exact floats
:meth:`~repro.search.scoring.ScoringModel.content_score` produces --
the cache changes *when* scores are computed, never their values, so
answers stay byte-identical to the uncached path.
"""

import threading
from array import array


class ImpactStream:
    """One term's stream as parallel ``scores`` / ``node_ids`` arrays.

    Columnar storage (C doubles and 64-bit ints via :mod:`array`) keeps
    a cached stream compact and makes sorted access an index into two
    flat arrays.  Instances are immutable by convention: the top-k unit
    only ever reads them, which is what makes cross-worker sharing safe.
    """

    __slots__ = ("scores", "node_ids")

    def __init__(self, scores, node_ids):
        self.scores = array("d", scores)
        self.node_ids = array("q", node_ids)

    @classmethod
    def from_scored(cls, scored):
        """Build from ``(score, node_id)`` pairs, sorting by impact:
        descending score, ascending node id."""
        ordered = sorted(scored, key=lambda pair: (-pair[0], pair[1]))
        return cls(
            (score for score, _ in ordered),
            (node_id for _, node_id in ordered),
        )

    def __len__(self):
        return len(self.node_ids)

    def pairs(self):
        """The stream as ``(score, node_id)`` pairs (tests, debugging)."""
        return list(zip(self.scores, self.node_ids))

    def __repr__(self):
        return f"ImpactStream({len(self)} postings)"


class ImpactStreamStore:
    """Thread-safe cache of impact streams keyed on term and version.

    Keys are :meth:`QueryTerm.cache_key` tuples, so differently spelled
    but equivalent terms share one stream; values carry the graph
    version they were built at, so any graph mutation (new documents,
    new edges) invalidates without explicit bookkeeping.  Lookups are
    lock-free dict reads (GIL-atomic); only inserts take the lock, and
    an insert that races a concurrent build of the same term keeps the
    first stream so every worker sees one shared instance.

    ``hits``/``misses`` count lookups cumulatively; they feed the
    serving layer's batch statistics.  They are plain counters updated
    without the lock -- under concurrency they are approximate, which
    is fine for reporting and keeps the read path uncontended.
    """

    def __init__(self):
        # term cache key -> (version, ImpactStream)
        self._streams = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, term_key, version):
        """The cached stream for ``term_key`` at ``version``, or None."""
        entry = self._streams.get(term_key)
        if entry is not None and entry[0] == version:
            self.hits += 1
            return entry[1]
        self.misses += 1
        return None

    def put(self, term_key, version, stream):
        """Cache ``stream``; returns the store's instance (first wins)."""
        with self._lock:
            entry = self._streams.get(term_key)
            if entry is not None and entry[0] == version:
                return entry[1]
            self._streams[term_key] = (version, stream)
        return stream

    def counters(self):
        """Cumulative hit/miss counters (batch-stats reporting)."""
        return {"stream_hits": self.hits, "stream_misses": self.misses}

    def __len__(self):
        return len(self._streams)

    def estimated_memory(self):
        """Resident-footprint digest (``repro info``, benchmarks)."""
        with self._lock:
            streams = [stream for _version, stream in self._streams.values()]
        return {
            "streams": len(streams),
            "column_bytes": sum(
                len(stream.scores) * stream.scores.itemsize
                + len(stream.node_ids) * stream.node_ids.itemsize
                for stream in streams
            ),
        }

    def __repr__(self):
        return (
            f"ImpactStreamStore({len(self._streams)} streams, "
            f"{self.hits} hits, {self.misses} misses)"
        )
