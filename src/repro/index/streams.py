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
  a :class:`~repro.service.query_service.QueryService`, and persisted
  through snapshots so a reloaded system serves its hot terms without
  rebuilding anything.

Scores inside a stream are the exact floats
:meth:`~repro.search.scoring.ScoringModel.content_score` produces --
the cache changes *when* scores are computed, never their values, so
answers stay byte-identical to the uncached path.

Snapshot-restored entries stay in their serialized byte-column form
(:func:`~repro.compact.columns.encode_stream`: packed doubles plus
zigzag id deltas, possibly a zero-copy window into the snapshot's
binary sidecar) until a term is first served, mirroring the lazy
materialization of the other indexes.
"""

import threading
from array import array

from repro.compact.columns import decode_stream, encode_stream


class ImpactStream:
    """One term's stream as parallel ``scores`` / ``node_ids`` arrays.

    Columnar storage (C doubles and 64-bit ints via :mod:`array`) keeps
    a cached stream compact and makes sorted access an index into two
    flat arrays.  Instances are immutable by convention: the top-k unit
    only ever reads them, which is what makes cross-worker sharing and
    snapshot persistence safe.
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

    def to_column(self):
        """The stream as one delta-encoded byte column (bit-exact)."""
        return encode_stream(self.scores, self.node_ids)

    @classmethod
    def from_column(cls, data):
        """Decode a :meth:`to_column` blob (bytes or buffer view)."""
        scores, node_ids = decode_stream(data)
        return cls(scores, node_ids)

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
    lock-free dict reads (GIL-atomic); only inserts and cold-entry
    decodes take the lock, and an insert that races a concurrent build
    of the same term keeps the first stream so every worker sees one
    shared instance.

    ``hits``/``misses`` count lookups cumulatively; they feed the
    serving layer's batch statistics.  They are plain counters updated
    without the lock -- under concurrency they are approximate, which
    is fine for reporting and keeps the read path uncontended.
    """

    def __init__(self):
        # term cache key -> (version, ImpactStream | byte column, persist);
        # a restored entry holds its column (bytes or a sidecar
        # [offset, length] marker) until first served.
        self._streams = {}
        self._sidecar = None
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _column_blob(self, entry):
        """Column bytes for a cold entry (markers resolve to zero-copy
        sidecar windows)."""
        if isinstance(entry, (bytes, memoryview)):
            return entry
        offset, length = entry
        return self._sidecar.view(offset, length)

    def _materialized(self, term_key, entry):
        """Decode a cold entry to its stream, exactly once.

        Double-checked under the lock: two workers racing on the same
        restored term must end up sharing one ``ImpactStream``.
        """
        with self._lock:
            current = self._streams.get(term_key)
            stream = current[1]
            if not isinstance(stream, ImpactStream):
                stream = ImpactStream.from_column(self._column_blob(stream))
                self._streams[term_key] = (current[0], stream, current[2])
        return stream

    def get(self, term_key, version):
        """The cached stream for ``term_key`` at ``version``, or None."""
        entry = self._streams.get(term_key)
        if entry is not None and entry[0] == version:
            self.hits += 1
            stream = entry[1]
            if not isinstance(stream, ImpactStream):
                stream = self._materialized(term_key, entry)
            return stream
        self.misses += 1
        return None

    def put(self, term_key, version, stream, persist=True):
        """Cache ``stream``; returns the store's instance (first wins).

        ``persist=False`` keeps the stream in memory but out of
        snapshots -- used for match-all terms, whose streams are just
        every context-matching node at a constant score: cheap to
        rebuild, large to store.
        """
        with self._lock:
            entry = self._streams.get(term_key)
            if entry is not None and entry[0] == version:
                cached = entry[1]
                if isinstance(cached, ImpactStream):
                    return cached
            self._streams[term_key] = (version, stream, persist)
        return stream

    def counters(self):
        """Cumulative hit/miss counters (batch-stats reporting)."""
        return {"stream_hits": self.hits, "stream_misses": self.misses}

    def __len__(self):
        return len(self._streams)

    def estimated_memory(self):
        """Resident-footprint digest (``repro info``, benchmarks)."""
        with self._lock:
            column_bytes = 0
            materialized = 0
            entries = 0
            for _, stream, _ in self._streams.values():
                entries += 1
                if isinstance(stream, ImpactStream):
                    materialized += 1
                    column_bytes += (
                        len(stream.scores) * stream.scores.itemsize
                        + len(stream.node_ids) * stream.node_ids.itemsize
                    )
                else:
                    column_bytes += len(self._column_blob(stream))
            return {
                "streams": entries,
                "materialized_streams": materialized,
                "column_bytes": column_bytes,
            }

    # -- snapshot serialization ---------------------------------------------

    def to_dict(self, version=None):
        """Snapshot form; ``version`` keeps only that graph version.

        Persisting only current-version, persistable entries keeps
        snapshot files lean -- stale streams could never be served
        again, and non-persist (match-all) streams rebuild cheaply.
        Records are sorted by term key so output is deterministic.
        The entry table is copied under the lock: a concurrent worker's
        ``put`` must not mutate the dict mid-iteration.

        Each record names its stream's byte column in
        ``columns_inline`` (still-cold entries pass their bytes through
        undecoded); the snapshot writer moves the blobs into the binary
        sidecar.
        """
        with self._lock:
            entries = sorted(self._streams.items())
        records = []
        columns = {}
        for key, (entry_version, stream, persist) in entries:
            if not persist:
                continue
            if version is not None and entry_version != version:
                continue
            name = f"s{len(records)}"
            if isinstance(stream, ImpactStream):
                columns[name] = stream.to_column()
            else:
                columns[name] = bytes(self._column_blob(stream))
            records.append({
                "term": list(key),
                "version": entry_version,
                "column": name,
            })
        return {"streams": records, "columns_inline": columns}

    @classmethod
    def from_dict(cls, payload, sidecar=None):
        """Rebuild a store from :meth:`to_dict`.

        Byte columns round-trip doubles bit-exactly, so restored
        streams serve the same bytes the saving system computed.
        Records stay cold until first served.
        """
        store = cls()
        columns = payload.get("columns_inline")
        if columns is None:
            columns = payload["columns"]
            store._sidecar = sidecar
        for record in payload["streams"]:
            store._streams[tuple(record["term"])] = (
                record["version"],
                columns[record["column"]],
                True,
            )
        return store

    def __repr__(self):
        return (
            f"ImpactStreamStore({len(self._streams)} streams, "
            f"{self.hits} hits, {self.misses} misses)"
        )
