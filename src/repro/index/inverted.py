"""Node-level inverted index with positional postings.

Besides the postings themselves the index owns the ranking-side
statistics (term frequencies, length norms, idf).  Idf is a *corpus*
statistic -- ``log((N + 1) / (df + 1)) + 1`` over every indexed node --
so a sharded collection, whose documents are split across several
independent indexes, must not let each shard score against its own
``N`` and ``df``: :class:`GlobalTermStats` sums the statistics across
all shard indexes and :meth:`InvertedIndex.use_global_stats` redirects
idf lookups to it, which is what makes per-shard content scores
byte-identical to an unsharded build (see :mod:`repro.shard`).

Storage comes in two layers per term, checked in order:

* ``_postings`` -- materialized (hot, mutable) ``Posting`` lists;
* ``_cols`` -- delta-encoded byte columns
  (:mod:`repro.compact.columns`), either inline ``bytes`` or
  ``[offset, length]`` windows into a snapshot's binary sidecar.

Cold terms cost a few bytes per posting instead of a ~100-byte object
chain; a term decodes lazily on first access.  ``df`` probes on cold
terms read one varint (:func:`~repro.compact.columns.posting_count`)
without decoding.
"""

import bisect
import math
import threading
from array import array

from repro.compact.columns import (
    decode_postings,
    encode_postings,
    posting_count,
)


class GlobalTermStats:
    """Corpus-wide ``df``/``N`` summed across several shard indexes.

    ``indexes`` is either a sequence of :class:`InvertedIndex` or a
    zero-argument callable producing one (the sharded system passes a
    callable so lazily restored shards are only loaded when a statistic
    is first needed).  Idf values are cached per term; any mutation of
    any participating index must call :meth:`invalidate` --
    :meth:`InvertedIndex.add_node` does so automatically for indexes
    wired via :meth:`InvertedIndex.use_global_stats`.
    """

    def __init__(self, indexes):
        self._source = indexes
        self._idf = {}

    def _iter_indexes(self):
        source = self._source
        return source() if callable(source) else source

    def invalidate(self):
        """Drop cached statistics (after any shard index mutation).

        The cache dict is *replaced*, not cleared: mutations are
        externally serialized with query execution (the system-wide
        single-writer discipline), but even a straggling reader that
        raced the flip can then only write its stale value into the
        orphaned dict -- post-invalidation readers always recompute
        into the fresh one.
        """
        self._idf = {}

    @property
    def indexed_nodes(self):
        """Total indexed nodes across all shards (the global ``N``).

        Recomputed per call -- an O(shards) sum, far cheaper than the
        per-term df it accompanies, and never cached so it cannot go
        stale.
        """
        return sum(index.indexed_nodes for index in self._iter_indexes())

    def document_frequency(self, term):
        """Global number of nodes whose direct text contains ``term``."""
        return sum(
            index.document_frequency(term) for index in self._iter_indexes()
        )

    def inverse_document_frequency(self, term):
        """The exact idf an unsharded index over the union computes."""
        cache = self._idf
        idf = cache.get(term)
        if idf is None:
            df = self.document_frequency(term)
            idf = math.log((self.indexed_nodes + 1) / (df + 1)) + 1.0
            cache[term] = idf
        return idf

    def __repr__(self):
        return f"GlobalTermStats({len(self._idf)} cached terms)"


class Posting:
    """One node's occurrence list for one term.

    ``positions`` are token ordinals within the node's analyzed direct
    text, enabling exact phrase matching.
    """

    __slots__ = ("node_id", "positions")

    def __init__(self, node_id, positions):
        self.node_id = node_id
        self.positions = tuple(positions)

    @property
    def term_frequency(self):
        return len(self.positions)

    def __eq__(self, other):
        if not isinstance(other, Posting):
            return NotImplemented
        return self.node_id == other.node_id and self.positions == other.positions

    def __repr__(self):
        return f"Posting(node={self.node_id}, positions={self.positions})"


class InvertedIndex:
    """Term -> Dewey-ordered posting list over data nodes.

    Global node ids are assigned in document order as documents are
    added, so posting lists sorted by node id are automatically in
    global Dewey order -- the order the twig processor consumes.
    """

    def __init__(self, analyzer):
        self.analyzer = analyzer
        self._postings = {}
        # Compact columns: term -> bytes (inline) or [offset, length]
        # into _sidecar.  Decoded per term on first posting access; df
        # probes read the leading count varint only.
        self._cols = {}
        self._sidecar = None
        # Serializes every decode-and-pop step: concurrent query workers
        # racing on the same cold term must not lose its column.
        self._materialize_lock = threading.Lock()
        self._indexed_nodes = 0
        # Ranking-side precomputation, maintained at build time so the
        # query loop never re-analyzes node text:
        #   _node_lengths  node_id -> analyzed token count (the tf-idf
        #                  length norm is its square root).
        #   _length_cols   (sorted id array, count array) -- the
        #                  compacted bulk of the length table; entries
        #                  added after a compact() live in the dict.
        #                  Node ids only grow, so compact() appends.
        #   _tf_maps       term -> {node_id: tf} random-access tables,
        #                  built per term on first use.
        #   _idf_cache     term -> idf, valid until the next add_node
        #                  (the only mutation that changes df or N).
        self._node_lengths = {}
        self._length_cols = (array("q"), array("q"))
        self._tf_maps = {}
        self._idf_cache = {}
        # When set (sharded collections), idf reads corpus-wide df/N
        # from here instead of this index's own counters.
        self._global_stats = None

    # -- construction -------------------------------------------------------

    def add_node(self, node_id, text):
        """Index one node's direct text; no-op for empty text."""
        tokens = self.analyzer.analyze(text)
        if not tokens:
            return
        by_term = {}
        for token in tokens:
            by_term.setdefault(token.text, []).append(token.position)
        for term, positions in by_term.items():
            self._materialized(term).append(Posting(node_id, positions))
            self._tf_maps.pop(term, None)
        self._node_lengths[node_id] = len(tokens)
        self._idf_cache.clear()
        if self._global_stats is not None:
            # df/N changed for the whole sharded corpus, not just here.
            self._global_stats.invalidate()
        self._indexed_nodes += 1

    def compact(self):
        """Fold every posting list into delta-encoded byte columns.

        Called at the end of a build (and re-callable after incremental
        ingestion): posting lists become compact columns, and the
        node-length dict is appended to two parallel arrays (its ids
        are larger than any already there).  Lock-free readers stay
        correct throughout -- each term's column is assigned before its
        hot form is discarded, the same publish-before-pop order
        materialization uses in reverse, and counts are appended before
        the ids that find them.
        """
        with self._materialize_lock:
            for term, plist in list(self._postings.items()):
                self._cols[term] = encode_postings(
                    [(posting.node_id, posting.positions)
                     for posting in plist]
                )
                del self._postings[term]
            lengths = self._node_lengths
            if lengths:
                ids, counts = self._length_cols
                ordered = sorted(lengths)
                counts.extend(lengths[node_id] for node_id in ordered)
                ids.extend(ordered)
                self._node_lengths = {}
        return self

    def _col_blob(self, term):
        """The column bytes for ``term``, or ``None`` (buffer-backed
        entries resolve to a zero-copy sidecar window)."""
        entry = self._cols.get(term)
        if entry is None or isinstance(entry, (bytes, memoryview)):
            return entry
        offset, length = entry
        return self._sidecar.view(offset, length)

    def _materialized(self, term):
        """The mutable posting list for ``term``, creating it if needed.

        Thread-safe via double-checked locking: the fast path is one
        (GIL-atomic) dict read; only the first access per term pays for
        the lock and the decode.  The materialized list is published to
        ``_postings`` *before* the column is popped, so a lock-free
        reader that misses the column table is guaranteed to find the
        term on its final ``_postings`` re-check -- the order two
        racing materializers rely on as well: the second one finds the
        first one's list under the lock and never decodes twice.
        """
        plist = self._postings.get(term)
        if plist is None:
            with self._materialize_lock:
                plist = self._postings.get(term)
                if plist is None:
                    blob = self._col_blob(term)
                    plist = self._postings[term] = [] if blob is None else [
                        Posting(node_id, positions)
                        for node_id, positions in decode_postings(blob)
                    ]
                    self._cols.pop(term, None)
        return plist

    # -- snapshot serialization ---------------------------------------------

    def _node_lengths_payload(self):
        """The parallel ``[ids, counts]`` lists.

        Parallel lists, not a dict: JSON would coerce int keys to
        strings (and orjson rejects them outright).
        """
        ids, counts = self._length_cols
        lengths = self._node_lengths
        ordered = sorted(lengths)
        return [
            list(ids) + ordered,
            list(counts) + [lengths[node_id] for node_id in ordered],
        ]

    def to_dict(self):
        """Snapshot form: byte columns, node counter, node lengths.

        Every term's postings become one delta-encoded byte column
        under ``columns_inline`` (still-cold columns pass through
        undecoded); the snapshot writer moves those bytes into the
        binary sidecar.
        """
        with self._materialize_lock:
            columns = {
                term: encode_postings([
                    (posting.node_id, posting.positions)
                    for posting in plist
                ])
                for term, plist in self._postings.items()
            }
            for term in sorted(self._cols):
                # Pass through: re-anchor the bytes in the new file's
                # sidecar without a decode.
                columns[term] = bytes(self._col_blob(term))
            payload = {
                "indexed_nodes": self._indexed_nodes,
                "columns_inline": columns,
            }
        payload["node_lengths"] = self._node_lengths_payload()
        return payload

    @classmethod
    def from_dict(cls, payload, analyzer, sidecar=None):
        """Rebuild an index from :meth:`to_dict` without re-tokenizing.

        Posting lists stay in their cold serialized form -- inline
        column bytes (``columns_inline``) or sidecar ``[offset,
        length]`` windows (``columns``) -- until a term is first looked
        up (or extended by :meth:`add_node`).
        """
        index = cls(analyzer)
        index._indexed_nodes = payload["indexed_nodes"]
        if "columns_inline" in payload:
            index._cols = dict(payload["columns_inline"])
        else:
            index._cols = dict(payload["columns"])
            index._sidecar = sidecar
        ids, counts = payload["node_lengths"]
        index._length_cols = (array("q", ids), array("q", counts))
        return index

    # -- lookups -----------------------------------------------------------

    def postings(self, term):
        """The posting list for an already-analyzed term (may be empty).

        Lock-free reads check the materialized table, then the column
        table, then the materialized table again: a
        concurrent materializer assigns before popping, so a term that
        misses everywhere (it moved in between) is guaranteed to be
        found by the final re-check inside :meth:`_materialized`.
        """
        plist = self._postings.get(term)
        if plist is not None:
            return plist
        if term in self._cols:
            return self._materialized(term)
        return self._postings.get(term, [])

    def document_frequency(self, term):
        """Number of nodes whose direct text contains ``term``.

        Cold terms answer from the column's leading count varint
        without materializing anything.
        """
        plist = self._postings.get(term)
        if plist is not None:
            return len(plist)
        blob = self._col_blob(term)
        if blob is not None:
            return posting_count(blob)
        # Moved by a concurrent materializer between the lookups (it
        # assigns before popping): re-check the materialized table.
        plist = self._postings.get(term)
        return len(plist) if plist is not None else 0

    def use_global_stats(self, stats):
        """Score against corpus-wide statistics (sharded collections).

        After this call :meth:`inverse_document_frequency` delegates to
        ``stats`` (a :class:`GlobalTermStats` spanning every shard), so
        this shard's content scores use the same idf an unsharded index
        over the full corpus would.  Pass ``None`` to revert to local
        statistics.
        """
        self._global_stats = stats
        self._idf_cache.clear()
        return self

    def inverse_document_frequency(self, term):
        """Smoothed idf; unknown terms get the maximum idf.

        Cached per term; :meth:`add_node` -- the only mutation that
        changes a document frequency or the node count -- clears the
        cache, so readers never see a stale value.  With
        :meth:`use_global_stats` active the value comes from the
        corpus-wide table instead of this shard's own counters.
        """
        if self._global_stats is not None:
            return self._global_stats.inverse_document_frequency(term)
        idf = self._idf_cache.get(term)
        if idf is None:
            df = self.document_frequency(term)
            idf = math.log((self._indexed_nodes + 1) / (df + 1)) + 1.0
            self._idf_cache[term] = idf
        return idf

    def node_length(self, node_id):
        """Analyzed token count of one node's direct text (0 if none).

        The tf-idf length norm is ``node_length ** 0.5`` -- precomputed
        at build time so scoring never re-tokenizes node text.  After a
        :meth:`compact` the bulk of the table lives in two parallel
        sorted arrays (a binary search away); nodes indexed since then
        stay in the dict.
        """
        ids, counts = self._length_cols
        position = bisect.bisect_left(ids, node_id)
        if position < len(ids) and ids[position] == node_id:
            return counts[position]
        return self._node_lengths.get(node_id, 0)

    def term_frequencies(self, term):
        """Random-access ``node_id -> tf`` table for ``term``.

        Built once per term from the posting list and cached;
        :meth:`add_node` invalidates exactly the terms it touches.
        Concurrent first calls may both build the (identical) table --
        one assignment wins, which is safe because entries are pure
        functions of the posting list.
        """
        table = self._tf_maps.get(term)
        if table is None:
            table = {
                posting.node_id: len(posting.positions)
                for posting in self.postings(term)
            }
            self._tf_maps[term] = table
        return table

    def vocabulary(self):
        if self._cols:
            # Copy under the lock: materialization inserts into
            # _postings concurrently, and iterating a dict while it
            # grows raises RuntimeError.
            with self._materialize_lock:
                return sorted(set(self._postings) | set(self._cols))
        return sorted(self._postings)

    @property
    def indexed_nodes(self):
        return self._indexed_nodes

    def estimated_memory(self):
        """Resident-footprint digest (``repro info``, benchmarks).

        Counts are table sizes; ``column_bytes`` sums the encoded
        column payloads (inline or sidecar-backed) -- the compact
        replacement for what used to be per-posting Python objects.
        """
        with self._materialize_lock:
            column_bytes = 0
            posting_entries = 0
            for term in self._cols:
                blob = self._col_blob(term)
                column_bytes += len(blob)
                posting_entries += posting_count(blob)
            for plist in self._postings.values():
                posting_entries += len(plist)
            length_entries = (
                len(self._node_lengths) + len(self._length_cols[0])
            )
            return {
                "terms": len(self._postings) + len(self._cols),
                "column_terms": len(self._cols),
                "materialized_terms": len(self._postings),
                "column_bytes": column_bytes,
                "posting_entries": posting_entries,
                "node_length_entries": length_entries,
            }

    # -- matching helpers ------------------------------------------------------

    def nodes_with_term(self, term):
        """Node ids containing ``term``, in Dewey order."""
        return [posting.node_id for posting in self.postings(term)]

    def nodes_with_phrase(self, terms):
        """Node ids whose direct text contains the exact phrase ``terms``.

        Classic positional intersection: candidate nodes must contain
        every term, with positions increasing by one across the phrase.
        """
        if not terms:
            return []
        if len(terms) == 1:
            return self.nodes_with_term(terms[0])
        lists = [self.postings(term) for term in terms]
        if any(not plist for plist in lists):
            return []
        # Intersect on node_id (all lists are sorted by node_id).
        result = []
        cursors = [0] * len(lists)
        while all(cursors[i] < len(lists[i]) for i in range(len(lists))):
            current = [lists[i][cursors[i]].node_id for i in range(len(lists))]
            high = max(current)
            if all(value == high for value in current):
                postings = [lists[i][cursors[i]] for i in range(len(lists))]
                if self._phrase_at(postings):
                    result.append(high)
                cursors = [cursor + 1 for cursor in cursors]
            else:
                for i in range(len(lists)):
                    while (
                        cursors[i] < len(lists[i])
                        and lists[i][cursors[i]].node_id < high
                    ):
                        cursors[i] += 1
        return result

    @staticmethod
    def _phrase_at(postings):
        """True when the postings (one per phrase term, same node) align."""
        first = set(postings[0].positions)
        for offset, posting in enumerate(postings[1:], start=1):
            first &= {position - offset for position in posting.positions}
            if not first:
                return False
        return True
