"""Ranking function: content relevance x structural compactness.

"The score function is based on the compactness of the graph
representing a tuple of nodes satisfying query terms" combined with a
content score from the full-text indexes (Section 4).  Concretely::

    score(t) = mean_i(content_score(n_i, qt_i)) * compactness(t)
    compactness(t) = 1 / (1 + steiner_size(t))

where ``steiner_size`` approximates the number of edges needed to
connect the tuple's nodes in the data graph (0 for a single node, so a
one-term query ranks purely by content).  Tuples that cannot be
connected within ``max_hops`` violate Definition 4 and score ``None``.

Where the work happens
----------------------

Content scores read **precomputed** numbers from the inverted index:
term frequencies from the positional postings and the node's length
norm recorded at build time.  The seed instead re-analyzed each node's
raw text per query (and counted term frequency with an O(tokens^2)
scan); reading from the index is both faster and drift-free -- the
score now reflects exactly what was indexed.

Structural distances are memoized per graph version
(:meth:`pair_distance`), so the star approximation in
:meth:`compactness` never walks the same Dewey/link route twice while
the graph is unchanged.

Version-keyed structures
------------------------

Everything the top-k unit derives from the data graph lives here, keyed
on :attr:`DataGraph.version`: the document-reachability map, the
per-document edge index and the pair-distance memo.  Each is held as
one ``(version, value)`` pair, so a reader sees a matching pair or
rebuilds; one lock collapses concurrent rebuilds into a single build.
Searchers hold none of it -- every searcher over one scoring model
reads the same structures, and a graph mutation expires all three.

There is one scoring path.  Its oracles live with the tests: the
exhaustive :class:`~repro.search.naive.NaiveSearcher`, a seed-style
re-analysis of each node's text checked against every impact stream
(``tests/test_properties_random.py``), and an unbounded search
(``k=None``: no pruning, no early stop) cut to ``k``.
"""

import collections
import threading

_MISSING = object()


class ScoringModel:
    """Computes content scores, compactness, and combined tuple scores."""

    def __init__(self, collection, inverted, graph, max_hops=12,
                 content_weight=1.0, structure_weight=1.0):
        self.collection = collection
        self.inverted = inverted
        self.graph = graph
        self.max_hops = max_hops
        self.content_weight = content_weight
        self.structure_weight = structure_weight
        # name -> (graph version, value); see "Version-keyed
        # structures" above.  Mutations are externally serialized with
        # queries (single writer / many readers), so a version flip
        # never races an in-flight search.
        self._derived = {}
        self._derive_lock = threading.Lock()
        # Pair-distance memo counters: approximate under concurrency,
        # reporting only.
        self.pair_hits = 0
        self.pair_misses = 0

    # -- version-keyed structures ---------------------------------------------

    def _derived_for_version(self, name, build):
        """``name``'s structure for the current graph version.

        Built at most once per version however many searches ask at
        once: the unlocked probe serves every later reader, the lock
        only orders the first ones.
        """
        version = self.graph.version
        held = self._derived.get(name)
        if held is None or held[0] != version:
            with self._derive_lock:
                held = self._derived.get(name)
                if held is None or held[0] != version:
                    held = self._derived[name] = (version, build())
        return held[1]

    def document_reachability(self):
        """doc_id -> set of doc_ids reachable via one link edge.

        The top-k unit enumerates partners only inside reachable
        documents.  Keyed on the graph version, so *any* edge mutation
        invalidates it -- not only mutations that happen to change the
        edge count; recomputing this map per query used to dominate
        repeated-search workloads on link-heavy collections.
        """
        return self._derived_for_version("reach", self._build_reachability)

    def _build_reachability(self):
        reach = collections.defaultdict(set)
        for edge in self.graph.edges:
            source_doc = self.collection.node(edge.source_id).doc_id
            target_doc = self.collection.node(edge.target_id).doc_id
            if source_doc != target_doc:
                reach[source_doc].add(target_doc)
                reach[target_doc].add(source_doc)
        return reach

    def _edge_index(self):
        """(doc_a, doc_b) -> [(source_id, target_id)] over link edges.

        Keeps pair distance computation O(edges between the two
        documents) instead of a breadth-first search over the whole
        graph (link hubs such as frequently-referenced countries make
        BFS frontiers explode).
        """
        return self._derived_for_version("edges", self._build_edge_index)

    def _build_edge_index(self):
        index = {}
        for edge in self.graph.edges:
            source_doc = self.collection.node(edge.source_id).doc_id
            target_doc = self.collection.node(edge.target_id).doc_id
            index.setdefault((source_doc, target_doc), []).append(
                (edge.source_id, edge.target_id)
            )
        return index

    # -- fast structural distances --------------------------------------------

    def pair_distance(self, node_a, node_b):
        """Structural distance between two nodes, or ``None``.

        Memoized per graph version under a symmetric pair key (the
        route set is direction-independent), so the compactness star
        approximation never recomputes a distance while the graph is
        unchanged.  ``None`` ("not connectable") is cached too -- it is
        just as expensive to rediscover.
        """
        cache = self.pair_cache()
        key = (node_a, node_b) if node_a <= node_b else (node_b, node_a)
        value = cache.get(key, _MISSING)
        if value is not _MISSING:
            self.pair_hits += 1
            return value
        self.pair_misses += 1
        value = self._pair_distance(node_a, node_b)
        cache[key] = value
        return value

    def pair_cache(self):
        """The live distance memo for the current graph version.

        Keyed on the symmetric ``(lo, hi)`` node pair; concurrent
        readers grow the dict safely under the GIL (writes of the same
        key are idempotent).  The top-k unit's hot loop reads it
        directly (:data:`_MISSING`-sentinel absent) to skip the
        method-call overhead of :meth:`pair_distance` on hits; it
        reports the hits it takes in bulk via :attr:`pair_hits`.
        """
        return self._derived_for_version("pairs", dict)

    def _pair_distance(self, node_a, node_b):
        """Uncached distance: exact Dewey tree distance within one
        document, best single-link route across documents.

        Multi-link routes exceed any practical ``max_hops`` and are
        treated as disconnected for ranking.
        """
        first = self.collection.node(node_a)
        second = self.collection.node(node_b)
        if first.doc_id == second.doc_id:
            distance = first.dewey.tree_distance(second.dewey)
            return distance if distance <= self.max_hops else None
        index = self._edge_index()
        best = None
        for source_id, target_id in index.get(
            (first.doc_id, second.doc_id), ()
        ):
            candidate = self._route(first, second, source_id, target_id)
            if candidate is not None and (best is None or candidate < best):
                best = candidate
        for source_id, target_id in index.get(
            (second.doc_id, first.doc_id), ()
        ):
            candidate = self._route(second, first, source_id, target_id)
            if candidate is not None and (best is None or candidate < best):
                best = candidate
        if best is None or best > self.max_hops:
            return None
        return best

    def _route(self, first, second, source_id, target_id):
        source = self.collection.node(source_id)
        target = self.collection.node(target_id)
        return (
            first.dewey.tree_distance(source.dewey)
            + 1
            + target.dewey.tree_distance(second.dewey)
        )

    # -- content ------------------------------------------------------------

    def content_score(self, node_id, term):
        """tf-idf relevance of a node's direct text for one query term.

        Term frequencies and the length norm come from the inverted
        index (recorded at build time), never from re-analyzing
        ``node.direct_text`` at query time -- random access is two dict
        lookups, and the score reflects exactly what was indexed (the
        seed re-tokenized raw text per query, an O(tokens^2) count that
        could also drift from the indexed positions).  Match-all terms
        score a constant 1.0: they constrain context only, so every
        candidate is equally relevant content-wise.
        """
        if term.is_match_all:
            return 1.0
        length = self.inverted.node_length(node_id)
        if not length:
            return 0.0
        score = 0.0
        for word in term.search.terms():
            tf = self.inverted.term_frequencies(word).get(node_id, 0)
            if tf:
                score += tf * self.inverted.inverse_document_frequency(word)
        return score / (length ** 0.5)

    # -- structure -----------------------------------------------------------

    def compactness(self, node_ids):
        """``1 / (1 + steiner_size)``; ``None`` when not connectable.

        Uses the star approximation over :meth:`pair_distance`: the sum
        of distances from the first node to each other node.
        """
        ids = list(dict.fromkeys(node_ids))
        if len(ids) <= 1:
            return 1.0
        anchor = ids[0]
        total = 0
        for other in ids[1:]:
            distance = self.pair_distance(anchor, other)
            if distance is None:
                return None
            total += distance
        return 1.0 / (1.0 + total)

    # -- combination ------------------------------------------------------------

    def combine(self, content_scores, compactness):
        """Weighted geometric combination of the two signals."""
        if not content_scores:
            return 0.0
        mean_content = sum(content_scores) / len(content_scores)
        return (
            (mean_content ** self.content_weight)
            * (compactness ** self.structure_weight)
        )

    def score_tuple(self, node_ids, terms, content_scores=None):
        """Full score for a candidate tuple; ``None`` if disconnected.

        Returns ``(score, content_scores, compactness)``.
        """
        if content_scores is None:
            content_scores = [
                self.content_score(node_id, term)
                for node_id, term in zip(node_ids, terms)
            ]
        compactness = self.compactness(node_ids)
        if compactness is None:
            return None
        return self.combine(content_scores, compactness), content_scores, compactness

    def upper_bound(self, content_bounds, compactness_cap=1.0):
        """Best possible score given per-term content-score bounds.

        Compactness is at most 1 (all nodes coincide), so the TA
        stopping threshold uses the default cap of 1; the top-k unit
        calls this once per corner of the rank-join stopping bound
        (each term's frontier combined with the other streams' maxima).

        The top-k unit also bounds fully-formed candidate tuples before
        computing their structural distances; there the caller passes
        the tighter (still admissible) cap ``1/m``: ``m`` distinct
        nodes are pairwise at distance >= 1, so the star size is at
        least ``m - 1`` and compactness at most ``1/m``.  A combo whose
        bound is strictly below the current k-th heap score would have
        been rejected by the very same heap comparison after scoring --
        pruning it changes no answer.
        """
        return self.combine(content_bounds, compactness_cap)

    def counters(self):
        """Cumulative distance-memo hit/miss counters (batch stats)."""
        return {
            "distance_hits": self.pair_hits,
            "distance_misses": self.pair_misses,
        }
