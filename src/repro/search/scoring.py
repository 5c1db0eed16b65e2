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

Structural distances are computed on demand (:meth:`pair_distance`):
within one document a single Dewey tree distance, across documents a
walk over the few link edges between the two documents.  The top-k
unit memoizes them for the length of one search only, so nothing a
read computes outlives it.

Version-keyed links
-------------------

The one structure the top-k unit derives from the data graph lives
here, keyed on :attr:`DataGraph.version`: the per-document-pair edge
index and, derived from its cross-document keys in the same build, the
document-reachability map.  Both are held in one ``(version, reach,
edges)`` tuple, so a reader sees a matching tuple or rebuilds; one lock
collapses concurrent rebuilds into a single build.  Searchers hold
none of it -- every searcher over one scoring model reads the same
structure, and a graph mutation expires it.

There is one scoring path.  Its oracles live with the tests: the
exhaustive :class:`~repro.search.naive.NaiveSearcher`, a seed-style
re-analysis of each node's text checked against every impact stream
(``tests/test_properties_random.py``), and an unbounded search
(``k=None``: no pruning, no early stop) cut to ``k``.
"""

import collections
import threading


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
        # (graph version, reach, edges); see "Version-keyed links"
        # above.  Mutations are externally serialized with queries
        # (single writer / many readers), so a version flip never races
        # an in-flight search.
        self._derived = None
        self._derive_lock = threading.Lock()

    # -- version-keyed links --------------------------------------------------

    def _links(self):
        """``(reach, edges)`` for the current graph version.

        Built at most once per version however many searches ask at
        once: the unlocked probe serves every later reader, the lock
        only orders the first ones.
        """
        version = self.graph.version
        held = self._derived
        if held is None or held[0] != version:
            with self._derive_lock:
                held = self._derived
                if held is None or held[0] != version:
                    held = self._derived = (version, *self._build_links())
        return held[1], held[2]

    def document_reachability(self):
        """doc_id -> set of doc_ids reachable via one link edge.

        The top-k unit enumerates partners only inside reachable
        documents.  Keyed on the graph version, so *any* edge mutation
        invalidates it -- not only mutations that happen to change the
        edge count; recomputing this map per query used to dominate
        repeated-search workloads on link-heavy collections.
        """
        return self._links()[0]

    def _edge_index(self):
        """(doc_a, doc_b) -> [(source_id, target_id)] over link edges.

        Keeps pair distance computation O(edges between the two
        documents) instead of a breadth-first search over the whole
        graph (link hubs such as frequently-referenced countries make
        BFS frontiers explode).
        """
        return self._links()[1]

    def _build_links(self):
        """One walk over the edges: the edge index, then reachability
        from its cross-document keys."""
        edges = {}
        for edge in self.graph.edges:
            source_doc = self.collection.node(edge.source_id).doc_id
            target_doc = self.collection.node(edge.target_id).doc_id
            edges.setdefault((source_doc, target_doc), []).append(
                (edge.source_id, edge.target_id)
            )
        reach = collections.defaultdict(set)
        for source_doc, target_doc in edges:
            if source_doc != target_doc:
                reach[source_doc].add(target_doc)
                reach[target_doc].add(source_doc)
        return reach, edges

    # -- structural distances -------------------------------------------------

    def pair_distance(self, node_a, node_b):
        """Structural distance between two nodes, or ``None``: exact
        Dewey tree distance within one document, best single-link route
        across documents.

        Multi-link routes exceed any practical ``max_hops`` and are
        treated as disconnected for ranking.  Symmetric in its
        arguments (the route set is direction-independent).
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

    def compactness(self, node_ids, memo):
        """``1 / (1 + steiner_size)``; ``None`` when not connectable.

        Uses the star approximation over :meth:`pair_distance`: the sum
        of distances from the first node to each other node.  ``memo``
        is the caller's dict of distances under symmetric ``(lo, hi)``
        pair keys, read and filled here; the top-k unit passes one that
        lives for a single search.
        """
        if len(node_ids) <= 1:
            return 1.0
        anchor = node_ids[0]
        total = 0
        for other in node_ids[1:]:
            key = (anchor, other) if anchor <= other else (other, anchor)
            if key not in memo:
                memo[key] = self.pair_distance(anchor, other)
            distance = memo[key]
            if distance is None:
                return None
            total += distance
        return 1.0 / (1.0 + total)

    # -- combination ------------------------------------------------------------

    def combine(self, content_scores, compactness):
        """Weighted geometric combination of the two signals.

        The mean folds the content scores left to right in term order,
        the fold the top-k enumeration uses, so every searcher and the
        oracles agree to the bit on every Python (``sum`` compensates
        its rounding since 3.12).
        """
        if not content_scores:
            return 0.0
        total = 0.0
        for score in content_scores:
            total += score
        mean_content = total / len(content_scores)
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
        compactness = self.compactness(node_ids, {})
        if compactness is None:
            return None
        return self.combine(content_scores, compactness), content_scores, compactness

    def upper_bound(self, content_bounds):
        """Best possible score given per-term content-score bounds.

        Compactness is at most 1 (a single node), so this is the
        combination at compactness 1; the top-k unit calls it once per
        corner of the rank-join stopping bound (each term's frontier
        combined with the other streams' maxima).  Candidate tuples are
        bounded inside the enumeration at the tighter cap ``1/m`` (see
        :mod:`repro.search.topk`).
        """
        return self.combine(content_bounds, 1.0)
