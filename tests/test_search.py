"""Top-k search: scoring, the TA algorithm, and naive equivalence."""

import gc

import pytest

from repro.index.builder import IndexBuilder
from repro.index.streams import ImpactStream, ImpactStreamStore
from repro.model.collection import DocumentCollection
from repro.model.graph import DataGraph, EdgeKind
from repro.model.links import LinkDiscoverer
from repro.query.term import Query
from repro.search.naive import NaiveSearcher
from repro.search.scoring import ScoringModel
from repro.search.topk import TopKSearcher


@pytest.fixture
def searchers(figure2_collection, figure2_matcher):
    graph = DataGraph(figure2_collection)
    scoring = ScoringModel(
        figure2_collection, figure2_matcher.inverted, graph
    )
    return (
        TopKSearcher(figure2_matcher, scoring),
        NaiveSearcher(figure2_matcher, scoring),
        scoring,
    )


QUERY_1 = [
    ("*", '"United States"'),
    ("trade_country", "*"),
    ("percentage", "*"),
]

#: Multi-term Factbook queries: Query 1's terms and variants.
FACTBOOK_QUERIES = [
    [("*", '"United States"'), ("trade_country", "*")],
    [("trade_country", "*"), ("percentage", "*")],
    QUERY_1,
    [("*", "canada"), ("year", "*")],
    [("*", "germany"), ("percentage", "*")],
]


def _canon(results):
    return [
        (r.node_ids, r.content_scores, r.compactness, r.score)
        for r in results
    ]


@pytest.fixture(scope="module")
def factbook_seda():
    from repro.datasets.factbook import FactbookGenerator
    from repro.system import Seda

    return Seda(
        FactbookGenerator(scale=0.05).build_collection(),
        value_links=FactbookGenerator.value_link_specs(),
    )


class TestScoring:
    def test_match_all_scores_one(self, figure2_collection, searchers):
        _topk, _naive, scoring = searchers
        query = Query.parse([("percentage", "*")])
        node = next(
            n for n in figure2_collection.iter_nodes() if n.tag == "percentage"
        )
        assert scoring.content_score(node.node_id, query.terms[0]) == 1.0

    def test_content_score_positive_on_match(self, figure2_collection,
                                             searchers):
        _topk, _naive, scoring = searchers
        query = Query.parse([("*", "germany")])
        node = next(
            n for n in figure2_collection.iter_nodes()
            if n.value == "Germany"
        )
        assert scoring.content_score(node.node_id, query.terms[0]) > 0.0

    def test_content_score_zero_without_match(self, figure2_collection,
                                              searchers):
        _topk, _naive, scoring = searchers
        query = Query.parse([("*", "germany")])
        node = next(
            n for n in figure2_collection.iter_nodes() if n.value == "China"
        )
        assert scoring.content_score(node.node_id, query.terms[0]) == 0.0

    def test_compactness_decreases_with_distance(self, figure2_collection,
                                                 searchers):
        _topk, _naive, scoring = searchers
        document = figure2_collection.document(0)
        item = next(n for n in document.nodes if n.tag == "item")
        tc, pct = item.child_ids
        siblings = scoring.compactness([tc, pct], {})
        far = scoring.compactness([document.root.node_id, pct], {})
        assert siblings > far

    def test_compactness_singleton_is_one(self, searchers):
        _topk, _naive, scoring = searchers
        assert scoring.compactness([5], {}) == 1.0

    def test_disconnected_scores_none(self, figure2_collection, searchers):
        _topk, _naive, scoring = searchers
        a = figure2_collection.document(0).root.node_id
        b = figure2_collection.document(1).root.node_id
        assert scoring.compactness([a, b], {}) is None

    def test_upper_bound_at_perfect_compactness(self, searchers):
        _topk, _naive, scoring = searchers
        assert scoring.upper_bound([2.0, 2.0]) == pytest.approx(2.0)

    def test_mean_folds_left_to_right_in_term_order(self, searchers):
        # sum() compensates its rounding since Python 3.12 and gives
        # 0.304582000700113 here; the top-k enumeration folds left to
        # right, and the oracles must score a tuple to the same bit.
        _topk, _naive, scoring = searchers
        a, b, c = 1.809679204295147, 1.713509758390422, 1.0455410478161247
        assert scoring.combine([a, b, c], 0.2) == ((a + b) + c) / 3 * 0.2


class TestTopK:
    def test_single_term_ranked_by_content(self, figure2_collection,
                                           searchers):
        topk, _naive, _scoring = searchers
        results = topk.search(Query.parse([("*", '"United States"')]), k=10)
        assert len(results) == 4
        scores = [result.score for result in results]
        assert scores == sorted(scores, reverse=True)

    def test_k_limits_results(self, searchers):
        topk, _naive, _scoring = searchers
        results = topk.search(Query.parse([("*", "canada")]), k=2)
        assert len(results) == 2

    def test_empty_stream_no_results(self, searchers):
        topk, _naive, _scoring = searchers
        assert topk.search(Query.parse([("*", "atlantis")]), k=5) == []

    def test_multi_term_results_connected(self, figure2_collection,
                                          searchers):
        topk, _naive, scoring = searchers
        results = topk.search(Query.parse(QUERY_1), k=10)
        assert results
        for result in results:
            assert scoring.graph.connects(result.node_ids, max_hops=12)

    def test_multi_term_nodes_distinct(self, searchers):
        topk, _naive, _scoring = searchers
        for result in topk.search(Query.parse(QUERY_1), k=10):
            assert len(set(result.node_ids)) == len(result.node_ids)

    def test_sibling_pairs_rank_above_cousins(self, figure2_collection,
                                              searchers):
        """Compactness: trade_country and its sibling percentage must
        outrank a pairing across different items."""
        topk, _naive, _scoring = searchers
        query = Query.parse(
            [("trade_country", "china"), ("percentage", "*")]
        )
        results = topk.search(query, k=10)
        best = results[0]
        tc, pct = (
            figure2_collection.node(best.node_ids[0]),
            figure2_collection.node(best.node_ids[1]),
        )
        assert tc.parent_id == pct.parent_id  # same item
        assert figure2_collection.node(pct.node_id).value == "15%"

    def test_stats_populated(self, searchers):
        topk, _naive, _scoring = searchers
        topk.search(Query.parse(QUERY_1), k=3)
        assert topk.stats["sorted_accesses"] > 0
        assert topk.stats["tuples_scored"] > 0

    def test_a_search_leaves_no_reference_cycles(self, searchers):
        """Reference counting alone frees a finished search: a cycle
        would keep its distance memo and heap alive until the cycle
        collector ran."""
        topk, _naive, _scoring = searchers
        queries = [Query.parse(pairs) for pairs in FACTBOOK_QUERIES]
        gc.collect()
        gc.disable()
        try:
            for query in queries:
                topk.search(query, k=3)
            assert gc.collect() == 0
        finally:
            gc.enable()


class _TieShufflingSearcher(TopKSearcher):
    """A searcher whose streams reverse the order of equal-score runs.

    Stream order among tied scores is an implementation accident; the
    top-k answer must not depend on it.
    """

    def _stream(self, term):
        from repro.index.streams import ImpactStream

        pairs = super()._stream(term).pairs()
        shuffled, start = [], 0
        for index in range(1, len(pairs) + 1):
            if index == len(pairs) or pairs[index][0] != pairs[start][0]:
                shuffled.extend(reversed(pairs[start:index]))
                start = index
        return ImpactStream(
            (score for score, _ in shuffled),
            (node_id for _, node_id in shuffled),
        )


class TestDeterminism:
    """Tied scores must resolve identically for any evaluation order."""

    TIED_QUERY = [("trade_country", "*"), ("percentage", "*")]

    def test_tied_scores_survive_eviction_deterministically(
        self, figure2_collection, figure2_matcher
    ):
        """With k below the number of tied sibling pairs, the survivors
        are the lexicographically smallest node-id tuples -- regardless
        of stream arrival order."""
        scoring = ScoringModel(
            figure2_collection, figure2_matcher.inverted,
            DataGraph(figure2_collection),
        )
        plain = TopKSearcher(figure2_matcher, scoring)
        shuffled = _TieShufflingSearcher(figure2_matcher, scoring)
        for k in (1, 2, 3, 5):
            query = Query.parse(self.TIED_QUERY)
            expected = plain.search(query, k=k)
            reordered = shuffled.search(query, k=k)
            assert [r.node_ids for r in expected] == [
                r.node_ids for r in reordered
            ]
            assert [r.score for r in expected] == [
                r.score for r in reordered
            ]

    def test_partner_cap_truncates_ties_deterministically(
        self, figure2_collection, figure2_matcher
    ):
        """Truncation to partner_limit among tied scores must keep the
        same (smallest-id) subset whatever order the nodes arrived in."""
        scoring = ScoringModel(
            figure2_collection, figure2_matcher.inverted,
            DataGraph(figure2_collection),
        )
        searcher = TopKSearcher(figure2_matcher, scoring, partner_limit=3)
        node_ids = [11, 7, 29, 3, 17]
        kept = []
        for arrival in (node_ids, list(reversed(node_ids))):
            seen_by_doc = [{0: list(arrival)}]
            seen_scores = [{node_id: 1.0 for node_id in arrival}]
            kept.append(
                sorted(searcher._partners(0, {0}, seen_by_doc, seen_scores))
            )
        assert kept[0] == kept[1] == [3, 7, 11]

    def test_tied_survivors_prefer_smaller_node_ids(
        self, figure2_collection, figure2_matcher
    ):
        """Among equal-score tuples the kept ones are the smallest by
        node-id order (the documented tie-break)."""
        scoring = ScoringModel(
            figure2_collection, figure2_matcher.inverted,
            DataGraph(figure2_collection),
        )
        searcher = TopKSearcher(figure2_matcher, scoring)
        query = Query.parse(self.TIED_QUERY)
        full = searcher.search(query, k=100)
        truncated = searcher.search(query, k=3)
        best_score = full[0].score
        tied = sorted(
            r.node_ids for r in full if r.score == best_score
        )
        kept = [r.node_ids for r in truncated if r.score == best_score]
        assert kept == tied[: len(kept)]

    def test_tie_at_the_stopping_threshold_does_not_stop(self):
        """Content-only ranking scores every tuple here at exactly the
        corner bound.  The first tuple formed, (3, 0, 1, 2), reaches
        it, but the smaller (2, 0, 1, 3) is formed a round later and
        must win the tie-break."""
        collection = DocumentCollection(name="ties")
        collection.add_document("<a><a><a>red</a></a><a>red</a></a>",
                                name="doc")
        matcher, graph = _wire_collection(collection)
        scoring = ScoringModel(collection, matcher.inverted, graph,
                               structure_weight=0.0)
        query = Query.parse([("*", "red")] + [("a", "*")] * 3)
        expected = NaiveSearcher(matcher, scoring).search(query, k=1)
        assert expected[0].node_ids == (2, 0, 1, 3)
        found = TopKSearcher(matcher, scoring).search(query, k=1)
        assert _canon(found) == _canon(expected)


class TestStatsReset:
    def test_empty_stream_resets_stats(self, searchers):
        """A query that bails out on an empty stream must not leave the
        previous query's counters behind."""
        topk, _naive, _scoring = searchers
        topk.search(Query.parse(QUERY_1), k=5)
        assert topk.stats["sorted_accesses"] > 0
        assert topk.search(Query.parse([("*", "atlantis"), ("year", "*")]),
                           k=5) == []
        assert topk.stats["sorted_accesses"] == 0
        assert topk.stats["tuples_scored"] == 0
        assert topk.stats["early_stop"] is False
        # candidates reflect THIS query's streams: no keyword match, but
        # the match-all year term still has candidates.
        assert topk.stats["candidates"][0] == 0
        assert topk.stats["candidates"][1] > 0

    def test_early_stop_not_sticky(self, searchers):
        """early_stop set by one query must not leak into the next."""
        topk, _naive, _scoring = searchers
        topk.search(Query.parse([("*", "canada")]), k=1)  # truncating
        assert topk.stats["early_stop"] is True
        topk.search(Query.parse([("*", "atlantis")]), k=1)
        assert topk.stats["early_stop"] is False


class TestVersionedCaches:
    def test_reachability_rebuilds_on_version_bump(self, figure2_collection,
                                                   figure2_matcher):
        """bump_version invalidates even when the edge count is
        unchanged -- the failure mode of len(edges) keying."""
        graph = DataGraph(figure2_collection)
        scoring = ScoringModel(
            figure2_collection, figure2_matcher.inverted, graph
        )
        reach = scoring.document_reachability()
        assert scoring.document_reachability() is reach  # cached
        edge_index = scoring._edge_index()
        assert scoring._edge_index() is edge_index  # cached
        graph.bump_version()
        assert scoring.document_reachability() is not reach
        assert scoring._edge_index() is not edge_index

    def test_reachability_rebuilds_on_new_edge(self, figure2_collection,
                                               figure2_matcher):
        from repro.model.graph import EdgeKind

        graph = DataGraph(figure2_collection)
        scoring = ScoringModel(
            figure2_collection, figure2_matcher.inverted, graph
        )
        reach = scoring.document_reachability()
        nodes = [node.node_id for node in figure2_collection.iter_nodes()]
        graph.add_edge(nodes[0], nodes[-1], EdgeKind.VALUE)
        assert scoring.document_reachability() is not reach

    def test_searchers_read_the_scoring_models_structures(
        self, figure2_collection, figure2_matcher
    ):
        """Searchers hold no graph-derived state: two of them over one
        scoring model read the same reachability map and edge index,
        built once per graph version."""
        graph = DataGraph(figure2_collection)
        scoring = ScoringModel(
            figure2_collection, figure2_matcher.inverted, graph
        )
        first = TopKSearcher(figure2_matcher, scoring)
        reach = scoring.document_reachability()
        edges = scoring._edge_index()
        query = Query.parse([("*", '"United States"'),
                             ("trade_country", "*")])
        second = TopKSearcher(figure2_matcher, scoring)
        assert first.search(query, k=3) == second.search(query, k=3)
        assert scoring.document_reachability() is reach
        assert scoring._edge_index() is edges
        assert set(vars(second)) == {
            "matcher", "scoring", "partner_limit", "streams", "stats",
        }


def _wire_collection(collection):
    """Matcher + graph over a hand-built collection."""
    from repro.query.matcher import TermMatcher
    from repro.storage.node_store import NodeStore

    inverted, paths = IndexBuilder(collection).build()
    matcher = TermMatcher(collection, inverted, paths, NodeStore(collection))
    return matcher, DataGraph(collection)


class TestPairDistance:
    """Structural distances: best-of-several-links routes, the max_hops
    boundary, symmetry, and new links seen at once."""

    def _two_documents(self):
        collection = DocumentCollection(name="links")
        collection.add_document("<a><b>left</b><c>mid</c></a>", name="A")
        collection.add_document("<d><e>right</e></d>", name="B")
        tags = {n.tag: n.node_id for n in collection.iter_nodes()}
        return collection, DataGraph(collection), tags

    def _scoring(self, collection, graph, **kwargs):
        inverted, _paths = IndexBuilder(collection).build()
        return ScoringModel(collection, inverted, graph, **kwargs)

    def test_cross_document_takes_best_of_several_links(self):
        collection, graph, tags = self._two_documents()
        # Route via the root link: b -> a (1 hop), link (1), d -> e
        # (1 hop) = 3; the direct b -> e link is 1.  Best must win.
        graph.add_edge(tags["a"], tags["d"], EdgeKind.VALUE)
        graph.add_edge(tags["b"], tags["e"], EdgeKind.VALUE)
        scoring = self._scoring(collection, graph)
        assert scoring.pair_distance(tags["b"], tags["e"]) == 1

    def test_cross_document_single_link_route_length(self):
        collection, graph, tags = self._two_documents()
        graph.add_edge(tags["a"], tags["d"], EdgeKind.VALUE)
        scoring = self._scoring(collection, graph)
        assert scoring.pair_distance(tags["b"], tags["e"]) == 3

    def test_max_hops_boundary_same_document(self):
        collection, graph, tags = self._two_documents()
        # b and c are siblings: tree distance exactly 2.
        at_limit = self._scoring(collection, graph, max_hops=2)
        assert at_limit.pair_distance(tags["b"], tags["c"]) == 2
        past_limit = self._scoring(collection, graph, max_hops=1)
        assert past_limit.pair_distance(tags["b"], tags["c"]) is None

    def test_max_hops_boundary_cross_document(self):
        collection, graph, tags = self._two_documents()
        graph.add_edge(tags["a"], tags["d"], EdgeKind.VALUE)
        at_limit = self._scoring(collection, graph, max_hops=3)
        assert at_limit.pair_distance(tags["b"], tags["e"]) == 3
        past_limit = self._scoring(collection, graph, max_hops=2)
        assert past_limit.pair_distance(tags["b"], tags["e"]) is None

    def test_symmetric(self):
        collection, graph, tags = self._two_documents()
        graph.add_edge(tags["b"], tags["e"], EdgeKind.VALUE)
        scoring = self._scoring(collection, graph)
        # The search memo keys on the (lo, hi) pair; that is sound only
        # because the route set is direction-independent.
        assert scoring.pair_distance(tags["b"], tags["e"]) == 1
        assert scoring.pair_distance(tags["e"], tags["b"]) == 1

    def test_new_link_is_visible_immediately(self):
        collection, graph, tags = self._two_documents()
        graph.add_edge(tags["a"], tags["d"], EdgeKind.VALUE)
        scoring = self._scoring(collection, graph)
        assert scoring.pair_distance(tags["b"], tags["e"]) == 3
        # add_edge bumps the graph version, which rebuilds the edge
        # index the cross-document route reads.
        graph.add_edge(tags["b"], tags["e"], EdgeKind.VALUE)
        assert scoring.pair_distance(tags["b"], tags["e"]) == 1


class TestBoundPruning:
    """The content-score upper bound must skip provably losing combos
    without changing any answer."""

    #: ``a`` carries four occurrences of "x" (high tf), its child ``b``
    #: the "y"; the sibling ``c`` carries a single "x".  The (a, b)
    #: pair is parent/child (distance 1, compactness at the 1/m cap),
    #: so the weaker (c, b) combo's bound falls strictly below it.
    DOC = "<root><a>x x x x<b>y</b></a><c>x</c></root>"

    def _searcher(self):
        collection = DocumentCollection(name="prune")
        collection.add_document(self.DOC, name="doc")
        matcher, graph = _wire_collection(collection)
        scoring = ScoringModel(collection, matcher.inverted, graph)
        return TopKSearcher(matcher, scoring)

    def test_prunes_weak_combo(self):
        searcher = self._searcher()
        results = searcher.search(Query.parse([("*", "x"), ("*", "y")]), k=1)
        assert len(results) == 1
        assert searcher.stats["pruned"] == 1

    def test_pruning_changes_no_answer(self):
        query = Query.parse([("*", "x"), ("*", "y")])
        searcher = self._searcher()
        bounded = searcher.search(query, k=1)
        assert searcher.stats["pruned"] == 1
        # The unbounded search neither prunes nor stops early.
        unbounded = searcher.search(query, k=None)
        assert searcher.stats["pruned"] == 0
        assert [(r.node_ids, r.content_scores, r.compactness, r.score)
                for r in bounded] == [
            (r.node_ids, r.content_scores, r.compactness, r.score)
            for r in unbounded[:1]
        ]

    def test_unbounded_k_never_prunes(self):
        searcher = self._searcher()
        searcher.search(Query.parse([("*", "x"), ("*", "y")]), k=None)
        assert searcher.stats["pruned"] == 0


class TestImpactStreams:
    """Stream caching: build-once per graph version, shared stores."""

    def test_stream_cached_per_version(self, figure2_collection,
                                       figure2_matcher):
        scoring = ScoringModel(
            figure2_collection, figure2_matcher.inverted,
            DataGraph(figure2_collection),
        )
        searcher = TopKSearcher(figure2_matcher, scoring)
        term = Query.parse([("*", "canada")]).terms[0]
        stream = searcher._stream(term)
        assert searcher._stream(term) is stream  # cached, same object
        scoring.graph.bump_version()
        rebuilt = searcher._stream(term)
        assert rebuilt is not stream
        assert rebuilt.pairs() == stream.pairs()  # same content

    def test_store_hits_only_its_version(self):
        store = ImpactStreamStore()
        stream = ImpactStream([2.5, 1.0 / 3.0], [4, 9])
        assert store.put(("ctx", "search"), 7, stream) is stream
        assert store.get(("ctx", "search"), 7) is stream
        # A different version misses, and a racing put at the stored
        # version gets the first instance back.
        assert store.get(("ctx", "search"), 8) is None
        assert store.put(("ctx", "search"), 7,
                         ImpactStream([1.0], [1])) is stream
        assert store.counters() == {"stream_hits": 1, "stream_misses": 1}
        # A put at a newer version replaces the stale entry.
        newer = ImpactStream([1.0], [1])
        assert store.put(("ctx", "search"), 8, newer) is newer
        assert store.get(("ctx", "search"), 8) is newer

    def test_searchers_share_a_passed_stream_store(
        self, figure2_collection, figure2_matcher
    ):
        graph = DataGraph(figure2_collection)
        scoring = ScoringModel(
            figure2_collection, figure2_matcher.inverted, graph
        )
        store = ImpactStreamStore()
        source = TopKSearcher(figure2_matcher, scoring, streams=store)
        source.search(Query.parse([("*", "canada")]), k=3)
        misses = store.misses
        worker = TopKSearcher(figure2_matcher, scoring, streams=store)
        worker.search(Query.parse([("*", "canada")]), k=3)
        assert worker.streams is source.streams
        assert store.misses == misses  # served from the shared store

    def test_cold_and_warm_caches_answer_identically(self, factbook_seda):
        """A repeated Factbook workload on a fresh scoring model and
        stream store, run twice: the run that builds streams and
        distances and the run that only reads them back give identical
        bytes, and both equal the unbounded search cut to k."""
        seda = factbook_seda
        scoring = ScoringModel(
            seda.collection, seda.inverted, seda.graph,
            max_hops=seda.max_hops,
        )
        searcher = TopKSearcher(
            seda.matcher, scoring, streams=ImpactStreamStore()
        )
        workload = [Query.parse(pairs) for _ in range(6)
                    for pairs in FACTBOOK_QUERIES]
        cold = [_canon(searcher.search(query, k=10)) for query in workload]
        assert searcher.streams.hits > 0
        misses = searcher.streams.misses
        warm = [_canon(searcher.search(query, k=10)) for query in workload]
        assert warm == cold
        assert searcher.streams.misses == misses
        for pairs, answer in zip(FACTBOOK_QUERIES, cold):
            unbounded = searcher.search(Query.parse(pairs), k=None)
            assert _canon(unbounded[:10]) == answer


class TestTopKAgainstNaive:
    """TA must agree with exhaustive search on its top-k scores."""

    @pytest.mark.parametrize(
        "pairs,k",
        [
            ([("*", '"United States"')], 3),
            ([("trade_country", "*"), ("percentage", "*")], 5),
            ([("*", "canada"), ("year", "*")], 4),
            (QUERY_1, 5),
        ],
    )
    def test_same_scores(self, searchers, pairs, k):
        topk, naive, _scoring = searchers
        query = Query.parse(pairs)
        ta_results = topk.search(query, k=k)
        naive_results = naive.search(query, k=k)
        ta_scores = [round(r.score, 9) for r in ta_results]
        naive_scores = [round(r.score, 9) for r in naive_results]
        assert ta_scores == naive_scores

    def test_same_tuples_when_unique_scores(self, searchers):
        topk, naive, _scoring = searchers
        query = Query.parse([("trade_country", "germany"), ("percentage", "*")])
        ta_results = topk.search(query, k=3)
        naive_results = naive.search(query, k=3)
        assert [r.node_ids for r in ta_results] == [
            r.node_ids for r in naive_results
        ]


class TestNaiveGuards:
    def test_cross_product_cap(self, figure2_matcher, searchers):
        _topk, naive, _scoring = searchers
        naive.max_combinations = 10
        query = Query.parse([("*", "*"), ("*", "*")])
        with pytest.raises(ValueError):
            naive.search(query, k=1)


class TestCrossDocumentSearch:
    def test_link_tuples_found(self, figure2_collection, figure2_matcher):
        """With a trade-partner value link, 'United States' as another
        country's import partner connects to the US documents."""
        from repro.model.links import ValueLinkSpec

        graph = DataGraph(figure2_collection)
        LinkDiscoverer(graph).apply_value_links([
            ValueLinkSpec(
                "/country",
                "/country/economy/import_partners/item/trade_country",
                label="trade partner",
            )
        ])
        scoring = ScoringModel(
            figure2_collection, figure2_matcher.inverted, graph
        )
        topk = TopKSearcher(figure2_matcher, scoring)
        query = Query.parse(
            [("/country", '"United States"'), ("trade_country", '"United States"')]
        )
        results = topk.search(query, k=5)
        assert results
        docs = {
            (figure2_collection.node(r.node_ids[0]).doc_id,
             figure2_collection.node(r.node_ids[1]).doc_id)
            for r in results
        }
        # The US root lives in docs 0/1; the matching trade_country in doc 2.
        assert all(a != b for a, b in docs)

    @pytest.mark.xfail(strict=True, reason=(
        "partners come from the new node's document and its one-link "
        "neighbours, but the star is centred on the first member; see "
        "the FOUND line on linked corpora in CHANGES.md"
    ))
    def test_members_linked_only_through_the_first_member(self):
        """Documents 1 and 2 each link to document 0 but not to each
        other; the star from the document-0 node still connects all
        three, so the tuple is an answer."""
        collection = DocumentCollection(name="spokes")
        for tag in ("a", "b", "c"):
            collection.add_document(f"<r><{tag}>red</{tag}></r>", name=tag)
        matcher, graph = _wire_collection(collection)
        roots = [document.root.node_id for document in collection.documents]
        graph.add_edge(roots[0], roots[1], EdgeKind.VALUE)
        graph.add_edge(roots[0], roots[2], EdgeKind.VALUE)
        scoring = ScoringModel(collection, matcher.inverted, graph)
        query = Query.parse([("a", "red"), ("b", "red"), ("c", "red")])
        expected = NaiveSearcher(matcher, scoring).search(query, k=None)
        assert len(expected) == 1
        found = TopKSearcher(matcher, scoring).search(query, k=None)
        assert _canon(found) == _canon(expected)
