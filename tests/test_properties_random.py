"""Cross-implementation equivalence on randomized collections.

Hypothesis generates small random document collections; the properties
assert that independent implementations agree:

* index-based candidate enumeration == brute-force Definition 3 scan;
* TwigStack == naive structural join on random twigs;
* TA top-k scores == exhaustive search scores;
* path-index term buckets == paths of scanned matching nodes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.index.builder import IndexBuilder
from repro.model.collection import DocumentCollection
from repro.model.graph import DataGraph
from repro.query.matcher import TermMatcher
from repro.query.term import Query, QueryTerm
from repro.search.naive import NaiveSearcher
from repro.search.scoring import ScoringModel
from repro.search.topk import TopKSearcher
from repro.storage.node_store import NodeStore
from repro.twig.pattern import TwigPattern
from repro.twig.twigstack import NaiveTwigJoin, TwigStackJoin
from repro.xmlio import serialize
from repro.xmlio.dom import Element

_TAGS = ("a", "b", "c", "d")
_WORDS = ("red", "blue", "green", "red blue", "blue green red")
#: Attribute values, with characters serialization must escape.
_VALUES = ("1", "red blue", "<2>", "a & b", 'say "hi"', "caf\u00e9", "")


@st.composite
def _random_element(draw, depth=0, attributes=False):
    element = Element(draw(st.sampled_from(_TAGS)))
    if attributes:
        element.attributes.update(draw(st.dictionaries(
            st.sampled_from(("x", "y", "id")), st.sampled_from(_VALUES),
            max_size=2,
        )))
    if draw(st.booleans()):
        element.append(draw(st.sampled_from(_WORDS)))
    if depth < 3:
        for child in draw(
            st.lists(
                st.deferred(
                    lambda: _random_element(depth + 1, attributes)  # noqa: B023
                ),
                max_size=3,
            )
        ):
            element.append(child)
    return element


@st.composite
def _random_collection(draw):
    collection = DocumentCollection()
    for root in draw(st.lists(_random_element(), min_size=1, max_size=4)):
        collection.add_document(root)
    return collection


def _wire(collection):
    inverted, paths = IndexBuilder(collection).build()
    store = NodeStore(collection)
    matcher = TermMatcher(collection, inverted, paths, store)
    return inverted, paths, store, matcher


class TestCandidatesAgainstScan:
    @given(_random_collection(), st.sampled_from(["red", "blue", "green"]),
           st.sampled_from(["*", "a", "b"]))
    @settings(max_examples=60, deadline=None)
    def test_index_matches_definition3_scan(self, collection, word, context):
        _inverted, _paths, _store, matcher = _wire(collection)
        term = QueryTerm(context, word)
        candidates = set(matcher.candidates(term))
        # Brute force: direct-text containment + context check.
        analyzer = matcher.inverted.analyzer
        expected = set()
        for node in collection.iter_nodes():
            if not term.context.matches(node):
                continue
            if word in analyzer.terms(node.direct_text):
                expected.add(node.node_id)
        assert candidates == expected

    @given(_random_collection())
    @settings(max_examples=40, deadline=None)
    def test_phrase_candidates_subset_of_word_candidates(self, collection):
        _inverted, _paths, _store, matcher = _wire(collection)
        phrase_term = QueryTerm("*", '"blue green"')
        word_term = QueryTerm("*", "blue")
        assert set(matcher.candidates(phrase_term)) <= set(
            matcher.candidates(word_term)
        )

    @given(_random_collection(), st.sampled_from(["red", "blue"]))
    @settings(max_examples=40, deadline=None)
    def test_term_paths_match_candidate_paths(self, collection, word):
        _inverted, _paths, _store, matcher = _wire(collection)
        term = QueryTerm("*", word)
        from_index = matcher.term_paths(term)
        from_nodes = {
            collection.node(node_id).path
            for node_id in matcher.candidates(term)
        }
        assert from_index == from_nodes


class TestTwigEquivalence:
    @given(_random_collection())
    @settings(max_examples=50, deadline=None)
    def test_twigstack_equals_naive(self, collection):
        store = NodeStore(collection)
        # Build a twig from the two most frequent paths sharing a root.
        paths = sorted(
            store.paths(),
            key=lambda path: -len(store.by_path(path)),
        )
        chosen = None
        for i, first in enumerate(paths):
            for second in paths[i:]:
                if first.split("/")[1] != second.split("/")[1]:
                    continue
                root_path = "/" + first.split("/")[1]
                if first == second and (
                    first == root_path or len(store.by_path(first)) < 2
                ):
                    continue  # cannot bind two terms to one root node
                chosen = {0: first, 1: second}
                break
            if chosen:
                break
        if chosen is None:
            return  # degenerate collection; nothing to check
        pattern = TwigPattern.from_paths(chosen)
        fast = sorted(
            TwigStackJoin(collection, store).match_tuples(pattern)
        )
        slow = sorted(NaiveTwigJoin(collection, store).match_tuples(pattern))
        assert fast == slow


class TestTopKEquivalence:
    @given(_random_collection(),
           st.sampled_from([["red"], ["red", "blue"], ["blue", "green"]]))
    @settings(max_examples=40, deadline=None)
    def test_ta_scores_equal_naive_scores(self, collection, words):
        inverted, _paths, _store, matcher = _wire(collection)
        graph = DataGraph(collection)
        scoring = ScoringModel(collection, inverted, graph)
        topk = TopKSearcher(matcher, scoring)
        naive = NaiveSearcher(matcher, scoring, max_combinations=10**6)
        query = Query.parse([("*", word) for word in words])
        bounded = topk.search(query, k=5)
        ta_scores = [round(result.score, 9) for result in bounded]
        naive_scores = [
            round(result.score, 9) for result in naive.search(query, k=5)
        ]
        assert ta_scores == naive_scores
        # The unbounded search (no pruning, no early stop) cut to k is
        # the bounded search, byte for byte.
        assert [
            (r.node_ids, r.content_scores, r.compactness, r.score)
            for r in topk.search(query, k=None)[:5]
        ] == [
            (r.node_ids, r.content_scores, r.compactness, r.score)
            for r in bounded
        ]

    @given(_random_collection(),
           st.sampled_from(["red", "blue", "green", "red blue"]))
    @settings(max_examples=40, deadline=None)
    def test_impact_stream_scores_equal_naive_content_scores(
        self, collection, words
    ):
        """The impact stream must carry exactly the scores a
        seed-style recomputation (re-analyzing each node's direct text)
        would produce -- same floats, impact-sorted."""
        inverted, _paths, _store, matcher = _wire(collection)
        graph = DataGraph(collection)
        scoring = ScoringModel(collection, inverted, graph)
        searcher = TopKSearcher(matcher, scoring)
        term = QueryTerm("*", words)
        stream = searcher._stream(term)
        analyzer = inverted.analyzer
        expected = {}
        for node_id in matcher.candidates(term):
            tokens = analyzer.terms(collection.node(node_id).direct_text)
            if not tokens:
                continue
            score = 0.0
            for word in term.search.terms():
                frequency = tokens.count(word)
                if frequency:
                    score += (
                        frequency
                        * inverted.inverse_document_frequency(word)
                    )
            if score > 0.0:
                expected[node_id] = score / (len(tokens) ** 0.5)
        assert dict(zip(stream.node_ids, stream.scores)) == expected
        pairs = stream.pairs()
        assert pairs == sorted(pairs, key=lambda pair: (-pair[0], pair[1]))

    @given(_random_collection())
    @settings(max_examples=30, deadline=None)
    def test_results_satisfy_definition_4(self, collection):
        inverted, _paths, _store, matcher = _wire(collection)
        graph = DataGraph(collection)
        scoring = ScoringModel(collection, inverted, graph)
        topk = TopKSearcher(matcher, scoring)
        query = Query.parse([("*", "red"), ("*", "blue")])
        for result in topk.search(query, k=5):
            # Every returned tuple is connected (Definition 4) and every
            # node satisfies its term (Definition 3).
            assert graph.connects(result.node_ids, max_hops=12)
            for node_id, term in zip(result.node_ids, query.terms):
                assert matcher.satisfies(node_id, term)


class TestDataguideAgainstCollection:
    @given(_random_collection(), st.sampled_from([0.2, 0.4, 0.7]))
    @settings(max_examples=40, deadline=None)
    def test_guides_cover_collection_paths(self, collection, threshold):
        from repro.summaries.dataguide import DataguideBuilder

        guide_set = DataguideBuilder(threshold).build(collection=collection)
        union = set()
        for guide in guide_set:
            union |= guide.paths
        assert union == set(collection.paths())


class TestPersistenceRoundtrip:
    """Split, merge and rebalance rebuild shards from live documents
    through ``_document_to_element``: its tree, serialized and parsed
    again, must be the same document."""

    @given(roots=st.lists(_random_element(attributes=True), min_size=1,
                          max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_store_roundtrip_preserves_structure(self, roots):
        from repro.shard.topology import _document_to_element

        collection = DocumentCollection()
        for root in roots:
            collection.add_document(root)
        rebuilt = DocumentCollection()
        for document in collection.documents:
            rebuilt.add_document(serialize(_document_to_element(document)))
        assert rebuilt.paths() == collection.paths()
        assert rebuilt.node_count == collection.node_count

        def attributes(nodes):
            return [(node.node_id, node.tag, node.direct_text)
                    for node in nodes if node.is_attribute]

        assert attributes(rebuilt.iter_nodes()) == attributes(
            collection.iter_nodes()
        )
