"""Cross-implementation equivalence on randomized collections.

Hypothesis generates small random document collections; the properties
assert that independent implementations agree:

* index-based candidate enumeration == brute-force Definition 3 scan;
* TwigStack == naive structural join on random twigs, with and without
  candidate streams (strict document subsets, disjoint documents, an
  empty candidate set);
* TA top-k answers == exhaustive search answers, for two to four terms,
  under the ranking ablation's weights, and over value links;
* path-index term buckets == paths of scanned matching nodes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.index.builder import IndexBuilder
from repro.model.collection import DocumentCollection
from repro.model.graph import DataGraph
from repro.model.links import LinkDiscoverer, ValueLinkSpec
from repro.query.matcher import TermMatcher
from repro.query.term import Query, QueryTerm
from repro.search.naive import NaiveSearcher
from repro.search.scoring import ScoringModel
from repro.search.topk import TopKSearcher
from repro.twig.pattern import TwigPattern
from repro.twig.twigstack import NaiveTwigJoin, TwigStackJoin
from repro.xmlio import serialize
from repro.xmlio.dom import Element

_TAGS = ("a", "b", "c", "d")
_WORDS = ("red", "blue", "green", "red blue", "blue green red")
#: Attribute values, with characters serialization must escape.
_VALUES = ("1", "red blue", "<2>", "a & b", 'say "hi"', "caf\u00e9", "")
#: Top-k query terms: keywords, a tag-scoped keyword, a match-all.
_TA_TERMS = (("*", "red"), ("*", "blue"), ("b", "green"), ("a", "*"))
#: Combined ranking and the paper's two ablations (content, structure).
_WEIGHTS = ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0))


@st.composite
def _random_element(draw, depth=0, attributes=False, max_depth=3):
    element = Element(draw(st.sampled_from(_TAGS)))
    if attributes:
        element.attributes.update(draw(st.dictionaries(
            st.sampled_from(("x", "y", "id")), st.sampled_from(_VALUES),
            max_size=2,
        )))
    if draw(st.booleans()):
        element.append(draw(st.sampled_from(_WORDS)))
    if depth < max_depth:
        for child in draw(
            st.lists(
                st.deferred(
                    lambda: _random_element(  # noqa: B023
                        depth + 1, attributes, max_depth
                    )
                ),
                max_size=3,
            )
        ):
            element.append(child)
    return element


@st.composite
def _random_collection(draw, min_documents=1, root_tag=None, max_depth=3):
    """Up to four random documents; ``root_tag`` gives them all one
    root, so that twigs over shared paths match in many documents."""
    collection = DocumentCollection()
    for root in draw(st.lists(_random_element(max_depth=max_depth),
                              min_size=min_documents, max_size=4)):
        if root_tag is not None:
            root.tag = root_tag
        collection.add_document(root)
    return collection


def _wire(collection):
    inverted, paths = IndexBuilder(collection).build()
    matcher = TermMatcher(collection, inverted, paths)
    return inverted, paths, matcher


class TestCandidatesAgainstScan:
    @given(_random_collection(), st.sampled_from(["red", "blue", "green"]),
           st.sampled_from(["*", "a", "b"]))
    @settings(max_examples=60, deadline=None)
    def test_index_matches_definition3_scan(self, collection, word, context):
        _inverted, _paths, matcher = _wire(collection)
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
        _inverted, _paths, matcher = _wire(collection)
        phrase_term = QueryTerm("*", '"blue green"')
        word_term = QueryTerm("*", "blue")
        assert set(matcher.candidates(phrase_term)) <= set(
            matcher.candidates(word_term)
        )

    @given(_random_collection(), st.sampled_from(["red", "blue"]))
    @settings(max_examples=40, deadline=None)
    def test_term_paths_match_candidate_paths(self, collection, word):
        _inverted, _paths, matcher = _wire(collection)
        term = QueryTerm("*", word)
        from_index = matcher.term_paths(term)
        from_nodes = {
            collection.node(node_id).path
            for node_id in matcher.candidates(term)
        }
        assert from_index == from_nodes


def _two_path_pattern(collection):
    """A twig over the two most frequent paths sharing a root, or
    ``None`` for a degenerate collection."""
    paths = sorted(
        collection.paths(),
        key=lambda path: -len(collection.by_path(path)),
    )
    for i, first in enumerate(paths):
        for second in paths[i:]:
            if first.split("/")[1] != second.split("/")[1]:
                continue
            root_path = "/" + first.split("/")[1]
            if first == second and (
                first == root_path or len(collection.by_path(first)) < 2
            ):
                continue  # cannot bind two terms to one root node
            return TwigPattern.from_paths({0: first, 1: second})
    return None


def _document_nodes(collection, doc_ids, data):
    """Node ids of the given documents, a few drawn ones dropped, in
    drawn order."""
    ids = [
        node.node_id
        for doc_id in sorted(doc_ids)
        for node in collection.documents[doc_id].nodes
    ]
    dropped = data.draw(st.sets(st.sampled_from(ids), max_size=3))
    return data.draw(st.permutations(
        [node_id for node_id in ids if node_id not in dropped]
    ))


class TestTwigEquivalence:
    @given(_random_collection())
    @settings(max_examples=50, deadline=None)
    def test_twigstack_equals_naive(self, collection):
        pattern = _two_path_pattern(collection)
        if pattern is None:
            return  # degenerate collection; nothing to check
        fast = sorted(
            TwigStackJoin(collection).match_tuples(pattern)
        )
        slow = sorted(NaiveTwigJoin(collection).match_tuples(pattern))
        assert fast == slow


class TestTwigEquivalenceWithCandidates:
    """The production path: ``CompleteResultGenerator`` always passes
    candidate streams, which TwigStack cuts to the documents holding an
    item of every stream before it joins."""

    @staticmethod
    def _join(collection, pattern, candidates):
        fast = sorted(TwigStackJoin(collection).match_tuples(
            pattern, candidate_streams=candidates
        ))
        slow = sorted(NaiveTwigJoin(collection).match_tuples(
            pattern, candidate_streams=candidates
        ))
        assert fast == slow
        return fast

    @given(_random_collection(min_documents=2, root_tag="a"), st.data())
    @settings(max_examples=60, deadline=None)
    def test_strict_document_subsets(self, collection, data):
        pattern = _two_path_pattern(collection)
        if pattern is None:
            return
        document_ids = range(len(collection.documents))
        candidates = {}
        for index in pattern.term_indexes():
            chosen = data.draw(st.sets(
                st.sampled_from(document_ids),
                min_size=1, max_size=len(document_ids) - 1,
            ))
            candidates[index] = _document_nodes(collection, chosen, data)
        self._join(collection, pattern, candidates)

    @given(_random_collection(min_documents=2, root_tag="a"), st.data())
    @settings(max_examples=60, deadline=None)
    def test_disjoint_documents_match_nothing(self, collection, data):
        pattern = _two_path_pattern(collection)
        if pattern is None:
            return
        document_ids = set(range(len(collection.documents)))
        first = data.draw(st.sets(
            st.sampled_from(sorted(document_ids)),
            min_size=1, max_size=len(document_ids) - 1,
        ))
        candidates = {
            0: _document_nodes(collection, first, data),
            1: _document_nodes(collection, document_ids - first, data),
        }
        assert self._join(collection, pattern, candidates) == []

    @given(_random_collection(), st.integers(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_empty_candidate_set_matches_nothing(self, collection, empty):
        pattern = _two_path_pattern(collection)
        if pattern is None:
            return
        candidates = {
            index: [] if index == empty else [
                node.node_id for node in collection.iter_nodes()
            ]
            for index in pattern.term_indexes()
        }
        assert self._join(collection, pattern, candidates) == []


class TestTopKEquivalence:
    @given(_random_collection(),
           st.sampled_from([["red"], ["red", "blue"], ["blue", "green"]]))
    @settings(max_examples=40, deadline=None)
    def test_ta_scores_equal_naive_scores(self, collection, words):
        inverted, _paths, matcher = _wire(collection)
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

    @given(_random_collection(max_depth=2),
           st.lists(st.sampled_from(_TA_TERMS), min_size=2, max_size=4),
           st.sampled_from(_WEIGHTS), st.sampled_from([None, 1, 3, 8]))
    @settings(max_examples=60, deadline=None)
    def test_every_arity_and_weighting_equals_naive(
        self, collection, pairs, weights, k
    ):
        """Two to four terms (a term may repeat: its nodes must still be
        distinct) under the ranking ablation's weights: the top-k
        answer is the exhaustive one, scores and order to the bit."""
        inverted, _paths, matcher = _wire(collection)
        self._assert_equals_naive(
            collection, inverted, matcher, DataGraph(collection),
            Query.parse(pairs), weights, k,
        )

    @given(_random_collection(max_depth=2), st.data(),
           st.lists(st.sampled_from(_TA_TERMS), min_size=2, max_size=2),
           st.sampled_from(_WEIGHTS), st.sampled_from([None, 1, 3, 8]))
    @settings(max_examples=60, deadline=None)
    def test_value_linked_corpora_equal_naive(
        self, collection, data, pairs, weights, k
    ):
        """Cross-document partners over value links.  Two terms: a
        partner must be one link from the new node's document, which
        for a pair is exactly the set a connectable tuple can use.
        With three or more terms the searcher misses tuples whose
        members are linked only through the first member's document
        (ROADMAP item 11, the strict xfail in ``test_search.py``)."""
        inverted, _paths, matcher = _wire(collection)
        graph = DataGraph(collection)
        paths = sorted(collection.paths())
        primary = data.draw(st.sampled_from(paths))
        foreign = data.draw(st.sampled_from(paths))
        LinkDiscoverer(graph).apply_value_links(
            [ValueLinkSpec(primary, foreign, label="same value")]
        )
        self._assert_equals_naive(
            collection, inverted, matcher, graph, Query.parse(pairs),
            weights, k,
        )

    @staticmethod
    def _assert_equals_naive(collection, inverted, matcher, graph, query,
                             weights, k):
        content_weight, structure_weight = weights
        scoring = ScoringModel(
            collection, inverted, graph, content_weight=content_weight,
            structure_weight=structure_weight,
        )
        naive = NaiveSearcher(matcher, scoring, max_combinations=10**6)
        try:
            expected = naive.search(query, k=k)
        except ValueError:
            return  # the cross product is past the oracle's cap
        found = TopKSearcher(matcher, scoring).search(query, k=k)
        assert [
            (r.node_ids, r.content_scores, r.compactness, r.score)
            for r in found
        ] == [
            (r.node_ids, tuple(r.content_scores), r.compactness, r.score)
            for r in expected
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
        inverted, _paths, matcher = _wire(collection)
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
        inverted, _paths, matcher = _wire(collection)
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
