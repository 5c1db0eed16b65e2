"""Inverted index and path index (Figure 8)."""

from repro.index.builder import IndexBuilder
from repro.index.inverted import InvertedIndex, Posting
from repro.model.collection import DocumentCollection
from repro.text.analyzer import Analyzer


class TestInvertedIndex:
    def test_postings_dewey_ordered(self, figure2_collection):
        inverted, _paths = IndexBuilder(figure2_collection).build()
        postings = inverted.postings("canada")
        node_ids = [posting.node_id for posting in postings]
        assert node_ids == sorted(node_ids)
        assert len(node_ids) == 3  # usa-2006 import+export, usa-2002 import

    def test_positions_recorded(self):
        index = InvertedIndex(Analyzer())
        index.add_node(7, "alpha beta alpha")
        posting = index.postings("alpha")[0]
        assert posting.positions == (0, 2)
        assert posting.term_frequency == 2

    def test_empty_text_not_indexed(self):
        index = InvertedIndex(Analyzer())
        index.add_node(1, "")
        assert index.indexed_nodes == 0

    def test_document_frequency(self, figure2_collection):
        inverted, _paths = IndexBuilder(figure2_collection).build()
        assert inverted.document_frequency("united") == 4
        assert inverted.document_frequency("zzz") == 0

    def test_idf_monotone(self, figure2_collection):
        inverted, _paths = IndexBuilder(figure2_collection).build()
        rare = inverted.inverse_document_frequency("germany")
        common = inverted.inverse_document_frequency("united")
        assert rare > common

    def test_unknown_term_max_idf(self):
        index = InvertedIndex(Analyzer())
        index.add_node(1, "a b")
        assert index.inverse_document_frequency("zzz") >= (
            index.inverse_document_frequency("a")
        )

    def test_phrase_match(self, figure2_collection):
        inverted, _paths = IndexBuilder(figure2_collection).build()
        nodes = inverted.nodes_with_phrase(["united", "states"])
        values = {
            figure2_collection.node(node_id).value for node_id in nodes
        }
        assert values == {"United States"}
        assert len(nodes) == 4

    def test_phrase_requires_adjacency(self):
        index = InvertedIndex(Analyzer())
        index.add_node(1, "united arab emirates states")
        assert index.nodes_with_phrase(["united", "states"]) == []

    def test_phrase_order_matters(self):
        index = InvertedIndex(Analyzer())
        index.add_node(1, "states united")
        assert index.nodes_with_phrase(["united", "states"]) == []
        assert index.nodes_with_phrase(["states", "united"]) == [1]

    def test_single_word_phrase(self):
        index = InvertedIndex(Analyzer())
        index.add_node(3, "hello")
        assert index.nodes_with_phrase(["hello"]) == [3]

    def test_phrase_with_missing_term(self):
        index = InvertedIndex(Analyzer())
        index.add_node(1, "only this")
        assert index.nodes_with_phrase(["only", "that"]) == []

    def test_phrase_repeated_word(self):
        index = InvertedIndex(Analyzer())
        index.add_node(1, "no no nanette")
        assert index.nodes_with_phrase(["no", "no", "nanette"]) == [1]

    def test_posting_equality(self):
        assert Posting(1, (0,)) == Posting(1, (0,))
        assert Posting(1, (0,)) != Posting(2, (0,))

    def test_node_lengths_recorded_at_build_time(self):
        index = InvertedIndex(Analyzer())
        index.add_node(1, "alpha beta alpha")
        index.add_node(2, "gamma")
        assert index.node_length(1) == 3
        assert index.node_length(2) == 1
        assert index.node_length(99) == 0

    def test_node_lengths_survive_snapshot(self):
        index = InvertedIndex(Analyzer())
        index.add_node(1, "alpha beta alpha")
        restored = InvertedIndex.from_dict(index.to_dict(), Analyzer())
        assert restored.node_length(1) == 3

    def test_term_frequency_random_access(self):
        index = InvertedIndex(Analyzer())
        index.add_node(1, "alpha beta alpha")
        index.add_node(5, "alpha")
        assert index.term_frequencies("alpha") == {1: 2, 5: 1}
        assert index.term_frequencies("zzz") == {}

    def test_term_frequencies_invalidated_by_add_node(self):
        index = InvertedIndex(Analyzer())
        index.add_node(1, "alpha")
        assert index.term_frequencies("alpha") == {1: 1}
        index.add_node(2, "alpha alpha")
        assert index.term_frequencies("alpha") == {1: 1, 2: 2}

    def test_idf_cache_invalidated_by_add_node(self):
        index = InvertedIndex(Analyzer())
        index.add_node(1, "alpha")
        before = index.inverse_document_frequency("alpha")
        index.add_node(2, "beta")
        after = index.inverse_document_frequency("alpha")
        assert after > before  # N grew, df did not


class TestPathIndex:
    def test_term_paths(self, figure2_collection):
        _inverted, paths = IndexBuilder(figure2_collection).build()
        assert paths.paths_for_term("germany") == {
            "/country/economy/import_partners/item/trade_country"
        }

    def test_tag_probe(self, figure2_collection):
        _inverted, paths = IndexBuilder(figure2_collection).build()
        assert paths.paths_for_tag("percentage") == {
            "/country/economy/import_partners/item/percentage",
            "/country/economy/export_partners/item/percentage",
        }

    def test_tag_wildcard(self, figure2_collection):
        _inverted, paths = IndexBuilder(figure2_collection).build()
        matched = paths.paths_for_tag("GDP*")
        assert matched == {
            "/country/economy/GDP",
            "/country/economy/GDP_ppp",
        }

    def test_full_path_probe(self, figure2_collection):
        _inverted, paths = IndexBuilder(figure2_collection).build()
        path = "/country/economy/import_partners/item/percentage"
        assert paths.paths_for_path(path) == {path}
        assert paths.paths_for_path("/country/nope/percentage") == set()

    def test_counts_live_in_collection_not_index(self, figure2_collection):
        """The paper stores per-path counts in the document store, not
        in the posting lists; the index exposes only path sets."""
        _inverted, paths = IndexBuilder(figure2_collection).build()
        bucket = paths.paths_for_term("canada")
        assert isinstance(bucket, set)
        for path in bucket:
            assert figure2_collection.path_occurrences(path) > 0

    def test_all_paths_matches_collection(self, figure2_collection):
        _inverted, paths = IndexBuilder(figure2_collection).build()
        assert paths.all_paths() == set(figure2_collection.paths())


class TestIncrementalBuild:
    def test_build_twice_no_duplicates(self, figure2_collection):
        builder = IndexBuilder(figure2_collection)
        inverted, _paths = builder.build()
        before = inverted.document_frequency("canada")
        builder.build()
        assert inverted.document_frequency("canada") == before

    def test_new_documents_indexed(self):
        collection = DocumentCollection()
        collection.add_document("<a>one</a>")
        builder = IndexBuilder(collection)
        inverted, paths = builder.build()
        assert inverted.document_frequency("one") == 1
        collection.add_document("<a>two</a>")
        builder.build()
        assert inverted.document_frequency("two") == 1
