"""Twig patterns, TwigStack vs naive equivalence, the document cut,
complete results."""

import pytest

from repro.datasets.factbook import FactbookGenerator
from repro.model.graph import DataGraph
from repro.model.links import LinkDiscoverer, ValueLinkSpec
from repro.query.term import Query
from repro.summaries.connection import LinkConnection, TreeConnection
from repro.system import Seda
from repro.twig.complete import CompleteResultGenerator
from repro.twig.pattern import TwigPattern
from repro.twig import twigstack as twigstack_module
from repro.twig.twigstack import NaiveTwigJoin, TwigStackJoin
from repro.model.graph import EdgeKind

TC_PATH = "/country/economy/import_partners/item/trade_country"
PCT_PATH = "/country/economy/import_partners/item/percentage"
ITEM_PATH = "/country/economy/import_partners/item"
PARTNERS_PATH = "/country/economy/import_partners"


class TestTwigPattern:
    def test_prefix_tree_shape(self):
        pattern = TwigPattern.from_paths({0: TC_PATH, 1: PCT_PATH})
        assert pattern.root.path == "/country"
        # Shared chain: economy -> import_partners -> item.
        tags = [node.tag for node in pattern.nodes()]
        assert tags.count("item") == 1
        assert pattern.term_indexes() == [0, 1]

    def test_root_binding(self):
        pattern = TwigPattern.from_paths({0: "/country", 1: "/country/year"})
        assert pattern.root.term_index == 0

    def test_distinct_roots_rejected(self):
        with pytest.raises(ValueError):
            TwigPattern.from_paths({0: "/a/b", 1: "/c/d"})

    def test_two_terms_same_path_get_own_leaves(self):
        pattern = TwigPattern.from_paths({0: PCT_PATH, 1: PCT_PATH})
        leaves = [node for node in pattern.nodes() if node.term_index is not None]
        assert len(leaves) == 2

    def test_output_nodes_in_term_order(self):
        pattern = TwigPattern.from_paths({2: TC_PATH, 0: PCT_PATH})
        assert pattern.term_indexes() == [0, 2]


@pytest.fixture
def joiners(figure2_collection):
    return (
        TwigStackJoin(figure2_collection),
        NaiveTwigJoin(figure2_collection),
    )


class TestTwigStack:
    def test_sibling_twig_matches(self, figure2_collection, joiners):
        twigstack, _naive = joiners
        pattern = TwigPattern.from_paths({0: TC_PATH, 1: PCT_PATH})
        tuples = twigstack.match_tuples(pattern)
        # Per document: items x items pairings under one shared item
        # node?  No: the shared item pattern node forces the SAME item,
        # so pairs are (tc, pct) of the same item: 2 + 1 + 2 = 5.
        assert len(tuples) == 5
        for tc_id, pct_id in tuples:
            tc = figure2_collection.node(tc_id)
            pct = figure2_collection.node(pct_id)
            assert tc.parent_id == pct.parent_id

    def test_root_plus_leaf(self, figure2_collection, joiners):
        twigstack, _naive = joiners
        pattern = TwigPattern.from_paths({0: "/country", 1: "/country/year"})
        tuples = twigstack.match_tuples(pattern)
        assert len(tuples) == 3

    def test_candidate_stream_filter(self, figure2_collection, joiners):
        twigstack, _naive = joiners
        china = [
            node.node_id for node in figure2_collection.iter_nodes()
            if node.tag == "trade_country" and node.value == "China"
        ]
        pattern = TwigPattern.from_paths({0: TC_PATH, 1: PCT_PATH})
        tuples = twigstack.match_tuples(pattern, candidate_streams={0: china})
        assert len(tuples) == 1
        pct = figure2_collection.node(tuples[0][1])
        assert pct.value == "15%"

    def test_empty_stream_no_matches(self, joiners):
        twigstack, _naive = joiners
        pattern = TwigPattern.from_paths({0: TC_PATH, 1: PCT_PATH})
        assert twigstack.match_tuples(pattern, candidate_streams={0: []}) == []

    @pytest.mark.parametrize(
        "term_paths",
        [
            {0: TC_PATH, 1: PCT_PATH},
            {0: "/country", 1: TC_PATH, 2: PCT_PATH},
            {0: "/country/year", 1: "/country/economy/GDP"},
            {0: ITEM_PATH, 1: TC_PATH},
            {0: PCT_PATH, 1: PCT_PATH},
        ],
    )
    def test_agrees_with_naive(self, joiners, term_paths):
        twigstack, naive = joiners
        pattern = TwigPattern.from_paths(term_paths)
        fast = sorted(twigstack.match_tuples(pattern))
        slow = sorted(naive.match_tuples(pattern))
        assert fast == slow


@pytest.fixture
def complete_generator(figure2_collection, figure2_matcher):
    graph = DataGraph(figure2_collection)
    LinkDiscoverer(graph).apply_value_links([
        ValueLinkSpec("/country", TC_PATH, label="trade partner"),
    ])
    return CompleteResultGenerator(
        figure2_collection, graph, figure2_matcher
    ), graph


QUERY_1_PAIRS = [
    ("*", '"United States"'),
    ("trade_country", "*"),
    ("percentage", "*"),
]
QUERY_1 = Query.parse(QUERY_1_PAIRS)

QUERY_1_PATHS = {0: "/country", 1: TC_PATH, 2: PCT_PATH}

SIBLING = TreeConnection(TC_PATH, PCT_PATH, ITEM_PATH)
COUSIN = TreeConnection(TC_PATH, PCT_PATH, PARTNERS_PATH)
COUNTRY_TC = TreeConnection("/country", TC_PATH, "/country")


class TestCompleteResults:
    def test_figure3_result_shape(self, figure2_collection,
                                  complete_generator):
        generator, _graph = complete_generator
        table = generator.generate(
            QUERY_1, QUERY_1_PATHS,
            connections=[((0, 1), COUNTRY_TC), ((1, 2), SIBLING)],
        )
        # US documents only (2006 has 2 items, 2002 has 1): 3 rows.
        assert len(table) == 3
        assert table.schema == [
            "nodeid1", "path1", "nodeid2", "path2", "nodeid3", "path3",
        ]
        for row in table.display_rows():
            assert row[1] == "/country"
            assert row[3] == TC_PATH
            assert row[5] == PCT_PATH

    def test_sibling_constraint_enforced(self, figure2_collection,
                                         complete_generator):
        generator, _graph = complete_generator
        table = generator.generate(
            QUERY_1, QUERY_1_PATHS,
            connections=[((0, 1), COUNTRY_TC), ((1, 2), SIBLING)],
        )
        for _us, tc_id, pct_id in table.rows:
            assert (
                figure2_collection.node(tc_id).parent_id
                == figure2_collection.node(pct_id).parent_id
            )

    def test_cousin_constraint_selects_cross_item_pairs(
        self, figure2_collection, complete_generator
    ):
        generator, _graph = complete_generator
        table = generator.generate(
            QUERY_1, QUERY_1_PATHS,
            connections=[((0, 1), COUNTRY_TC), ((1, 2), COUSIN)],
        )
        assert len(table) == 2  # usa-2006: (China, 16.9%) and (Canada, 15%)
        for _us, tc_id, pct_id in table.rows:
            assert (
                figure2_collection.node(tc_id).parent_id
                != figure2_collection.node(pct_id).parent_id
            )

    def test_link_connection_cross_twig_join(self, figure2_collection,
                                             complete_generator):
        generator, _graph = complete_generator
        query = Query.parse([
            ("/country", '"United States"'),
            ("trade_country", '"United States"'),
        ])
        link = LinkConnection(
            "/country", TC_PATH, TC_PATH, "/country",
            EdgeKind.VALUE, "trade partner",
        )
        table = generator.generate(
            query, {0: "/country", 1: TC_PATH},
            connections=[((0, 1), link)],
        )
        # Mexico's import 'United States' links to both US documents.
        assert len(table) == 2

    def test_missing_term_path_raises(self, complete_generator):
        generator, _graph = complete_generator
        with pytest.raises(ValueError):
            generator.generate(QUERY_1, {0: "/country"})

    def test_no_connections_connectivity_product(self, figure2_collection,
                                                 complete_generator):
        generator, _graph = complete_generator
        query = Query.parse([("year", "2006"), ("GDP_ppp", "*")])
        table = generator.generate(
            query, {0: "/country/year", 1: "/country/economy/GDP_ppp"}
        )
        assert len(table) == 1  # same usa-2006 document

    def test_rows_deduplicated_and_sorted(self, complete_generator):
        generator, _graph = complete_generator
        table = generator.generate(
            QUERY_1, QUERY_1_PATHS,
            connections=[((0, 1), COUNTRY_TC), ((1, 2), SIBLING)],
        )
        assert table.rows == sorted(set(table.rows))

    def test_column_paths_and_values(self, complete_generator):
        generator, _graph = complete_generator
        table = generator.generate(
            QUERY_1, QUERY_1_PATHS,
            connections=[((0, 1), COUNTRY_TC), ((1, 2), SIBLING)],
        )
        assert table.column_paths(1) == {TC_PATH}
        assert set(table.values(2)) <= {"15%", "16.9%", "17.8%"}


class TestDocumentCut:
    """TwigStack walks only the documents that can hold a match."""

    @staticmethod
    def _query1_table(seda):
        session = seda.search(QUERY_1_PAIRS, k=10)
        refined = session.refine_contexts(
            {index: [path] for index, path in QUERY_1_PATHS.items()}
        )
        chosen = refined.refine_connections(
            [((0, 1), COUNTRY_TC), ((1, 2), SIBLING)]
        )
        return chosen.complete_results()

    def test_streams_hold_only_anchor_documents(self, small_factbook_seda,
                                                monkeypatch):
        recorded = []

        class _RecordingStream(twigstack_module._Stream):
            def __init__(self, items):
                recorded.extend(items)
                super().__init__(items)

        monkeypatch.setattr(twigstack_module, "_Stream", _RecordingStream)
        table = self._query1_table(small_factbook_seda)
        monkeypatch.undo()

        collection = small_factbook_seda.collection
        us_documents = {
            document.doc_id for document in collection.documents
            if document.root.value == "United States"
        }
        assert 0 < len(us_documents) < len(collection.documents)
        assert recorded
        assert {collection.node(node_id).doc_id for node_id in recorded} \
            <= us_documents

        generator = FactbookGenerator(scale=0.02)
        fresh = Seda.from_documents(
            generator.documents(),
            value_links=FactbookGenerator.value_link_specs(),
        )
        assert table.rows
        assert table.rows == self._query1_table(fresh).rows
