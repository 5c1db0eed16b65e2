"""Relative XML keys and the facts/dimensions registry."""

import pytest

from repro.cube.keys import KeyResolutionError, RelativeKey
from repro.cube.registry import CubeDefinition, Registry

PCT_PATH = "/country/economy/import_partners/item/percentage"
TC_PATH = "/country/economy/import_partners/item/trade_country"


def _percentage_nodes(collection):
    return [
        node for node in collection.iter_nodes()
        if node.path == PCT_PATH
    ]


class TestRelativeKeyValidation:
    def test_valid_components(self):
        RelativeKey(["/country", "/country/year", "../trade_country", "."])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RelativeKey([])

    @pytest.mark.parametrize("component", ["country", "year/x", "-bad"])
    def test_bad_component_rejected(self, component):
        with pytest.raises(ValueError):
            RelativeKey([component])


class TestResolution:
    def test_paper_percentage_key(self, figure2_collection):
        """The running example: (/country, /country/year,
        ../trade_country) pairs China with 15% and Canada with 16.9%."""
        key = RelativeKey(["/country", "/country/year", "../trade_country"])
        by_value = {}
        for node in _percentage_nodes(figure2_collection):
            values = key.resolve_values(
                figure2_collection, node.node_id
            )
            by_value[node.value] = values
        assert by_value["15%"] == ("United States", "2006", "China")
        assert by_value["16.9%"] == ("United States", "2006", "Canada")
        assert by_value["70.6%"] == ("Mexico", "2003", "United States")

    def test_dot_resolves_to_self(self, figure2_collection):
        key = RelativeKey(["."])
        node = _percentage_nodes(figure2_collection)[0]
        assert key.resolve_nodes(
            figure2_collection, node.node_id
        ) == [node.node_id]

    def test_absolute_scoped_to_document(self, figure2_collection):
        key = RelativeKey(["/country/year"])
        for node in _percentage_nodes(figure2_collection):
            (year_id,) = key.resolve_nodes(
                figure2_collection, node.node_id
            )
            assert figure2_collection.node(year_id).doc_id == node.doc_id

    def test_missing_component_raises(self, figure2_collection):
        key = RelativeKey(["/country/nonexistent"])
        node = _percentage_nodes(figure2_collection)[0]
        with pytest.raises(KeyResolutionError):
            key.resolve_nodes(figure2_collection, node.node_id)

    def test_ambiguous_component_raises(self, figure2_collection):
        # /country/economy/import_partners/item is ambiguous in usa-2006.
        key = RelativeKey(["/country/economy/import_partners/item"])
        node = _percentage_nodes(figure2_collection)[0]
        with pytest.raises(KeyResolutionError) as excinfo:
            key.resolve_nodes(figure2_collection, node.node_id)
        assert excinfo.value.count == 2

    def test_relative_parent_navigation(self, figure2_collection):
        key = RelativeKey(["../../../../year"])
        node = _percentage_nodes(figure2_collection)[0]
        (year_id,) = key.resolve_nodes(
            figure2_collection, node.node_id
        )
        assert figure2_collection.node(year_id).tag == "year"


class TestUniqueness:
    def test_paper_key_unique(self, figure2_collection):
        key = RelativeKey(["/country", "/country/year", "../trade_country"])
        nodes = [n.node_id for n in _percentage_nodes(figure2_collection)]
        unique, duplicates = key.verify_uniqueness(
            figure2_collection, nodes
        )
        assert unique
        assert duplicates == []

    def test_underspecified_key_not_unique(self, figure2_collection):
        """Without the trade_country component, the two percentages of
        usa-2006 collide -- the paper's motivation for relative keys."""
        key = RelativeKey(["/country", "/country/year"])
        nodes = [n.node_id for n in _percentage_nodes(figure2_collection)]
        unique, duplicates = key.verify_uniqueness(
            figure2_collection, nodes
        )
        assert not unique
        assert ("United States", "2006") in duplicates

    def test_same_node_twice_is_fine(self, figure2_collection):
        key = RelativeKey(["/country", "/country/year"])
        node = _percentage_nodes(figure2_collection)[0].node_id
        unique, _ = key.verify_uniqueness(
            figure2_collection, [node, node]
        )
        assert unique


class TestRegistry:
    def test_gdp_schema_evolution_contexts(self):
        """The GDP fact spans both GDP and GDP_ppp contexts (the
        paper's schema-evolution example)."""
        registry = Registry()
        key = RelativeKey(["/country", "/country/year"])
        fact = registry.add_fact(
            "GDP",
            [("/country/economy/GDP", key), ("/country/economy/GDP_ppp", key)],
        )
        assert fact.contexts == {
            "/country/economy/GDP", "/country/economy/GDP_ppp",
        }
        assert fact.matches_paths({"/country/economy/GDP"})
        assert fact.matches_paths(
            {"/country/economy/GDP", "/country/economy/GDP_ppp"}
        )

    def test_subset_match_semantics(self):
        registry = Registry()
        key = RelativeKey(["/country"])
        fact = registry.add_fact("f", [("/a", key), ("/b", key)])
        assert fact.matches_paths({"/a"})
        assert not fact.matches_paths({"/a", "/c"})
        assert fact.overlaps_paths({"/a", "/c"})
        assert not fact.overlaps_paths({"/c"})
        assert not fact.matches_paths(set())

    def test_full_and_partial_matches(self):
        registry = Registry()
        key = RelativeKey(["/x"])
        registry.add_fact("f", [("/a", key)])
        registry.add_dimension("d", [("/a", key), ("/b", key)])
        full = registry.full_matches({"/a"})
        assert {definition.name for definition in full} == {"f", "d"}
        partial = registry.partial_matches({"/b", "/c"})
        assert {definition.name for definition in partial} == {"d"}

    def test_dimension_for_context(self):
        registry = Registry()
        key = RelativeKey(["/x"])
        registry.add_dimension("year", [("/country/year", key)])
        assert registry.dimension_for_context("/country/year").name == "year"
        assert registry.dimension_for_context("/zzz") is None

    def test_remove(self):
        registry = Registry()
        key = RelativeKey(["/x"])
        registry.add_fact("f", [("/a", key)])
        registry.remove_fact("f")
        assert not registry.has_fact("f")

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            CubeDefinition("x", "measure", [("/a", RelativeKey(["/x"]))])

    def test_key_lists_accepted(self):
        definition = CubeDefinition("x", "fact", [("/a", ["/k1", "."])])
        assert isinstance(definition.key_for_context("/a"), RelativeKey)
        assert definition.key_for_context("/missing") is None
