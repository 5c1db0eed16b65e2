"""Automatic fact/dimension/key discovery (the Section 8 extension)."""

import pytest

from repro.cube.discovery import (
    Candidate,
    FactDimensionDiscoverer,
    discover_key,
)
from repro.cube.registry import Registry

TC_PATH = "/country/economy/import_partners/item/trade_country"
PCT_PATH = "/country/economy/import_partners/item/percentage"


@pytest.fixture(scope="module")
def factbook():
    from repro.datasets.factbook import FactbookGenerator

    collection = FactbookGenerator(scale=0.01).build_collection()
    return collection


class TestKeyDiscovery:
    def test_percentage_key_found(self, factbook):
        """The discovered key must verify uniqueness on the data --
        the paper's GORDIAN future-work item."""
        collection = factbook
        key = discover_key(collection, PCT_PATH)
        assert key is not None
        node_ids = collection.by_path(PCT_PATH)
        unique, _ = key.verify_uniqueness(collection, node_ids)
        assert unique

    def test_discovered_key_includes_discriminator(self, factbook):
        """(country, year) alone cannot key percentages: the key must
        carry something item-local, like the paper's ../trade_country."""
        collection = factbook
        key = discover_key(collection, PCT_PATH)
        assert any(component.startswith("..") for component in key)

    def test_unique_path_gets_document_key(self, factbook):
        collection = factbook
        key = discover_key(collection, "/country/year")
        assert key is not None
        unique, _ = key.verify_uniqueness(
            collection, collection.by_path("/country/year")
        )
        assert unique

    def test_missing_path_returns_none(self, factbook):
        collection = factbook
        assert discover_key(collection, "/nope/nothing") is None

    def test_minimality(self, figure2_collection):
        """The search returns a smallest verified key: a single
        document-unique component when one suffices."""
        key = discover_key(figure2_collection, "/country/year")
        assert key is not None
        assert len(key) <= 2


class TestProfiles:
    def test_numeric_profile(self, factbook):
        collection = factbook
        discoverer = FactDimensionDiscoverer(collection)
        profiles = discoverer.profile_paths([PCT_PATH])
        profile = profiles[PCT_PATH]
        assert profile.numeric_ratio == 1.0
        assert profile.count == len(collection.by_path(PCT_PATH))

    def test_categorical_profile(self, factbook):
        collection = factbook
        discoverer = FactDimensionDiscoverer(collection)
        profiles = discoverer.profile_paths([TC_PATH])
        profile = profiles[TC_PATH]
        assert profile.numeric_ratio < 0.2
        assert profile.cardinality_ratio < 1.0

    def test_empty_paths_skipped(self, factbook):
        collection = factbook
        discoverer = FactDimensionDiscoverer(collection)
        profiles = discoverer.profile_paths(
            ["/country/economy/import_partners"]
        )
        # Interior nodes have no direct value.
        assert "/country/economy/import_partners" not in profiles


class TestDiscovery:
    def test_percentage_discovered_as_fact(self, factbook):
        collection = factbook
        discoverer = FactDimensionDiscoverer(collection)
        facts, _dims = discoverer.discover(
            paths=[PCT_PATH, TC_PATH, "/country/year"]
        )
        fact_paths = {candidate.path for candidate in facts}
        assert PCT_PATH in fact_paths

    def test_trade_country_discovered_as_dimension(self, factbook):
        collection = factbook
        # At the tiny test scale, partner names repeat less than at full
        # scale; loosen the cardinality threshold accordingly.
        discoverer = FactDimensionDiscoverer(
            collection, dimension_cardinality=0.9
        )
        _facts, dims = discoverer.discover(
            paths=[PCT_PATH, TC_PATH, "/country/year"]
        )
        dim_paths = {candidate.path for candidate in dims}
        assert TC_PATH in dim_paths

    def test_candidates_carry_verified_keys(self, factbook):
        collection = factbook
        discoverer = FactDimensionDiscoverer(collection)
        facts, dims = discoverer.discover(
            paths=[PCT_PATH, TC_PATH]
        )
        for candidate in facts + dims:
            node_ids = collection.by_path(candidate.path)
            unique, _ = candidate.key.verify_uniqueness(
                collection, node_ids
            )
            assert unique

    def test_rare_paths_skipped(self, factbook):
        collection = factbook
        discoverer = FactDimensionDiscoverer(
            collection, min_occurrences=10**6
        )
        facts, dims = discoverer.discover(paths=[PCT_PATH, TC_PATH])
        assert facts == [] and dims == []

    def test_register_installs_candidates(self, factbook):
        collection = factbook
        discoverer = FactDimensionDiscoverer(collection)
        facts, dims = discoverer.discover(paths=[PCT_PATH, TC_PATH])
        registry = discoverer.register(Registry(), facts, dims)
        assert registry.facts or registry.dimensions
        for candidate in facts:
            assert registry.has_fact(candidate.suggested_name())

    def test_suggested_names(self):
        candidate = Candidate(
            "fact", PCT_PATH, None, None, 1.0
        )
        assert candidate.suggested_name() == "item-percentage"

    def test_discovered_definitions_usable_in_cube(self, factbook):
        """End to end: auto-discovered definitions drive extraction."""
        from repro.cube.augment import Augmenter
        from repro.cube.extract import TableExtractor
        from repro.cube.matching import ResultMatcher
        from repro.index.builder import IndexBuilder
        from repro.query.matcher import TermMatcher
        from repro.query.term import Query
        from repro.model.graph import DataGraph
        from repro.summaries.connection import TreeConnection
        from repro.twig.complete import CompleteResultGenerator

        collection = factbook
        discoverer = FactDimensionDiscoverer(collection)
        facts, dims = discoverer.discover(paths=[PCT_PATH, TC_PATH])
        registry = discoverer.register(Registry(), facts, dims)

        inverted, paths = IndexBuilder(collection).build()
        matcher = TermMatcher(collection, inverted, paths)
        generator = CompleteResultGenerator(
            collection, DataGraph(collection), matcher
        )
        query = Query.parse([("trade_country", "*"), ("percentage", "*")])
        item = "/country/economy/import_partners/item"
        table = generator.generate(
            query, {0: TC_PATH, 1: PCT_PATH},
            connections=[((0, 1), TreeConnection(TC_PATH, PCT_PATH, item))],
        )
        report = ResultMatcher(registry).match(table)
        assert report.facts
        augmented = Augmenter(collection, registry).augment(
            table, report.facts, report.dimensions
        )
        schema = TableExtractor(collection, registry).extract(
            augmented, report.facts,
            report.dimensions + augmented.auto_dimensions,
        )
        fact_table = schema.fact(report.facts[0].name)
        assert len(fact_table) > 0
