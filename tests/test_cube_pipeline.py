"""Cube steps 1-3: matching, augmentation, extraction (Figure 3)."""

import pytest

from repro.cube.augment import Augmenter
from repro.cube.extract import TableExtractor, parse_measure
from repro.cube.matching import ResultMatcher
from repro.cube.registry import Registry
from repro.cube.star import DimensionTable, FactTable, StarSchema
from repro.model.graph import DataGraph
from repro.query.term import Query
from repro.summaries.connection import TreeConnection
from repro.twig.complete import CompleteResultGenerator

TC_PATH = "/country/economy/import_partners/item/trade_country"
PCT_PATH = "/country/economy/import_partners/item/percentage"
ITEM_PATH = "/country/economy/import_partners/item"


def _figure3_registry():
    registry = Registry()
    country_key = ["/country", "/country/year"]
    registry.add_dimension("country", [("/country", country_key)])
    registry.add_dimension("year", [("/country/year", country_key)])
    registry.add_dimension(
        "import-country", [(TC_PATH, ["/country", "/country/year", "."])]
    )
    registry.add_fact(
        "import-trade-percentage",
        [(PCT_PATH, ["/country", "/country/year", "../trade_country"])],
    )
    registry.add_fact(
        "GDP",
        [
            ("/country/economy/GDP", country_key),
            ("/country/economy/GDP_ppp", country_key),
        ],
    )
    return registry


@pytest.fixture
def figure3_pipeline(figure2_collection, figure2_matcher):
    graph = DataGraph(figure2_collection)
    generator = CompleteResultGenerator(
        figure2_collection, graph, figure2_matcher
    )
    query = Query.parse([
        ("*", '"United States"'),
        ("trade_country", "*"),
        ("percentage", "*"),
    ])
    table = generator.generate(
        query,
        {0: "/country", 1: TC_PATH, 2: PCT_PATH},
        connections=[
            ((0, 1), TreeConnection("/country", TC_PATH, "/country")),
            ((1, 2), TreeConnection(TC_PATH, PCT_PATH, ITEM_PATH)),
        ],
    )
    registry = _figure3_registry()
    return figure2_collection, registry, table


class TestParseMeasure:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("15", 15.0),
            ("16.9%", 16.9),
            ("12.31T", 12.31e12),
            ("924.4B", 924.4e9),
            ("3.5M", 3.5e6),
            ("2K", 2000.0),
            ("1,234.5", 1234.5),
            ("$400", 400.0),
            ("-7.5", -7.5),
            ("2.5 billion", 2.5e9),
        ],
    )
    def test_parses(self, text, expected):
        assert parse_measure(text) == pytest.approx(expected)

    @pytest.mark.parametrize("text", ["", "abc", "12abc", None, "T12"])
    def test_non_numeric_none(self, text):
        assert parse_measure(text) is None


class TestMatching:
    def test_figure3_columns_match(self, figure3_pipeline):
        collection, registry, table = figure3_pipeline
        report = ResultMatcher(registry).match(table)
        assert report.column(0).dimensions[0].name == "country"
        assert report.column(1).dimensions[0].name == "import-country"
        assert report.column(2).facts[0].name == "import-trade-percentage"
        assert {f.name for f in report.facts} == {"import-trade-percentage"}
        assert {d.name for d in report.dimensions} == {
            "country", "import-country",
        }

    def test_unmatched_column_reported(self, figure3_pipeline):
        collection, _registry, table = figure3_pipeline
        empty_registry = Registry()
        report = ResultMatcher(empty_registry).match(table)
        assert len(report.unmatched_columns()) == 3

    def test_partial_match_warning(self, figure3_pipeline):
        collection, registry, table = figure3_pipeline
        registry.add_dimension(
            "half", [("/country", ["/country"]), ("/unused", ["/country"])]
        )
        # Column 0 paths = {/country} which IS a subset of half's
        # contexts, so make a genuinely partial definition:
        registry.add_fact("odd", [(PCT_PATH, ["."]), ("/only/partial", ["."])])
        report = ResultMatcher(registry).match(table)
        # percentage column: matches both import-trade-percentage and odd.
        assert {f.name for f in report.column(2).facts} >= {
            "import-trade-percentage"
        }

    def test_define_new_dimension_with_key_verification(
        self, figure3_pipeline
    ):
        collection, registry, table = figure3_pipeline
        matcher = ResultMatcher(registry)
        definition = matcher.define_new(
            "partner", "dimension", table, 1,
            ["/country", "/country/year", "."], collection,
        )
        assert registry.has_dimension("partner")
        assert TC_PATH in definition.contexts

    def test_define_new_rejects_non_unique_key(self, figure3_pipeline):
        collection, registry, table = figure3_pipeline
        matcher = ResultMatcher(registry)
        with pytest.raises(ValueError):
            # (/country, /country/year) collides for the two 2006 items.
            matcher.define_new(
                "bad", "fact", table, 2, ["/country", "/country/year"],
                collection,
            )


class TestAugmentation:
    def test_year_column_added(self, figure3_pipeline):
        """Figure 3: the /country/year key column is added and the year
        dimension joins automatically."""
        collection, registry, table = figure3_pipeline
        report = ResultMatcher(registry).match(table)
        augmenter = Augmenter(collection, registry)
        augmented = augmenter.augment(table, report.facts, report.dimensions)
        assert "/country/year" in augmented.added_columns
        assert [d.name for d in augmented.auto_dimensions] == ["year"]
        years = augmented.column_values("/country/year")
        assert set(years) == {"2006", "2002"}

    def test_relative_component_column(self, figure3_pipeline):
        collection, registry, table = figure3_pipeline
        report = ResultMatcher(registry).match(table)
        augmented = Augmenter(collection, registry).augment(
            table, report.facts, report.dimensions
        )
        assert "../trade_country" in augmented.added_columns
        partners = augmented.column_values("../trade_country")
        assert set(partners) == {"China", "Canada"}

    def test_no_failures_on_clean_data(self, figure3_pipeline):
        collection, registry, table = figure3_pipeline
        report = ResultMatcher(registry).match(table)
        augmented = Augmenter(collection, registry).augment(
            table, report.facts, report.dimensions
        )
        assert augmented.failures == []


class TestExtraction:
    def _schema(self, figure3_pipeline):
        collection, registry, table = figure3_pipeline
        report = ResultMatcher(registry).match(table)
        augmenter = Augmenter(collection, registry)
        augmented = augmenter.augment(table, report.facts, report.dimensions)
        dimensions = report.dimensions + augmented.auto_dimensions
        extractor = TableExtractor(collection, registry)
        return extractor.extract(augmented, report.facts, dimensions)

    def test_figure3_fact_table(self, figure3_pipeline):
        schema = self._schema(figure3_pipeline)
        fact = schema.fact("import-trade-percentage")
        assert fact.key_columns == ["country", "year", "import-country"]
        rows = set(fact.rows)
        assert ("United States", "2006", "China", 15.0) in rows
        assert ("United States", "2006", "Canada", 16.9) in rows
        assert ("United States", "2002", "Canada", 17.8) in rows
        assert len(rows) == 3

    def test_figure3_dimension_tables(self, figure3_pipeline):
        schema = self._schema(figure3_pipeline)
        assert list(schema.dimension("year")) == ["2002", "2006"]
        assert list(schema.dimension("country")) == ["United States"]
        assert list(schema.dimension("import-country")) == [
            "Canada", "China",
        ]

    def test_fact_table_has_primary_key(self, figure3_pipeline):
        schema = self._schema(figure3_pipeline)
        assert schema.fact("import-trade-percentage").has_primary_key()

    def test_sql_statements_rendered(self, figure3_pipeline):
        schema = self._schema(figure3_pipeline)
        statements = schema.sql_statements()
        assert any("fact_import_trade_percentage" in s for s in statements)
        assert any("dim_year" in s for s in statements)


class TestFactTableMerge:
    def test_merge_same_keys(self):
        a = FactTable("gdp", ["country", "year"], ["gdp"],
                      [("US", "2002", 10.0), ("US", "2006", 12.0)])
        b = FactTable("pop", ["country", "year"], ["pop"],
                      [("US", "2002", 290.0)])
        merged = a.merge_with(b)
        assert merged.measures == ["gdp", "pop"]
        rows = {row[:2]: row[2:] for row in merged.rows}
        assert rows[("US", "2002")] == (10.0, 290.0)
        assert rows[("US", "2006")] == (12.0, None)

    def test_merge_different_keys_rejected(self):
        a = FactTable("a", ["x"], ["m"], [])
        b = FactTable("b", ["y"], ["m"], [])
        with pytest.raises(ValueError):
            a.merge_with(b)

    def test_schema_merge_optimization(self):
        a = FactTable("a", ["k"], ["a"], [("1", 1.0)])
        b = FactTable("b", ["k"], ["b"], [("1", 2.0)])
        c = FactTable("c", ["z"], ["c"], [("9", 3.0)])
        schema = StarSchema([a, b, c], [])
        schema.merge_compatible_facts()
        assert len(schema.fact_tables) == 2
        merged = next(
            table for table in schema.fact_tables.values()
            if table.measures == ["a", "b"]
        )
        assert merged.rows == [("1", 1.0, 2.0)]

    def test_dimension_table_membership(self):
        table = DimensionTable("d", ["b", "a", "b"])
        assert list(table) == ["a", "b"]
        assert "a" in table
        assert len(table) == 2
