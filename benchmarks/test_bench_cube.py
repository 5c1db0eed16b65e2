"""CB -- Section 7 cube construction: match / augment / extract cost,
key verification, and the fact-table merge optimization.
"""

import pytest

from repro.cube.augment import Augmenter
from repro.cube.extract import TableExtractor
from repro.cube.matching import ResultMatcher
from repro.cube.star import FactTable, StarSchema
from repro.summaries.connection import TreeConnection
from repro.cube.keys import RelativeKey

TC_PATH = "/country/economy/import_partners/item/trade_country"
PCT_PATH = "/country/economy/import_partners/item/percentage"
ITEM_PATH = "/country/economy/import_partners/item"


@pytest.fixture(scope="module")
def result_table(factbook_seda):
    """A large complete result: every import (tc, pct) sibling pair."""
    from repro.query.term import Query

    query = Query.parse([("trade_country", "*"), ("percentage", "*")])
    return factbook_seda.complete_generator.generate(
        query,
        {0: TC_PATH, 1: PCT_PATH},
        connections=[((0, 1), TreeConnection(TC_PATH, PCT_PATH, ITEM_PATH))],
    )


def test_step1_matching(factbook_seda, result_table):
    matcher = ResultMatcher(factbook_seda.registry)
    report = matcher.match(result_table)
    print(
        f"\nR(q) rows={len(result_table)}; matched facts="
        f"{[f.name for f in report.facts]}, dims="
        f"{[d.name for d in report.dimensions]}"
    )
    assert report.facts


def test_step2_augmentation(factbook_seda, result_table):
    report = ResultMatcher(factbook_seda.registry).match(result_table)
    augmenter = Augmenter(
        factbook_seda.collection, factbook_seda.registry,
    )
    augmented = augmenter.augment(
        result_table, report.facts, report.dimensions
    )
    print(
        f"\nadded key columns: {sorted(augmented.added_columns)}; "
        f"auto dimensions: {[d.name for d in augmented.auto_dimensions]}"
    )
    assert "/country/year" in augmented.added_columns


def test_step3_extraction(factbook_seda, result_table):
    report = ResultMatcher(factbook_seda.registry).match(result_table)
    augmenter = Augmenter(
        factbook_seda.collection, factbook_seda.registry,
    )
    augmented = augmenter.augment(result_table, report.facts,
                                  report.dimensions)
    dimensions = report.dimensions + augmented.auto_dimensions
    extractor = TableExtractor(
        factbook_seda.collection, factbook_seda.registry,
    )
    schema = extractor.extract(augmented, report.facts, dimensions)
    fact = schema.fact("import-trade-percentage")
    print(f"\nfact rows: {len(fact)}; dims: {sorted(schema.dimension_tables)}")
    assert len(fact) > 0


def test_key_verification_cost(factbook_seda, result_table):
    key = RelativeKey(["/country", "/country/year", "../trade_country"])
    node_ids = [row[1] for row in result_table.rows]
    unique, duplicates = key.verify_uniqueness(
        factbook_seda.collection, node_ids,
    )
    print(f"\nkey unique over {len(node_ids)} nodes: {unique}")
    assert unique


def test_fact_merge_optimization():
    left = FactTable(
        "a", ["country", "year"], ["a"],
        [(f"c{i}", str(2000 + i % 6), float(i)) for i in range(5000)],
    )
    right = FactTable(
        "b", ["country", "year"], ["b"],
        [(f"c{i}", str(2000 + i % 6), float(i) * 2) for i in range(5000)],
    )

    def merge():
        return StarSchema([left, right], []).merge_compatible_facts()

    schema = merge()
    assert len(schema.fact_tables) == 1
