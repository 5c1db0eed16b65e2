"""F6 -- Figure 6: the search/refine/complete/aggregate control flow.

Times each stage of the loop separately so the cost profile of the
interaction cycle is visible: top-k search, context summary,
connection summary, context-refined re-search, complete-result
materialization, and cube aggregation.
"""

import pytest

from repro.summaries.connection import TreeConnection

TC_PATH = "/country/economy/import_partners/item/trade_country"
PCT_PATH = "/country/economy/import_partners/item/percentage"
ITEM_PATH = "/country/economy/import_partners/item"

QUERY_1 = [
    ("*", '"United States"'),
    ("trade_country", "*"),
    ("percentage", "*"),
]


@pytest.fixture(scope="module")
def base_session(factbook_seda):
    return factbook_seda.search(QUERY_1, k=10)


@pytest.fixture(scope="module")
def refined_session(base_session):
    return base_session.refine_contexts({
        0: ["/country"], 1: [TC_PATH], 2: [PCT_PATH],
    })


def test_stage1_topk_search(factbook_seda):
    results = factbook_seda.search(QUERY_1, k=10).results
    print(f"\ntop-k: {len(results)} tuples")
    assert results


def test_stage2_context_summary(factbook_seda):
    def build():
        session = factbook_seda.search(QUERY_1, k=10)
        return session.context_summary

    summary = build()
    sizes = [len(bucket) for bucket in summary]
    print(f"\ncontext buckets: {sizes}, combinations: "
          f"{summary.combination_count()}")
    assert all(size > 0 for size in sizes)


def test_stage3_connection_summary(factbook_seda):
    def build():
        session = factbook_seda.search(QUERY_1, k=10)
        return session.connection_summary

    summary = build()
    print(f"\ndistinct connections: {len(summary)}")
    assert len(summary) > 0


def test_stage4_context_refined_research(base_session):
    refined = base_session.refine_contexts({
        0: ["/country"], 1: [TC_PATH], 2: [PCT_PATH],
    })
    assert refined.results


def test_stage5_complete_results(refined_session):
    connections = [
        ((0, 1), TreeConnection("/country", TC_PATH, "/country")),
        ((1, 2), TreeConnection(TC_PATH, PCT_PATH, ITEM_PATH)),
    ]
    chosen = refined_session.refine_connections(connections)
    table = chosen.complete_results()
    print(f"\ncomplete result: {len(table)} rows")
    assert len(table) > 0


def test_stage6_cube_and_aggregate(refined_session, factbook_seda):
    connections = [
        ((0, 1), TreeConnection("/country", TC_PATH, "/country")),
        ((1, 2), TreeConnection(TC_PATH, PCT_PATH, ITEM_PATH)),
    ]
    chosen = refined_session.refine_connections(connections)
    table = chosen.complete_results()

    def build_and_aggregate():
        schema = chosen.build_cube(table)
        engine = chosen.olap(schema)
        return engine.report("import-trade-percentage", ["year"], agg="avg")

    report = build_and_aggregate()
    print("\navg import share by year:")
    for row in report:
        print(f"  {row[0]}: {row[1]:.2f}")
    assert report
