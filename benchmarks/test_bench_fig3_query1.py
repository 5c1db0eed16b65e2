"""F3 -- Figure 3: Query 1 end-to-end to the star schema.

Query 1: ``(*, "United States") AND (trade_country, *) AND
(percentage, *)`` with contexts restricted to import partners and the
sibling connection -- the paper's running example.  Regenerates:

* R(q), the full result with <nodeid, path> column pairs (Fig. 3a);
* the matched facts/dimensions + automatically added year column (3b);
* the final fact table (country, year, import-country, percentage) and
  the dimension tables (3c).
"""

from repro.summaries.connection import TreeConnection

TC_PATH = "/country/economy/import_partners/item/trade_country"
PCT_PATH = "/country/economy/import_partners/item/percentage"
ITEM_PATH = "/country/economy/import_partners/item"

QUERY_1 = [
    ("*", '"United States"'),
    ("trade_country", "*"),
    ("percentage", "*"),
]

CONNECTIONS = [
    ((0, 1), TreeConnection("/country", TC_PATH, "/country")),
    ((1, 2), TreeConnection(TC_PATH, PCT_PATH, ITEM_PATH)),
]

# Figure 3(c) rows the paper prints (year, partner, percentage).
PAPER_FACT_ROWS = {
    ("United States", "2006", "China", 15.0),
    ("United States", "2006", "Canada", 16.9),
    ("United States", "2005", "China", 13.8),
    ("United States", "2005", "Mexico", 10.3),
    ("United States", "2004", "Mexico", 10.7),
    ("United States", "2004", "China", 12.5),
}


def _run_query1(seda):
    session = seda.search(QUERY_1, k=10)
    refined = session.refine_contexts({
        0: ["/country"], 1: [TC_PATH], 2: [PCT_PATH],
    })
    chosen = refined.refine_connections(CONNECTIONS)
    table = chosen.complete_results()
    schema = chosen.build_cube(table)
    return table, schema


def test_figure3_query1_pipeline(factbook_seda):
    table, schema = _run_query1(factbook_seda)
    fact = schema.fact("import-trade-percentage")
    rows = set(fact.rows)

    print(f"\nR(q): {len(table)} tuples, schema {table.schema}")
    for display in table.display_rows()[:3]:
        print("  ", display)
    print(f"fact table columns: {fact.columns}")
    for row in sorted(PAPER_FACT_ROWS, key=str):
        marker = "ok" if row in rows else "MISSING"
        print(f"  paper row {row}: {marker}")
    for name, dimension in sorted(schema.dimension_tables.items()):
        print(f"dimension {name}: {list(dimension)[:6]}")

    assert PAPER_FACT_ROWS <= rows
    assert fact.key_columns == ["country", "year", "import-country"]
    assert fact.has_primary_key()
