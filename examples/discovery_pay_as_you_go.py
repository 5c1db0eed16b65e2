"""Pay-as-you-go warehousing: auto-discovering facts, dimensions, keys.

The paper seeds the registry from an administrator and names automatic
discovery as future work (Sections 7-8).  This example starts from an
*empty* registry, profiles the collection, discovers measure-like and
dimension-like paths with verified relative keys, registers them, and
builds a cube a user never had to configure.

Run with::

    python examples/discovery_pay_as_you_go.py [scale]
"""

import sys

from repro.cube.discovery import FactDimensionDiscoverer, discover_key
from repro.cube.registry import Registry
from repro.datasets.factbook import FactbookGenerator
from repro.summaries.connection import TreeConnection
from repro.system import Seda

TC_PATH = "/country/economy/import_partners/item/trade_country"
PCT_PATH = "/country/economy/import_partners/item/percentage"
ITEM_PATH = "/country/economy/import_partners/item"


def main(scale=0.02):
    seda = Seda(FactbookGenerator(scale=scale).build_collection())
    collection = seda.collection
    print(f"{len(collection)} documents, empty registry.\n")

    # Profile a focused slice of paths (profiles over the whole
    # collection work too; this keeps the demo output readable).
    paths_of_interest = [
        PCT_PATH, TC_PATH, "/country/year",
        "/country/economy/export_partners/item/percentage",
        "/country/economy/GDP", "/country/people/population",
    ]
    discoverer = FactDimensionDiscoverer(
        collection, dimension_cardinality=0.9
    )
    print("Path profiles:")
    for path, profile in discoverer.profile_paths(paths_of_interest).items():
        print(f"  {path}")
        print(f"    occurrences={profile.count} "
              f"distinct={len(profile.distinct)} "
              f"numeric={profile.numeric_ratio:.0%} "
              f"samples={profile.samples[:3]}")

    # Key discovery (the GORDIAN-style search).
    print("\nDiscovered keys:")
    for path in (PCT_PATH, TC_PATH, "/country/year"):
        key = discover_key(collection, path)
        print(f"  {path}\n    -> {list(key) if key else 'none found'}")

    # Fact/dimension discovery + registration.
    facts, dims = discoverer.discover(paths=paths_of_interest)
    print("\nDiscovered facts:")
    for candidate in facts:
        print(f"  {candidate.suggested_name()}: {candidate.path} "
              f"(score {candidate.score:.2f})")
    print("Discovered dimensions:")
    for candidate in dims:
        print(f"  {candidate.suggested_name()}: {candidate.path} "
              f"(score {candidate.score:.2f})")

    registry = discoverer.register(Registry(), facts, dims)
    seda.registry = registry

    # Use the auto-registered definitions exactly like admin-seeded ones.
    session = seda.search([("trade_country", "*"), ("percentage", "*")], k=10)
    table = session.complete_results(
        term_paths={0: TC_PATH, 1: PCT_PATH},
        connections=[((0, 1), TreeConnection(TC_PATH, PCT_PATH, ITEM_PATH))],
    )
    schema = session.build_cube(table)
    print(f"\nCube from discovered definitions ({len(table)} result rows):")
    for name, fact_table in schema.fact_tables.items():
        print(f"  fact {name} {fact_table.columns}: {len(fact_table)} rows")
        for row in fact_table.rows[:5]:
            print("    ", row)


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.02)
