"""DX -- extension: automatic fact/dimension/key discovery.

Not a paper table (it is the paper's named future work, Section 8);
run here so every step of the pay-as-you-go extension stays covered:
path profiling, GORDIAN-style key search, and end-to-end discovery.
"""

import pytest

from repro.cube.discovery import FactDimensionDiscoverer, discover_key
from repro.storage.node_store import NodeStore

TC_PATH = "/country/economy/import_partners/item/trade_country"
PCT_PATH = "/country/economy/import_partners/item/percentage"


@pytest.fixture(scope="module")
def setup(factbook_seda):
    collection = factbook_seda.collection
    return collection, NodeStore(collection)


def test_profile_all_paths(setup):
    collection, store = setup
    discoverer = FactDimensionDiscoverer(collection, store)
    profiles = discoverer.profile_paths()
    print(f"\nprofiled {len(profiles)} valued paths")
    assert profiles


def test_key_discovery_fact_path(setup):
    collection, store = setup
    key = discover_key(collection, store, PCT_PATH)
    print(f"\ndiscovered key for percentage: {list(key)}")
    assert key is not None


def test_key_discovery_dimension_path(setup):
    collection, store = setup
    key = discover_key(collection, store, TC_PATH)
    print(f"\ndiscovered key for trade_country: {list(key)}")
    assert key is not None


def test_full_discovery(setup):
    collection, store = setup
    discoverer = FactDimensionDiscoverer(
        collection, store, dimension_cardinality=0.9
    )
    paths = [
        PCT_PATH, TC_PATH, "/country/year",
        "/country/economy/export_partners/item/percentage",
        "/country/people/population",
    ]
    facts, dims = discoverer.discover(paths)
    print(f"\nfacts: {[c.path for c in facts]}")
    print(f"dims : {[c.path for c in dims]}")
    assert facts
