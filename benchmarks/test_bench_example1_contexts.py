"""E1 -- Example 1 and the Section 1/5 dataset measurements.

The paper's in-text numbers for the full World Factbook collection:

* the query term ``(*, "United States")`` matches 27 distinct paths;
* 1984 distinct root-to-leaf paths overall;
* ``/country`` occurs in 1577 of 1600 documents;
* the refugee country-of-origin path occurs in only 186 documents,
  one of a long tail of infrequent paths.

Each count depends on the collection size, so :data:`EXPECTED` pins it
per scale: the exact value at the smoke scale (0.05) and at full scale
(1.0), where it is the paper's own figure.
"""

import pytest

from repro.index.builder import IndexBuilder
from repro.query.matcher import TermMatcher
from repro.query.term import Query
from repro.storage.catalog import CollectionCatalog
from repro.storage.node_store import NodeStore

PAPER = {
    "us_paths": 27,
    "distinct_paths": 1984,
    "country_docs": 1577,
    "documents": 1600,
    "refugee_docs": 186,
}

#: statistic -> {scale: expected value}; the paper's figure beside each.
EXPECTED = {
    "us_paths": {0.05: 16, 1.0: 27},                       # paper: 27
    "distinct_paths": {
        0.05: 1191, 1.0: pytest.approx(1984, abs=60),      # paper: 1984
    },
    "documents": {0.05: 80, 1.0: 1600},                    # paper: 1600
    "country_docs": {0.05: 79, 1.0: 1577},                 # paper: 1577
    "refugee_docs": {0.05: 9, 1.0: 186},                   # paper: 186
}

REFUGEE_PATH = "/country/transnational_issues/refugees/country_of_origin"


@pytest.fixture(scope="module")
def matcher(factbook_full):
    inverted, paths = IndexBuilder(factbook_full).build()
    return TermMatcher(
        factbook_full, inverted, paths, NodeStore(factbook_full)
    )


def test_us_context_bucket(at_scale, matcher, factbook_full):
    expected = at_scale(EXPECTED["us_paths"])
    query = Query.parse([("*", '"United States"')])
    paths = matcher.term_paths(query.terms[0])
    print(
        f"\n'United States' contexts: {len(paths)} "
        f"(paper: {PAPER['us_paths']})"
    )
    assert len(paths) == expected


def test_collection_statistics(at_scale, factbook_full):
    documents = at_scale(EXPECTED["documents"])
    distinct_paths = at_scale(EXPECTED["distinct_paths"])
    catalog = CollectionCatalog(factbook_full)
    summary = catalog.summary()
    print(
        f"\ndocuments={summary['documents']} (paper {PAPER['documents']}), "
        f"distinct paths={summary['distinct_paths']} "
        f"(paper {PAPER['distinct_paths']})"
    )
    assert summary["documents"] == documents
    assert summary["distinct_paths"] == distinct_paths


def test_country_document_frequency(at_scale, factbook_full):
    expected = at_scale(EXPECTED["country_docs"])
    frequency = factbook_full.path_document_frequency("/country")
    print(f"\n/country docfreq: {frequency} (paper {PAPER['country_docs']})")
    assert frequency == expected


def test_refugee_long_tail_path(at_scale, factbook_full):
    expected = at_scale(EXPECTED["refugee_docs"])
    frequency = factbook_full.path_document_frequency(REFUGEE_PATH)
    print(f"\nrefugee path docfreq: {frequency} (paper {PAPER['refugee_docs']})")
    assert frequency == expected


def test_long_tail_profile(factbook_full):
    """The long tail that 'makes shredding all the attributes into a
    data warehouse very difficult': most paths live in few documents."""
    catalog = CollectionCatalog(factbook_full)
    tail = catalog.long_tail(400)
    share = len(tail) / factbook_full.path_count()
    print(
        f"\npaths in <400 of {len(factbook_full)} docs: {len(tail)} "
        f"({share:.0%} of all paths)"
    )
    assert share > 0.5
