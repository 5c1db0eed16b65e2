"""F8 -- Figure 8: the path full-text index and its three probe modes.

Section 5 describes the index (keyword -> distinct paths, counts kept
in the document store) and three usages: term-only probe, tag + term
probe, and full-path + term probe.  Times each probe mode on the
paper-scale Factbook and reports bucket sizes.
"""

import pytest

from repro.index.builder import IndexBuilder
from repro.query.matcher import TermMatcher
from repro.query.term import QueryTerm
from repro.storage.node_store import NodeStore


@pytest.fixture(scope="module")
def matcher(factbook_full):
    inverted, paths = IndexBuilder(factbook_full).build()
    return TermMatcher(
        factbook_full, inverted, paths, NodeStore(factbook_full)
    )


def test_probe_term_only(at_scale, matcher):
    # Scale-dependent: 16 paths at scale 0.05, 27 at 1.0 (paper: 27).
    expected = at_scale({0.05: 16, 1.0: 27})
    term = QueryTerm("*", '"United States"')
    paths = matcher.term_paths(term)
    print(f"\n(*, 'United States') -> {len(paths)} paths (paper: 27)")
    assert len(paths) == expected


def test_probe_tag_plus_term(matcher):
    term = QueryTerm("trade_country", '"United States"')
    paths = matcher.term_paths(term)
    print(f"\n(trade_country, 'United States') -> {sorted(paths)}")
    assert paths == {
        "/country/economy/import_partners/item/trade_country",
        "/country/economy/export_partners/item/trade_country",
    }


def test_probe_full_path_plus_term(matcher):
    term = QueryTerm(
        "/country/economy/import_partners/item/trade_country",
        '"United States"',
    )
    paths = matcher.term_paths(term)
    assert len(paths) == 1


def test_probe_boolean_query(matcher):
    term = QueryTerm("*", "united AND states NOT kingdom")
    paths = matcher.term_paths(term)
    assert paths


def test_frequencies_from_document_store(matcher, factbook_full):
    """The paper's split: the index returns paths; per-path occurrence
    counts come from the document store."""
    term = QueryTerm("*", '"United States"')
    paths = matcher.term_paths(term)

    def lookup_counts():
        return {
            path: factbook_full.path_occurrences(path) for path in paths
        }

    counts = lookup_counts()
    top = sorted(counts.items(), key=lambda kv: -kv[1])[:5]
    print("\nmost frequent 'United States' contexts:")
    for path, count in top:
        print(f"  {count:7d}  {path}")
    assert counts["/country"] > 0
