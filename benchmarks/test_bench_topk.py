"""TK -- the Section 4 top-k unit: TA vs exhaustive, k sweep, ablation.

The paper gives no absolute latencies for the top-k unit; the series
of interest are (a) TA early termination vs the exhaustive baseline,
(b) cost as a function of k, and (c) the ranking ablation: content
only vs structure only vs combined (the compactness design decision).
"""

import pytest

from repro.query.term import Query
from repro.search.naive import NaiveSearcher
from repro.search.scoring import ScoringModel
from repro.search.topk import TopKSearcher

QUERY = [
    ("*", '"United States"'),
    ("trade_country", "*"),
]

QUERY_3TERM = [
    ("*", '"United States"'),
    ("trade_country", "*"),
    ("percentage", "*"),
]


@pytest.mark.parametrize("k", [1, 5, 10, 25])
def test_ta_topk_by_k(factbook_seda, k):
    query = Query.parse(QUERY_3TERM)
    results = factbook_seda.topk.search(query, k)
    stats = factbook_seda.topk.stats
    print(
        f"\nk={k}: {len(results)} results, sorted accesses "
        f"{stats['sorted_accesses']}, tuples scored "
        f"{stats['tuples_scored']}, early stop {stats['early_stop']}"
    )
    assert len(results) <= k


def test_naive_baseline(factbook_seda):
    query = Query.parse(QUERY)
    naive = NaiveSearcher(
        factbook_seda.matcher, factbook_seda.scoring,
        max_combinations=50_000_000,
    )
    results = naive.search(query, 10)
    print(f"\nnaive: {len(results)} results")
    assert results


def test_ta_vs_naive_agreement(factbook_seda):
    """The two must agree on top-k scores."""
    query = Query.parse(QUERY)
    naive = NaiveSearcher(
        factbook_seda.matcher, factbook_seda.scoring,
        max_combinations=50_000_000,
    )
    ta_scores = [
        round(result.score, 9)
        for result in factbook_seda.topk.search(query, k=10)
    ]
    naive_scores = [
        round(result.score, 9) for result in naive.search(query, k=10)
    ]
    print(f"\nTA     : {ta_scores}")
    print(f"naive  : {naive_scores}")
    assert ta_scores == naive_scores


@pytest.mark.parametrize("weights", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
def test_ranking_ablation(factbook_seda, weights):
    """Content-only vs structure-only vs combined ranking."""
    content_weight, structure_weight = weights
    scoring = ScoringModel(
        factbook_seda.collection,
        factbook_seda.inverted,
        factbook_seda.graph,
        content_weight=content_weight,
        structure_weight=structure_weight,
    )
    searcher = TopKSearcher(factbook_seda.matcher, scoring)
    query = Query.parse(QUERY_3TERM)
    results = searcher.search(query, 10)
    sibling_top = 0
    for result in results[:5]:
        tc = factbook_seda.collection.node(result.node_ids[1])
        pct = factbook_seda.collection.node(result.node_ids[2])
        if tc.parent_id == pct.parent_id:
            sibling_top += 1
    print(
        f"\nweights(content={content_weight}, structure={structure_weight}):"
        f" {sibling_top}/5 top results pair siblings"
    )
    # With structure in play, tight pairs dominate the top ranks.
    if structure_weight:
        assert sibling_top >= 3


@pytest.mark.parametrize("scale", [0.01, 0.03, 0.05])
def test_latency_vs_collection_size(scale):
    """Latency as the collection grows, over three Factbook scales."""
    from repro.datasets.factbook import FactbookGenerator
    from repro.system import Seda

    seda = Seda(
        FactbookGenerator(scale=scale).build_collection(),
        value_links=FactbookGenerator.value_link_specs(),
    )
    query = Query.parse(QUERY_3TERM)
    results = seda.topk.search(query, 10)
    print(
        f"\nscale={scale}: docs={len(seda.collection)} "
        f"results={len(results)} "
        f"tuples_scored={seda.topk.stats['tuples_scored']}"
    )
    assert results
