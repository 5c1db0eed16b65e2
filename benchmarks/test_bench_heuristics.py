"""HX -- Section 2 / [22]: flexible-querying heuristics comparison.

Runs SLCA, ELCA, MLCA, and SEDA's compactness ranking over the same
keyword workloads on the paper-scale Factbook, reporting answer counts
-- the quantitative face of "the proposed heuristics do not work on
all data scenarios".  The curated failure cases live in
tests/test_baselines.py; here we measure behaviour and cost at scale.
"""

import pytest

from repro.baselines.compactness import CompactnessRanker
from repro.baselines.elca import elca
from repro.baselines.mlca import mlca
from repro.baselines.slca import slca
from repro.baselines.xsearch import xsearch
from repro.index.builder import IndexBuilder

WORKLOADS = [
    ("united", "states"),
    ("china", "canada"),
    ("germany", "2006"),
]


@pytest.fixture(scope="module")
def indexed(factbook_seda):
    collection = factbook_seda.collection
    inverted, _paths = IndexBuilder(collection).build()
    return collection, inverted


@pytest.mark.parametrize("keywords", WORKLOADS, ids=lambda k: "+".join(k))
def test_slca(indexed, keywords):
    collection, inverted = indexed
    answers = slca(collection, inverted, list(keywords))
    print(f"\nSLCA{keywords}: {len(answers)} answers")


@pytest.mark.parametrize("keywords", WORKLOADS, ids=lambda k: "+".join(k))
def test_elca(indexed, keywords):
    collection, inverted = indexed
    answers = elca(collection, inverted, list(keywords))
    print(f"\nELCA{keywords}: {len(answers)} answers")


@pytest.mark.parametrize("keywords", WORKLOADS, ids=lambda k: "+".join(k))
def test_mlca(indexed, keywords):
    collection, inverted = indexed
    answers = mlca(collection, inverted, list(keywords))
    print(f"\nMLCA{keywords}: {len(answers)} answers")


@pytest.mark.parametrize("keywords", WORKLOADS, ids=lambda k: "+".join(k))
def test_xsearch(indexed, keywords):
    collection, inverted = indexed
    answers = xsearch(collection, inverted, list(keywords))
    print(f"\nXSEarch{keywords}: {len(answers)} answers")


@pytest.mark.parametrize("keywords", WORKLOADS, ids=lambda k: "+".join(k))
def test_compactness(indexed, keywords):
    collection, inverted = indexed
    ranker = CompactnessRanker(collection, inverted)
    ranked = ranker.rank_pairs(keywords[0], keywords[1])
    print(f"\ncompactness{keywords}: {len(ranked)} ranked pairs")


def test_answer_set_relationships(indexed):
    """ELCA answers include the SLCA answers; compactness never drops
    a combination that the LCA heuristics keep."""
    collection, inverted = indexed
    for keywords in WORKLOADS:
        slca_set = set(slca(collection, inverted, list(keywords)))
        elca_set = set(elca(collection, inverted, list(keywords)))
        assert slca_set <= elca_set
        ranker = CompactnessRanker(collection, inverted)
        ranked = ranker.rank_pairs(keywords[0], keywords[1])
        mlca_answers = mlca(collection, inverted, list(keywords))
        print(
            f"{keywords}: slca={len(slca_set)} elca={len(elca_set)} "
            f"mlca={len(mlca_answers)} compactness={len(ranked)}"
        )
        assert len(ranked) >= len(mlca_answers)
