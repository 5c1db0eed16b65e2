"""TW -- Section 7 twig processing: TwigStack vs the naive structural
join, and complete-result generation cost.
"""

import pytest

from repro.storage.node_store import NodeStore
from repro.twig.pattern import TwigPattern
from repro.twig.twigstack import NaiveTwigJoin, TwigStackJoin

TC_PATH = "/country/economy/import_partners/item/trade_country"
PCT_PATH = "/country/economy/import_partners/item/percentage"

QUERY1_TWIG = {0: "/country", 1: TC_PATH, 2: PCT_PATH}
SIBLING_TWIG = {0: TC_PATH, 1: PCT_PATH}


@pytest.fixture(scope="module")
def store(factbook_full):
    return NodeStore(factbook_full)


@pytest.mark.parametrize("twig_name,term_paths", [
    ("query1", QUERY1_TWIG),
    ("siblings", SIBLING_TWIG),
])
def test_twigstack(factbook_full, store, twig_name, term_paths):
    joiner = TwigStackJoin(factbook_full, store)
    pattern = TwigPattern.from_paths(term_paths)
    tuples = joiner.match_tuples(pattern)
    print(f"\nTwigStack[{twig_name}]: {len(tuples)} matches")
    assert tuples


@pytest.mark.parametrize("twig_name,term_paths", [
    ("query1", QUERY1_TWIG),
    ("siblings", SIBLING_TWIG),
])
def test_naive_structural_join(factbook_full, store, twig_name, term_paths):
    joiner = NaiveTwigJoin(factbook_full, store)
    pattern = TwigPattern.from_paths(term_paths)
    tuples = joiner.matches(pattern)
    print(f"\nnaive[{twig_name}]: {len(tuples)} matches")
    assert tuples


def test_agreement_at_scale(factbook_full, store):
    """Correctness cross-check on the full collection (not timed)."""
    pattern = TwigPattern.from_paths(SIBLING_TWIG)
    fast = sorted(TwigStackJoin(factbook_full, store).match_tuples(pattern))
    slow = sorted(NaiveTwigJoin(factbook_full, store).match_tuples(pattern))
    print(f"\nboth algorithms: {len(fast)} matches")
    assert fast == slow
