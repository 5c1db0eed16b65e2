"""S6 -- Section 6.1 ablation: overlap threshold vs guides vs false
positives.

The paper: "the effectiveness of the overlap threshold in reducing the
total number of generated dataguides depends on the dataset, ranging
from a factor of 3 to a factor of 100 reduction" and "the higher the
overlap threshold, the fewer the false positive connections because
there will be fewer dataguide merges."  This module sweeps the
threshold and regenerates both series.
"""

import pytest

from repro.summaries.dataguide import DataguideBuilder

THRESHOLDS = (0.1, 0.2, 0.4, 0.6, 0.8)


def _sweep(collection):
    rows = []
    for threshold in THRESHOLDS:
        builder = DataguideBuilder(threshold)
        for document in collection.documents:
            builder.add_paths(document.paths(), document.doc_id)
        guide_set = builder.build()
        false_pairs, total_pairs = guide_set.false_positive_pairs()
        rate = false_pairs / total_pairs if total_pairs else 0.0
        rows.append((threshold, len(guide_set), rate))
    return rows


def test_threshold_sweep_factbook(factbook_full):
    rows = _sweep(factbook_full)
    print("\nthreshold  guides  false-positive-pair rate")
    for threshold, guides, rate in rows:
        print(f"   {threshold:.1f}    {guides:6d}   {rate:.3f}")
    guides = [row[1] for row in rows]
    rates = [row[2] for row in rows]
    # Monotone shape: higher threshold -> more guides, fewer FPs.
    assert guides == sorted(guides)
    assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))


def test_reduction_factors_span_paper_range(at_scale, googlebase_full,
                                            recipeml_full, factbook_full):
    """Reduction factor 3x-100x across datasets at threshold 0.4.

    The factors depend on scale.  At 1.0 the paper's bounds hold (a
    factor of 3 for the Factbook, over 100 elsewhere); at the smoke
    scale each factor is pinned exactly as documents / guides.
    """
    expected = at_scale({
        0.05: {
            "google-base": 500 / 88,        # paper: over 100
            "recipeml": 549 / 3,            # paper: over 100
            "world-factbook": 80 / 34,      # paper: 3
        },
        1.0: "paper",
    })

    def reductions():
        output = {}
        for name, collection in (
            ("google-base", googlebase_full),
            ("recipeml", recipeml_full),
            ("world-factbook", factbook_full),
        ):
            builder = DataguideBuilder(0.4)
            for document in collection.documents:
                builder.add_paths(document.paths(), document.doc_id)
            output[name] = len(collection) / builder.guide_count
        return output

    factors = reductions()
    print("\nreduction factors at threshold 0.4:")
    for name, factor in factors.items():
        print(f"  {name}: {factor:.1f}x")
    if expected != "paper":
        assert factors == expected
        return
    assert factors["world-factbook"] == pytest.approx(3.0, abs=0.5)
    assert factors["google-base"] > 100
    assert factors["recipeml"] > 1000


def test_false_positive_detection_cost(factbook_full):
    builder = DataguideBuilder(0.4)
    for document in factbook_full.documents:
        builder.add_paths(document.paths(), document.doc_id)
    guide_set = builder.build()
    false_pairs, total_pairs = guide_set.false_positive_pairs()
    print(f"\nfalse pairs: {false_pairs} of {total_pairs}")
    assert total_pairs > 0
