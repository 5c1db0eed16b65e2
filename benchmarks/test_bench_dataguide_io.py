"""DG -- Section 6.1 operational detail: dataguide load-once-from-disk.

"At query time, SEDA optimizes the use of the dataguide index by
loading it into memory only once from disk."  Measures the save and
load cost of the paper-scale Factbook dataguide set, versus rebuilding
it from the collection -- the saving that motivates the design.
"""

import pytest

from repro.summaries.dataguide import DataguideBuilder, DataguideSet


@pytest.fixture(scope="module")
def factbook_guides(factbook_full):
    builder = DataguideBuilder(0.4)
    for document in factbook_full.documents:
        builder.add_paths(document.paths(), document.doc_id)
    return builder.build()


def test_save(factbook_guides, tmp_path_factory):
    directory = tmp_path_factory.mktemp("guides")

    counter = {"n": 0}

    def save():
        counter["n"] += 1
        path = directory / f"guides-{counter['n']}.json"
        factbook_guides.save(path)
        return path

    path = save()
    size_kb = path.stat().st_size / 1024
    print(f"\nsaved {len(factbook_guides)} guides, {size_kb:.0f} KiB")


def test_load_from_disk(factbook_guides, tmp_path_factory):
    path = tmp_path_factory.mktemp("guides") / "guides.json"
    factbook_guides.save(path)
    loaded = DataguideSet.load(path)
    print(f"\nloaded {len(loaded)} guides")
    assert len(loaded) == len(factbook_guides)


def test_rebuild_from_collection(factbook_full):
    """The alternative SEDA avoids: recomputing the merge per query."""

    def rebuild():
        builder = DataguideBuilder(0.4)
        for document in factbook_full.documents:
            builder.add_paths(document.paths(), document.doc_id)
        return builder.build()

    guide_set = rebuild()
    print(f"\nrebuilt {len(guide_set)} guides")
