"""IX -- Section 4 storage/indexing: index build cost scaling.

Builds the inverted + path indexes, the data graph with link
discovery, and the dataguide set over increasing Factbook slices (the
collection fills its node table as it ingests each document), giving
the ingestion cost curve of the architecture's storage and indexing
component (Figure 4, bottom).
"""

import pytest

from repro.datasets.factbook import FactbookGenerator
from repro.index.builder import IndexBuilder
from repro.model.graph import DataGraph
from repro.model.links import LinkDiscoverer
from repro.summaries.dataguide import DataguideBuilder

SCALES = (0.02, 0.05, 0.1)


@pytest.mark.parametrize("scale", SCALES)
def test_fulltext_index_build(scale):
    collection = FactbookGenerator(scale=scale).build_collection()

    def build():
        return IndexBuilder(collection).build()

    inverted, paths = build()
    print(
        f"\nscale={scale}: {len(collection)} docs, "
        f"{collection.node_count} nodes, vocab={len(inverted.vocabulary())}, "
        f"paths={len(paths)}"
    )
    assert inverted.indexed_nodes > 0


@pytest.mark.parametrize("scale", SCALES)
def test_node_store_build(scale):
    collection = FactbookGenerator(scale=scale).build_collection()
    # The collection fills its per-tag and per-path node lists as it
    # registers each document: there is no separate store to build.
    assert collection.by_tag("country")


@pytest.mark.parametrize("scale", SCALES)
def test_link_discovery(scale):
    collection = FactbookGenerator(scale=scale).build_collection()
    specs = FactbookGenerator.value_link_specs()

    def discover():
        graph = DataGraph(collection)
        return LinkDiscoverer(graph).discover_all(value_specs=specs)

    edges = discover()
    print(f"\nscale={scale}: {len(edges)} link edges")
    assert edges


@pytest.mark.parametrize("scale", SCALES)
def test_dataguide_build(scale):
    collection = FactbookGenerator(scale=scale).build_collection()

    def build():
        builder = DataguideBuilder(0.4)
        for document in collection.documents:
            builder.add_paths(document.paths(), document.doc_id)
        return builder

    builder = build()
    print(f"\nscale={scale}: {builder.guide_count} guides")
    assert builder.guide_count > 0
