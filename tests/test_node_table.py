"""The collection's node table and the link discovery that reads it.

Hypothesis builds small random collections whose elements carry
``id``/``xml:id``/``idref``/``idrefs``/``href``-style attributes, plus
value-link specs over their paths, and checks three ways of reaching
the same collection -- one build, a ``to_dict``/``from_dict`` restore,
and documents added one at a time:

* ``by_path``, ``by_tag``, ``paths``, ``tags``, occurrence counts and
  document frequencies equal a brute-force scan of every node, and the
  nodes on one path share one path string;
* ``LinkDiscoverer.discover_all`` returns the same edges, in the same
  order, as :func:`_scan_edges` -- a whole-corpus, document-order scan
  kept here as the reference;
* an index built document by document serializes exactly like one
  built in a single pass.
"""

import collections

from hypothesis import given, settings, strategies as st

from repro.index.builder import IndexBuilder
from repro.model.collection import DocumentCollection
from repro.model.graph import DataGraph, EdgeKind
from repro.model.links import (
    ID_ATTRIBUTE_NAMES,
    IDREF_ATTRIBUTE_NAMES,
    IDREFS_ATTRIBUTE_NAMES,
    XLINK_ATTRIBUTE_NAMES,
    LinkDiscoverer,
    ValueLinkSpec,
)
from repro.xmlio.dom import Element

_TAGS = ("a", "b", "c")
_TEXTS = ("", "red", "blue", "k1", "k2")
_ATTRIBUTES = {
    "id": ("k1", "k2", "k3", ""),
    "xml:id": ("k1", "k4"),
    "ID": ("k2",),
    "idref": ("k1", "k3", "k9", ""),
    "ref": ("k2", "k4"),
    "idrefs": ("k1 k2", "k3  k4 k9", "k1 k1", ""),
    "refs": ("k4 k2",),
    "href": ("#k1", "doc-1#k2", "doc-0#k4", "nodoc#k1", "k1", "#", ""),
    "xlink:href": ("doc-2#k3", "#k2"),
    "x": ("k1", "red"),
}


@st.composite
def _linked_element(draw, depth=0):
    element = Element(draw(st.sampled_from(_TAGS)))
    for name in draw(st.sets(st.sampled_from(sorted(_ATTRIBUTES)),
                             max_size=2)):
        element.attributes[name] = draw(st.sampled_from(_ATTRIBUTES[name]))
    text = draw(st.sampled_from(_TEXTS))
    if text:
        element.append(text)
    if depth < 2:
        for child in draw(st.lists(
            st.deferred(lambda: _linked_element(depth + 1)),  # noqa: B023
            max_size=3,
        )):
            element.append(child)
    return element


_DOCUMENTS = st.lists(_linked_element(), min_size=1, max_size=5)


def _specs(data, collection):
    """Up to two value-link specs over the collection's paths (plus
    one path no node has)."""
    paths = collection.paths() + ["/no/such/path"]
    return [
        ValueLinkSpec(data.draw(st.sampled_from(paths)),
                      data.draw(st.sampled_from(paths)), label=label)
        for label in data.draw(st.sets(st.sampled_from(("v1", "v2")),
                                       max_size=2))
    ]


# -- the references ----------------------------------------------------------

def _assert_table_matches_scan(collection):
    by_path = collections.defaultdict(list)
    by_tag = collections.defaultdict(list)
    documents = collections.defaultdict(set)
    for node in collection.iter_nodes():
        by_path[node.path].append(node.node_id)
        by_tag[node.tag].append(node.node_id)
        documents[node.path].add(node.doc_id)
    assert collection.paths() == sorted(by_path)
    assert collection.tags() == sorted(by_tag)
    assert collection.path_count() == len(by_path)
    for path, node_ids in by_path.items():
        assert collection.by_path(path) == node_ids
        assert collection.path_occurrences(path) == len(node_ids)
        assert collection.path_document_frequency(path) == len(
            documents[path]
        )
        shared = collection.node(node_ids[0]).path
        assert all(collection.node(node_id).path is shared
                   for node_id in node_ids)
    for tag, node_ids in by_tag.items():
        assert collection.by_tag(tag) == node_ids


def _scan_edges(collection, specs, seen):
    """Link discovery as a document-order scan of every node.

    Yields ``(source, target, kind, label)`` in the order
    ``discover_all`` must add them.  With a ``seen`` set (the
    ``skip_existing`` mode) keys already in it are skipped, and new
    ones recorded.
    """
    ids = {}
    for node in collection.iter_nodes():
        if node.is_attribute and node.direct_text and (
            node.tag.lstrip("@") in ID_ATTRIBUTE_NAMES
        ):
            ids.setdefault(node.direct_text, node.parent_id)

    def new(edge):
        if seen is None:
            return True
        if edge in seen:
            return False
        seen.add(edge)
        return True

    for node in collection.iter_nodes():
        if not node.is_attribute or not node.direct_text:
            continue
        name = node.tag.lstrip("@")
        if name in IDREF_ATTRIBUTE_NAMES:
            values = [node.direct_text]
        elif name in IDREFS_ATTRIBUTE_NAMES:
            values = node.direct_text.split()
        else:
            continue
        for value in values:
            target = ids.get(value)
            edge = (node.parent_id, target, EdgeKind.IDREF, name)
            if target is not None and target != node.parent_id and new(edge):
                yield edge
    names = {document.name for document in collection.documents}
    for node in collection.iter_nodes():
        if not node.is_attribute or not node.direct_text:
            continue
        name = node.tag.lstrip("@")
        if name not in XLINK_ATTRIBUTE_NAMES or "#" not in node.direct_text:
            continue
        doc_name, fragment = node.direct_text.split("#", 1)
        if not fragment:
            continue
        target = None
        if not doc_name:
            target = ids.get(fragment)
        elif doc_name in names:
            target = ids.get(fragment)
            if target is not None and collection.document(
                collection.node(target).doc_id
            ).name != doc_name:
                target = None
        edge = (node.parent_id, target, EdgeKind.XLINK, name)
        if target is not None and target != node.parent_id and new(edge):
            yield edge
    on_path = collections.defaultdict(list)
    for node in collection.iter_nodes():
        on_path[node.path].append(node)
    for spec in specs:
        primaries = collections.defaultdict(list)
        for node in on_path[spec.primary_path]:
            if node.value:
                primaries[node.value].append(node)
        for foreign in on_path[spec.foreign_path]:
            for primary in primaries[foreign.value]:
                edge = (foreign.node_id, primary.node_id, EdgeKind.VALUE,
                        spec.label)
                if primary.node_id != foreign.node_id and new(edge):
                    yield edge


def _keys(edges):
    return [(e.source_id, e.target_id, e.kind, e.label) for e in edges]


# -- the properties ----------------------------------------------------------

class TestNodeTable:
    @given(_DOCUMENTS)
    @settings(max_examples=60, deadline=None)
    def test_build_and_restore_match_a_scan(self, roots):
        collection = DocumentCollection()
        collection.add_documents(roots)
        _assert_table_matches_scan(collection)
        restored = DocumentCollection.from_dict(collection.to_dict())
        _assert_table_matches_scan(restored)
        for path in collection.paths():
            assert restored.by_path(path) == collection.by_path(path)

    @given(_DOCUMENTS)
    @settings(max_examples=40, deadline=None)
    def test_every_added_document_is_filed(self, roots):
        collection = DocumentCollection()
        for root in roots:
            collection.add_document(root)
            _assert_table_matches_scan(collection)


class TestDiscoveryReadsTheTable:
    @given(_DOCUMENTS, st.data())
    @settings(max_examples=80, deadline=None)
    def test_discover_all_equals_the_scan(self, roots, data):
        collection = DocumentCollection()
        collection.add_documents(roots)
        specs = _specs(data, collection)
        expected = list(_scan_edges(collection, specs, None))
        edges = LinkDiscoverer(DataGraph(collection)).discover_all(specs)
        assert _keys(edges) == expected
        restored = DocumentCollection.from_dict(collection.to_dict())
        edges = LinkDiscoverer(DataGraph(restored)).discover_all(specs)
        assert _keys(edges) == expected

    @given(_DOCUMENTS, st.data())
    @settings(max_examples=60, deadline=None)
    def test_incremental_discovery_equals_the_scan(self, roots, data):
        """The write path: one document at a time, each followed by a
        ``skip_existing`` re-run over the grown collection."""
        first = data.draw(st.integers(1, len(roots)))
        collection = DocumentCollection()
        collection.add_documents(roots[:first])
        specs = _specs(data, collection)
        graph = DataGraph(collection)
        expected = list(_scan_edges(collection, specs, None))
        LinkDiscoverer(graph).discover_all(specs)
        seen = set(expected)
        for root in roots[first:]:
            collection.add_document(root)
            expected.extend(_scan_edges(collection, specs, seen))
            LinkDiscoverer(graph, skip_existing=True).discover_all(specs)
        assert _keys(graph.edges) == expected


class TestIncrementalIndexes:
    @given(_DOCUMENTS)
    @settings(max_examples=40, deadline=None)
    def test_document_at_a_time_equals_one_pass(self, roots):
        """The path index's append-only path table and the inverted
        index's appended length arrays serialize as a one-pass build."""
        whole = DocumentCollection()
        whole.add_documents(roots)
        inverted, paths = IndexBuilder(whole).build()
        grown = DocumentCollection()
        builder = IndexBuilder(grown)
        for root in roots:
            grown.add_document(root)
            builder.build()
        assert builder.inverted.to_dict() == inverted.to_dict()
        assert builder.paths.to_dict() == paths.to_dict()
        for node in whole.iter_nodes():
            assert builder.inverted.node_length(node.node_id) == (
                inverted.node_length(node.node_id)
            )
        assert builder.paths.all_paths() == paths.all_paths()
