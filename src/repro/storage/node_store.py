"""Dewey-ordered node access paths.

The twig processor of Section 7 consumes "data nodes from the full-text
search results in Dewey ID order, which can be directly used by the XML
twig processing".  The node store provides exactly those ordered
streams: all nodes for a tag, for a root-to-leaf path, or for an
arbitrary node-id set, each sorted by ``(doc_id, dewey)``.

Node ids are allocated in document order, one document after another,
and a document's nodes in pre-order -- which is Dewey order -- so
ascending node id *is* global Dewey order.  The per-tag and per-path
streams are therefore plain node-id lists, binary-searchable by id.

The store is derived state: a restored system rebuilds it with one pass
over the collection, so snapshots do not carry it.  Only :meth:`refresh`
(the write path) inserts keys; every read is a plain lookup, which is
what lets concurrent readers share one store without a lock.
"""

import bisect
import collections


class NodeStore:
    """Sorted per-tag and per-path node streams over a collection."""

    def __init__(self, collection):
        self.collection = collection
        self._by_tag = collections.defaultdict(list)
        self._by_path = collections.defaultdict(list)
        self._built_upto = 0
        self.refresh()

    def refresh(self):
        """Index any documents added since the last refresh."""
        for document in self.collection.documents[self._built_upto :]:
            for node in document.nodes:
                self._by_tag[node.tag].append(node.node_id)
                self._by_path[node.path].append(node.node_id)
        self._built_upto = len(self.collection.documents)

    # -- streams --------------------------------------------------------------

    def by_tag(self, tag):
        """Node ids with the given tag, in global Dewey order."""
        return list(self._by_tag.get(tag, ()))

    def by_path(self, path):
        """Node ids with the given root-to-leaf path, in Dewey order."""
        return list(self._by_path.get(path, ()))

    def tags(self):
        return sorted(self._by_tag)

    def paths(self):
        return sorted(self._by_path)

    def sort_dewey(self, node_ids):
        """Sort arbitrary node ids into global Dewey order, which is
        ascending node id."""
        return sorted(node_ids)

    def descendants_in_path(self, ancestor_id, path):
        """Node ids on ``path`` that descend from ``ancestor_id``.

        Uses a binary search over the path stream: all descendants of
        a node are contiguous in Dewey (node-id) order, directly after
        the node itself.
        """
        node = self.collection.node
        ancestor = node(ancestor_id)
        stream = self._by_path.get(path, ())
        result = []
        for node_id in stream[bisect.bisect_left(stream, ancestor_id):]:
            candidate = node(node_id)
            if candidate.doc_id != ancestor.doc_id or not (
                candidate.dewey == ancestor.dewey
                or ancestor.dewey.is_ancestor_of(candidate.dewey)
            ):
                break
            result.append(node_id)
        return result
