"""Document collections: the unit SEDA operates on.

A :class:`DocumentCollection` owns all documents, assigns global node
ids, and keeps the *node table*: for every distinct root-to-leaf path
and every tag, the ids of the nodes carrying it, plus the number of
documents holding each path.  The table answers both questions the
paper puts to its document store -- how often a path occurs (context
summaries, Section 5; e.g. 1984 distinct paths in World Factbook,
``/country`` present in 1577 of 1600 documents) and which nodes lie on
it in Dewey order (the twig joins of Section 7) -- and feeds link
discovery and the cube's key resolution.

Node ids are allocated in document order, one document after another,
and a document's nodes in pre-order -- which is Dewey order -- so
ascending node id *is* global Dewey order, and every list in the table
is sorted by construction.  The table is filled in the pass that
registers a document's nodes, at ingest and at snapshot restore alike;
reads are plain lookups that never insert a key, so concurrent readers
share it without a lock.
"""

import bisect
import itertools

from repro.model.document import Document
from repro.xmlio import parse
from repro.xmlio.dom import Element


class DocumentCollection:
    """All documents plus global node addressing and the node table."""

    def __init__(self, name="collection"):
        self.name = name
        self.documents = []
        self._nodes = []
        # The node table.  Paths are numbered in first-seen order; a
        # path's number indexes the three lists after _path_numbers.
        self._path_numbers = {}     # path -> number
        self._path_names = []       # the one string every node on it shares
        self._path_nodes = []       # node ids on the path, ascending
        self._path_documents = []   # documents holding the path
        self._tag_nodes = {}        # tag -> node ids, ascending

    # -- construction -----------------------------------------------------

    def add_document(self, source, name=None):
        """Add one document and return it.

        ``source`` may be XML text or an already-parsed
        :class:`~repro.xmlio.dom.Element`.
        """
        if isinstance(source, str):
            root = parse(source)
        elif isinstance(source, Element):
            root = source
        else:
            raise TypeError(
                "add_document expects XML text or an Element, got "
                f"{type(source).__name__}"
            )
        doc_id = len(self.documents)
        if name is None:
            name = f"doc-{doc_id}"
        allocate = itertools.count(len(self._nodes)).__next__
        return self._register(
            Document.from_element(doc_id, name, root, allocate)
        )

    def _register(self, document):
        """Append a built document and file its nodes in the node table.

        A document's nodes arrive in ascending id order, so appending
        keeps every list sorted, and a path's list already ends inside
        this document exactly when the document was counted for it.
        """
        path_numbers = self._path_numbers
        path_names = self._path_names
        path_nodes = self._path_nodes
        path_documents = self._path_documents
        tag_nodes = self._tag_nodes
        first_id = len(self._nodes)
        self._nodes.extend(document.nodes)
        for node in document.nodes:
            node_id = node.node_id
            number = path_numbers.get(node.path)
            if number is None:
                # Publish the number last: a reader that finds it must
                # find its lists too.
                path_names.append(node.path)
                path_nodes.append([node_id])
                path_documents.append(1)
                path_numbers[node.path] = len(path_names) - 1
            else:
                node.path = path_names[number]
                on_path = path_nodes[number]
                if on_path[-1] < first_id:
                    path_documents[number] += 1
                on_path.append(node_id)
            tagged = tag_nodes.get(node.tag)
            if tagged is None:
                tag_nodes[node.tag] = [node_id]
            else:
                tagged.append(node_id)
        self.documents.append(document)
        return document

    def add_documents(self, sources):
        """Add many documents; returns the list of created documents."""
        return [self.add_document(source) for source in sources]

    # -- snapshot serialization ----------------------------------------------

    def to_dict(self):
        """Snapshot form: columnar document records over a shared tag table."""
        tag_ids = {}
        documents = [document.to_dict(tag_ids) for document in self.documents]
        return {
            "name": self.name,
            "tag_table": list(tag_ids),
            "documents": documents,
        }

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a collection from :meth:`to_dict`, without parsing XML.

        Node ids are re-assigned in document order, which reproduces the
        original ids exactly (the collection allocates sequentially), so
        indexes and graph edges serialized by node id stay valid.
        """
        from repro.model.node import NodeKind

        collection = cls(name=payload["name"])
        tag_table = payload["tag_table"]
        kind_table = [
            NodeKind.ATTRIBUTE if tag[0] == "@" else NodeKind.ELEMENT
            for tag in tag_table
        ]
        for record in payload["documents"]:
            collection._register(Document.from_dict(
                len(collection.documents), record, collection.node_count,
                tag_table, kind_table,
            ))
        return collection

    # -- node access ---------------------------------------------------------

    def node(self, node_id):
        """The :class:`DataNode` with global id ``node_id``."""
        try:
            return self._nodes[node_id]
        except (IndexError, TypeError):
            raise KeyError(f"no node with id {node_id!r}") from None

    def node_by_ref(self, doc_id, dewey):
        """Resolve a ``(doc_id, dewey)`` reference to a node, or ``None``."""
        if not 0 <= doc_id < len(self.documents):
            return None
        return self.documents[doc_id].node_at(dewey)

    def document(self, doc_id):
        return self.documents[doc_id]

    def iter_nodes(self):
        """All nodes across all documents, in (doc, document-order)."""
        for document in self.documents:
            yield from document.nodes

    def content(self, node_id):
        """The paper's ``content(n)``: concatenated descendant text.

        Computed on demand and cached per node; leaf nodes (the common
        case for query matches) resolve to their direct text immediately.
        """
        node = self.node(node_id)
        if node._content is not None:
            return node._content
        parts = []
        stack = [node_id]
        order = []
        while stack:
            current = self.node(stack.pop())
            order.append(current)
            stack.extend(reversed(current.child_ids))
        for current in order:
            if current.direct_text:
                parts.append(current.direct_text)
        node._content = " ".join(part for part in parts if part)
        return node._content

    # -- the node table ------------------------------------------------------

    def by_path(self, path):
        """Node ids with the given root-to-leaf path, in Dewey order.

        The collection's own list: read it, never mutate it.
        """
        number = self._path_numbers.get(path)
        return [] if number is None else self._path_nodes[number]

    def by_tag(self, tag):
        """Node ids with the given tag, in Dewey order (read-only)."""
        return self._tag_nodes.get(tag, [])

    def descendants_in_path(self, ancestor_id, path):
        """Node ids on ``path`` that descend from ``ancestor_id``.

        A node's descendants are contiguous in Dewey (node-id) order,
        directly after the node itself, so one binary search finds them.
        """
        ancestor = self.node(ancestor_id)
        stream = self.by_path(path)
        result = []
        for node_id in stream[bisect.bisect_left(stream, ancestor_id):]:
            candidate = self.node(node_id)
            if candidate.doc_id != ancestor.doc_id or not (
                candidate.dewey == ancestor.dewey
                or ancestor.dewey.is_ancestor_of(candidate.dewey)
            ):
                break
            result.append(node_id)
        return result

    def paths(self):
        """All distinct root-to-leaf paths, sorted."""
        return sorted(self._path_names)

    def tags(self):
        """All distinct tags, sorted."""
        return sorted(self._tag_nodes)

    def path_count(self):
        """Number of distinct root-to-leaf paths in the collection."""
        return len(self._path_names)

    def path_occurrences(self, path):
        """Number of nodes on ``path`` (0 if unseen)."""
        return len(self.by_path(path))

    def path_document_frequency(self, path):
        """Number of documents holding ``path`` (0 if unseen)."""
        number = self._path_numbers.get(path)
        return 0 if number is None else self._path_documents[number]

    # -- sizing ------------------------------------------------------------------

    @property
    def node_count(self):
        return len(self._nodes)

    def __len__(self):
        return len(self.documents)

    def __repr__(self):
        return (
            f"DocumentCollection({self.name!r}, docs={len(self.documents)}, "
            f"nodes={self.node_count}, paths={self.path_count()})"
        )
