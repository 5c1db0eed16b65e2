"""Discovery of non-tree edges: IDREF, XLink/XPointer, and value links.

The paper assumes value-based relationships "are provided as input into
the system" (Section 3) and notes that ID/IDREF and XLink edges require
preprocessing of the XML data.  This module is that preprocessing step:

* :meth:`LinkDiscoverer.discover_idrefs` wires ``idref``/``idrefs``
  attributes to the elements carrying the matching ``id`` attribute.
* :meth:`LinkDiscoverer.discover_xlinks` resolves ``xlink:href``-style
  fragment pointers, within and across documents.
* :meth:`LinkDiscoverer.apply_value_links` materializes caller-provided
  primary-key/foreign-key specs (:class:`ValueLinkSpec`) by joining on
  equal content, mirroring Definition 2(4).

Every pass reads the collection's per-tag and per-path node lists, so a
re-run after an incremental write touches the attributes and paths that
can link, never the whole corpus.
"""

import collections
import heapq

from repro.model.graph import EdgeKind

ID_ATTRIBUTE_NAMES = frozenset({"id", "ID", "xml:id"})
IDREF_ATTRIBUTE_NAMES = frozenset({"idref", "IDREF", "ref"})
IDREFS_ATTRIBUTE_NAMES = frozenset({"idrefs", "IDREFS", "refs"})
XLINK_ATTRIBUTE_NAMES = frozenset({"xlink:href", "href", "xpointer"})


class ValueLinkSpec:
    """A caller-provided value-based relationship (Definition 2, item 4).

    ``primary_path`` identifies primary-key nodes; ``foreign_path``
    identifies foreign-key nodes.  An edge is added from every foreign
    node to every primary node whose content is equal.  ``label`` names
    the relationship (cf. the dashed, labeled edges of Figure 1).
    """

    __slots__ = ("primary_path", "foreign_path", "label")

    def __init__(self, primary_path, foreign_path, label=None):
        self.primary_path = primary_path
        self.foreign_path = foreign_path
        self.label = label

    def to_dict(self):
        """Snapshot form, so future incremental loads can re-apply specs."""
        return {
            "primary": self.primary_path,
            "foreign": self.foreign_path,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, payload):
        return cls(payload["primary"], payload["foreign"], payload["label"])

    def __repr__(self):
        return (
            f"ValueLinkSpec(primary={self.primary_path!r}, "
            f"foreign={self.foreign_path!r}, label={self.label!r})"
        )


class LinkDiscoverer:
    """Adds non-tree edges to a :class:`~repro.model.graph.DataGraph`.

    With ``skip_existing=True`` the discoverer seeds a seen-set from the
    graph's current edges and silently skips duplicates, which makes
    discovery re-runnable after documents are added incrementally
    (:meth:`repro.system.Seda.add_documents`).
    """

    def __init__(self, graph, skip_existing=False):
        self.graph = graph
        self.collection = graph.collection
        self._seen = None
        if skip_existing:
            self._seen = {
                (edge.source_id, edge.target_id, edge.kind, edge.label)
                for edge in graph.edges
            }

    def _add(self, source_id, target_id, kind, label):
        """Add one edge, honoring the optional dedup mode; None if skipped."""
        if self._seen is not None:
            key = (source_id, target_id, kind, label)
            if key in self._seen:
                return None
            self._seen.add(key)
        return self.graph.add_edge(source_id, target_id, kind, label=label)

    def _attributes(self, names):
        """Attribute nodes named in ``names``, in ascending node id.

        Reads the collection's per-tag lists; merging them in id order
        keeps edge order, and first-definition-wins, as a document-order
        scan of the whole corpus would have them.
        """
        node = self.collection.node
        by_tag = self.collection.by_tag
        for node_id in heapq.merge(*(by_tag("@" + name) for name in names)):
            yield node(node_id)

    # -- ID / IDREF ---------------------------------------------------------

    def _id_table(self):
        """Map attribute id value -> element node id (collection-wide)."""
        table = {}
        for node in self._attributes(ID_ATTRIBUTE_NAMES):
            if node.direct_text:
                # First definition wins, as in DTD ID semantics.
                table.setdefault(node.direct_text, node.parent_id)
        return table

    def discover_idrefs(self):
        """Wire idref/idrefs attributes to their targets; returns edges."""
        return self._idrefs(self._id_table())

    def _idrefs(self, ids):
        edges = []
        for node in self._attributes(
            IDREF_ATTRIBUTE_NAMES | IDREFS_ATTRIBUTE_NAMES
        ):
            if not node.direct_text:
                continue
            name = node.tag[1:]
            if name in IDREF_ATTRIBUTE_NAMES:
                values = [node.direct_text]
            else:
                values = node.direct_text.split()
            for value in values:
                target = ids.get(value)
                if target is not None and target != node.parent_id:
                    edge = self._add(
                        node.parent_id, target, EdgeKind.IDREF, name
                    )
                    if edge is not None:
                        edges.append(edge)
        return edges

    # -- XLink / XPointer --------------------------------------------------------

    def discover_xlinks(self):
        """Resolve fragment-style XLink/XPointer hrefs; returns edges.

        Supported forms: ``#fragment`` (same collection, by id) and
        ``document-name#fragment``.  Anything else (external URLs) is
        ignored -- SEDA only adds edges between nodes it stores.
        """
        return self._xlinks(self._id_table())

    def _xlinks(self, ids):
        collection = self.collection
        edges = []
        for node in self._attributes(XLINK_ATTRIBUTE_NAMES):
            href = node.direct_text
            if "#" not in href:
                continue
            doc_name, fragment = href.split("#", 1)
            if not fragment:
                continue
            target = ids.get(fragment)
            if target is not None and doc_name and collection.document(
                collection.node(target).doc_id
            ).name != doc_name:
                target = None
            if target is not None and target != node.parent_id:
                edge = self._add(
                    node.parent_id, target, EdgeKind.XLINK, node.tag[1:]
                )
                if edge is not None:
                    edges.append(edge)
        return edges

    # -- value-based links --------------------------------------------------------

    def apply_value_links(self, specs):
        """Materialize value-based PK/FK edges from ``specs``.

        Uses a hash join on node content over the collection's per-path
        node lists: O(P + F) per spec where P and F are the node counts
        on the primary and foreign paths.
        """
        node = self.collection.node
        by_path = self.collection.by_path
        edges = []
        for spec in specs:
            primaries = collections.defaultdict(list)
            for primary_id in by_path(spec.primary_path):
                primary = node(primary_id)
                if primary.value:
                    primaries[primary.value].append(primary)
            for foreign_id in by_path(spec.foreign_path):
                foreign = node(foreign_id)
                for primary in primaries.get(foreign.value, ()):
                    if primary.node_id == foreign.node_id:
                        continue
                    edge = self._add(
                        foreign.node_id,
                        primary.node_id,
                        EdgeKind.VALUE,
                        spec.label,
                    )
                    if edge is not None:
                        edges.append(edge)
        return edges

    def discover_all(self, value_specs=()):
        """Run all discovery passes; returns the list of added edges."""
        ids = self._id_table()
        edges = self._idrefs(ids)
        edges.extend(self._xlinks(ids))
        edges.extend(self.apply_value_links(value_specs))
        return edges
