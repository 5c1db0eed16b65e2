"""The SEDA data graph (Definition 2).

Vertices are data nodes across all documents; edges are the four
relationship kinds of the paper:

1. parent/child (implicit from the tree structure, traversed for free),
2. IDREF links,
3. XLink/XPointer links,
4. value-based (primary key / foreign key) relationships.

Non-tree edges are stored explicitly in adjacency lists keyed by global
node id; tree edges are resolved through the owning collection.  The
graph exposes the neighborhood and bounded-shortest-path primitives that
the compactness scoring function (Section 4) and the connection summary
(Section 6) are built on.
"""

import collections
import enum


class EdgeKind(enum.Enum):
    """Relationship kinds between data nodes (Definition 2)."""

    CHILD = "child"
    IDREF = "idref"
    XLINK = "xlink"
    VALUE = "value"


class Edge:
    """A directed non-tree edge with an optional human-readable label.

    The paper's Figure 1 labels relationship edges (e.g. ``bordering``,
    ``trade partner``); labels surface in connection summaries.
    """

    __slots__ = ("source_id", "target_id", "kind", "label")

    def __init__(self, source_id, target_id, kind, label=None):
        if kind is EdgeKind.CHILD:
            raise ValueError("parent/child edges are implicit; do not add them")
        self.source_id = source_id
        self.target_id = target_id
        self.kind = kind
        self.label = label

    def __eq__(self, other):
        if not isinstance(other, Edge):
            return NotImplemented
        return (
            self.source_id == other.source_id
            and self.target_id == other.target_id
            and self.kind == other.kind
            and self.label == other.label
        )

    def __hash__(self):
        return hash((self.source_id, self.target_id, self.kind, self.label))

    def __repr__(self):
        label = f", label={self.label!r}" if self.label else ""
        return f"Edge({self.source_id}->{self.target_id}, {self.kind.value}{label})"


class DataGraph:
    """Adjacency over a :class:`~repro.model.collection.DocumentCollection`.

    The graph never copies tree structure; parent/child neighbors are
    looked up in the collection on demand, so building the graph is O(1)
    and adding E non-tree edges is O(E).
    """

    def __init__(self, collection):
        self.collection = collection
        self._out = collections.defaultdict(list)
        self._in = collections.defaultdict(list)
        self.edges = []
        #: Monotonic mutation counter.  Every change to the graph's edge
        #: set bumps it, so caches derived from the graph (document
        #: reachability, per-document edge indexes, query result caches)
        #: key on ``version`` instead of ``len(edges)`` -- an edge count
        #: cannot distinguish "one edge replaced" from "nothing changed".
        self.version = 0

    # -- construction ---------------------------------------------------------

    def add_edge(self, source_id, target_id, kind, label=None):
        """Add a directed non-tree edge between two node ids."""
        self.collection.node(source_id)  # validate both endpoints exist
        self.collection.node(target_id)
        edge = Edge(source_id, target_id, kind, label)
        self._out[source_id].append(edge)
        self._in[target_id].append(edge)
        self.edges.append(edge)
        self.version += 1
        return edge

    def bump_version(self):
        """Mark the graph as mutated without adding an edge.

        Callers that change what the graph means through a side door --
        ingesting documents (new implicit tree edges), or editing the
        edge list in place -- must bump so that version-keyed caches
        rebuild.  Returns the new version.
        """
        self.version += 1
        return self.version

    # -- snapshot serialization -------------------------------------------------

    def to_dict(self):
        """Snapshot form: every non-tree edge as node-id endpoints.

        Node ids are stable across snapshot round-trips (they are
        re-assigned deterministically in document order), so edges are
        stored by raw id rather than ``(doc, dewey)`` references.
        """
        return {
            "version": self.version,
            "edges": [
                [edge.source_id, edge.target_id, edge.kind.value, edge.label]
                for edge in self.edges
            ],
        }

    @classmethod
    def from_dict(cls, payload, collection):
        """Rebuild a graph over ``collection`` from :meth:`to_dict`.

        Skips :meth:`add_edge`'s per-edge endpoint validation: snapshot
        edges were validated when first added, and node ids restore
        deterministically alongside them.
        """
        graph = cls(collection)
        kind_of = {kind.value: kind for kind in EdgeKind}
        out_table, in_table, edges = graph._out, graph._in, graph.edges
        for source_id, target_id, kind, label in payload["edges"]:
            edge = Edge(source_id, target_id, kind_of[kind], label)
            out_table[source_id].append(edge)
            in_table[target_id].append(edge)
            edges.append(edge)
        graph.version = payload["version"]
        return graph

    # -- neighborhoods ----------------------------------------------------------

    def tree_neighbors(self, node_id):
        """Parent and children of a node (parent/child edges, both ways)."""
        node = self.collection.node(node_id)
        neighbors = list(node.child_ids)
        if node.parent_id is not None:
            neighbors.append(node.parent_id)
        return neighbors

    def link_neighbors(self, node_id):
        """Non-tree neighbors, following links in both directions."""
        neighbors = [edge.target_id for edge in self._out.get(node_id, ())]
        neighbors.extend(edge.source_id for edge in self._in.get(node_id, ()))
        return neighbors

    def neighbors(self, node_id):
        """All neighbors, treating every edge kind as bidirectional.

        Undirected traversal matches the paper's connectedness notion in
        Definition 4: a result tuple is valid when its nodes form a
        connected subgraph, regardless of edge direction.
        """
        return self.tree_neighbors(node_id) + self.link_neighbors(node_id)

    def out_edges(self, node_id):
        return list(self._out.get(node_id, ()))

    def in_edges(self, node_id):
        return list(self._in.get(node_id, ()))

    # -- shortest paths ------------------------------------------------------------

    def shortest_path(self, source_id, target_id, max_hops=None):
        """Shortest undirected node-id path, or ``None`` if unreachable.

        ``max_hops`` bounds the BFS frontier; compactness scoring uses a
        small bound because distant nodes contribute negligible score and
        unbounded searches on graph data can touch every node.
        """
        if source_id == target_id:
            return [source_id]
        parents = {source_id: None}
        frontier = [source_id]
        hops = 0
        while frontier:
            if max_hops is not None and hops >= max_hops:
                return None
            hops += 1
            next_frontier = []
            for current in frontier:
                for neighbor in self.neighbors(current):
                    if neighbor in parents:
                        continue
                    parents[neighbor] = current
                    if neighbor == target_id:
                        return self._unwind(parents, target_id)
                    next_frontier.append(neighbor)
            frontier = next_frontier
        return None

    def distance(self, source_id, target_id, max_hops=None):
        """Length (in edges) of the shortest path, or ``None``."""
        path = self.shortest_path(source_id, target_id, max_hops=max_hops)
        if path is None:
            return None
        return len(path) - 1

    @staticmethod
    def _unwind(parents, target_id):
        path = [target_id]
        while parents[path[-1]] is not None:
            path.append(parents[path[-1]])
        path.reverse()
        return path

    # -- connectivity ---------------------------------------------------------------

    def connects(self, node_ids, max_hops=None):
        """True when the given nodes lie in one connected subgraph.

        This is the Definition 4 test used by result enumeration: grow a
        BFS region from the first node until all the others are absorbed
        (or the hop bound is exhausted).
        """
        remaining = set(node_ids)
        if len(remaining) <= 1:
            return True
        start = next(iter(remaining))
        remaining.discard(start)
        seen = {start}
        frontier = [start]
        hops = 0
        while frontier and remaining:
            if max_hops is not None and hops >= max_hops:
                return False
            hops += 1
            next_frontier = []
            for current in frontier:
                for neighbor in self.neighbors(current):
                    if neighbor in seen:
                        continue
                    seen.add(neighbor)
                    remaining.discard(neighbor)
                    next_frontier.append(neighbor)
            frontier = next_frontier
        return not remaining

    def steiner_size(self, node_ids, max_hops=None):
        """Approximate size of the minimal subtree connecting the nodes.

        Used by compactness scoring: the score of a result tuple decays
        with the total number of edges needed to connect its nodes.  We
        use the classic star approximation -- sum of pairwise shortest
        paths from the first node -- which is exact for the common case
        of nodes within one document subtree and within a factor of 2
        otherwise.
        """
        ids = list(dict.fromkeys(node_ids))
        if len(ids) <= 1:
            return 0
        anchor = ids[0]
        total = 0
        for other in ids[1:]:
            hops = self.distance(anchor, other, max_hops=max_hops)
            if hops is None:
                return None
            total += hops
        return total

    def __repr__(self):
        return (
            f"DataGraph(docs={len(self.collection.documents)}, "
            f"link_edges={len(self.edges)})"
        )
