"""Complete result generation (Section 7, Figure 3).

Once the user has fixed a context path per term and selected the
relevant connections, SEDA materializes the *entire* result set (not
just top-k).  The connection graph is partitioned into twigs along the
chosen tree connections; each twig runs through the holistic twig join
with the full-text hit lists as leaf streams; twig outputs are combined
by cross-twig joins (for link connections) or a connectivity-checked
product (when the user chose no connection between two groups).

The output is a :class:`ResultTable` with the Figure 3 schema: two
columns per query term -- the Dewey node reference and the node's full
root-to-leaf path.
"""

import itertools

from repro.query.term import PathContext, QueryTerm
from repro.summaries.connection import LinkConnection, TreeConnection
from repro.twig.joins import CrossTwigJoiner
from repro.twig.pattern import TwigNode, TwigPattern
from repro.twig.twigstack import TwigStackJoin


class ResultTable:
    """The full query result R(q): ``<nodeid1, path1, ..., pathm>``."""

    def __init__(self, query, term_paths, rows, collection):
        self.query = query
        self.term_paths = term_paths
        self.rows = rows  # list of node-id tuples in term order
        self.collection = collection

    @property
    def schema(self):
        columns = []
        for index in range(len(self.query.terms)):
            columns.append(f"nodeid{index + 1}")
            columns.append(f"path{index + 1}")
        return columns

    def display_rows(self):
        """Rows rendered like Figure 3(a): Dewey refs and paths."""
        rendered = []
        for row in self.rows:
            cells = []
            for node_id in row:
                node = self.collection.node(node_id)
                cells.append(f"n{node.dewey}")
                cells.append(node.path)
            rendered.append(tuple(cells))
        return rendered

    def column_paths(self, index):
        """Distinct paths bound in the ``index``-th term column."""
        return {
            self.collection.node(row[index]).path for row in self.rows
        }

    def values(self, index):
        """Node values of the ``index``-th term column, row order."""
        return [
            self.collection.node(row[index]).value for row in self.rows
        ]

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


class CompleteResultGenerator:
    """Materializes R(q) for chosen contexts and connections."""

    def __init__(self, collection, graph, matcher, max_hops=12):
        self.collection = collection
        self.graph = graph
        self.matcher = matcher
        self.max_hops = max_hops
        self._twig_join = TwigStackJoin(collection)
        self._cross_join = CrossTwigJoiner(collection, graph, max_hops)

    # -- public API -----------------------------------------------------------

    def generate(self, query, term_paths, connections=()):
        """Compute the complete result table.

        ``term_paths`` maps term index -> the chosen context path.
        ``connections`` is a list of ``((i, j), Connection)`` pairs the
        user selected; tree connections group terms into one twig (and
        constrain the instance LCA), link connections become cross-twig
        joins.  Terms not mentioned in ``term_paths`` raise: a complete
        result requires every term to be disambiguated (Figure 6's flow
        reaches this stage only after context selection).
        """
        term_count = len(query.terms)
        missing = [i for i in range(term_count) if i not in term_paths]
        if missing:
            raise ValueError(
                f"complete results need a chosen context for every term; "
                f"missing term indexes: {missing}"
            )

        candidates = self._candidate_streams(query, term_paths)
        if any(not candidates[i] for i in range(term_count)):
            return ResultTable(query, dict(term_paths), [], self.collection)

        components = self._components(term_count, connections)
        partials = []
        for component in components:
            tuples = self._evaluate_twig(
                component, term_paths, connections, candidates
            )
            partials.append((tuples, component))

        rows, order = self._combine(partials, connections)
        # Re-project to query term order and drop tuples with repeats.
        final_rows = []
        for row in rows:
            projected = tuple(
                row[order.index(i)] for i in range(term_count)
            )
            if len(set(projected)) == len(projected):
                final_rows.append(projected)
        final_rows = sorted(set(final_rows))
        return ResultTable(query, dict(term_paths), final_rows, self.collection)

    # -- pieces -------------------------------------------------------------------

    def _candidate_streams(self, query, term_paths):
        """Per-term Dewey-ordered full-text hit lists, context-restricted."""
        candidates = {}
        for index, term in enumerate(query.terms):
            restricted = QueryTerm(
                PathContext(term_paths[index]), term.search, label=term.label
            )
            candidates[index] = self.matcher.candidates(restricted)
        return candidates

    def _components(self, term_count, connections):
        """Union-find over tree connections -> twig components."""
        parent = list(range(term_count))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (i, j), connection in connections:
            if isinstance(connection, TreeConnection):
                parent[find(i)] = find(j)
        groups = {}
        for index in range(term_count):
            groups.setdefault(find(index), []).append(index)
        return sorted(groups.values())

    def _evaluate_twig(self, component, term_paths, connections, candidates):
        """Twig evaluation for one component; returns node-id tuples in
        ``component`` term order."""
        if len(component) == 1:
            index = component[0]
            return [(node_id,) for node_id in candidates[index]]

        paths = {index: term_paths[index] for index in component}
        tree_constraints = [
            ((i, j), connection)
            for (i, j), connection in connections
            if isinstance(connection, TreeConnection)
            and i in component and j in component
        ]
        pattern = self._build_twig(paths, tree_constraints)
        tuples = self._twig_join.match_tuples(
            pattern, candidate_streams=candidates
        )
        ordered_terms = pattern.term_indexes()
        # Project to component order.
        projection = [ordered_terms.index(i) for i in component]
        projected = [
            tuple(row[p] for p in projection) for row in tuples
        ]
        # Enforce exact instance-LCA constraints from the connections.
        for (i, j), connection in tree_constraints:
            pos_i = component.index(i)
            pos_j = component.index(j)
            projected = [
                row for row in projected
                if self._lca_path(row[pos_i], row[pos_j])
                == connection.lca_path
            ]
        return projected

    def _lca_path(self, node_a, node_b):
        first = self.collection.node(node_a)
        second = self.collection.node(node_b)
        if first.doc_id != second.doc_id:
            return None
        lca = first.dewey.common_ancestor(second.dewey)
        lca_node = self.collection.node_by_ref(first.doc_id, lca)
        return lca_node.path if lca_node is not None else None

    def _build_twig(self, term_paths, tree_constraints):
        """Prefix-merge term paths into a twig, honoring LCA split points.

        Two terms' chains may share a pattern node at depth ``d`` only
        if every chosen tree connection between them has its LCA at
        depth >= d... inverted: sharing below the chosen LCA depth is
        disallowed, so e.g. the "cousin" connection (LCA at
        ``import_partners``) forces separate ``item`` branches while the
        "sibling" connection (LCA at ``item``) shares one.
        """
        merge_depth = {}
        for (i, j), connection in tree_constraints:
            depth = connection.lca_path.count("/")
            key = frozenset((i, j))
            merge_depth[key] = min(merge_depth.get(key, depth), depth)

        roots = {path.split("/")[1] for path in term_paths.values()}
        if len(roots) != 1:
            raise ValueError(
                "terms grouped into one twig must share a document root; "
                f"got {sorted(roots)}"
            )
        root_path = f"/{next(iter(roots))}"
        root = TwigNode(root_path)
        node_terms = {root: set()}

        for index in sorted(term_paths):
            path = term_paths[index]
            if path == root_path:
                if root.term_index is not None:
                    raise ValueError(
                        "at most one query term may bind the twig root"
                    )
                root.term_index = index
                node_terms[root].add(index)
                continue
            steps = path.split("/")[1:]
            current = root
            node_terms[root].add(index)
            prefix = root_path
            for depth, step in enumerate(steps[1:-1], start=2):
                prefix = f"{prefix}/{step}"
                shared = None
                for child in current.children:
                    if child.path != prefix or child.term_index is not None:
                        continue
                    conflict = any(
                        merge_depth.get(frozenset((index, other)), 10**9)
                        < depth
                        for other in node_terms[child]
                    )
                    if not conflict:
                        shared = child
                        break
                if shared is None:
                    shared = current.add_child(TwigNode(prefix))
                    node_terms[shared] = set()
                node_terms[shared].add(index)
                current = shared
            leaf = current.add_child(TwigNode(path, index))
            node_terms[leaf] = {index}
        return TwigPattern(root)

    def _combine(self, partials, connections):
        """Cross-twig combination; returns (rows, term order)."""
        link_connections = [
            ((i, j), connection)
            for (i, j), connection in connections
            if isinstance(connection, LinkConnection)
        ]
        rows, order = partials[0]
        order = list(order)
        remaining = [(tuples, list(terms)) for tuples, terms in partials[1:]]
        while remaining:
            progressed = False
            for pos, (tuples, terms) in enumerate(remaining):
                link = self._find_link(order, terms, link_connections)
                if link is None and len(remaining) > 1:
                    continue
                if link is not None:
                    (left_term, right_term), connection = link
                    rows = self._cross_join.join(
                        rows, order, tuples, terms, connection,
                        left_term, right_term,
                    )
                    order = order + terms
                else:
                    rows = self._cross_join.connectivity_product(rows, tuples)
                    order = order + terms
                remaining.pop(pos)
                progressed = True
                break
            if not progressed:
                tuples, terms = remaining.pop(0)
                rows = self._cross_join.connectivity_product(rows, tuples)
                order = order + terms
        return rows, order

    def _find_link(self, left_terms, right_terms, link_connections):
        """A link connection bridging the two term groups, if any.

        Returns ``((left_term, right_term), connection)``; instance
        matching is orientation-tolerant so either side may be "left".
        """
        for (i, j), connection in link_connections:
            if i in left_terms and j in right_terms:
                return (i, j), connection
            if j in left_terms and i in right_terms:
                return (j, i), connection
        return None
