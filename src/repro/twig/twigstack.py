"""Holistic twig joins: TwigStack [4] over Dewey-ordered streams.

TwigStack processes one sorted stream per twig-pattern node and a stack
per internal node; ``get_next`` picks the next stream to advance such
that no partial solution is ever constructed unless it is guaranteed to
extend to the leaf (optimal for ancestor-descendant twigs).  Path
solutions are emitted per leaf and merge-joined into full twig matches.

Our twig patterns carry full root-to-leaf paths on every node, so an
ancestor-descendant match between stream items is automatically a
parent-child match (each pattern edge adds exactly one path step and
Dewey levels mirror path steps one-to-one) -- no post-filtering pass is
needed.

Every pattern edge is ancestor-descendant, so a twig match lies inside
one document.  Before TwigStack runs, :meth:`TwigStackJoin.matches`
cuts every stream down to the documents that hold an item of *every*
stream: it takes the documents of the smallest stream and keeps one
only if each other stream has an id inside that document's node-id
range.  A document's node ids are contiguous and ascending id is Dewey
order, so one ``bisect`` per document per stream answers this, and the
cut streams are slices of the originals.  When an anchor term matches
one country, the join walks that country's nodes, not the corpus's.

:class:`NaiveTwigJoin` is the baseline: top-down nested-loop structural
join, used for correctness checks and the TW benchmark.
"""

import bisect
import itertools

_INFINITY = float("inf")


class _Stream:
    """Cursor over a pattern node's Dewey-ordered node stream."""

    __slots__ = ("items", "pos")

    def __init__(self, items):
        self.items = items
        self.pos = 0

    @property
    def exhausted(self):
        return self.pos >= len(self.items)

    def head(self):
        return self.items[self.pos]

    def advance(self):
        self.pos += 1


def _begin_key(collection, node_id):
    """Region-encoding 'begin' emulated from (doc, dewey)."""
    node = collection.node(node_id)
    return (node.doc_id, node.dewey.components)

def _end_key(collection, node_id):
    """Region-encoding 'end': just after all of the node's descendants."""
    node = collection.node(node_id)
    return (node.doc_id, node.dewey.components + (_INFINITY,))


def _holds(ids, low, high):
    """Whether the sorted ``ids`` hold one inside ``[low, high]``."""
    index = bisect.bisect_left(ids, low)
    return index < len(ids) and ids[index] <= high


def _slice(ids, ranges):
    """The sorted ``ids`` that fall inside one of the sorted ranges."""
    kept = []
    for low, high in ranges:
        kept.extend(ids[bisect.bisect_left(ids, low):
                        bisect.bisect_right(ids, high)])
    return kept


class TwigStackJoin:
    """Evaluate a :class:`TwigPattern` with the TwigStack algorithm."""

    def __init__(self, collection, node_store):
        self.collection = collection
        self.node_store = node_store

    # -- public API -------------------------------------------------------

    def matches(self, pattern, candidate_streams=None):
        """All twig matches as ``{pattern_node: node_id}`` dicts.

        ``candidate_streams`` optionally overrides the stream of an
        *output* node with pre-filtered node ids (e.g. the nodes that
        satisfied the full-text predicate), keyed by term index.
        """
        nodes = pattern.nodes()
        streams = {}
        for query_node in nodes:
            if (
                candidate_streams is not None
                and query_node.term_index is not None
                and query_node.term_index in candidate_streams
            ):
                ids = [
                    node_id
                    for node_id in candidate_streams[query_node.term_index]
                    if self.collection.node(node_id).path == query_node.path
                ]
                ids = self.node_store.sort_dewey(ids)
            else:
                ids = self.node_store.by_path(query_node.path)
            streams[query_node] = ids
        kept = self._document_ranges(list(streams.values()))
        streams = {
            query_node: _Stream(_slice(ids, kept))
            for query_node, ids in streams.items()
        }

        stacks = {query_node: [] for query_node in nodes}
        leaf_solutions = {
            leaf: [] for leaf in nodes if leaf.is_leaf
        }
        root = pattern.root

        while True:
            q = self._get_next(root, streams)
            if q is None:
                break
            if q.parent is not None:
                self._clean_stack(
                    stacks[q.parent], self._head_begin(q, streams)
                )
            if q.parent is None or stacks[q.parent]:
                self._clean_stack(stacks[q], self._head_begin(q, streams))
                self._push(q, streams, stacks)
                if q.is_leaf:
                    self._emit_path_solutions(q, stacks, leaf_solutions[q])
                    stacks[q].pop()
            else:
                streams[q].advance()

        return self._merge_path_solutions(pattern, leaf_solutions)

    def match_tuples(self, pattern, candidate_streams=None):
        """Matches projected to term order: list of node-id tuples."""
        outputs = pattern.output_nodes()
        tuples = []
        for match in self.matches(pattern, candidate_streams):
            tuples.append(tuple(match[node] for node in outputs))
        return tuples

    def _document_ranges(self, streams):
        """Node-id ranges of the documents holding an item of every
        stream, in document order."""
        documents = self.collection.documents
        node = self.collection.node
        smallest = min(streams, key=len)
        kept = []
        position = 0
        while position < len(smallest):
            nodes = documents[node(smallest[position]).doc_id].nodes
            low, high = nodes[0].node_id, nodes[-1].node_id
            if all(_holds(ids, low, high) for ids in streams):
                kept.append((low, high))
            position = bisect.bisect_right(smallest, high, position)
        return kept

    # -- TwigStack core -------------------------------------------------------

    def _head_begin(self, q, streams):
        stream = streams[q]
        if stream.exhausted:
            return None
        return _begin_key(self.collection, stream.head())

    def _head_end(self, q, streams):
        stream = streams[q]
        if stream.exhausted:
            return None
        return _end_key(self.collection, stream.head())

    def _get_next(self, q, streams):
        """The next pattern node to act on, or ``None`` when q's subtree
        can make no further progress.

        A leaf is *dead* once its stream is exhausted; an internal node
        is dead once every child subtree is.  A dead child subtree
        cannot contribute to new solutions (streams are in document
        order, so no future ancestor can contain an already-consumed
        descendant), but live siblings must keep advancing so that
        their path solutions under already-stacked ancestors are still
        emitted and merged.
        """
        if q.is_leaf:
            return None if streams[q].exhausted else q
        alive = []
        any_dead = False
        for child in q.children:
            descendant = self._get_next(child, streams)
            if descendant is None:
                any_dead = True
            elif descendant is not child:
                return descendant
            else:
                alive.append(child)
        if not alive:
            return None
        begins = {child: self._head_begin(child, streams) for child in alive}
        n_min = min(alive, key=lambda child: begins[child])
        if any_dead:
            # No new q-instances are useful; just drain the live branch.
            return n_min
        n_max = max(alive, key=lambda child: begins[child])
        # Skip q-stream items that end before the max child begins: they
        # cannot contain all child heads.
        while (
            not streams[q].exhausted
            and self._head_end(q, streams) < begins[n_max]
        ):
            streams[q].advance()
        if (
            not streams[q].exhausted
            and self._head_begin(q, streams) < begins[n_min]
        ):
            return q
        return n_min

    def _clean_stack(self, stack, begin):
        """Pop entries that are not ancestors of the next item."""
        while stack and not self._contains(stack[-1][0], begin):
            stack.pop()

    def _contains(self, node_id, begin):
        if begin is None:
            return False
        return (
            _begin_key(self.collection, node_id) < begin
            < _end_key(self.collection, node_id)
        )

    def _push(self, q, streams, stacks):
        node_id = streams[q].head()
        streams[q].advance()
        parent_size = len(stacks[q.parent]) if q.parent is not None else 0
        stacks[q].append((node_id, parent_size))

    def _emit_path_solutions(self, leaf, stacks, out):
        """Emit all root-to-leaf solutions ending at the new leaf entry.

        Stack entries record a pointer into the parent stack, but since
        every in-stack entry chain is an ancestor chain, the ancestor
        test on (begin, end) keys is an equivalent and simpler filter.
        """
        chain = []
        node = leaf
        while node is not None:
            chain.append(node)
            node = node.parent
        chain.reverse()  # root .. leaf

        def expand(index, solution):
            if index == len(chain):
                out.append(dict(solution))
                return
            q = chain[index]
            stack = stacks[q]
            if index == len(chain) - 1:
                entries = [stack[-1]]  # only the newly pushed leaf entry
            else:
                entries = stack
            for node_id, _pointer in entries:
                if index > 0:
                    parent_id = solution[chain[index - 1]]
                    begin = _begin_key(self.collection, node_id)
                    if not self._contains(parent_id, begin):
                        continue
                solution[q] = node_id
                expand(index + 1, solution)
                del solution[q]

        expand(0, {})

    # -- merging path solutions ------------------------------------------------------

    def _merge_path_solutions(self, pattern, leaf_solutions):
        """Join per-leaf path solutions on their shared prefix nodes."""
        leaves = [leaf for leaf in pattern.nodes() if leaf.is_leaf]
        if not leaves:
            return []
        merged = leaf_solutions[leaves[0]]
        merged_nodes = set(self._chain(leaves[0]))
        for leaf in leaves[1:]:
            chain_nodes = set(self._chain(leaf))
            shared = merged_nodes & chain_nodes
            by_key = {}
            for solution in leaf_solutions[leaf]:
                key = tuple(
                    solution[node]
                    for node in sorted(shared, key=lambda n: n.path)
                )
                by_key.setdefault(key, []).append(solution)
            next_merged = []
            for left in merged:
                key = tuple(
                    left[node]
                    for node in sorted(shared, key=lambda n: n.path)
                )
                for right in by_key.get(key, ()):
                    combined = dict(left)
                    combined.update(right)
                    next_merged.append(combined)
            merged = next_merged
            merged_nodes |= chain_nodes
        return merged

    @staticmethod
    def _chain(leaf):
        chain = []
        node = leaf
        while node is not None:
            chain.append(node)
            node = node.parent
        return chain


class NaiveTwigJoin:
    """Baseline: top-down nested-loop structural join.

    For every instance of the root path, recursively enumerate child
    pattern matches among its descendants.  Quadratic in the worst case
    -- the benchmark contrast for TwigStack.
    """

    def __init__(self, collection, node_store):
        self.collection = collection
        self.node_store = node_store

    def matches(self, pattern, candidate_streams=None):
        allowed = None
        if candidate_streams is not None:
            allowed = {}
            for node in pattern.output_nodes():
                if node.term_index in candidate_streams:
                    allowed[node] = set(candidate_streams[node.term_index])

        # Pre-order assignment: each node's parent is assigned before it.
        order = pattern.nodes()
        results = []

        def extend(index, solution):
            if index == len(order):
                results.append(dict(solution))
                return
            query_node = order[index]
            parent_id = solution[query_node.parent]
            for candidate in self.node_store.descendants_in_path(
                parent_id, query_node.path
            ):
                if candidate == parent_id:
                    continue
                if (
                    allowed is not None
                    and query_node in allowed
                    and candidate not in allowed[query_node]
                ):
                    continue
                solution[query_node] = candidate
                extend(index + 1, solution)
                del solution[query_node]

        root = pattern.root
        for root_id in self.node_store.by_path(root.path):
            if (
                allowed is not None
                and root in allowed
                and root_id not in allowed[root]
            ):
                continue
            extend(1, {root: root_id})
        return results

    def match_tuples(self, pattern, candidate_streams=None):
        outputs = pattern.output_nodes()
        return [
            tuple(match[node] for node in outputs)
            for match in self.matches(pattern, candidate_streams)
        ]
