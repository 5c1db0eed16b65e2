"""Single-pass construction of both SEDA indexes."""

from repro.index.inverted import InvertedIndex
from repro.index.path_index import PathIndex
from repro.text import Analyzer


class IndexBuilder:
    """Builds the inverted index and path index for a collection.

    Incremental: ``build()`` indexes only documents added since the
    previous call, so datasets can be streamed in.  Every pass that
    indexed something ends by folding both indexes into their
    byte-column form, so a built system holds columns, not per-posting
    objects.

    Indexing is where the scoring pipeline's build-time work happens:
    each ``InvertedIndex.add_node`` call records positional postings
    (term frequencies) *and* the node's analyzed token count (the
    tf-idf length norm), so query-time scoring reads precomputed
    numbers instead of re-analyzing node text.
    """

    def __init__(self, collection, analyzer=None, inverted=None, paths=None,
                 built_upto=0, trie=None):
        """``inverted``/``paths``/``built_upto`` re-attach prebuilt indexes
        (the snapshot-restore path) so that later :meth:`build` calls stay
        incremental instead of re-indexing from scratch.

        ``trie`` seeds the path index with a (possibly shared)
        :class:`~repro.compact.trie.PathTrie`.
        """
        self.collection = collection
        self.analyzer = analyzer or Analyzer()
        self.inverted = (
            inverted if inverted is not None else InvertedIndex(self.analyzer)
        )
        self.paths = (
            paths if paths is not None
            else PathIndex(self.analyzer, trie=trie)
        )
        self._built_upto = built_upto

    def build(self):
        """Index pending documents; returns (inverted, path) indexes."""
        pending = self.collection.documents[self._built_upto:]
        for document in pending:
            for node in document.nodes:
                self.paths.add_node(node.path, node.tag, node.direct_text)
                if node.direct_text:
                    self.inverted.add_node(node.node_id, node.direct_text)
        self._built_upto = len(self.collection.documents)
        if pending:
            self.inverted.compact()
            self.paths.compact()
        return self.inverted, self.paths
