"""Term evaluation against the indexes (Definition 3 semantics).

Two granularities:

* :meth:`TermMatcher.candidates` -- node ids satisfying a term, in
  Dewey order.  This is the input stream for the top-k search unit and
  the twig processor.  Content matching here is at the *directly
  containing node* (the node whose own text carries the keywords),
  which is how the full-text index is built and how the paper's
  examples behave ("United States" matches ``country`` and
  ``trade_country`` leaf nodes).
* :meth:`TermMatcher.satisfies` -- the literal Definition 3 check for a
  given node, using ``content(n)`` = all descendant text.  Used by
  tests and by callers that need ancestor matches.

:meth:`TermMatcher.term_paths` computes a term's *context bucket*: the
distinct root-to-leaf paths the term matches anywhere in the collection
(Section 5), evaluated on the path index.
"""

from repro.query.ast import (
    And,
    Keyword,
    MatchAll,
    Not,
    Or,
    Phrase,
    QuerySyntaxError,
)
from repro.query.term import (
    ContextDisjunction,
    EmptyContext,
    PathContext,
    TagContext,
)


class TermMatcher:
    """Evaluates query terms over a collection and its indexes."""

    def __init__(self, collection, inverted, path_index):
        self.collection = collection
        self.inverted = inverted
        self.path_index = path_index

    # -- candidate enumeration ----------------------------------------------

    def candidates(self, term):
        """Node ids satisfying ``term``, sorted in global Dewey order."""
        if term.is_match_all:
            node_ids = self._context_nodes(term.context)
        else:
            matched = self._eval_nodes(term.search)
            node_ids = [
                node_id
                for node_id in matched
                if term.context.matches(self.collection.node(node_id))
            ]
        # Global node ids are assigned in document order, so sorting by
        # id yields Dewey order.
        return sorted(set(node_ids))

    def _context_nodes(self, context):
        """All node ids whose context matches (for match-all terms)."""
        if isinstance(context, EmptyContext):
            return [node.node_id for node in self.collection.iter_nodes()]
        if isinstance(context, PathContext):
            return self.collection.by_path(context.path)
        if isinstance(context, TagContext):
            node_ids = []
            for tag in self.collection.tags():
                if context._match_name(tag):
                    node_ids.extend(self.collection.by_tag(tag))
            return node_ids
        if isinstance(context, ContextDisjunction):
            node_ids = []
            for alternative in context.alternatives:
                node_ids.extend(self._context_nodes(alternative))
            return node_ids
        raise TypeError(f"unknown context type {type(context).__name__}")

    def _eval_nodes(self, expr):
        """Evaluate a search expression to a set of node ids."""
        if isinstance(expr, MatchAll):
            return {node.node_id for node in self.collection.iter_nodes()}
        if isinstance(expr, Keyword):
            return set(self.inverted.nodes_with_term(expr.term))
        if isinstance(expr, Phrase):
            return set(self.inverted.nodes_with_phrase(list(expr.words)))
        if isinstance(expr, Or):
            result = set()
            for child in expr.children:
                if isinstance(child, Not):
                    raise QuerySyntaxError(
                        "NOT is only supported inside a conjunction"
                    )
                result |= self._eval_nodes(child)
            return result
        if isinstance(expr, And):
            positives = [c for c in expr.children if not isinstance(c, Not)]
            negatives = [c for c in expr.children if isinstance(c, Not)]
            if not positives:
                raise QuerySyntaxError(
                    "a conjunction needs at least one positive operand"
                )
            result = self._eval_nodes(positives[0])
            for child in positives[1:]:
                result &= self._eval_nodes(child)
                if not result:
                    return result
            for child in negatives:
                result -= self._eval_nodes(child.child)
            return result
        if isinstance(expr, Not):
            raise QuerySyntaxError("NOT is only supported inside a conjunction")
        raise TypeError(f"unknown search expression {type(expr).__name__}")

    # -- Definition 3 literal check ---------------------------------------------

    def satisfies(self, node_id, term):
        """Definition 3: ``content(n)`` satisfies the search query and the
        node's name or context matches the term's context."""
        node = self.collection.node(node_id)
        if not term.context.matches(node):
            return False
        if term.is_match_all:
            return True
        content_terms = self.inverted.analyzer.terms(
            self.collection.content(node_id)
        )
        return self._eval_content(term.search, content_terms)

    def _eval_content(self, expr, content_terms):
        if isinstance(expr, MatchAll):
            return True
        if isinstance(expr, Keyword):
            return expr.term in content_terms
        if isinstance(expr, Phrase):
            words = list(expr.words)
            span = len(words)
            for start in range(len(content_terms) - span + 1):
                if content_terms[start : start + span] == words:
                    return True
            return False
        if isinstance(expr, And):
            positives = [c for c in expr.children if not isinstance(c, Not)]
            negatives = [c for c in expr.children if isinstance(c, Not)]
            return all(
                self._eval_content(child, content_terms) for child in positives
            ) and not any(
                self._eval_content(child.child, content_terms)
                for child in negatives
            )
        if isinstance(expr, Or):
            return any(
                self._eval_content(child, content_terms)
                for child in expr.children
            )
        if isinstance(expr, Not):
            raise QuerySyntaxError("NOT is only supported inside a conjunction")
        raise TypeError(f"unknown search expression {type(expr).__name__}")

    # -- context buckets (Section 5) ------------------------------------------------

    def term_paths(self, term):
        """Distinct paths the term matches in the whole collection.

        Section 5 describes three probe modes against the path index:
        term only, tag + term, and full path + term; the context filter
        below subsumes the latter two.
        """
        if term.is_match_all:
            paths = self.path_index.all_paths()
        else:
            paths = self._eval_paths(term.search)
        return {path for path in paths if term.context.matches_path(path)}

    def _eval_paths(self, expr):
        if isinstance(expr, MatchAll):
            return self.path_index.all_paths()
        if isinstance(expr, Keyword):
            return self.path_index.paths_for_term(expr.term)
        if isinstance(expr, Phrase):
            # Exact phrase paths come from the node-level index: the path
            # index alone cannot see adjacency (the paper verifies phrase
            # hits against the stored documents; we use node postings).
            node_ids = self.inverted.nodes_with_phrase(list(expr.words))
            return {self.collection.node(node_id).path for node_id in node_ids}
        if isinstance(expr, Or):
            result = set()
            for child in expr.children:
                if isinstance(child, Not):
                    raise QuerySyntaxError(
                        "NOT is only supported inside a conjunction"
                    )
                result |= self._eval_paths(child)
            return result
        if isinstance(expr, And):
            positives = [c for c in expr.children if not isinstance(c, Not)]
            negatives = [c for c in expr.children if isinstance(c, Not)]
            if not positives:
                raise QuerySyntaxError(
                    "a conjunction needs at least one positive operand"
                )
            result = self._eval_paths(positives[0])
            for child in positives[1:]:
                result &= self._eval_paths(child)
            for child in negatives:
                result -= self._eval_paths(child.child)
            return result
        if isinstance(expr, Not):
            raise QuerySyntaxError("NOT is only supported inside a conjunction")
        raise TypeError(f"unknown search expression {type(expr).__name__}")
