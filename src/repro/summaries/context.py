"""Context discovery (Section 5).

For each query term SEDA computes a *context bucket*: all distinct
paths the term appears in within the entire data collection, displayed
sorted by frequency.  Crucially the frequency shown is the absolute
frequency of the *path* in the collection -- "irrespective of the
keyword" -- to convey the structural shape of the data (this is the
paper's stated difference from faceted search engines).
"""


class ContextEntry:
    """One context (path) in a bucket, with collection-level statistics."""

    __slots__ = ("path", "occurrences", "document_frequency")

    def __init__(self, path, occurrences, document_frequency):
        self.path = path
        self.occurrences = occurrences
        self.document_frequency = document_frequency

    def __eq__(self, other):
        if not isinstance(other, ContextEntry):
            return NotImplemented
        return self.path == other.path

    def __repr__(self):
        return (
            f"ContextEntry({self.path!r}, n={self.occurrences}, "
            f"docs={self.document_frequency})"
        )


class ContextBucket:
    """All contexts for one query term, sorted by descending frequency."""

    def __init__(self, term, entries):
        self.term = term
        self.entries = sorted(
            entries, key=lambda entry: (-entry.occurrences, entry.path)
        )

    @property
    def paths(self):
        return [entry.path for entry in self.entries]

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        return f"ContextBucket({self.term!r}, contexts={len(self.entries)})"


class ContextSummary:
    """One bucket per query term, in term order."""

    def __init__(self, query, buckets):
        self.query = query
        self.buckets = buckets

    def bucket(self, index):
        return self.buckets[index]

    def combination_count(self):
        """Number of ways to pick one context per term (Example 1's
        "12 different ways of combining these nodes")."""
        total = 1
        for bucket in self.buckets:
            total *= max(1, len(bucket))
        return total

    def __iter__(self):
        return iter(self.buckets)

    def __len__(self):
        return len(self.buckets)


class ContextSummaryGenerator:
    """Computes context summaries from the path index (Figure 8)."""

    def __init__(self, matcher):
        self.matcher = matcher
        self.collection = matcher.collection

    def generate(self, query):
        """The :class:`ContextSummary` for a query."""
        buckets = []
        for term in query:
            entries = []
            for path in self.matcher.term_paths(term):
                occurrences = self.collection.path_occurrences(path)
                if not occurrences:
                    continue
                entries.append(ContextEntry(
                    path, occurrences,
                    self.collection.path_document_frequency(path),
                ))
            buckets.append(ContextBucket(term, entries))
        return ContextSummary(query, buckets)

    def refine(self, query, selections):
        """A new query restricted to the chosen contexts.

        ``selections`` maps term index -> list of chosen paths; terms
        absent from the mapping keep their original context.  This is
        the Figure 6 feedback loop: "If a subset of contexts are chosen,
        SEDA computes the top-k results again limited to this subset."
        """
        from repro.query.term import (
            ContextDisjunction,
            PathContext,
            Query,
            QueryTerm,
        )

        terms = []
        for index, term in enumerate(query):
            chosen = selections.get(index)
            if not chosen:
                terms.append(term)
                continue
            contexts = [PathContext(path) for path in chosen]
            context = (
                contexts[0] if len(contexts) == 1
                else ContextDisjunction(contexts)
            )
            terms.append(QueryTerm(context, term.search, label=term.label))
        return Query(terms)
