"""Collection catalog: the statistics panel behind the experiments.

Exposes, for a collection, the figures the paper reports about its
datasets -- document counts, node counts, distinct root-to-leaf paths,
per-path occurrence and document frequencies, and the long-tail path
histogram that motivates SEDA (Section 1: "We observe a long tail of
such infrequent paths, which makes shredding all the attributes into a
data warehouse very difficult").
"""

import collections


class CollectionCatalog:
    """Read-only statistics over a :class:`DocumentCollection`."""

    def __init__(self, collection):
        self.collection = collection

    def summary(self):
        """Headline statistics as a plain dict."""
        return {
            "documents": len(self.collection),
            "nodes": self.collection.node_count,
            "distinct_paths": self.collection.path_count(),
        }

    def path_frequencies(self):
        """List of ``(path, occurrences, document_frequency)`` sorted by
        descending occurrence count -- the ordering context summaries use."""
        collection = self.collection
        rows = [
            (path, collection.path_occurrences(path),
             collection.path_document_frequency(path))
            for path in collection.paths()
        ]
        rows.sort(key=lambda row: (-row[1], row[0]))
        return rows

    def long_tail(self, document_threshold=None):
        """Paths whose document frequency is below ``document_threshold``.

        Defaults to 25% of the collection size -- the "long tail" of
        infrequent paths the paper calls out (e.g. the refugee
        country-of-origin path present in only 186 of 1600 documents).
        """
        if document_threshold is None:
            document_threshold = max(1, len(self.collection) // 4)
        tail = []
        for path in self.collection.paths():
            frequency = self.collection.path_document_frequency(path)
            if frequency < document_threshold:
                tail.append((path, frequency))
        tail.sort(key=lambda row: (row[1], row[0]))
        return tail

    def depth_histogram(self):
        """Histogram of path depth (number of steps) -> distinct paths."""
        histogram = collections.Counter()
        for path in self.collection.paths():
            depth = path.count("/")
            histogram[depth] += 1
        return dict(histogram)

    def tag_histogram(self):
        """Histogram of leaf tag name -> distinct paths ending in it."""
        histogram = collections.Counter()
        for path in self.collection.paths():
            histogram[path.rsplit("/", 1)[-1]] += 1
        return dict(histogram)
