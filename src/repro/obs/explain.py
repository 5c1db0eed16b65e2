"""EXPLAIN: one query's execution profile from the TA searcher.

:func:`explain` runs a query through a :class:`~repro.search.topk.
TopKSearcher` and packages the searcher's per-query ``stats`` into an
:class:`ExplainReport`: which streams were opened and how large each
term's candidate set was, how many sorted accesses each stream served,
how many candidate tuples were scored vs. pruned by the upper bound,
and **why the TA loop stopped** -- ``corner-bound`` (the rank-join
threshold certified the top-k early) vs. ``exhaustion`` (every stream
was drained), plus the degenerate ``empty-stream``/``k-satisfied``/
``k-zero`` cases.

The report's counters are exactly ``searcher.stats`` -- no separate
instrumentation path that could drift from what the search really did
(acceptance-tested in ``tests/test_obs.py``).  ``repro explain``
renders it on the command line.
"""

from repro.obs.fingerprint import query_fingerprint, term_fingerprint
from repro.query.term import Query


class ExplainReport:
    """One query's execution profile, renderable as text or JSON."""

    def __init__(self, fingerprint, k, per_term, sorted_accesses,
                 tuples_scored, pruned, stop_reason, early_stop, results):
        self.fingerprint = fingerprint
        self.k = k
        #: One dict per term, in query order: ``{"term", "candidates",
        #: "sorted_accesses"}``.
        self.per_term = [dict(entry) for entry in per_term]
        self.sorted_accesses = sorted_accesses
        self.tuples_scored = tuples_scored
        self.pruned = pruned
        self.stop_reason = stop_reason
        self.early_stop = early_stop
        self.results = list(results)

    def as_dict(self):
        """JSON-clean form (``repro explain --json``)."""
        return {
            "fingerprint": self.fingerprint,
            "k": self.k,
            "per_term": [dict(entry) for entry in self.per_term],
            "sorted_accesses": self.sorted_accesses,
            "tuples_scored": self.tuples_scored,
            "pruned": self.pruned,
            "stop_reason": self.stop_reason,
            "early_stop": self.early_stop,
            "results": [
                {"node_ids": list(result.node_ids), "score": result.score}
                for result in self.results
            ],
        }

    def render(self):
        """The human-readable EXPLAIN text."""
        lines = [
            f"EXPLAIN {self.fingerprint}",
            f"  streams opened: {len(self.per_term)}",
        ]
        for entry in self.per_term:
            lines.append(
                f"    {entry['term']}: {entry['candidates']} candidates, "
                f"{entry['sorted_accesses']} sorted accesses"
            )
        considered = self.tuples_scored + self.pruned
        lines.append(
            f"  tuples: {self.tuples_scored} scored, {self.pruned} pruned "
            f"by the score bound ({considered} considered)"
        )
        lines.append(
            f"  sorted accesses: {self.sorted_accesses} total"
        )
        lines.append(
            f"  stopped: {self.stop_reason} "
            f"(early_stop={self.early_stop})"
        )
        lines.append(f"  results: {len(self.results)}")
        for result in self.results:
            lines.append(
                f"    score={result.score:.6f}  "
                f"nodes={list(result.node_ids)}"
            )
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"ExplainReport({self.fingerprint!r}, "
            f"stop={self.stop_reason})"
        )


def explain(searcher, query, k=10):
    """Run ``query`` through ``searcher`` and report how it executed.

    ``query`` is a :class:`Query` or a list of ``(context, search)``
    pairs.  The search itself is a perfectly ordinary
    :meth:`TopKSearcher.search` call -- results are byte-identical to
    searching without EXPLAIN; the report just retains the searcher's
    per-query counters before the next query overwrites them.
    """
    if not isinstance(query, Query):
        query = Query.parse(query)
    results = searcher.search(query, k=k)
    raw = dict(searcher.stats)
    candidates = raw.get("candidates", [])
    accesses = raw.get("per_term_accesses", [])
    per_term = []
    for index, term in enumerate(query.terms):
        per_term.append({
            "term": term_fingerprint(term),
            "candidates": (
                candidates[index] if index < len(candidates) else 0
            ),
            "sorted_accesses": (
                accesses[index] if index < len(accesses) else 0
            ),
        })
    return ExplainReport(
        fingerprint=query_fingerprint(query, k),
        k=k,
        per_term=per_term,
        sorted_accesses=raw["sorted_accesses"],
        tuples_scored=raw["tuples_scored"],
        pruned=raw["pruned"],
        stop_reason=raw.get("stop_reason"),
        early_stop=raw["early_stop"],
        results=results,
    )
