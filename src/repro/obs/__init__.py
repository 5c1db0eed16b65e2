"""Observability: retained serving statistics, slow-query log, EXPLAIN.

Every statistic the serving layer produces (`QueryStats`, `BatchStats`)
is a per-call return value that evaporates when the caller drops it.
This package is the retained layer an operator reads *after the fact*:

* :func:`~repro.obs.fingerprint.query_fingerprint` -- canonical query
  identity: analyzer-normalized terms, sorted, plus ``k``.  Whitespace,
  case, and term-order spellings of one query share one fingerprint.
* :class:`~repro.obs.registry.StatsRegistry` -- a thread-safe map of
  fingerprint -> execution counts, cache-hit/prune/early-stop rates,
  log-scale latency histograms (p50/p95/p99), and per-shard skew, plus
  a bounded ring buffer of slow queries over a latency threshold.
* :func:`~repro.obs.explain.explain` -- one query's EXPLAIN report:
  per-term streams and candidate counts, sorted accesses, tuples
  scored vs. pruned, and why the TA loop stopped (corner bound vs.
  exhaustion).

The registry threads through :class:`~repro.service.query_service.
QueryService` -- the one serving facade of single-file and sharded
systems alike (opt-in via ``enable_observability()``; zero overhead
when absent) and persists alongside snapshots, so a reloaded service keeps
its history.  ``repro stats --queries/--json`` and ``repro explain``
expose both on the command line; see docs/OPERATIONS.md ("Slow-query
triage").
"""

from repro.obs.explain import ExplainReport, explain
from repro.obs.fingerprint import query_fingerprint, term_fingerprint
from repro.obs.histogram import LatencyHistogram
from repro.obs.registry import FingerprintStats, StatsRegistry

__all__ = [
    "ExplainReport",
    "explain",
    "query_fingerprint",
    "term_fingerprint",
    "LatencyHistogram",
    "FingerprintStats",
    "StatsRegistry",
]
