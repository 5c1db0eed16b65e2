"""SC -- the scoring pipeline: precomputed hot path vs the slow path.

The seed's top-k unit recomputed everything at query time: every stream
rebuilt per query (re-analyzing node text per candidate), every
structural distance rewalked per tuple.  The reworked pipeline
precomputes term frequencies and length norms at build time,
materializes impact-ordered per-term streams once per graph version,
memoizes pair distances, and prunes candidate tuples by their content
upper bound.

The series of interest here are (a) the gated speedup of the
precomputed pipeline over the ``precomputed=False`` escape hatch (the
seed-equivalent recompute-everything path) on a repeated multi-term
workload, and (b) the contract that makes the precomputation
admissible at all: **byte-identical answers** from both paths.
"""

import json
import time

from repro.index.streams import ImpactStreamStore
from repro.query.term import Query
from repro.search.scoring import ScoringModel
from repro.search.topk import TopKSearcher

#: Multi-term Factbook queries (the paper's Query 1 terms and
#: variants); a production query log is skewed, so each distinct query
#: repeats HOT_REPEAT times.
QUERY_SET = [
    [("*", '"United States"'), ("trade_country", "*")],
    [("trade_country", "*"), ("percentage", "*")],
    [("*", '"United States"'), ("trade_country", "*"), ("percentage", "*")],
    [("*", "canada"), ("year", "*")],
    [("*", "germany"), ("percentage", "*")],
]

HOT_REPEAT = 6

K = 10

#: The precomputed pipeline must beat the recompute-everything path by
#: at least this factor on the repeated workload.
MIN_SPEEDUP = 3.0

#: Interleaved slow/fast rounds; each side keeps its fastest round, as
#: ``timeit`` does, since other processes only ever add time.
ROUNDS = 3


def _workload():
    return [Query.parse(pairs) for _ in range(HOT_REPEAT)
            for pairs in QUERY_SET]


def _canonical(results):
    """Byte-exact serialization of one query's full result list."""
    return json.dumps(
        [
            [list(r.node_ids), list(r.content_scores), r.compactness,
             r.score]
            for r in results
        ],
        separators=(",", ":"),
    ).encode("utf-8")


def _run(searcher, queries):
    start = time.perf_counter()
    results = [searcher.search(query, k=K) for query in queries]
    return results, time.perf_counter() - start


def test_precomputed_pipeline_speedup_and_equivalence(factbook_seda):
    """>= 3x over the slow path on the hot workload, byte-identically."""
    seda = factbook_seda
    queries = _workload()
    slow_time = fast_time = float("inf")

    for _ in range(ROUNDS):
        # The escape hatch: no stream cache, no tf tables, no distance
        # memo, no pruning -- everything recomputed per query,
        # seed-style.
        slow_scoring = ScoringModel(
            seda.collection, seda.inverted, seda.graph,
            max_hops=seda.max_hops, precomputed=False,
        )
        slow_searcher = TopKSearcher(seda.matcher, slow_scoring).warm()
        slow_results, elapsed = _run(slow_searcher, queries)
        slow_time = min(slow_time, elapsed)

        # The precomputed pipeline, cold: a fresh stream store and a
        # fresh scoring model, so stream builds and distance walks are
        # paid inside the measured window exactly once each.
        fast_scoring = ScoringModel(
            seda.collection, seda.inverted, seda.graph,
            max_hops=seda.max_hops,
        )
        fast_searcher = TopKSearcher(
            seda.matcher, fast_scoring, streams=ImpactStreamStore()
        ).warm()
        fast_results, elapsed = _run(fast_searcher, queries)
        fast_time = min(fast_time, elapsed)

        assert [_canonical(r) for r in fast_results] == [
            _canonical(r) for r in slow_results
        ]
        # The hot workload must actually exercise the caches.
        assert fast_searcher.streams.hits > 0
        assert fast_scoring.pair_hits > 0

    speedup = slow_time / fast_time
    print(
        f"\nslow (precomputed=False): {len(queries) / slow_time:8.0f} q/s "
        f"({slow_time * 1000:.1f}ms)"
        f"\nfast (precomputed)      : {len(queries) / fast_time:8.0f} q/s "
        f"({fast_time * 1000:.1f}ms)"
        f"\nspeedup                 : {speedup:.2f}x"
        f"\nstream cache            : {fast_searcher.streams.hits} hits / "
        f"{fast_searcher.streams.misses} misses"
        f"\ndistance memo           : {fast_scoring.pair_hits} hits / "
        f"{fast_scoring.pair_misses} misses"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"precomputed pipeline only {speedup:.2f}x the slow path "
        f"({slow_time * 1000:.1f}ms vs {fast_time * 1000:.1f}ms)"
    )


def test_warm_stream_topk_latency(benchmark, factbook_seda):
    """Steady-state top-k latency with warm streams (no result cache):
    the per-query cost that remains after precomputation."""
    seda = factbook_seda
    query = Query.parse(QUERY_SET[2])
    seda.topk.search(query, k=K)  # materialize the streams

    results = benchmark(seda.topk.search, query, K)
    stats = seda.topk.stats
    print(
        f"\nwarm 3-term query: {len(results)} results, "
        f"{stats['sorted_accesses']} sorted accesses, "
        f"{stats['tuples_scored']} tuples scored, "
        f"{stats['pruned']} pruned"
    )
    assert results
