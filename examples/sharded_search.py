"""Sharded collections: parallel build, scatter-gather top-k, snapshots.

Partitions a Factbook corpus across shards, builds the shards in
parallel worker processes, verifies the merged top-k is byte-identical
to an unsharded build over the same corpus, and round-trips the whole
topology through a sharded snapshot directory.

Run with::

    python examples/sharded_search.py [scale]

``scale`` (default 0.02) sizes the generated corpus.
"""

import os
import sys
import tempfile
import time

from repro import Seda, ShardedSeda
from repro.datasets.factbook import FactbookGenerator

QUERY = [("*", '"United States"'), ("trade_country", "*")]
BATCH = [
    QUERY,
    [("trade_country", "*"), ("percentage", "*")],
    [("*", "canada"), ("year", "*")],
    QUERY,  # a repeat: served from the result cache
]


def main(scale=0.02):
    # 1. One corpus, two builds.  Sharding partitions the *documents*;
    #    no value links here, so no link edge can cross shards and the
    #    merge-equivalence contract applies (docs/ARCHITECTURE.md).
    corpus = list(FactbookGenerator(scale=scale).documents())
    shards = min(4, max(2, os.cpu_count() or 2))
    print(f"corpus: {len(corpus)} documents, {shards} shards")

    start = time.perf_counter()
    sharded = ShardedSeda.from_documents(corpus, shards=shards)
    build_time = time.perf_counter() - start
    print(f"parallel shard build: {build_time * 1000:.0f}ms  {sharded!r}")
    for entry in sharded.info()["per_shard"]:
        print(f"  shard {entry['shard']}: {entry['documents']} docs, "
              f"{entry['nodes']} nodes")

    # 2. Scatter-gather top-k.  Merged results carry *global* node ids
    #    and are byte-identical to the unsharded system's answers.
    unsharded = Seda.from_documents(corpus)
    merged = sharded.search(QUERY, k=5)
    expected = unsharded.search(QUERY, k=5).results
    identical = [
        (r.node_ids, r.content_scores, r.compactness, r.score)
        for r in merged
    ] == [
        (r.node_ids, r.content_scores, r.compactness, r.score)
        for r in expected
    ]
    assert identical, "merge equivalence regressed"
    print(f"\ntop-5 for {QUERY} (identical to unsharded: {identical}):")
    for result in merged:
        print(f"  {result.describe(sharded.collection)}")

    # 3. Batched serving through the sharded query service: duplicate
    #    queries computed once, per-shard effort reported.
    service = sharded.query_service(workers=2)
    _results, stats = service.execute_batch(BATCH, k=5)
    print(f"\nbatch of {len(BATCH)}: {stats.summary()}")
    for line in stats.shard_summary().splitlines():
        print(f"  {line}")
    answers = sharded.search_many(BATCH, k=5)  # the facade on top
    assert len(answers) == len(BATCH)

    # 4. Snapshot the whole topology: one directory, one file per
    #    shard, a manifest as the commit record.  The load reads the
    #    manifest and restores every shard file before it returns.
    with tempfile.TemporaryDirectory() as scratch:
        target = os.path.join(scratch, "factbook.shards")
        sharded.save(target)
        restored = ShardedSeda.load(target)
        print(f"\nrestored: {restored!r}")
        again = restored.search(QUERY, k=5)
        assert [r.node_ids for r in again] == [r.node_ids for r in merged]
        print("restored answers identical: True")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.02)
