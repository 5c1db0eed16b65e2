"""Sharded collections: horizontal partitioning with exact answers.

The paper's SEDA assumes the whole data graph and its indexes fit one
process.  This package removes that assumption without changing a
single answer: a :class:`ShardedSeda` hash-partitions documents across
N independent :class:`~repro.system.Seda` shards, builds them in
parallel worker processes, and serves ``search``/``search_many`` by
scatter-gather -- per-shard TA top-k searches (pruning against a
shared cross-shard score bound) whose merged output is byte-identical
to an unsharded build over the same corpus.

The merge-equivalence invariants (global node ids, corpus-wide term
statistics, link co-location, deterministic total-order merge) are
documented on :mod:`repro.shard.sharded` and in
``docs/ARCHITECTURE.md``; operational guidance (snapshot directory
layout, lazy restore, partitioner choices, per-shard statistics) lives
in ``docs/OPERATIONS.md``.
"""

from repro.shard.partition import (
    PARTITIONERS,
    hash_partition,
    resolve_partitioner,
    round_robin_partition,
)
from repro.shard.sharded import (
    DegradationPolicy,
    ShardSearchTimeout,
    SharedPayload,
    ShardedCollectionView,
    ShardedSeda,
    publish_shared_payload,
    read_shared_payload,
)
from repro.shard.topology import (
    REBALANCE_METRICS,
    colocation_units,
    merge,
    propose_rebalance,
    rebalance,
    skew_report,
    split,
)

__all__ = [
    "DegradationPolicy",
    "PARTITIONERS",
    "REBALANCE_METRICS",
    "ShardSearchTimeout",
    "SharedPayload",
    "ShardedCollectionView",
    "ShardedSeda",
    "colocation_units",
    "hash_partition",
    "merge",
    "propose_rebalance",
    "publish_shared_payload",
    "read_shared_payload",
    "rebalance",
    "resolve_partitioner",
    "round_robin_partition",
    "skew_report",
    "split",
]
