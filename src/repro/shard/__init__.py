"""Sharded collections: horizontal partitioning with exact answers.

The paper's SEDA assumes the whole data graph and its indexes fit one
process.  This package removes that assumption without changing a
single answer: a :class:`ShardedSeda` hash-partitions documents across
N independent :class:`~repro.system.Seda` shards, builds them in
parallel worker processes, and serves ``search``/``search_many`` by
scatter-gather -- per-shard TA top-k searches (pruning against a
shared cross-shard score bound) whose merged output is byte-identical
to an unsharded build over the same corpus.  The scatter is fail-fast:
a shard's exception propagates, so no partial answer is ever served.

Modules: :mod:`~repro.shard.sharded` (the facade -- routing, id
translation, scatter/merge, the sharded commit and load),
:mod:`~repro.shard.build` (the parallel build),
:mod:`~repro.shard.partition` and :mod:`~repro.shard.topology`.

The merge-equivalence invariants (global node ids, corpus-wide term
statistics, link co-location, deterministic total-order merge) are
documented on :mod:`repro.shard.sharded` and in
``docs/ARCHITECTURE.md``; operational guidance (snapshot directory
layout, load restores every shard, partitioner choices, per-shard
statistics) lives in ``docs/OPERATIONS.md``.
"""

from repro.shard.partition import (
    PARTITIONERS,
    hash_partition,
    resolve_partitioner,
    round_robin_partition,
)
from repro.shard.sharded import ShardedCollectionView, ShardedSeda
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
    "PARTITIONERS",
    "REBALANCE_METRICS",
    "ShardedCollectionView",
    "ShardedSeda",
    "colocation_units",
    "hash_partition",
    "merge",
    "propose_rebalance",
    "rebalance",
    "resolve_partitioner",
    "round_robin_partition",
    "skew_report",
    "split",
]
