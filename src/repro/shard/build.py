"""Parallel shard builds: one OS process per shard.

Workers ship their snapshot payloads back -- plain dictionaries and
lists, which pickle cheaply -- and the parent rehydrates each one into
a live :class:`~repro.system.Seda`, exactly as a snapshot load would.
"""

import os

from repro.model.links import ValueLinkSpec
from repro.system import Seda


def _build_shard_payload(args):
    """Worker-process entry: build one shard, return its payload.

    Module-level so :class:`~concurrent.futures.ProcessPoolExecutor`
    can pickle a reference to it.  The returned ``(meta, records)``
    pair is :meth:`Seda.snapshot_payload` -- plain dictionaries and
    lists, the only shard representation that crosses the process
    boundary (live systems carry locks and do not pickle).
    """
    shard_name, pairs, link_dicts, seda_kwargs = args
    seda = Seda.from_documents(
        pairs,
        value_links=[ValueLinkSpec.from_dict(record) for record in link_dicts],
        name=shard_name,
        **seda_kwargs,
    )
    return seda.snapshot_payload()


def _build_parallel(shard_names, per_shard, specs, seda_kwargs, max_workers):
    """Build every shard in its own OS process; the live shard systems.

    Workers ship snapshot payloads back and the parent rehydrates each
    with :meth:`Seda.from_payload`, so the build's wall time is the
    slowest worker plus transfer plus the (serial) rehydration.
    """
    import concurrent.futures

    workers = max_workers
    if workers is None:
        workers = min(len(per_shard), os.cpu_count() or 1)
    link_dicts = [spec.to_dict() for spec in specs]
    jobs = [
        (shard_name, shard_pairs, link_dicts, seda_kwargs)
        for shard_name, shard_pairs in zip(shard_names, per_shard)
    ]
    if workers <= 1:
        outputs = [_build_shard_payload(job) for job in jobs]
    else:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers
        ) as pool:
            outputs = list(pool.map(_build_shard_payload, jobs))
    return [Seda.from_payload(meta, records) for meta, records in outputs]
