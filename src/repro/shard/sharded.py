"""Horizontally partitioned collections with scatter-gather search.

:class:`ShardedSeda` hash-partitions a corpus across N independent
:class:`~repro.system.Seda` shards, builds their indexes in parallel
(one OS process per shard, :mod:`repro.shard.build`), holds each one
as a live system, and answers ``search``/``search_many`` by
scatter-gather: fan the query to per-shard
:class:`~repro.search.topk.TopKSearcher`\\ s, then merge the per-shard
top-k lists under the system's deterministic total order.
The scatter is fail-fast: a shard's exception propagates, so there is
no partial answer.

Merge-equivalence invariants
----------------------------

Results are **byte-identical** to an unsharded build over the same
corpus.  Four invariants carry that guarantee:

1. **Global node ids.**  Node ids are allocated sequentially in global
   document order, so each shard's local id space is translated back
   through the topology table (per-document node counts, kept in the
   sharded manifest) before merging.  Scores *and* ids match the
   unsharded build.
2. **Global term statistics.**  Idf is a corpus statistic; every shard
   index scores through one :class:`~repro.index.inverted.GlobalTermStats`
   that sums ``df``/``N`` across all shards
   (:meth:`InvertedIndex.use_global_stats`), so per-shard content
   scores are the exact floats the unsharded index produces.
3. **Link co-location.**  A result tuple can only span documents
   connected by a link edge, and per-shard link discovery can only see
   its own documents -- so every discovered cross-document link must
   stay within one shard.  Corpora whose IDREF/XLink/value links span
   documents need a partitioner that co-locates each linked group (the
   built-in name-hash policy does not inspect content).
4. **Deterministic merge.**  Per-shard lists are concatenated and
   sorted by ``(-score, node_ids)`` -- the same strict total order the
   top-k heap evicts under -- so ties resolve identically to the
   unsharded search, and any tuple in the global top-k is necessarily
   inside its own shard's top-k (fewer than k tuples beat it anywhere).

Cross-shard pruning: the scatter shares one
:class:`~repro.search.topk.SharedBound` per query, so each shard
prunes candidate tuples (and early-stops its TA loop) against the best
k-th score any shard has published -- only *strictly* worse candidates
are dropped, which cannot change the merged top-k.
"""

import bisect
import os

from repro.index.inverted import GlobalTermStats
from repro.model.links import ValueLinkSpec
from repro.query.term import Query
from repro.search.result import ResultTuple
from repro.search.topk import SharedBound
from repro.service.query_service import QueryService
from repro.shard.build import _build_parallel
from repro.shard.partition import PARTITIONERS, resolve_partitioner
from repro.storage.snapshot import (
    SnapshotError,
    clear_obs_state,
    next_shard_generation,
    read_obs_state,
    read_sharded_manifest,
    shard_file_name,
    write_obs_state,
    write_sharded_manifest,
    write_snapshot,
)
from repro.storage.wal import sharded_wal_file_name
from repro.system import Seda, WriteProtocol, _normalize_documents


class ShardedCollectionView:
    """Global-node-id facade over the per-shard collections.

    Quacks like :class:`~repro.model.collection.DocumentCollection` for
    the read operations result rendering needs (``node``/``content``),
    so :meth:`ResultTuple.describe` works unchanged on merged results.
    """

    def __init__(self, sharded):
        self._sharded = sharded

    def node(self, node_id):
        shard, local_id = self._sharded.to_local(node_id)
        return shard.collection.node(local_id)

    def content(self, node_id):
        shard, local_id = self._sharded.to_local(node_id)
        return shard.collection.content(local_id)

    def __repr__(self):
        return f"ShardedCollectionView({self._sharded!r})"


class ShardedSeda(WriteProtocol):
    """N independent SEDA shards behind one scatter-gather facade."""

    def __init__(self, shards, documents, name, value_links,
                 partitioner, partitioner_name, routing_epoch=0,
                 shard_doc_bases=None):
        self._shards = list(shards)
        #: Per shard, the name of its file in the home directory (``None``
        #: until first committed): a commit that does not rewrite a
        #: shard points the new manifest at this file.
        self._shard_files = [None] * len(self._shards)
        #: Global-order document table: ``[name, shard_index,
        #: node_count]`` per document -- the topology record that
        #: defines the global node-id space *and* the explicit
        #: document->shard assignment map routing works from (the
        #: partitioner only places *new* documents; existing documents
        #: are always routed by this table).
        self._docs = [list(row) for row in documents]
        self.name = name
        self.value_links = tuple(value_links)
        self._partitioner = partitioner
        self._partitioner_name = partitioner_name
        self.stats = GlobalTermStats(
            lambda: (shard.inverted for shard in self._shards)
        )
        for shard in self._shards:
            self._wire_shard(shard)
        self._service = None
        self.obs = None  # StatsRegistry; enable_observability() attaches one
        #: Per shard, the global document count when that shard's
        #: backing file was written: write-ahead records with ``base >=
        #: _shard_doc_bases[s]`` are not in shard ``s``'s file and must
        #: be replayed onto it (the manifest's ``shard_doc_bases``).
        self._shard_doc_bases = (
            list(shard_doc_bases) if shard_doc_bases is not None
            else [len(self._docs)] * len(self._shards)
        )
        #: Manifest-owned routing epoch, bumped by every topology
        #: operation (split/merge/rebalance); serving layers fold it
        #: into their cache keys.
        self._routing_epoch = int(routing_epoch)
        self.last_search_stats = None
        self._rebuild_topology()

    def _wire_shard(self, seda):
        seda.inverted.use_global_stats(self.stats)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_documents(cls, documents, shards=2, value_links=(),
                       name="collection", partitioner=None, parallel=True,
                       max_workers=None, **seda_kwargs):
        """Partition ``documents`` across ``shards`` and build each one.

        ``documents`` takes the same forms as
        :meth:`Seda.from_documents`.  With ``parallel=True`` (the
        default) shard builds fan out across worker processes -- the
        whole point of sharding a large corpus; ``parallel=False``
        builds in-process, which is what the parallel path is
        benchmarked against.  ``max_workers`` caps the process pool
        (default: one per shard, bounded by the CPU count).

        Merge equivalence requires link co-location (invariant 3 in
        the module docstring): ``value_links`` specs -- like IDREF and
        XLink attributes -- only produce the same edges as an
        unsharded build while every linked document pair lands on one
        shard.  The built-in partitioners are content-blind, so
        corpora with cross-document links need a caller-supplied
        ``partitioner`` that keeps each linked group together.
        """
        if shards < 1:
            raise ValueError("shards must be >= 1")
        pairs = []
        for index, document in enumerate(documents):
            if isinstance(document, tuple):
                pairs.append(document)
            else:
                pairs.append((f"doc-{index}", document))
        route, partitioner_name = resolve_partitioner(partitioner)
        per_shard = [[] for _ in range(shards)]
        assignment = []
        for index, (doc_name, source) in enumerate(pairs):
            shard = route(doc_name, index, shards) % shards
            assignment.append(shard)
            per_shard[shard].append((doc_name, source))
        specs = tuple(value_links)
        shard_names = [f"{name}#{shard}" for shard in range(shards)]
        if parallel and shards > 1:
            sedas = _build_parallel(
                shard_names, per_shard, specs, seda_kwargs, max_workers
            )
        else:
            sedas = [
                Seda.from_documents(
                    shard_pairs, value_links=specs, name=shard_name,
                    **seda_kwargs,
                )
                for shard_name, shard_pairs in zip(shard_names, per_shard)
            ]
        counts_per_shard = [
            [len(document.nodes) for document in seda.collection.documents]
            for seda in sedas
        ]
        # Assemble the global-order topology table: document j of shard
        # s is the j-th document routed there, in global order.
        positions = [0] * shards
        documents_table = []
        for (doc_name, _source), shard in zip(pairs, assignment):
            node_count = counts_per_shard[shard][positions[shard]]
            positions[shard] += 1
            documents_table.append([doc_name, shard, node_count])
        return cls(
            sedas, documents_table, name, specs, route, partitioner_name,
        )

    # -- topology -------------------------------------------------------------

    def _rebuild_topology(self):
        """Recompute the id-translation tables from the document table."""
        shards = len(self._shards)
        global_bases = []
        doc_shard = []
        doc_local_base = []
        shard_docs = [[] for _ in range(shards)]
        shard_local_bases = [[] for _ in range(shards)]
        next_global = 0
        next_local = [0] * shards
        for global_index, (_name, shard, node_count) in enumerate(self._docs):
            global_bases.append(next_global)
            doc_shard.append(shard)
            doc_local_base.append(next_local[shard])
            shard_docs[shard].append(global_index)
            shard_local_bases[shard].append(next_local[shard])
            next_global += node_count
            next_local[shard] += node_count
        self._global_bases = global_bases
        self._doc_shard = doc_shard
        self._doc_local_base = doc_local_base
        self._shard_docs = shard_docs
        self._shard_local_bases = shard_local_bases
        self._node_count = next_global

    def to_global(self, shard_index, local_id):
        """Translate a shard-local node id to its global id."""
        bases = self._shard_local_bases[shard_index]
        position = bisect.bisect_right(bases, local_id) - 1
        if position < 0:
            raise KeyError(f"no node {local_id} in shard {shard_index}")
        global_index = self._shard_docs[shard_index][position]
        return self._global_bases[global_index] + (local_id - bases[position])

    def to_local(self, global_id):
        """Translate a global node id to ``(shard_system, local_id)``."""
        if not 0 <= global_id < self._node_count:
            raise KeyError(f"no node with id {global_id!r}")
        position = bisect.bisect_right(self._global_bases, global_id) - 1
        shard = self._doc_shard[position]
        local_id = self._doc_local_base[position] + (
            global_id - self._global_bases[position]
        )
        return self._shards[shard], local_id

    # -- introspection --------------------------------------------------------

    @property
    def shard_count(self):
        return len(self._shards)

    @property
    def shards(self):
        """Every shard system, in shard order."""
        return tuple(self._shards)

    def shard(self, index):
        return self._shards[index]

    @property
    def collection(self):
        """Global-id node view (for ``ResultTuple.describe`` etc.)."""
        return ShardedCollectionView(self)

    @property
    def document_count(self):
        return len(self._docs)

    @property
    def node_count(self):
        return self._node_count

    def info(self):
        """Topology digest: per-shard documents and nodes."""
        per_shard = [
            {"shard": index, "documents": 0, "nodes": 0}
            for index in range(len(self._shards))
        ]
        for _name, shard, node_count in self._docs:
            per_shard[shard]["documents"] += 1
            per_shard[shard]["nodes"] += node_count
        return {
            "collection": self.name,
            "shards": len(self._shards),
            "partitioner": self._partitioner_name,
            "routing_epoch": self._routing_epoch,
            "documents": len(self._docs),
            "nodes": self._node_count,
            "per_shard": per_shard,
        }

    def index_memory(self):
        """Per-shard index-memory estimates (``repro info --snapshot``).

        Each entry is one shard's :meth:`Seda.index_memory` report plus
        its shard number; ``totals`` sums the per-index ``column_bytes``
        across shards -- the mmapped sidecar bytes the shards read their
        columns from.
        """
        per_shard = []
        column_bytes = 0
        for index, shard in enumerate(self._shards):
            report = shard.index_memory()
            report["shard"] = index
            column_bytes += sum(
                report[key]["column_bytes"]
                for key in ("inverted", "path_index", "streams")
            )
            per_shard.append(report)
        return {
            "shards": len(self._shards),
            "per_shard": per_shard,
            "totals": {"column_bytes": column_bytes},
        }

    # -- search ---------------------------------------------------------------

    def search(self, query, k=10):
        """Scatter-gather top-k; merged :class:`ResultTuple` list.

        Returns result tuples with **global** node ids, byte-identical
        to an unsharded :meth:`Seda.search` over the same corpus (no
        session object: refinement loops operate per shard).  The
        per-shard breakdown of the call is left in
        :attr:`last_search_stats`.
        """
        if not isinstance(query, Query):
            query = Query.parse(query)
        merged, per_shard = self.run_query(query, k)
        self.last_search_stats = {"per_shard": per_shard}
        return merged

    # -- the read protocol (see repro.service.query_service) -----------------

    def generation(self):
        """Hashable token naming the served index generation.

        The per-shard graph versions (``add_documents`` bumps every
        shard) plus the routing epoch, so a split/merge/rebalance
        (which can change the shard *count*) expires cached answers
        too.
        """
        return (
            tuple(shard.graph.version for shard in self.shards),
            self._routing_epoch,
        )

    def run_query(self, query, k):
        """Scatter one parsed query and merge; ``(merged, per_shard)``.

        The scatter is sequential by design: under the GIL concurrent
        shard searches buy nothing for one query, while a sequential
        fan-out lets every later shard prune against the k-th score the
        earlier shards already published into the one
        :class:`SharedBound`.  ``per_shard`` holds one counter entry
        per shard, in shard order.  A shard's failure propagates as
        raised: there is no partial answer, so every answer is
        byte-identical to the unsharded system's.
        """
        bound = SharedBound()
        gathered = []
        per_shard = []
        for index, shard in enumerate(self._shards):
            searcher = shard.new_searcher()
            gathered.append(searcher.search(query, k=k, shared_bound=bound))
            per_shard.append({"shard": index, **searcher.counters()})
        return self._merge(gathered, k), per_shard

    def cache_counters(self):
        """Shared-cache counters summed across every shard."""
        totals = {}
        for shard in self.shards:
            for name, value in shard.cache_counters().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    @property
    def routing_epoch(self):
        """Manifest-owned routing generation.

        Bumped by every topology operation (:meth:`split`,
        :meth:`merge`, :meth:`rebalance`); the serving layer folds it
        into its cache keys so generation-keyed reads distinguish
        pre- and post-topology states.
        """
        return self._routing_epoch

    def _merge(self, per_shard_results, k):
        """Translate to global ids and merge under the total order."""
        merged = []
        for shard_index, results in enumerate(per_shard_results):
            for result in results:
                merged.append(
                    ResultTuple(
                        tuple(
                            self.to_global(shard_index, node_id)
                            for node_id in result.node_ids
                        ),
                        result.content_scores,
                        result.compactness,
                        result.score,
                    )
                )
        merged.sort(key=lambda result: (-result.score, result.node_ids))
        return merged if k is None else merged[:k]

    # -- serving --------------------------------------------------------------

    def query_service(self, workers=None, cache_size=None):
        """The caching scatter-gather serving facade (lazy, kept).

        Same contract -- and the same
        :class:`~repro.service.query_service.QueryService` class -- as
        :meth:`Seda.query_service`: repeated calls return the same
        service; an explicitly different configuration replaces it
        (dropping its warm cache).
        """
        self._service = QueryService.keep_or_replace(
            self._service, self, workers, cache_size
        )
        return self._service

    def enable_observability(self, slow_threshold=0.1, slow_log_size=128):
        """Attach a retained :class:`~repro.obs.registry.StatsRegistry`.

        Same contract as :meth:`Seda.enable_observability`; sharded
        stats additionally feed per-shard skew counters.  The registry
        persists as ``obs.json`` next to the sharded manifest.
        """
        if self.obs is None:
            from repro.obs.registry import StatsRegistry

            self.obs = StatsRegistry(
                slow_threshold=slow_threshold, slow_log_size=slow_log_size
            )
        if self._service is not None:
            self._service.registry = self.obs
        return self.obs

    def search_many(self, queries, k=10, workers=None):
        """Serve a batch; a list of merged result lists.

        Results are in input order, each list identical to
        :meth:`search` on that query (duplicates computed once, repeats
        served from the service's result cache).
        """
        parsed = [
            query if isinstance(query, Query) else Query.parse(query)
            for query in queries
        ]
        service = self.query_service(workers=workers)
        results, _stats = service.execute_batch(parsed, k=k)
        return results

    # -- the write protocol (see repro.system.WriteProtocol) -----------------

    #: The manifest's ``shard_doc_bases`` watermarks say which logged
    #: batches (by ``base``, the global document count when each was
    #: acknowledged) every shard file absorbed.
    _log_path = staticmethod(sharded_wal_file_name)

    def _batch(self, documents):
        """Normalized pairs, unnamed documents named by global index.

        Rejects the batch when it cannot be routed, so it never
        reaches the log (replay would re-raise).
        """
        if self._partitioner is None:
            raise ValueError(
                "this sharded collection was saved with a custom "
                "partitioner; reload it with ShardedSeda.load(path, "
                "partitioner=...) before adding documents"
            )
        base = len(self._docs)
        return [
            (doc_name if doc_name is not None else f"doc-{base + index}",
             source)
            for index, (doc_name, source)
            in enumerate(_normalize_documents(documents))
        ]

    def _apply(self, pairs, specs):
        """Route one batch to its shards; keep global scoring exact.

        Routing is deterministic in (name, global index, shard count),
        so a replayed batch lands where the original call did.  Every
        shard is invalidated even when it receives no documents: new
        documents change the corpus-wide ``df``/``N`` behind idf, so
        the global statistics cache is dropped and every shard's graph
        version is bumped, expiring the per-shard impact streams and
        result caches.  New ``value_links`` specs reach every
        shard's link discovery.  Returns the created documents in
        global input order (their ids are shard-local).
        """
        base = len(self._docs)
        shards = len(self._shards)
        routed = [[] for _ in range(shards)]
        order = []
        for offset, (doc_name, source) in enumerate(pairs):
            shard = self._partitioner(doc_name, base + offset, shards) % shards
            order.append((shard, len(routed[shard])))
            routed[shard].append((doc_name, source))
        if specs:
            self.value_links = self.value_links + specs
        added_per_shard = [
            shard._apply(routed[index], specs)
            if routed[index] or specs else []
            for index, shard in enumerate(self._shards)
        ]
        added_global = []
        for offset, (doc_name, _source) in enumerate(pairs):
            shard, position = order[offset]
            document = added_per_shard[shard][position]
            self._docs.append([doc_name, shard, len(document.nodes)])
            added_global.append(document)
        self._rebuild_topology()
        self.stats.invalidate()
        for shard in self._shards:
            shard.graph.bump_version()
        if self._service is not None:
            self._service.invalidate()
        return added_global

    def _replay_batch(self, base, pairs, specs):
        if base < len(self._docs):
            # The manifest absorbed this batch, but a topology commit
            # rewrites only the affected shards' files: bring the
            # shards whose files predate it up to date.
            self._apply_covered_batch(base, pairs, specs)
        else:
            # Fresh batches were written under the current topology
            # (every topology commit covers all live documents), so
            # the partitioner reproduces their routing exactly.
            self._apply(self._batch(pairs), specs)

    def _apply_covered_batch(self, base, pairs, specs):
        """Re-apply a manifest-covered batch to shards whose files missed it.

        The document table already lists the batch's documents (so
        neither ``self._docs`` nor ``self.value_links`` changes here),
        but any shard whose watermark is at or below ``base`` restored
        from a file written *before* the batch.  Those shards get their documents back, routed by
        the assignment map, never by partitioner arithmetic, so batches
        logged under an older routing epoch land where the table says.
        A stale shard receiving no documents still saw ``df``/``N``
        move, so it is version-bumped like every shard in :meth:`_apply`.
        """
        stale = [index for index, mark in enumerate(self._shard_doc_bases)
                 if base >= mark]
        if not stale:
            return
        routed = {index: [] for index in stale}
        for pair, row in zip(pairs, self._docs[base:base + len(pairs)]):
            if row[1] in routed:
                routed[row[1]].append((pair, row))
        for index in stale:
            shard = self._shards[index]
            shard_pairs = routed[index]
            if not shard_pairs and not specs:
                shard.graph.bump_version()
                continue
            added = shard._apply(
                [pair for pair, _row in shard_pairs], specs
            )
            for document, (pair, row) in zip(added, shard_pairs):
                if len(document.nodes) != row[2]:
                    raise SnapshotError(
                        f"replayed document {pair[0]!r} rebuilt with "
                        f"{len(document.nodes)} nodes but the manifest "
                        f"records {row[2]}; write-ahead log and "
                        f"manifest disagree"
                    )
        self.stats.invalidate()

    def _write_snapshot(self, directory):
        """Every shard file plus the manifest, as one new generation.

        The cleanup of superseded files assumes this instance is the
        directory's only live handle (see docs/OPERATIONS.md).
        """
        os.makedirs(directory, exist_ok=True)
        self._commit(directory, range(len(self._shards)))

    def _commit(self, directory, rewrite):
        """Write one manifest generation into ``directory``.

        The one sharded commit, for :meth:`save` and the topology
        operations: (1) the shards in ``rewrite`` are written under the
        next file generation -- every other shard keeps its file in
        ``directory``; (2) the manifest, the single commit point; (3)
        ``obs.json`` written or cleared; (4) every shard's file name
        recorded; (5) the files the new manifest no longer references
        deleted, best-effort.  A rewritten shard absorbs every batch so
        far, so its watermark becomes the full document count; the
        others keep theirs.  A crash before (2) leaves the old
        generation in charge, intact.
        """
        generation = next_shard_generation(directory)
        shard_files = []
        for index, shard in enumerate(self._shards):
            if index in rewrite:
                shard_file = shard_file_name(index, generation)
                write_snapshot(os.path.join(directory, shard_file),
                               *shard.snapshot_payload())
            else:
                shard_file = self._shard_files[index]
            shard_files.append(shard_file)
        bases = [len(self._docs) if index in rewrite else mark
                 for index, mark in enumerate(self._shard_doc_bases)]
        meta = {
            "collection": self.name,
            "shards": len(self._shards),
            "partitioner": self._partitioner_name,
            "value_links": [spec.to_dict() for spec in self.value_links],
        }
        write_sharded_manifest(
            directory, meta, self._docs, shard_files, generation=generation,
            routing_epoch=self._routing_epoch, shard_doc_bases=bases,
        )
        self._shard_doc_bases = bases
        if self.obs is not None:
            write_obs_state(directory, self.obs.to_dict())
        else:
            clear_obs_state(directory)
        self._shard_files = shard_files
        keep = set(shard_files) | {f"{name}.cols" for name in shard_files}
        for name in os.listdir(directory):
            if (name.startswith("shard-")
                    and name.endswith((".snapshot", ".snapshot.cols"))
                    and name not in keep):
                try:
                    os.remove(os.path.join(directory, name))
                except OSError:  # pragma: no cover - fs-dependent
                    pass

    @classmethod
    def load(cls, directory, partitioner=None):
        """Restore a sharded collection saved by :meth:`save`; make
        ``directory`` home.

        Every shard file the manifest lists is restored before this
        returns, so a missing or unreadable shard file raises
        :class:`SnapshotError` naming it here, never in a later
        request.  ``partitioner`` overrides the manifest's routing
        policy; required when the collection was built with a custom
        (non-serializable) partitioner and :meth:`add_documents` will
        be called.

        Every acknowledged batch in ``wal.log`` beside the manifest is
        replayed on top of the restored shards.
        """
        manifest = read_sharded_manifest(directory)
        meta = manifest["meta"]
        if partitioner is not None:
            route, partitioner_name = resolve_partitioner(partitioner)
        else:
            stored = meta.get("partitioner", "hash")
            route = PARTITIONERS.get(stored) if isinstance(stored, str) \
                else None
            partitioner_name = stored
            if route is None and stored != "custom":
                # "custom" is the documented marker for a
                # non-serializable routing function (searches work,
                # ingestion needs the function back); any *other*
                # unknown name means a newer writer or a damaged
                # manifest -- fail here, not later in add_documents.
                raise SnapshotError(
                    f"{directory}: manifest names unknown partitioner "
                    f"{stored!r} (known: {sorted(PARTITIONERS)}, or "
                    f"'custom'); pass partitioner= to override"
                )
        shards = [
            _restore_shard(os.path.join(directory, shard_file))
            for shard_file in manifest["shard_files"]
        ]
        # The manifest's per-shard watermarks say which write-ahead
        # batches each shard file absorbed (a topology commit rewrites
        # only the affected shards, so the marks can differ per shard);
        # replay routes from them.
        try:
            value_links = tuple(
                ValueLinkSpec.from_dict(record)
                for record in meta.get("value_links", ())
            )
            system = cls(
                shards, manifest["documents"],
                meta.get("collection", "collection"), value_links,
                route, partitioner_name,
                routing_epoch=manifest["routing_epoch"],
                shard_doc_bases=manifest["shard_doc_bases"],
            )
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            # The same conversion Seda.load applies: a manifest no
            # writer of this format produced is a SnapshotError, never
            # a bare reconstruction traceback.
            raise SnapshotError(
                f"{directory}: manifest does not reconstruct a "
                f"collection ({type(error).__name__}: {error}); corrupt "
                f"or incompatible manifest"
            ) from error
        system._shard_files = list(manifest["shard_files"])
        obs_payload = read_obs_state(directory)
        if obs_payload is not None:
            from repro.obs.registry import StatsRegistry

            system.obs = StatsRegistry.from_dict(obs_payload)
        system._open_home(directory)
        return system

    # -- topology operations --------------------------------------------------

    def split(self, shard_id):
        """Split shard ``shard_id`` into two; see :func:`.topology.split`."""
        from repro.shard.topology import split

        return split(self, shard_id)

    def merge(self, a, b):
        """Merge two shards into one; see :func:`.topology.merge`."""
        from repro.shard.topology import merge

        return merge(self, a, b)

    def rebalance(self, plan):
        """Move documents between shards; see :func:`.topology.rebalance`."""
        from repro.shard.topology import rebalance

        return rebalance(self, plan)

    def propose_rebalance(self, metric="documents"):
        """Draft a plan equalizing ``metric``; see
        :func:`.topology.propose_rebalance`."""
        from repro.shard.topology import propose_rebalance

        return propose_rebalance(self, metric=metric)

    def __repr__(self):
        return (
            f"ShardedSeda({self.name!r}, shards={len(self._shards)}, "
            f"docs={len(self._docs)}, nodes={self._node_count})"
        )


def _restore_shard(path):
    """One shard file's system; an unreadable file is a SnapshotError."""
    try:
        return Seda._restore(path)
    except OSError as error:
        raise SnapshotError(
            f"{path}: cannot restore shard ({type(error).__name__}: "
            f"{error.strerror or error}); run 'repro fsck' on the "
            f"directory and restore the file from backup"
        ) from error

