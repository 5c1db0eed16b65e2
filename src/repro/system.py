"""The SEDA system facade: Search, Explore, Discover, Analyze.

Wires every component of Figure 4 together and drives the Figure 6
control flow::

    seda = Seda.from_documents(docs, value_links=links)
    session = seda.search([("*", '"United States"'),
                           ("trade_country", "*"),
                           ("percentage", "*")], k=10)
    session.context_summary          # Section 5 panel
    session = session.refine_contexts({0: ["/country"], ...})
    session.connection_summary       # Section 6 panel
    session = session.refine_connections([...])
    table = session.complete_results()          # Section 7
    schema = session.build_cube(table)           # star schema
    engine = session.olap(schema)                # analysis

Each ``SedaSession`` is immutable; refinements return new sessions, so
the exploration history stays inspectable (the GUI's back button).
"""

import os
import warnings

from repro.compact.trie import PathTrie
from repro.cube.augment import Augmenter
from repro.cube.extract import TableExtractor
from repro.cube.matching import ResultMatcher
from repro.cube.registry import Registry
from repro.index.builder import IndexBuilder
from repro.index.inverted import InvertedIndex
from repro.index.path_index import PathIndex
from repro.index.streams import ImpactStreamStore
from repro.metrics import SessionEffort
from repro.model.collection import DocumentCollection
from repro.model.graph import DataGraph
from repro.model.links import LinkDiscoverer, ValueLinkSpec
from repro.olap.engine import OLAPEngine
from repro.query.matcher import TermMatcher
from repro.query.term import Query
from repro.search.scoring import ScoringModel
from repro.search.topk import TopKSearcher
from repro.service.query_service import QueryService
from repro.storage.snapshot import (
    SIDECAR_KEY,
    SnapshotError,
    read_snapshot,
    write_snapshot,
)
from repro.storage.wal import (
    WALError,
    WriteAheadLog,
    batch_record,
    replay_wal,
    wal_file_name,
)
from repro.summaries.connection import ConnectionSummaryGenerator
from repro.summaries.context import ContextSummaryGenerator
from repro.summaries.dataguide import DataguideBuilder, DataguideSet
from repro.text import Analyzer
from repro.twig.complete import CompleteResultGenerator
from repro.xmlio import parse


def _normalize_documents(documents):
    """``from_documents``-style inputs as ``(name_or_None, xml_text)``.

    Ingestion normalizes *before* anything mutates so the write-ahead
    log records exactly what will be applied -- element trees are
    serialized to text (the xmlio writer/parser pair round-trips), and
    replay re-ingests the same bytes the original call did.
    """
    from repro.xmlio.writer import serialize

    pairs = []
    for document in documents:
        if isinstance(document, tuple):
            doc_name, source = document
        else:
            doc_name, source = None, document
        if not isinstance(source, str):
            source = serialize(source)
        pairs.append((doc_name, source))
    return pairs


class WriteProtocol:
    """The durable write path, written once for :class:`Seda` and
    :class:`~repro.shard.ShardedSeda`: log -> apply -> commit -> truncate.

    ``add_documents`` appends the batch to the write-ahead log (fsynced)
    before anything mutates, then applies it; ``save(location)``
    commits a snapshot, then truncates the log beside it; ``load``
    restores a snapshot and replays that log.  One *home* rule: the
    location last saved or loaded owns the log and every file recovery
    restores from.  A system that was never saved or loaded has no
    home and logs nothing.  A batch's log position is ``base``, the
    system's document count when the batch was acknowledged.  Each
    system supplies ``document_count``, ``_log_path(location)``,
    ``_apply(pairs, specs)``, ``_replay_batch(base, pairs, specs)``
    (which skips what the snapshot absorbed) and
    ``_write_snapshot(location)``.
    """

    _home = None
    _wal = None

    def _batch(self, documents):
        """The ``(name, xml)`` pairs a batch logs and applies."""
        return _normalize_documents(documents)

    def add_documents(self, documents, value_links=None):
        """Ingest documents into the live system without a full rebuild.

        ``documents`` takes the same forms as ``from_documents`` and
        must not be empty; ``value_links`` extends the specs the system
        was built with.  With a home, the batch is fsynced into the
        write-ahead log first: once this returns it survives a crash.
        A batch with a document that does not parse raises
        :class:`~repro.xmlio.XMLSyntaxError` (a ``ValueError``) before
        anything is logged or applied.  Returns the created documents
        in input order.
        """
        pairs = self._batch(documents)
        if not pairs:
            raise ValueError("add_documents needs at least one document")
        # Parse the very text the log records, once, and apply those
        # trees: a record replay cannot apply would leave a home that
        # no longer loads.
        trees = [(doc_name, parse(source)) for doc_name, source in pairs]
        specs = tuple(value_links) if value_links else ()
        if self._wal is not None:
            self._wal.append({
                "op": "add_documents",
                "base": self.document_count,
                "documents": [list(pair) for pair in pairs],
                "value_links": [spec.to_dict() for spec in specs],
            })
        return self._apply(trees, specs)

    def save(self, location):
        """Commit a snapshot at ``location`` and make it home.

        The log beside ``location`` is truncated only *after* the
        snapshot commits, so a crash in between replays batches the
        snapshot already absorbed -- which replay skips by position.
        Later batches are logged there.
        """
        self._write_snapshot(location)
        # A log already attached here is truncated even if no batch
        # created its file yet; one merely lying there is stale now.
        attached = (self._wal is not None
                    and self._wal.path == self._log_path(location))
        log = self._set_home(location)
        if attached or os.path.exists(log.path):
            log.truncate()

    def close(self):
        """Close the write-ahead log's file handle (a later write reopens
        it); call before another instance takes over the same home."""
        if self._wal is not None:
            self._wal.close()

    def _set_home(self, location):
        self._home = location
        path = self._log_path(location)
        if self._wal is None or self._wal.path != path:
            self.close()
            self._wal = WriteAheadLog(path)
        return self._wal

    def _open_home(self, location):
        """Replay the log beside a restored snapshot; make it home.

        A torn final record (crash mid-append, never acknowledged) is
        dropped with a warning and cut from the file.  A batch always
        adds a document, so a record whose ``base`` is past the restored
        document count follows batches neither the snapshot nor the log
        holds -- an older snapshot restored beside a newer log -- and
        raises :class:`~repro.storage.wal.WALError` instead of replaying
        across the gap.
        """
        path = self._log_path(location)
        records, warning = replay_wal(path)
        if warning is not None:
            warnings.warn(warning, stacklevel=3)
        for record in records:
            base, pairs, specs = batch_record(record)
            if base > self.document_count:
                raise WALError(
                    f"{path}: write-ahead batch at base {base} follows "
                    f"the restored {self.document_count} documents; the "
                    f"batches between them are in neither the snapshot "
                    f"nor the log -- restore the snapshot saved with "
                    f"this log"
                )
            self._replay_batch(base, pairs, tuple(specs))
        self._set_home(location)


class Seda(WriteProtocol):
    """One SEDA instance over a document collection."""

    def __init__(self, collection, value_links=(), dataguide_threshold=0.4,
                 analyzer=None, max_hops=12):
        graph = DataGraph(collection)
        discoverer = LinkDiscoverer(graph)
        discoverer.discover_all(value_specs=value_links)

        # One shared path trie: the path index and every dataguide store
        # paths as small int ids over a single interned label table.
        trie = PathTrie()
        builder = IndexBuilder(collection, analyzer=analyzer, trie=trie)
        inverted, path_index = builder.build()
        dataguide_builder = DataguideBuilder(dataguide_threshold, trie=trie)
        dataguides = dataguide_builder.build(collection=collection, graph=graph)
        self._wire(
            collection=collection, graph=graph, builder=builder,
            inverted=inverted, path_index=path_index,
            dataguide_builder=dataguide_builder, dataguides=dataguides,
            registry=Registry(), value_links=value_links, max_hops=max_hops,
        )

    def _wire(self, *, collection, graph, builder, inverted, path_index,
              dataguide_builder, dataguides, registry, value_links, max_hops):
        """Attach fully built components (shared by ``__init__``/``load``)."""
        self.collection = collection
        self.graph = graph
        self._builder = builder
        self.analyzer = builder.analyzer
        self.inverted = inverted
        self.path_index = path_index
        self._dataguide_builder = dataguide_builder
        self.dataguides = dataguides
        self.registry = registry
        self.value_links = tuple(value_links)
        self.max_hops = max_hops
        self.matcher = TermMatcher(collection, inverted, path_index)
        self.scoring = ScoringModel(
            collection, inverted, graph, max_hops=max_hops
        )
        # One impact-stream store per system: every searcher built
        # against this system shares the same materialized per-term
        # streams.
        self.streams = ImpactStreamStore()
        self.topk = self.new_searcher()
        self._service = None  # created lazily by query_service()
        self.obs = None  # StatsRegistry; enable_observability() attaches one
        self.context_generator = ContextSummaryGenerator(self.matcher)
        self._refresh_generators()

    def _refresh_generators(self):
        """(Re)create the generators that capture mutable components."""
        self.connection_generator = ConnectionSummaryGenerator(
            self.collection, self.graph, self.dataguides,
            max_hops=self.max_hops,
        )
        self.complete_generator = CompleteResultGenerator(
            self.collection, self.graph, self.matcher,
            max_hops=self.max_hops,
        )

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_documents(cls, documents, value_links=(), name="collection",
                       shards=None, **kwargs):
        """Build a SEDA instance from ``(name, xml-or-element)`` pairs
        or bare XML strings / elements.

        Any explicit ``shards=N`` (N >= 1; config-driven callers may
        legitimately land on 1) routes to the horizontally partitioned
        system instead: the documents are hash-partitioned across N
        independent shards, indexes build in parallel, and the returned
        :class:`~repro.shard.ShardedSeda` answers ``search`` /
        ``search_many`` by scatter-gather with results byte-identical
        to this unsharded build -- *provided no discovered link edge
        crosses shards*.  The built-in partitioners route by document
        name without inspecting content, so corpora whose
        IDREF/XLink/``value_links`` relationships span documents need
        a ``partitioner`` that co-locates each linked group, or
        cross-document tuples are silently lost.  See
        :mod:`repro.shard` for the full invariant set.
        """
        if shards is not None:
            from repro.shard import ShardedSeda

            return ShardedSeda.from_documents(
                documents, shards=shards, value_links=value_links,
                name=name, **kwargs,
            )
        collection = DocumentCollection(name=name)
        for document in documents:
            if isinstance(document, tuple):
                doc_name, source = document
                collection.add_document(source, name=doc_name)
            else:
                collection.add_document(document)
        return cls(collection, value_links=value_links, **kwargs)

    # -- the write protocol (see WriteProtocol) -------------------------------

    _log_path = staticmethod(wal_file_name)

    def _replay_batch(self, base, pairs, specs):
        if base < self.document_count:
            # The snapshot absorbed this batch: the crash hit between
            # its commit and the log truncation.
            return
        self._apply(pairs, specs)

    def _write_snapshot(self, path):
        """One versioned snapshot file; see :mod:`repro.storage.snapshot`."""
        write_snapshot(path, *self.snapshot_payload())

    def _apply(self, pairs, specs):
        """Apply one ``(name, xml text or parsed tree)`` batch to every
        component.

        The apply step of :meth:`add_documents` and replay -- and what
        a :class:`~repro.shard.ShardedSeda` drives its shards through.
        Each component grows incrementally: the index builder picks up
        only the new documents, link discovery skips present edges, and
        the new dataguides merge into the mined set.
        """
        added = [
            self.collection.add_document(source, name=doc_name)
            for doc_name, source in pairs
        ]
        if specs:
            self.value_links = self.value_links + tuple(specs)
        discoverer = LinkDiscoverer(self.graph, skip_existing=True)
        discoverer.discover_all(value_specs=self.value_links)
        self._builder.build()  # incremental: only the documents added above
        for document in added:
            self._dataguide_builder.add_document(document)
        self.dataguides = self._dataguide_builder.build(graph=self.graph)
        self._refresh_generators()
        # New documents change query answers even when link discovery
        # added no edges (the implicit tree edges grew): bump the graph
        # version so every version-keyed cache -- document reachability,
        # the per-document edge index, and cached query results -- is
        # invalidated, and eagerly drop the result cache.
        self.graph.bump_version()
        if self._service is not None:
            self._service.invalidate()
        return added

    # -- snapshots -------------------------------------------------------------

    def snapshot_payload(self):
        """The system's serialized form: a ``(meta, records)`` pair.

        This is everything :meth:`save` writes, as plain
        JSON-compatible dictionaries -- also the unit a parallel shard
        build ships from worker process to parent (the payload pickles
        cheaply; live systems do not, they carry locks).
        """
        meta = {
            "collection": self.collection.name,
            "max_hops": self.max_hops,
            "dataguide_threshold": self.dataguides.threshold,
            "analyzer": self.analyzer.to_dict(),
            "value_links": [spec.to_dict() for spec in self.value_links],
        }
        records = {
            "collection": self.collection.to_dict(),
            "graph": self.graph.to_dict(),
            # The indexes' byte columns ride the snapshot's binary
            # sidecar instead of being exploded into JSON lists.
            "inverted": self.inverted.to_dict(),
            "path_index": self.path_index.to_dict(),
            "dataguides": self.dataguides.to_dict(),
            "registry": self.registry.to_dict(),
        }
        if self.obs is not None:
            # Retained query statistics survive the snapshot: a reloaded
            # service keeps its fingerprint history and slow-query log.
            records["obs"] = self.obs.to_dict()
        return meta, records

    @classmethod
    def load(cls, path):
        """Restore a system saved by :meth:`save` and make ``path`` home.

        Bypasses XML parsing, link discovery, index building, and
        dataguide mining entirely: every index is reconstructed from
        its serialized form, the byte columns read through an mmap of
        the snapshot's own ``.cols`` file.  The collection refills its
        node table as it restores each document, and the impact-stream
        cache starts empty.  Every acknowledged batch in
        ``<path>.wal`` is replayed on top, so recovery after a crash
        lands on snapshot plus everything ever acknowledged.  Raises
        :class:`~repro.storage.snapshot.SnapshotError` on incompatible,
        torn, or corrupt files.
        """
        system = cls._restore(path)
        system._open_home(path)
        return system

    @classmethod
    def _restore(cls, path):
        """The snapshot at ``path`` alone: no replay, no home."""
        meta, records = read_snapshot(path)
        try:
            return cls.from_payload(meta, records)
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            # The checksums catch corruption before we get here, so
            # this is a record set no writer of this format produced;
            # it must surface as SnapshotError, never as a bare
            # reconstruction traceback.
            raise SnapshotError(
                f"{path}: snapshot records do not reconstruct a system "
                f"({type(error).__name__}: {error}); corrupt or "
                f"incompatible file"
            ) from error

    @classmethod
    def from_payload(cls, meta, records):
        """Reconstruct a system from a :meth:`snapshot_payload` pair."""
        analyzer = Analyzer.from_dict(meta["analyzer"])
        sidecar = records.get(SIDECAR_KEY)
        collection = DocumentCollection.from_dict(records["collection"])
        graph = DataGraph.from_dict(records["graph"], collection)
        inverted = InvertedIndex.from_dict(records["inverted"], analyzer,
                                           sidecar=sidecar)
        path_index = PathIndex.from_dict(records["path_index"], analyzer,
                                         sidecar=sidecar)
        # The dataguides re-anchor in the path index's trie, so both
        # keep speaking one shared label table after a restore too.
        dataguides = DataguideSet.from_dict(records["dataguides"],
                                            trie=path_index.trie)
        registry = Registry.from_dict(records["registry"])
        builder = IndexBuilder(
            collection, analyzer=analyzer, inverted=inverted,
            paths=path_index, built_upto=len(collection.documents),
        )
        value_links = tuple(
            ValueLinkSpec.from_dict(record)
            for record in meta.get("value_links", ())
        )
        system = cls.__new__(cls)
        system._wire(
            collection=collection, graph=graph, builder=builder,
            inverted=inverted, path_index=path_index,
            dataguide_builder=DataguideBuilder.from_set(dataguides),
            dataguides=dataguides, registry=registry,
            value_links=value_links, max_hops=meta["max_hops"],
        )
        if "obs" in records:
            from repro.obs.registry import StatsRegistry

            system.obs = StatsRegistry.from_dict(records["obs"])
        return system

    # -- introspection ------------------------------------------------------------

    @property
    def document_count(self):
        return len(self.collection.documents)

    @property
    def node_count(self):
        return self.collection.node_count

    def index_memory(self):
        """Per-index estimated resident memory (``repro info``).

        Cheap structural estimates -- table sizes and encoded column
        bytes -- not a heap profiler: the point is watching the compact
        representations as a corpus grows.
        """
        trie = self.path_index.trie
        labels = trie.labels
        return {
            "inverted": self.inverted.estimated_memory(),
            "path_index": self.path_index.estimated_memory(),
            "streams": self.streams.estimated_memory(),
            "labels": {
                "count": len(labels),
                "bytes": sum(len(label) for label in labels.to_list()),
            },
            "trie": {"nodes": trie.node_count, "paths": len(trie)},
        }

    # -- the entry point ----------------------------------------------------------

    def search(self, query, k=10):
        """Submit a query; returns a :class:`SedaSession`.

        ``query`` is a :class:`Query` or a list of ``(context, search)``
        pairs.
        """
        if not isinstance(query, Query):
            query = Query.parse(query)
        results = self.topk.search(query, k=k)
        return SedaSession(self, query, k, results, effort=SessionEffort())

    # -- the read protocol (see repro.service.query_service) -----------------------

    def new_searcher(self):
        """A fresh :class:`TopKSearcher` over this system's components.

        Searchers hold only their last search's ``stats``, so anything
        that may run beside another search builds its own.
        """
        return TopKSearcher(self.matcher, self.scoring, streams=self.streams)

    def generation(self):
        """Hashable token naming the index generation: the graph version."""
        return self.graph.version

    def run_query(self, query, k):
        """Run one parsed query; ``(results, [searcher counters])``."""
        searcher = self.new_searcher()
        results = searcher.search(query, k=k)
        return results, [searcher.counters()]

    def cache_counters(self):
        """Cumulative impact-stream store counters; batch stats report
        the delta across one batch."""
        return self.streams.counters()

    def query_service(self, workers=None, cache_size=None):
        """The caching serving facade over this system (lazy, kept).

        Repeated calls return the same :class:`QueryService` instance.
        ``workers``/``cache_size`` left ``None`` accept whatever the
        existing service uses (defaults 4/256 on first creation); an
        *explicitly* different configuration replaces the service,
        dropping its warm cache.  The retained stats registry survives
        replacement.
        """
        self._service = QueryService.keep_or_replace(
            self._service, self, workers, cache_size
        )
        return self._service

    def enable_observability(self, slow_threshold=0.1, slow_log_size=128):
        """Attach a retained :class:`~repro.obs.registry.StatsRegistry`.

        Every query served through :meth:`query_service` /
        :meth:`search_many` afterwards is recorded under its normalized
        fingerprint; ``repro stats`` renders the accumulated registry
        and :meth:`save` persists it.  Idempotent: repeated calls keep
        the existing registry (and its history).  Returns the registry.
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
        """Serve a batch of queries; a list of sessions.

        Each element of ``queries`` takes the same forms as
        :meth:`search`; the returned :class:`SedaSession` list is in
        input order, with results identical to running :meth:`search`
        per query (the top-k unit is deterministic, duplicates are
        computed once, and repeats hit the service's result cache).
        """
        parsed = [
            query if isinstance(query, Query) else Query.parse(query)
            for query in queries
        ]
        service = self.query_service(workers=workers)
        results, _stats = service.execute_batch(parsed, k=k)
        return [
            SedaSession(self, query, k, result, effort=SessionEffort())
            for query, result in zip(parsed, results)
        ]


class SedaSession:
    """One step of the Figure 6 exploration loop."""

    def __init__(self, system, query, k, results, chosen_connections=None,
                 effort=None):
        self.system = system
        self.query = query
        self.k = k
        self.results = results
        self.chosen_connections = list(chosen_connections or [])
        # Effort tracking (a Section 8 effectiveness metric): refinement
        # steps share the tracker so a whole exploration is accounted.
        self.effort = effort if effort is not None else SessionEffort()
        self._context_summary = None
        self._connection_summary = None

    # -- summaries (computed lazily, cached per session) -----------------------

    @property
    def context_summary(self):
        if self._context_summary is None:
            self._context_summary = self.system.context_generator.generate(
                self.query
            )
        return self._context_summary

    @property
    def connection_summary(self):
        if self._connection_summary is None:
            self._connection_summary = (
                self.system.connection_generator.generate(
                    self.query, self.results
                )
            )
        return self._connection_summary

    # -- refinement (each returns a NEW session) ----------------------------------

    def refine_contexts(self, selections):
        """Restrict term contexts and re-run top-k (first feedback loop).

        ``selections`` maps term index -> list of chosen paths.
        """
        refined = self.system.context_generator.refine(self.query, selections)
        results = self.system.topk.search(refined, k=self.k)
        self.effort.record_search()
        self.effort.record_context_choice(
            sum(len(paths) for paths in selections.values())
        )
        return SedaSession(self.system, refined, self.k, results,
                          self.chosen_connections, effort=self.effort)

    def refine_connections(self, connections):
        """Select the relevant connections (second feedback loop).

        ``connections`` is a list of ``((i, j), Connection)`` pairs,
        typically picked from :attr:`connection_summary`.  The top-k
        results are filtered to tuples instantiating every selected
        connection.
        """
        system = self.system
        filtered = []
        for result in self.results:
            keep = True
            for (i, j), connection in connections:
                if not connection.matches_instance(
                    system.collection, system.graph,
                    result.node_ids[i], result.node_ids[j],
                    max_hops=system.max_hops,
                ):
                    keep = False
                    break
            if keep:
                filtered.append(result)
        self.effort.record_connection_choice(len(connections))
        return SedaSession(system, self.query, self.k, filtered, connections,
                          effort=self.effort)

    # -- complete results and cube construction --------------------------------------

    def term_paths(self):
        """Chosen (or unambiguous) context path per term, if determinable.

        A term has a determined path when its context is a single
        :class:`PathContext` or when all its top-k bindings share one
        path.  Raises otherwise -- the caller must refine first.
        """
        from repro.query.term import PathContext

        paths = {}
        for index, term in enumerate(self.query.terms):
            if isinstance(term.context, PathContext):
                paths[index] = term.context.path
                continue
            bound = {
                self.system.collection.node(result.node_ids[index]).path
                for result in self.results
            }
            if len(bound) == 1:
                paths[index] = bound.pop()
            else:
                raise ValueError(
                    f"term {index} is ambiguous across paths {sorted(bound)}; "
                    "refine contexts before requesting complete results"
                )
        return paths

    def complete_results(self, term_paths=None, connections=None):
        """Materialize the full R(q) (Section 7)."""
        if term_paths is None:
            term_paths = self.term_paths()
        if connections is None:
            connections = self.chosen_connections
        return self.system.complete_generator.generate(
            self.query, term_paths, connections
        )

    # -- cube pipeline ------------------------------------------------------------------

    def match_cube(self, result_table):
        """Step 1: match result columns against the registry."""
        return ResultMatcher(self.system.registry).match(result_table)

    def build_cube(self, result_table, facts=None, dimensions=None,
                   merge_facts=True):
        """Steps 1-3: match, augment, extract; returns a StarSchema.

        ``facts``/``dimensions`` override the automatic match (the
        user's manual adjustment); defaults are the matched sets Fq and
        Dq.
        """
        report = self.match_cube(result_table)
        if facts is None:
            facts = report.facts
        if dimensions is None:
            dimensions = report.dimensions
        augmenter = Augmenter(self.system.collection, self.system.registry)
        augmented = augmenter.augment(result_table, facts, dimensions)
        final_dimensions = list(dimensions) + augmented.auto_dimensions
        extractor = TableExtractor(
            self.system.collection, self.system.registry
        )
        return extractor.extract(
            augmented, facts, final_dimensions, merge_facts=merge_facts
        )

    @staticmethod
    def olap(star_schema):
        """An :class:`OLAPEngine` over the generated star schema."""
        return OLAPEngine(star_schema)
