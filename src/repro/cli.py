"""Command-line interface: explore collections without writing code.

Subcommands::

    python -m repro stats   --dataset factbook --scale 0.02
    python -m repro stats   --queries queries.txt --json
    python -m repro stats   --snapshot seda.snapshot
    python -m repro search  --dataset factbook --scale 0.02 \
        --term '*:"United States"' --term 'trade_country:*' -k 10
    python -m repro search  --snapshot seda.shards --term 'percentage:*'
    python -m repro explain --term 'trade_country:*' --term 'percentage:*'
    python -m repro table1  --threshold 0.4 --scale 1.0
    python -m repro query1  --scale 0.05
    python -m repro info    --dataset factbook --scale 0.05
    python -m repro info    --snapshot seda.snapshot --json
    python -m repro snapshot save seda.snapshot --dataset factbook
    python -m repro snapshot info seda.snapshot
    python -m repro snapshot info seda.shards --json
    python -m repro fsck    seda.snapshot
    python -m repro fsck    seda.shards --json
    python -m repro serve   --snapshot seda.snapshot --port 8080
    python -m repro shard build seda.shards --dataset factbook --shards 4
    python -m repro shard split seda.shards 1
    python -m repro shard merge seda.shards 0 2
    python -m repro shard rebalance seda.shards --metric documents

``--data DIR`` loads ``*.xml`` files from a directory instead of a
generated dataset, so the CLI works on user collections too.  Terms
are written ``context:search`` (first colon splits); ``*`` on either
side means "any".  ``snapshot save`` persists a fully built system to
one versioned file; ``shard build`` partitions a collection across N
shards (parallel worker-process builds unless ``--serial``) and saves
a sharded snapshot directory.

Every command that reads a saved system takes its *location* -- a
snapshot file or a sharded directory, told apart on disk -- and opens
it through :func:`repro.serving.load_serving_system`, the opener
``serve`` uses; an unreadable location is a one-line exit naming it.
``search``, ``explain`` (per shard over a directory, as ``/explain``)
and ``info`` (compact-index memory) take it as ``--snapshot``.
``snapshot info`` describes the on-disk layout without restoring
anything; of a directory, per-shard document/node/byte/traffic counts
and a max-over-mean imbalance ratio each -- the input to ``shard
split``/``merge``/``rebalance``, which rewrite only the affected
shards' files under a new manifest generation while answers stay
byte-identical (docs/OPERATIONS.md, "Shard topology").

``serve`` is the long-running form: it loads a snapshot (single-file
or sharded directory, replaying any write-ahead log), serves queries
and **online writes** over HTTP/JSON (``/search``, ``/search_many``,
``/explain``, ``/add_documents``, ``/healthz``, ``/metrics``), and on
``POST /admin/drain`` -- or SIGINT/SIGTERM -- quiesces, commits a
fresh snapshot, truncates the WAL, and exits.  See
docs/OPERATIONS.md ("Running the server") for the endpoint reference
and the admission-control knobs.

``stats`` doubles as the observability reader: with ``--queries`` it
serves a workload through the query service with a retained
:class:`~repro.obs.registry.StatsRegistry` attached and prints the
per-fingerprint statistics table (latency percentiles, cache-hit/
prune/early-stop rates) plus the slow-query log (``--slow-ms`` sets
the threshold; ``--save`` persists the system *with* its registry).
The query file holds one query per line, terms separated by ``;;``
(blank lines and ``#`` comments are skipped)::

    *:"United States" ;; trade_country:*
    trade_country:* ;; percentage:*

With ``--snapshot`` it renders the registry stored in an existing
snapshot file or sharded directory without serving anything.  ``--json``
emits the same data machine-readably.  ``explain`` runs one query and
reports how the TA search executed: streams opened, per-term candidate
and sorted-access counts, tuples scored vs. pruned, and why the search
stopped.
"""

import argparse
import contextlib
import json
import os
import pathlib
import sys
import time

from repro import ui

# The term/query-line syntax is shared with the serving wire protocol:
# a /search body accepts the same string form this CLI parses.
from repro.serving.app import explain_system, load_serving_system
from repro.serving.app import parse_query_line as _parse_query_line
from repro.serving.app import parse_term as _parse_term
from repro.storage.catalog import CollectionCatalog
from repro.storage.snapshot import SnapshotError, snapshot_info
from repro.summaries.dataguide import DataguideBuilder
from repro.system import Seda

_DATASETS = ("factbook", "mondial", "googlebase", "recipeml")


def _build_generator(name, scale):
    from repro.datasets import (
        FactbookGenerator,
        GoogleBaseGenerator,
        MondialGenerator,
        RecipeMLGenerator,
    )

    generators = {
        "factbook": FactbookGenerator,
        "mondial": MondialGenerator,
        "googlebase": GoogleBaseGenerator,
        "recipeml": RecipeMLGenerator,
    }
    return generators[name](scale=scale)


def _load_collection(args):
    """The collection selected by --data or --dataset."""
    if args.data:
        from repro.model.collection import DocumentCollection

        collection = DocumentCollection(name=pathlib.Path(args.data).name)
        for name, text in _load_documents(args):
            collection.add_document(text, name=name)
        return collection
    return _build_generator(args.dataset, args.scale).build_collection()


def _load_documents(args):
    """``(name, source)`` pairs for the selected corpus.

    The sharded builders need the raw documents (they partition before
    building any collection); generators yield the same pairs
    :func:`_load_collection` ingests, so both paths see one corpus.
    """
    if args.data:
        directory = pathlib.Path(args.data)
        files = sorted(directory.glob("*.xml"))
        if not files:
            raise SystemExit(f"no *.xml files found in {directory}")
        pairs = []
        for path in files:
            with open(path, "r", encoding="utf-8") as handle:
                pairs.append((path.stem, handle.read()))
        return pairs
    return list(_build_generator(args.dataset, args.scale).documents())


def _build_seda(args):
    collection = _load_collection(args)
    value_links = ()
    if not args.data and args.dataset == "factbook":
        from repro.datasets.factbook import FactbookGenerator

        value_links = FactbookGenerator.value_link_specs()
    seda = Seda(collection, value_links=value_links)
    if not args.data and args.dataset == "factbook":
        from repro.datasets.factbook import FactbookGenerator

        FactbookGenerator.register_standard_definitions(seda.registry)
    return seda


def _load_queries(args):
    """The batch in the --queries file."""
    with open(args.queries, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    queries = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        pairs = _parse_query_line(line)
        if pairs:
            queries.append(pairs)
    if not queries:
        raise SystemExit("the query file contains no queries")
    return queries


@contextlib.contextmanager
def _location_errors(path):
    """Turn an unreadable saved-system location into a one-line exit.

    Wraps a command's whole use of the system.  The load restores
    every shard of a sharded directory, so a missing or corrupt shard
    file ends here as the :class:`SnapshotError` naming it.
    """
    try:
        yield
    except FileNotFoundError:
        raise SystemExit(f"no snapshot file or directory at {path}")
    except SnapshotError as error:
        raise SystemExit(str(error))
    except OSError as error:
        raise SystemExit(f"{path}: {error.strerror or error}")


def _is_sharded(system):
    from repro.shard import ShardedSeda

    return isinstance(system, ShardedSeda)


def _print_tree(tree, out, indent="  "):
    """A nested report dict as an indented, key-sorted outline."""
    for key in sorted(tree):
        value = tree[key]
        if isinstance(value, dict):
            print(f"{indent}{key}:", file=out)
            _print_tree(value, out, indent + "  ")
        else:
            print(f"{indent}{key}: {value}", file=out)


# -- subcommands -----------------------------------------------------------

def cmd_stats(args, out):
    if args.queries or args.snapshot:
        return _cmd_query_stats(args, out)
    if args.json:
        raise SystemExit(
            "stats --json reports the query-statistics registry; combine "
            "it with --queries (serve a workload) or --snapshot (read a "
            "saved registry)"
        )
    if args.save:
        raise SystemExit("stats --save needs --queries (it persists the "
                         "system served with observability on)")
    collection = _load_collection(args)
    catalog = CollectionCatalog(collection)
    summary = catalog.summary()
    print(f"collection: {collection.name}", file=out)
    for key, value in summary.items():
        print(f"  {key}: {value}", file=out)
    print("  top paths by occurrences:", file=out)
    for path, occurrences, documents in catalog.path_frequencies()[:args.top]:
        print(f"    {occurrences:8d} nodes {documents:6d} docs  {path}",
              file=out)
    tail = catalog.long_tail()
    print(f"  long-tail paths (<25% of docs): {len(tail)}", file=out)
    return 0


def _load_registry_or_exit(path):
    """The registry stored in a snapshot file or sharded directory."""
    from repro.obs.registry import StatsRegistry
    from repro.storage.snapshot import read_obs_state, read_snapshot

    if os.path.isdir(path):
        payload = read_obs_state(path)
        if payload is None:
            raise SystemExit(
                f"{path}: no observability history (obs.json); save the "
                f"collection after enable_observability()"
            )
        return StatsRegistry.from_dict(payload)
    with _location_errors(path):
        _meta, records = read_snapshot(path)
    if "obs" not in records:
        raise SystemExit(
            f"{path}: snapshot carries no 'obs' record (it was saved "
            f"without observability enabled)"
        )
    return StatsRegistry.from_dict(records["obs"])


def _cmd_query_stats(args, out):
    """The ``stats --queries/--snapshot`` leg: the query registry."""
    if args.snapshot:
        if args.queries or args.save:
            raise SystemExit("stats --snapshot only reads a saved "
                             "registry; drop --queries/--save")
        registry = _load_registry_or_exit(args.snapshot)
    else:
        seda = _build_seda(args)
        registry = seda.enable_observability(
            slow_threshold=args.slow_ms / 1000.0
        )
        queries = _load_queries(args)
        service = seda.query_service(workers=args.workers)
        service.execute_batch(queries, k=args.k)
        if args.save:
            seda.save(args.save)
    if args.json:
        print(json.dumps(registry.metrics(), indent=2, sort_keys=True),
              file=out)
    else:
        print(registry.render_table(), file=out)
        if args.save:
            print(f"saved snapshot (with query statistics) to {args.save}",
                  file=out)
    return 0


def _read_or_build(args):
    """The system ``--snapshot`` names, or one built from the dataset."""
    if args.snapshot:
        return load_serving_system(args.snapshot)
    return _build_seda(args)


def cmd_explain(args, out):
    """Run one query and report how the TA search executed."""
    if not args.term:
        raise SystemExit("explain needs at least one --term")
    pairs = [_parse_term(term) for term in args.term]
    with _location_errors(args.snapshot):
        system = _read_or_build(args)
        reports, payload = explain_system(system, pairs, k=args.k)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return 0
    for index, report in enumerate(reports):
        if _is_sharded(system):
            print(f"shard {index}:", file=out)
        print(report.render(), file=out)
    return 0


def cmd_search(args, out):
    """Run one query on a built system or a saved location."""
    if not args.term:
        raise SystemExit("search needs at least one --term")
    pairs = [_parse_term(term) for term in args.term]
    with _location_errors(args.snapshot):
        system = _read_or_build(args)
        sharded = _is_sharded(system)
        if args.snapshot:
            print(f"{args.snapshot} "
                  f"({'sharded' if sharded else 'single-file'}, "
                  f"{system.document_count} documents, "
                  f"{system.node_count} nodes)", file=out)
        answer = system.search(pairs, k=args.k)
        if not sharded:
            print(ui.render_session(answer), file=out)
            return 0
        print(ui.render_results(answer, system.collection, limit=args.k),
              file=out)
        for entry in system.last_search_stats["per_shard"]:
            print(f"  shard {entry['shard']}: "
                  f"{entry['sorted_accesses']} sorted accesses, "
                  f"{entry['tuples_scored']} tuples scored, "
                  f"{entry['pruned']} pruned, "
                  f"early_stop={entry['early_stop']}", file=out)
    return 0


def cmd_table1(args, out):
    print(f"Table 1 at threshold {args.threshold} "
          f"(scale {args.scale}):", file=out)
    for name in _DATASETS:
        collection = _build_generator(name, args.scale).build_collection()
        builder = DataguideBuilder(args.threshold)
        for document in collection.documents:
            builder.add_paths(document.paths(), document.doc_id)
        print(f"  {name:12s} documents={len(collection):6d} "
              f"dataguides={builder.guide_count}", file=out)
    return 0


def cmd_query1(args, out):
    from repro.summaries.connection import TreeConnection

    tc = "/country/economy/import_partners/item/trade_country"
    pct = "/country/economy/import_partners/item/percentage"
    item = "/country/economy/import_partners/item"

    args.dataset = "factbook"
    args.data = None
    seda = _build_seda(args)
    session = seda.search(
        [("*", '"United States"'), ("trade_country", "*"),
         ("percentage", "*")],
        k=args.k,
    )
    print(ui.render_session(session), file=out)
    refined = session.refine_contexts({0: ["/country"], 1: [tc], 2: [pct]})
    chosen = refined.refine_connections([
        ((0, 1), TreeConnection("/country", tc, "/country")),
        ((1, 2), TreeConnection(tc, pct, item)),
    ])
    table = chosen.complete_results()
    print("", file=out)
    print(ui.render_result_table(table), file=out)
    schema = chosen.build_cube(table)
    print("", file=out)
    print(ui.render_star_schema(schema), file=out)
    print("", file=out)
    print(f"session effort: {chosen.effort.summary()}", file=out)
    return 0


def cmd_snapshot_save(args, out):
    seda = _build_seda(args)
    seda.save(args.path)
    print(f"saved snapshot to {args.path}", file=out)
    print(f"  documents: {seda.document_count}", file=out)
    print(f"  nodes: {seda.node_count}", file=out)
    print(f"  bytes: {os.path.getsize(args.path)}", file=out)
    return 0


def cmd_snapshot_info(args, out):
    """Describe a saved location's on-disk layout, restoring nothing."""
    from repro.shard import skew_report

    directory = os.path.isdir(args.path)
    with _location_errors(args.path):
        info = (skew_report if directory else snapshot_info)(args.path)
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True), file=out)
        return 0
    print(f"{'sharded snapshot' if directory else 'snapshot'} {args.path}",
          file=out)
    for key, value in info["meta"].items():
        if key == "value_links":
            value = len(value)
        print(f"  {key}: {value}", file=out)
    if not directory:
        print("  records:", file=out)
        for name, size in info["records"]:
            print(f"    {size:10d} bytes  {name}", file=out)
        print(f"  total: {info['total_bytes']} bytes", file=out)
        return 0
    print(f"  documents: {info['documents']}", file=out)
    print(f"  nodes: {info['nodes']}", file=out)
    print(f"  generation: {info['generation']}, routing epoch: "
          f"{info['routing_epoch']}", file=out)
    print("  shards:", file=out)
    for entry in info["per_shard"]:
        print(f"    {entry['bytes']:10d} bytes  {entry['documents']:6d} docs "
              f"{entry['nodes']:8d} nodes  traffic {entry['traffic']}  "
              f"{entry['file']}", file=out)
    print(f"  total: {info['total_bytes']} bytes", file=out)
    for metric, ratio in sorted(info["imbalance"].items()):
        rendered = "n/a" if ratio is None else f"{ratio:.2f}x"
        print(f"  imbalance[{metric}]: {rendered} (max over mean)",
              file=out)
    if not info["wal_present"]:
        print("  (no write-ahead log present)", file=out)
    return 0


def cmd_fsck(args, out):
    """Verify a snapshot/sidecar/WAL set without restoring anything."""
    from repro.storage.snapshot import fsck_report

    with _location_errors(args.path):
        report = fsck_report(args.path)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
        return 0 if report["ok"] else 1
    print(f"fsck {report['target']} ({report['kind']})", file=out)
    for target in sorted(report["checked"]):
        details = report["checked"][target]
        summary = ", ".join(
            f"{key}={details[key]}" for key in sorted(details)
        )
        print(f"  checked {target}: {summary}", file=out)
    for warning in report["warnings"]:
        print(f"  warning: {warning}", file=out)
    for problem in report["problems"]:
        print(f"  PROBLEM: {problem}", file=out)
    if report["ok"]:
        print("  ok: no integrity problems", file=out)
        return 0
    print(f"  FAILED: {len(report['problems'])} integrity problem(s)",
          file=out)
    return 1


def cmd_info(args, out):
    """Per-index estimated memory for a built or restored system."""
    with _location_errors(args.snapshot):
        system = _read_or_build(args)
        report = system.index_memory()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
        return 0
    print(f"index memory: {args.snapshot or system.collection.name}",
          file=out)
    if not _is_sharded(system):
        _print_tree(report, out)
        return 0
    for entry in report["per_shard"]:
        print(f"  shard {entry.pop('shard')}:", file=out)
        _print_tree(entry, out, "    ")
    print("  totals:", file=out)
    _print_tree(report["totals"], out, "    ")
    return 0


def cmd_shard_build(args, out):
    """Partition a corpus, build every shard, save the directory."""
    from repro.shard import ShardedSeda

    if args.shards < 1:
        raise SystemExit("--shards must be >= 1")
    pairs = _load_documents(args)
    start = time.perf_counter()
    sharded = ShardedSeda.from_documents(
        pairs, shards=args.shards, parallel=not args.serial,
        max_workers=args.build_workers, partitioner=args.partitioner,
    )
    build_time = time.perf_counter() - start
    sharded.save(args.path)
    mode = "serial" if args.serial else "parallel"
    print(f"built {args.shards} shards in {build_time:.2f}s ({mode}) "
          f"and saved to {args.path}", file=out)
    for entry in sharded.info()["per_shard"]:
        print(f"  shard {entry['shard']}: {entry['documents']} documents, "
              f"{entry['nodes']} nodes", file=out)
    return 0


def _run_topology_op(args, out, operate):
    """Load a sharded snapshot, apply one topology op, report it."""
    from repro.shard import ShardedSeda

    with _location_errors(args.path):
        sharded = ShardedSeda.load(args.path)
        try:
            summary = operate(sharded)
        except ValueError as error:
            raise SystemExit(str(error))
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True), file=out)
        return 0
    for key in sorted(summary):
        print(f"  {key}: {summary[key]}", file=out)
    return 0


def cmd_shard_split(args, out):
    """Split one shard of a saved sharded snapshot into two."""
    if not args.json:
        print(f"splitting shard {args.shard} of {args.path}", file=out)
    return _run_topology_op(
        args, out, lambda sharded: sharded.split(args.shard)
    )


def cmd_shard_merge(args, out):
    """Merge two shards of a saved sharded snapshot into one."""
    if not args.json:
        print(f"merging shards {args.a} and {args.b} of {args.path}",
              file=out)
    return _run_topology_op(
        args, out, lambda sharded: sharded.merge(args.a, args.b)
    )


def cmd_shard_rebalance(args, out):
    """Plan (or apply) a document rebalance over a sharded snapshot."""
    moves = None
    if args.moves:
        try:
            moves = json.loads(args.moves)
        except ValueError as error:
            raise SystemExit(f"--moves is not valid JSON: {error}")

    def operate(sharded):
        if moves is None:
            plan = sharded.propose_rebalance(metric=args.metric)
        else:
            plan = {"moves": moves}
        return {"plan": plan} if args.dry_run else sharded.rebalance(plan)

    return _run_topology_op(args, out, operate)


def cmd_serve(args, out):
    """Serve a snapshot over HTTP until drained or interrupted.

    Loads the snapshot (replaying its WAL), binds a threaded HTTP server, and
    blocks until an ``/admin/drain`` request -- or SIGINT/SIGTERM,
    which triggers the same graceful drain -- commits a fresh snapshot
    and shuts the listener down.  The first output line names the
    bound address (``--port 0`` binds an ephemeral port), so wrappers
    can parse where to connect.
    """
    import signal

    from repro.serving.app import ServingApp
    from repro.serving.server import ReproServer
    from repro.testing.faults import maybe_install_kill_switch_from_env

    with _location_errors(args.snapshot):
        system = load_serving_system(args.snapshot)
    # Arm the crash-harness kill switch, when the environment asks for
    # it, only *after* the load: the sweep counts durable operations
    # from the first online ingest, not from WAL replay.
    maybe_install_kill_switch_from_env()
    app = ServingApp(
        system, args.snapshot, workers=args.workers,
        max_inflight=args.max_inflight, per_client=args.per_client,
        retry_after=args.retry_after, slow_threshold=args.slow_ms / 1000.0,
    )
    server = ReproServer(app, host=args.host, port=args.port)

    def request_shutdown(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, request_shutdown)
    server.start()
    kind = "sharded" if app.sharded else "single-file"
    print(f"serving {args.snapshot} ({kind}, "
          f"{system.document_count} documents) on {server.url}",
          file=out, flush=True)
    try:
        while not server.wait(timeout=0.5):
            pass
    except KeyboardInterrupt:
        if app.state == "serving":
            app.handle("POST", "/admin/drain")
        server.stop()
    print(f"drained: snapshot committed to {args.snapshot}",
          file=out, flush=True)
    return 0


# -- argument parsing -------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SEDA: search-driven analysis of heterogeneous XML data",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_source_options(sub):
        sub.add_argument("--dataset", choices=_DATASETS, default="factbook",
                         help="generated dataset to load (default factbook)")
        sub.add_argument("--scale", type=float, default=0.02,
                         help="dataset scale in (0, 1] (default 0.02)")
        sub.add_argument("--data", default=None, metavar="DIR",
                         help="load *.xml files from DIR instead")

    def add_location_option(sub, verb):
        sub.add_argument("--snapshot", default=None, metavar="PATH",
                         help=f"{verb} a saved snapshot file or sharded "
                              f"directory instead of building from a "
                              f"dataset")

    def add_query_options(sub):
        sub.add_argument("--term", action="append", default=[],
                         metavar="CONTEXT:SEARCH",
                         help="query term; repeatable")
        sub.add_argument("-k", type=int, default=10, help="top-k size")

    stats = subparsers.add_parser(
        "stats",
        help="collection statistics, or the query-statistics registry "
             "(with --queries / --snapshot)",
    )
    add_source_options(stats)
    stats.add_argument("--top", type=int, default=10,
                       help="number of top paths to print")
    stats.add_argument("--queries", default=None, metavar="FILE",
                       help="serve this query file (one query per line, "
                            "terms separated by ';;') and report its "
                            "query statistics")
    stats.add_argument("--workers", type=int, default=4,
                       help="searches the service runs at once "
                            "(default 4)")
    stats.add_argument("-k", type=int, default=10, help="top-k size")
    stats.add_argument("--json", action="store_true",
                       help="emit the query-statistics registry as JSON "
                            "(needs --queries or --snapshot)")
    stats.add_argument("--slow-ms", type=float, default=100.0,
                       help="slow-query log threshold in milliseconds "
                            "(default 100)")
    stats.add_argument("--snapshot", default=None, metavar="PATH",
                       help="read the registry stored in a snapshot file "
                            "or sharded directory instead of serving")
    stats.add_argument("--save", default=None, metavar="PATH",
                       help="after serving --queries, persist the system "
                            "with its registry to this snapshot file")
    stats.set_defaults(handler=cmd_stats)

    search = subparsers.add_parser(
        "search",
        help="run a SEDA query on a dataset or a saved snapshot file or "
             "sharded directory",
    )
    add_source_options(search)
    add_location_option(search, "search")
    add_query_options(search)
    search.set_defaults(handler=cmd_search)

    explain_cmd = subparsers.add_parser(
        "explain",
        help="run one query and explain its top-k execution "
             "(streams, candidates, pruning, stop reason; per shard "
             "over a sharded directory)",
    )
    add_source_options(explain_cmd)
    add_location_option(explain_cmd, "explain against")
    add_query_options(explain_cmd)
    explain_cmd.add_argument("--json", action="store_true",
                             help="emit the report as JSON")
    explain_cmd.set_defaults(handler=cmd_explain)

    table1 = subparsers.add_parser(
        "table1", help="regenerate the paper's Table 1"
    )
    table1.add_argument("--threshold", type=float, default=0.4)
    table1.add_argument("--scale", type=float, default=1.0)
    table1.set_defaults(handler=cmd_table1)

    query1 = subparsers.add_parser(
        "query1", help="run the paper's Query 1 walk-through (Figure 3)"
    )
    query1.add_argument("--scale", type=float, default=0.05)
    query1.add_argument("-k", type=int, default=10)
    query1.set_defaults(handler=cmd_query1)

    info_cmd = subparsers.add_parser(
        "info",
        help="per-index estimated memory (compact columns, trie, "
             "interned labels) for a built or restored system",
    )
    add_source_options(info_cmd)
    add_location_option(info_cmd, "inspect")
    info_cmd.add_argument("--json", action="store_true",
                          help="emit the report as JSON")
    info_cmd.set_defaults(handler=cmd_info)

    serve = subparsers.add_parser(
        "serve",
        help="serve a snapshot over HTTP with online writes "
             "(drain via POST /admin/drain or SIGINT/SIGTERM)",
    )
    serve.add_argument("--snapshot", required=True, metavar="PATH",
                       help="snapshot file (or sharded directory) to "
                            "serve; online writes are WAL-logged next "
                            "to it and drain commits back into it")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (default 0 = pick an ephemeral "
                            "port, printed on the first output line)")
    serve.add_argument("--workers", type=int, default=4,
                       help="searches the service runs at once "
                            "(default 4)")
    serve.add_argument("--max-inflight", type=int, default=64,
                       help="admission cap on concurrent requests "
                            "(default 64; excess gets 429)")
    serve.add_argument("--per-client", type=int, default=16,
                       help="per-client concurrent-request cap "
                            "(default 16)")
    serve.add_argument("--retry-after", type=int, default=1,
                       help="Retry-After seconds on 429 (default 1)")
    serve.add_argument("--slow-ms", type=float, default=100.0,
                       help="slow-query log threshold in ms (default 100)")
    serve.set_defaults(handler=cmd_serve)

    snapshot = subparsers.add_parser(
        "snapshot", help="save a whole-system snapshot, or describe a "
                         "saved one's on-disk layout"
    )
    snap_sub = snapshot.add_subparsers(dest="snapshot_command", required=True)

    snap_save = snap_sub.add_parser(
        "save", help="build a system and persist it to one snapshot file"
    )
    add_source_options(snap_save)
    snap_save.add_argument("path", help="snapshot file to write")
    snap_save.set_defaults(handler=cmd_snapshot_save)

    snap_info = snap_sub.add_parser(
        "info",
        help="describe a snapshot file (metadata, record sizes) or a "
             "sharded directory (manifest, per-shard sizes, traffic "
             "skew) without restoring it",
    )
    snap_info.add_argument("path",
                           help="snapshot file or sharded snapshot directory")
    snap_info.add_argument("--json", action="store_true",
                           help="emit the raw description as JSON")
    snap_info.set_defaults(handler=cmd_snapshot_info)

    fsck = subparsers.add_parser(
        "fsck",
        help="verify a snapshot (or sharded directory): record and "
             "sidecar checksums, WAL health, stale temp files",
    )
    fsck.add_argument("path",
                      help="snapshot file or sharded snapshot directory")
    fsck.add_argument("--json", action="store_true",
                      help="emit the raw fsck report as JSON")
    fsck.set_defaults(handler=cmd_fsck)

    shard = subparsers.add_parser(
        "shard", help="build a sharded collection or change its topology"
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)

    shard_build = shard_sub.add_parser(
        "build",
        help="partition a corpus, build every shard (in parallel), "
             "and save the sharded snapshot directory",
    )
    add_source_options(shard_build)
    shard_build.add_argument("path", help="sharded snapshot directory")
    shard_build.add_argument("--shards", type=int, default=4,
                             help="number of shards (default 4)")
    shard_build.add_argument("--serial", action="store_true",
                             help="build shards in-process instead of in "
                                  "parallel worker processes")
    shard_build.add_argument("--build-workers", type=int, default=None,
                             help="worker processes for the parallel build "
                                  "(default: one per shard, capped at the "
                                  "CPU count)")
    shard_build.add_argument("--partitioner", default=None,
                             choices=("hash", "round-robin"),
                             help="document routing policy (default hash)")
    shard_build.set_defaults(handler=cmd_shard_build)

    shard_split = shard_sub.add_parser(
        "split",
        help="split one shard into two, rewriting only that shard's "
             "files and the manifest",
    )
    shard_split.add_argument("path", help="sharded snapshot directory")
    shard_split.add_argument("shard", type=int, help="shard index to split")
    shard_split.add_argument("--json", action="store_true",
                             help="emit the operation summary as JSON")
    shard_split.set_defaults(handler=cmd_shard_split)

    shard_merge = shard_sub.add_parser(
        "merge",
        help="merge two shards into one, rewriting only the surviving "
             "shard's files and the manifest",
    )
    shard_merge.add_argument("path", help="sharded snapshot directory")
    shard_merge.add_argument("a", type=int, help="first shard index")
    shard_merge.add_argument("b", type=int, help="second shard index")
    shard_merge.add_argument("--json", action="store_true",
                             help="emit the operation summary as JSON")
    shard_merge.set_defaults(handler=cmd_shard_merge)

    shard_rebalance = shard_sub.add_parser(
        "rebalance",
        help="move documents between shards (explicit --moves or a "
             "plan computed from --metric), rewriting only the "
             "affected shards",
    )
    shard_rebalance.add_argument("path", help="sharded snapshot directory")
    shard_rebalance.add_argument("--metric", default="documents",
                                 choices=("documents", "nodes"),
                                 help="balance target when planning "
                                      "(default documents)")
    shard_rebalance.add_argument("--moves", default=None,
                                 metavar="JSON",
                                 help="explicit plan as a JSON object "
                                      "{global_doc_index: target_shard}; "
                                      "overrides --metric")
    shard_rebalance.add_argument("--dry-run", action="store_true",
                                 help="report the plan without applying it")
    shard_rebalance.add_argument("--json", action="store_true",
                                 help="emit the operation summary as JSON")
    shard_rebalance.set_defaults(handler=cmd_shard_rebalance)

    return parser


def main(argv=None, out=None):
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args, out)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
