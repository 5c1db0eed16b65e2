"""Elastic shard topology: split, merge, rebalance, skew, crash safety.

The topology operations (:mod:`repro.shard.topology`) reshape a
sharded collection -- splitting a hot shard, merging cold ones, moving
documents between shards -- while answers stay **byte-identical** to
an unsharded build over the same corpus.  This battery asserts the
contract from every direction:

* every operation, in memory and on disk, before and after reload,
  against the unsharded oracle -- including write-ahead batches
  appended under the *old* routing epoch and replayed after the
  topology changed;
* the on-disk commit rewrites **only the affected shards' files**:
  untouched shards keep their exact bytes under a new manifest
  generation;
* co-location safety: link-connected document groups refuse to split
  or move piecemeal;
* a long-lived :class:`~repro.service.query_service.QueryService`
  survives shard-count changes mid-flight;
* the ``/admin/rebalance`` serving endpoint performs topology changes
  online (and rejects them while draining or unsharded);
* ``fsck`` rejects a manifest whose assignment map disagrees with the
  shard files;
* a SIGKILL sweep over every durable operation of every topology op
  recovers fsck-clean onto exactly the old or the new topology --
  never a hybrid -- with answers byte-identical either way.
"""

import io
import json
import os
import shutil
import signal
import subprocess
import sys
import warnings

import pytest

from repro.cli import main
from repro.model.links import ValueLinkSpec
from repro.query.term import Query
from repro.serving import ServingApp, load_serving_system
from repro.shard import (
    ShardedSeda,
    colocation_units,
    skew_report,
)
from repro.storage.snapshot import (
    SnapshotError,
    fsck_report,
    read_sharded_manifest,
    read_snapshot,
)
from repro.testing.faults import FaultInjector
from repro.system import Seda

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOCS = [
    ("alpha", "<r><a>red blue</a><b>green</b><a>blue</a></r>"),
    ("bravo", "<r><a>blue green</a><c>red</c></r>"),
    ("charlie", "<r><b>red red blue</b><a>green red</a></r>"),
    ("delta", "<r><a>red</a><b>blue</b><c>green blue</c></r>"),
    ("echo", "<r><c>blue blue</c><a>red green</a></r>"),
    ("foxtrot", "<r><b>green green</b><a>red blue green</a></r>"),
    ("golf", "<r><a>blue</a><a>blue</a></r>"),
    ("hotel", "<r><a>blue</a><b>red</b></r>"),
    ("india", "<r><c>red green</c><b>blue</b></r>"),
    ("juliet", "<r><b>blue blue</b><c>green</c></r>"),
]

BATCH = [
    ("kilo", "<r><a>red green</a><b>blue blue</b></r>"),
    ("lima", "<r><c>green</c><a>red red</a></r>"),
]

QUERIES = [
    [("*", "red"), ("*", "blue")],
    [("a", "blue"), ("*", "green")],
    [("*", "red"), ("*", "blue"), ("*", "green")],
    [("*", "blue")],
    [("b", "*"), ("*", "red")],
]


def _canon(system):
    """Every query's full answer state, comparable across system kinds."""
    if isinstance(system, ShardedSeda):
        def search(pairs, k):
            return system.search(pairs, k=k)
    else:
        def search(pairs, k):
            return system.topk.search(Query.parse(pairs), k=k)
    return [
        [(r.node_ids, r.content_scores, r.compactness, r.score)
         for r in search(pairs, k=10)]
        for pairs in QUERIES
    ]


@pytest.fixture(scope="module")
def oracle():
    return _canon(Seda.from_documents(DOCS))


@pytest.fixture(scope="module")
def oracle_with_batch():
    return _canon(Seda.from_documents(DOCS + BATCH))


def _build_sharded():
    return ShardedSeda.from_documents(
        DOCS, shards=3, parallel=False, partitioner="round-robin"
    )


def _shard_file_bytes(directory):
    """``{file_name: content}`` for every manifest-listed shard file."""
    manifest = read_sharded_manifest(directory)
    contents = {}
    for shard_file in manifest["shard_files"]:
        for name in (shard_file, f"{shard_file}.cols"):
            path = os.path.join(directory, name)
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    contents[name] = handle.read()
    return contents


# -- in-memory operations -----------------------------------------------------------


class TestInMemoryTopology:
    def test_split_preserves_answers_and_bumps_epoch(self, oracle):
        system = _build_sharded()
        assert _canon(system) == oracle
        summary = system.split(1)
        assert summary["op"] == "split"
        assert summary["new_shard"] == 3
        assert summary["shards"] == 4
        assert summary["routing_epoch"] == 1
        assert summary["committed"] is False      # no WAL attached
        assert summary["moved_documents"] >= 1
        assert system.shard_count == 4
        assert _canon(system) == oracle

    def test_merge_preserves_answers(self, oracle):
        system = _build_sharded()
        summary = system.merge(2, 0)
        assert summary["surviving_shard"] == 0
        assert summary["merged"] == [0, 2]
        assert summary["shards"] == 2
        assert system.shard_count == 2
        assert _canon(system) == oracle
        # The positional shift: every document still routes somewhere.
        counts = [len(system._shard_docs[i]) for i in range(2)]
        assert sum(counts) == len(DOCS) and all(c > 0 for c in counts)

    def test_rebalance_realizes_the_proposed_plan(self, oracle):
        system = _build_sharded()
        plan = system.propose_rebalance(metric="documents")
        assert plan["metric"] == "documents"
        summary = system.rebalance(plan)
        assert summary["moved_documents"] == len(plan["moves"])
        assert _canon(system) == oracle
        realized = [len(system._shard_docs[i])
                    for i in range(system.shard_count)]
        assert realized == plan["projected_loads"]

    def test_propose_is_deterministic_and_validates_metric(self):
        system = _build_sharded()
        assert (system.propose_rebalance(metric="nodes")
                == system.propose_rebalance(metric="nodes"))
        with pytest.raises(ValueError, match="unknown metric"):
            system.propose_rebalance(metric="bytes")

    def test_empty_plan_is_a_noop(self):
        system = _build_sharded()
        before = system.routing_epoch
        keep = dict(enumerate(row[1] for row in system._docs))
        summary = system.rebalance({"moves": keep})   # all same-shard
        assert summary["moved_documents"] == 0
        assert summary["committed"] is False
        assert summary["affected_shards"] == []
        assert system.routing_epoch == before

    def test_string_keys_round_trip(self, oracle):
        system = _build_sharded()
        target = (system._docs[0][1] + 1) % system.shard_count
        summary = system.rebalance({"moves": {"0": str(target)}})
        assert summary["moved_documents"] == 1
        assert system._docs[0][1] == target
        assert _canon(system) == oracle

    def test_operations_compose(self, oracle):
        system = _build_sharded()
        system.split(0)
        moved = system.rebalance(
            system.propose_rebalance(metric="nodes")
        )["moved_documents"]
        system.merge(1, 3)
        system.split(2)
        # Split and merge always bump the epoch; a rebalance only when
        # the plan actually moved something.
        assert system.routing_epoch == 3 + (1 if moved else 0)
        assert _canon(system) == oracle

    def test_bad_arguments(self):
        system = _build_sharded()
        with pytest.raises(ValueError, match="no shard 7"):
            system.split(7)
        with pytest.raises(ValueError, match="itself"):
            system.merge(1, 1)
        with pytest.raises(ValueError, match="no shard"):
            system.merge(0, 9)
        with pytest.raises(ValueError, match="no document"):
            system.rebalance({"moves": {99: 0}})
        with pytest.raises(ValueError, match="no shard"):
            system.rebalance({"moves": {0: 9}})


# -- co-location safety -------------------------------------------------------------


LINKED_DOCS = [
    ("keys-one", "<r><k>K1</k><a>red</a></r>"),
    ("refs-one", "<r><f>K1</f><a>blue</a></r>"),
    ("keys-two", "<r><k>K2</k><b>green</b></r>"),
    ("refs-two", "<r><f>K2</f><b>red</b></r>"),
    ("loner", "<r><a>blue green</a></r>"),
]
LINK_SPEC = ValueLinkSpec("/r/k", "/r/f", label="ref")


def _linked_partitioner(doc_name, global_index, shards):
    # Pair co-location: keys-one/refs-one -> 0, keys-two/refs-two/loner -> 1.
    return 0 if doc_name.endswith("-one") else 1 % shards


class TestColocation:
    def _system(self):
        return ShardedSeda.from_documents(
            LINKED_DOCS, shards=2, parallel=False,
            value_links=[LINK_SPEC], partitioner=_linked_partitioner,
        )

    def test_units_group_linked_documents(self):
        system = self._system()
        assert colocation_units(system, 0) == [[0, 1]]
        assert colocation_units(system, 1) == [[2, 3], [4]]

    def test_split_refuses_an_unsplittable_shard(self):
        system = self._system()
        with pytest.raises(ValueError, match="link-connected unit"):
            system.split(0)
        # Shard 1 holds two units, so it can split.
        summary = system.split(1)
        assert summary["shards"] == 3

    def test_rebalance_refuses_partial_unit_moves(self):
        system = self._system()
        with pytest.raises(ValueError, match="must move together"):
            system.rebalance({"moves": {0: 1}})       # half of [0, 1]
        with pytest.raises(ValueError, match="must move together"):
            system.rebalance({"moves": {2: 0, 3: 1}})  # split targets

    def test_whole_unit_moves_preserve_answers(self):
        oracle = _canon(
            Seda.from_documents(LINKED_DOCS, value_links=[LINK_SPEC])
        )
        system = self._system()
        assert _canon(system) == oracle
        system.rebalance({"moves": {0: 1, 1: 1}})
        assert _canon(system) == oracle
        assert len(system._shard_docs[0]) == 0        # emptied, still sound
        system.merge(0, 1)
        assert _canon(system) == oracle


# -- durable operations -------------------------------------------------------------


class TestDurableTopology:
    def test_split_rewrites_only_affected_shards(self, tmp_path, oracle):
        directory = str(tmp_path / "seda.shards")
        _build_sharded().save(directory)
        before = _shard_file_bytes(directory)
        before_manifest = read_sharded_manifest(directory)

        system = ShardedSeda.load(directory)
        summary = system.split(1)
        assert summary["committed"] is True

        after_manifest = read_sharded_manifest(directory)
        assert after_manifest["routing_epoch"] == 1
        assert after_manifest["generation"] > before_manifest["generation"]
        assert len(after_manifest["shard_files"]) == 4
        after = _shard_file_bytes(directory)
        for index, shard_file in enumerate(before_manifest["shard_files"]):
            if index == 1:
                # The split shard's files were superseded and deleted.
                assert shard_file not in after
            else:
                # Untouched shards keep their exact bytes (and names).
                assert after[shard_file] == before[shard_file]
                assert (after[f"{shard_file}.cols"]
                        == before[f"{shard_file}.cols"])
        report = fsck_report(directory)
        assert report["ok"], report["problems"]
        assert report["warnings"] == []

        assert _canon(ShardedSeda.load(directory)) == oracle

    def test_bounded_rebalance_rewrites_only_affected_shards(self, tmp_path,
                                                             oracle):
        """A few documents from one donor to one receiver: only those
        two shards' files are rewritten."""
        directory = str(tmp_path / "seda.shards")
        ShardedSeda.from_documents(
            DOCS, shards=4, parallel=False, partitioner="round-robin"
        ).save(directory)
        before = _shard_file_bytes(directory)
        before_files = read_sharded_manifest(directory)["shard_files"]

        system = ShardedSeda.load(directory)
        donor, receiver = 0, 3
        moves = {g: receiver for g in system._shard_docs[donor][:2]}
        summary = system.rebalance({"moves": moves})
        assert summary["committed"] is True
        assert summary["moved_documents"] == 2
        assert summary["affected_shards"] == [donor, receiver]

        after = _shard_file_bytes(directory)
        for index, shard_file in enumerate(before_files):
            if index in (donor, receiver):
                assert shard_file not in after
            else:
                assert after[shard_file] == before[shard_file]
                assert (after[f"{shard_file}.cols"]
                        == before[f"{shard_file}.cols"])
        assert _canon(system) == oracle
        report = fsck_report(directory)
        assert report["ok"], report["problems"]
        assert _canon(ShardedSeda.load(directory)) == oracle

    def test_wal_batch_from_the_old_epoch_replays(self, tmp_path,
                                                  oracle_with_batch):
        directory = str(tmp_path / "seda.shards")
        _build_sharded().save(directory)

        writer = ShardedSeda.load(directory)
        writer.add_documents(BATCH)              # WAL-only, epoch 0
        summary = writer.split(1)                # commit under epoch 1
        assert summary["committed"] is True
        assert _canon(writer) == oracle_with_batch

        # The WAL survived the commit and its old-epoch batch routes
        # through the new assignment map on replay.
        report = fsck_report(directory)
        assert report["ok"], report["problems"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            recovered = ShardedSeda.load(directory)
        assert recovered.routing_epoch == 1
        assert recovered.shard_count == 4
        assert _canon(recovered) == oracle_with_batch

    def test_shard_recovery_after_a_topology_commit(self, tmp_path,
                                                    oracle_with_batch):
        """A reload replays through the manifest-covered path: the
        untouched shards' files predate the first batch, the rebuilt
        shards' files do not, and every shard recovers exactly."""
        directory = str(tmp_path / "seda.shards")
        _build_sharded().save(directory)

        system = ShardedSeda.load(directory)
        system.add_documents(BATCH[:1])          # WAL only, base 10
        assert system.split(0)["committed"] is True
        system.add_documents(BATCH[1:])          # WAL only, base 11
        assert read_sharded_manifest(directory)["shard_doc_bases"] == [
            11, 10, 10, 11
        ]
        assert _canon(system) == oracle_with_batch
        recovered = ShardedSeda.load(directory)
        assert recovered.shard_count == 4
        assert _canon(recovered) == oracle_with_batch

    def test_ingest_after_topology_change(self, tmp_path,
                                          oracle_with_batch):
        directory = str(tmp_path / "seda.shards")
        _build_sharded().save(directory)

        system = ShardedSeda.load(directory)
        system.merge(0, 2)
        system.add_documents(BATCH)              # routed under epoch 1
        assert _canon(system) == oracle_with_batch

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            recovered = ShardedSeda.load(directory)
        assert _canon(recovered) == oracle_with_batch
        recovered.save(directory)
        assert _canon(ShardedSeda.load(directory)) == oracle_with_batch

    def test_operations_chain_across_reloads(self, tmp_path, oracle):
        directory = str(tmp_path / "seda.shards")
        _build_sharded().save(directory)

        system = ShardedSeda.load(directory)
        system.split(0)
        system = ShardedSeda.load(directory)
        assert system.routing_epoch == 1
        system.rebalance(system.propose_rebalance(metric="nodes"))
        system = ShardedSeda.load(directory)
        system.merge(0, 1)
        final = ShardedSeda.load(directory)
        assert final.routing_epoch >= 2
        assert _canon(final) == oracle
        info = skew_report(directory)
        assert info["routing_epoch"] == final.routing_epoch

    def test_fsck_rejects_a_corrupt_assignment_map(self, tmp_path):
        directory = str(tmp_path / "seda.shards")
        _build_sharded().save(directory)
        manifest_path = os.path.join(directory, "manifest.json")
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        # Reassign one document without rewriting any shard file.
        row = manifest["documents"][0]
        row[1] = (row[1] + 1) % len(manifest["shard_files"])
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        report = fsck_report(directory)
        assert not report["ok"]
        assert any("assignment map" in problem
                   for problem in report["problems"])

    def test_resave_refuses_a_corrupt_never_loaded_shard(self, tmp_path):
        """A generational re-save byte-copies never-loaded shards; the
        copy checks the header seal instead of re-sealing whatever the
        header now says, and the old manifest stays in charge."""
        directory = str(tmp_path / "seda.shards")
        ShardedSeda.from_documents(DOCS, shards=2, parallel=False).save(
            directory
        )
        victim = os.path.join(directory, "shard-0000.snapshot")
        with open(victim, "rb") as handle:
            blob = handle.read()
        assert b'"max_hops":12' in blob
        with open(victim, "wb") as handle:
            handle.write(blob.replace(b'"max_hops":12', b'"max_hops":13', 1))
        with pytest.raises(SnapshotError, match="integrity seal"):
            read_snapshot(victim)
        manifest_path = os.path.join(directory, "manifest.json")
        with open(manifest_path, "rb") as handle:
            manifest_before = handle.read()
        with pytest.raises(SnapshotError, match="integrity seal"):
            ShardedSeda.load(directory).save(directory)
        with open(manifest_path, "rb") as handle:
            assert handle.read() == manifest_before
        assert not os.path.exists(
            os.path.join(directory, "shard-0000.g1.snapshot")
        )

    def test_resave_copies_never_loaded_shards_durably(self, tmp_path):
        directory = str(tmp_path / "seda.shards")
        _build_sharded().save(directory)
        system = ShardedSeda.load(directory)
        with FaultInjector() as faults:
            system.save(directory)
        copied = [name for name in os.listdir(directory)
                  if name.startswith("shard-") and ".g1." in name]
        assert len(copied) == 6  # three snapshot + sidecar pairs
        # One fsync per copied file, plus the manifest commit.
        assert faults.per_seam["fsync_file"] >= len(copied) + 1
        assert _canon(ShardedSeda.load(directory)) == _canon(system)

    def test_skew_report_shape(self, tmp_path):
        directory = str(tmp_path / "seda.shards")
        _build_sharded().save(directory)
        report = skew_report(directory)
        assert report["shards"] == 3
        assert report["routing_epoch"] == 0
        assert sum(e["documents"] for e in report["per_shard"]) == len(DOCS)
        assert all(e["bytes"] > 0 for e in report["per_shard"])
        assert set(report["imbalance"]) == {
            "documents", "nodes", "bytes", "traffic"
        }
        assert report["imbalance"]["documents"] >= 1.0
        assert report["imbalance"]["traffic"] is None   # no obs state
        assert report["wal_present"] is False


# -- a long-lived query service across topology changes -----------------------------


class TestServiceAcrossTopology:
    def test_service_survives_shard_count_changes(self, oracle):
        system = _build_sharded()
        service = system.query_service(workers=2)
        results, _stats = service.execute(QUERIES[0], k=10)
        canon = [(r.node_ids, r.content_scores, r.compactness,
                  r.score) for r in results]
        assert canon == oracle[0]
        system.split(1)
        results, _stats = service.execute(QUERIES[0], k=10)
        canon = [(r.node_ids, r.content_scores, r.compactness,
                  r.score) for r in results]
        assert canon == oracle[0]
        system.merge(0, 3)
        for pairs, want in zip(QUERIES, oracle):
            results, _stats = service.execute(pairs, k=10)
            canon = [(r.node_ids, r.content_scores, r.compactness,
                      r.score) for r in results]
            assert canon == want


# -- the CLI commands ---------------------------------------------------------------


class TestTopologyCommands:
    """``repro shard split/merge/rebalance``: one load-apply-print path."""

    @pytest.fixture
    def directory(self, tmp_path):
        directory = str(tmp_path / "seda.shards")
        _build_sharded().save(directory)
        return directory

    @staticmethod
    def _run(*argv):
        out = io.StringIO()
        assert main(list(argv), out=out) == 0
        return out.getvalue()

    @staticmethod
    def _assert_clean_and_exact(directory, oracle):
        assert fsck_report(directory)["ok"]
        assert _canon(ShardedSeda.load(directory)) == oracle

    def test_split(self, directory, oracle):
        text = self._run("shard", "split", directory, "0")
        assert text.startswith(f"splitting shard 0 of {directory}\n")
        assert "  shards: 4\n" in text
        assert len(read_sharded_manifest(directory)["shard_files"]) == 4
        self._assert_clean_and_exact(directory, oracle)

    def test_merge(self, directory, oracle):
        summary = json.loads(
            self._run("shard", "merge", directory, "0", "1", "--json")
        )
        assert summary["merged"] == [0, 1]
        assert len(read_sharded_manifest(directory)["shard_files"]) == 2
        self._assert_clean_and_exact(directory, oracle)

    def test_rebalance_planned(self, directory, oracle):
        summary = json.loads(self._run(
            "shard", "rebalance", directory, "--metric", "nodes", "--json"
        ))
        assert summary["moved_documents"] == 1
        assert read_sharded_manifest(directory)["routing_epoch"] == 1
        self._assert_clean_and_exact(directory, oracle)

    def test_rebalance_explicit_moves(self, directory, oracle):
        text = self._run("shard", "rebalance", directory,
                         "--moves", '{"0": 1}')
        assert "  moved_documents: 1\n" in text
        assert read_sharded_manifest(directory)["documents"][0][1] == 1
        self._assert_clean_and_exact(directory, oracle)

    @pytest.mark.parametrize("plan_options, moves", [
        (["--metric", "nodes"], {"6": 1}),
        (["--moves", '{"0": 1}'], {"0": 1}),
    ])
    def test_dry_run_changes_nothing(self, directory, oracle, plan_options,
                                     moves):
        with open(os.path.join(directory, "manifest.json"), "rb") as handle:
            manifest_before = handle.read()
        report = json.loads(self._run(
            "shard", "rebalance", directory, "--dry-run", "--json",
            *plan_options,
        ))
        assert report["plan"]["moves"] == moves
        with open(os.path.join(directory, "manifest.json"), "rb") as handle:
            assert handle.read() == manifest_before
        assert read_sharded_manifest(directory)["generation"] == 0
        self._assert_clean_and_exact(directory, oracle)

    def test_invalid_moves_json(self, directory):
        with pytest.raises(SystemExit, match="--moves is not valid JSON"):
            main(["shard", "rebalance", directory, "--moves", "{0: 1"],
                 out=io.StringIO())

    def test_rejected_operation_is_a_clean_exit(self, directory):
        with pytest.raises(SystemExit) as exit_info:
            main(["shard", "merge", directory, "0", "0"], out=io.StringIO())
        assert "\n" not in str(exit_info.value.code)
        assert fsck_report(directory)["ok"]


# -- the serving endpoint -----------------------------------------------------------


class TestRebalanceEndpoint:
    @pytest.fixture
    def app(self, tmp_path):
        directory = str(tmp_path / "seda.shards")
        _build_sharded().save(directory)
        return ServingApp(load_serving_system(directory), directory)

    def _results(self, app):
        response = app.handle(
            "POST", "/search", body={"query": "a:blue ;; *:green"}
        )
        assert response.status == 200
        return response.payload["results"]

    def test_online_split_merge_rebalance(self, app):
        before = self._results(app)

        response = app.handle("POST", "/admin/rebalance",
                              body={"op": "split", "shard": 1})
        assert response.status == 200
        assert response.payload["op"] == "split"
        assert response.payload["committed"] is True
        assert response.payload["generation"][1] == 1   # routing epoch
        assert self._results(app) == before

        response = app.handle("POST", "/admin/rebalance",
                              body={"op": "merge", "a": 0, "b": 3})
        assert response.status == 200
        assert self._results(app) == before

        response = app.handle(
            "POST", "/admin/rebalance",
            body={"op": "rebalance", "metric": "documents"},
        )
        assert response.status == 200
        assert response.payload["op"] == "rebalance"
        assert self._results(app) == before

        moves = {"0": 1}
        response = app.handle("POST", "/admin/rebalance",
                              body={"op": "rebalance", "moves": moves})
        assert response.status == 200
        assert self._results(app) == before

    def test_rejections(self, app, tmp_path):
        assert app.handle("POST", "/admin/rebalance",
                          body={"op": "teleport"}).status == 400
        assert app.handle("POST", "/admin/rebalance",
                          body={"op": "split", "shard": 99}).status == 400
        assert app.handle("GET", "/admin/rebalance").status == 405

        # Shard and document indexes are integers: not an overflowing
        # float (JSON 1e400), not a fraction, not a bool.
        for body in (
            {"op": "split", "shard": float("inf")},
            {"op": "split", "shard": True},
            {"op": "merge", "a": float("inf"), "b": 0},
            {"op": "merge", "a": 0, "b": 2.0},
            {"op": "rebalance", "moves": {"0": float("inf")}},
            {"op": "rebalance", "moves": {"0": 1.7}},
            {"op": "rebalance", "moves": {"0": True}},
            {"op": "rebalance", "moves": {"first": 1}},
        ):
            response = app.handle("POST", "/admin/rebalance", body=body)
            assert response.status == 400, body
            assert "integer" in response.payload["error"], body
        with pytest.raises(ValueError, match="a rebalance plan is a mapping"):
            app.system.rebalance([("0", 1)])
        assert app.system.shard_count == 3
        assert app.system.routing_epoch == 0

        snapshot = str(tmp_path / "seda.snapshot")
        Seda.from_documents(DOCS).save(snapshot)
        unsharded = ServingApp(load_serving_system(snapshot), snapshot)
        response = unsharded.handle("POST", "/admin/rebalance",
                                    body={"op": "split", "shard": 0})
        assert response.status == 400

    def test_draining_rejects_topology_changes(self, app):
        assert app.handle("POST", "/admin/drain").status == 200
        response = app.handle("POST", "/admin/rebalance",
                              body={"op": "split", "shard": 0})
        assert response.status == 409


# -- SIGKILL sweep over every durable operation -------------------------------------


_CHILD = """
import sys
from repro.testing.faults import maybe_install_kill_switch_from_env
maybe_install_kill_switch_from_env()
from repro.shard import ShardedSeda
system = ShardedSeda.load(sys.argv[1])
op = sys.argv[2]
if op == "split":
    system.split(1)
elif op == "merge":
    system.merge(0, 2)
else:
    system.rebalance({"moves": {0: 1, 4: 2}})
"""


def _run_armed(directory, op, n):
    env = dict(os.environ)
    env["REPRO_KILL_SWITCH"] = str(n)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, "-c", _CHILD, directory, op],
        env=env, capture_output=True, timeout=120,
    ).returncode


class TestTopologyCrashSweep:
    @pytest.mark.parametrize("op", ["split", "merge", "rebalance"])
    def test_sigkill_at_every_commit_operation(self, op, tmp_path,
                                               oracle):
        baseline = str(tmp_path / "baseline.shards")
        _build_sharded().save(baseline)
        old_shards = 3
        reference = _build_sharded()          # in-memory: baseline untouched
        getattr(self, f"_{op}")(reference)
        new_epoch = reference.routing_epoch
        new_shards = reference.shard_count

        topologies = []
        n = 0
        while True:
            n += 1
            assert n < 60, "kill sweep did not terminate"
            work = str(tmp_path / f"work-{n}.shards")
            shutil.copytree(baseline, work)
            returncode = _run_armed(work, op, n)
            if returncode != 0:
                assert returncode == -signal.SIGKILL, returncode
            report = fsck_report(work)
            assert report["ok"], (n, report["problems"])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                recovered = ShardedSeda.load(work)
            # Old or new topology, never a hybrid -- and answers are
            # byte-identical to the unsharded oracle either way.
            assert recovered.shard_count in (old_shards, new_shards)
            assert recovered.routing_epoch in (0, new_epoch)
            if old_shards != new_shards:
                # The shard count and the epoch flip together or not
                # at all -- a hybrid would mean a torn commit.
                assert (recovered.shard_count == new_shards) == (
                    recovered.routing_epoch == new_epoch
                )
            assert _canon(recovered) == oracle
            topologies.append(
                "new" if recovered.routing_epoch == new_epoch else "old"
            )
            if returncode == 0:
                break
        assert topologies[-1] == "new"
        assert "old" in topologies
        # The manifest write is the single commit point: once a kill
        # lands after it, every later kill does too.
        assert topologies == sorted(topologies, key=("old", "new").index)

    @staticmethod
    def _split(system):
        system.split(1)

    @staticmethod
    def _merge(system):
        system.merge(0, 2)

    @staticmethod
    def _rebalance(system):
        system.rebalance({"moves": {0: 1, 4: 2}})
