"""Write-ahead log: format, torn-tail recovery, replay equivalence."""

import json
import os
import shutil

import pytest

from repro.datasets.factbook import FactbookGenerator
from repro.model.links import ValueLinkSpec
from repro.query.term import Query
from repro.shard import ShardedSeda
from repro.storage.snapshot import fsck_report, sidecar_file_name
from repro.storage.wal import (
    WAL_MAGIC,
    WALError,
    WriteAheadLog,
    replay_wal,
    sharded_wal_file_name,
    verify_wal,
    wal_file_name,
)
from repro.system import Seda
from repro.xmlio import serialize

DOCS = [
    ("alpha", "<r><a>red blue</a><b>green</b></r>"),
    ("bravo", "<r><a>blue</a><c>red red</c></r>"),
    ("charlie", "<r><b>green green</b><a>red</a></r>"),
]
BATCH = [("delta", "<r><a>red green</a><b>blue blue</b></r>")]
QUERIES = ([("*", "red")], [("a", "blue")], [("*", "green"), ("b", "*")])


def _canon(results):
    return [
        (r.node_ids, r.content_scores, r.compactness, r.score)
        for r in results
    ]


def _seda_answers(system):
    return [
        _canon(system.search(pairs, k=10).results) for pairs in QUERIES
    ]


def _sharded_answers(system):
    return [_canon(system.search(pairs, k=10)) for pairs in QUERIES]


class TestWALFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.wal"
        log = WriteAheadLog(path)
        payloads = [
            {"op": "add_documents", "documents": [["a", "<x/>"]]},
            {"op": "add_documents", "documents": [["b", "<y>text</y>"]],
             "value_links": []},
        ]
        for payload in payloads:
            log.append(payload)
        log.close()
        records, warning = replay_wal(path)
        assert records == payloads
        assert warning is None

    def test_missing_file_is_empty(self, tmp_path):
        records, warning = replay_wal(tmp_path / "absent.wal")
        assert records == []
        assert warning is None

    def test_truncate_resets(self, tmp_path):
        path = tmp_path / "x.wal"
        log = WriteAheadLog(path)
        log.append({"op": "add_documents", "documents": []})
        log.truncate()
        records, warning = replay_wal(path)
        assert records == []
        assert warning is None
        # and the file is appendable again afterwards
        log.append({"op": "add_documents", "documents": [["c", "<z/>"]]})
        log.close()
        records, _warning = replay_wal(path)
        assert len(records) == 1

    def test_foreign_magic_rejected(self, tmp_path):
        path = tmp_path / "x.wal"
        path.write_bytes(b"NOTAWAL!" + b"\x00" * 16)
        with pytest.raises(WALError, match="not a write-ahead log"):
            replay_wal(path)

    def test_torn_magic_is_empty_log(self, tmp_path):
        path = tmp_path / "x.wal"
        path.write_bytes(WAL_MAGIC[:5])
        records, warning = replay_wal(path)
        assert records == []
        assert "torn magic" in warning
        # the repair leaves a cleanly-empty log
        records, warning = replay_wal(path)
        assert (records, warning) == ([], None)

    @pytest.mark.parametrize("keep", [1, 3, 6])
    def test_torn_tail_truncated_with_warning(self, tmp_path, keep):
        path = tmp_path / "x.wal"
        log = WriteAheadLog(path)
        first = {"op": "add_documents", "documents": [["a", "<x/>"]]}
        log.append(first)
        log.append({"op": "add_documents", "documents": [["b", "<y/>"]]})
        log.close()
        blob = path.read_bytes()
        # cut the final record short, leaving `keep` of its bytes
        records_clean, _ = replay_wal(path)
        assert len(records_clean) == 2
        # find the second record's start: replay once on a copy missing it
        log2 = WriteAheadLog(tmp_path / "y.wal")
        log2.append(first)
        log2.close()
        second_start = (tmp_path / "y.wal").stat().st_size
        path.write_bytes(blob[:second_start + keep])
        records, warning = replay_wal(path)
        assert records == [first]
        assert "torn final record" in warning
        assert path.stat().st_size == second_start
        # a second replay is clean: the tail was truncated away
        records, warning = replay_wal(path)
        assert records == [first]
        assert warning is None

    def test_midfile_corruption_raises(self, tmp_path):
        path = tmp_path / "x.wal"
        log = WriteAheadLog(path)
        log.append({"op": "add_documents", "documents": [["a", "<x/>"]]})
        log.append({"op": "add_documents", "documents": [["b", "<y/>"]]})
        log.close()
        blob = bytearray(path.read_bytes())
        blob[len(WAL_MAGIC) + 10] ^= 0xFF  # inside the first payload
        path.write_bytes(bytes(blob))
        with pytest.raises(WALError, match="checksum"):
            replay_wal(path)

    def test_verify_is_read_only(self, tmp_path):
        path = tmp_path / "x.wal"
        log = WriteAheadLog(path)
        log.append({"op": "add_documents", "documents": [["a", "<x/>"]]})
        log.close()
        blob = path.read_bytes()
        path.write_bytes(blob + b"\x99\x00")  # torn tail
        report = verify_wal(path)
        assert report["present"]
        assert report["records"] == 1
        assert "torn" in report["torn_tail"]
        assert path.read_bytes() == blob + b"\x99\x00"  # untouched

    def test_verify_missing_file_healthy(self, tmp_path):
        report = verify_wal(tmp_path / "absent.wal")
        assert report == {"present": False, "records": 0,
                          "torn_tail": None, "error": None}


class TestSedaDurability:
    def test_batch_after_save_is_logged_and_replayed(self, tmp_path):
        path = str(tmp_path / "s.snapshot")
        system = Seda.from_documents(DOCS)
        system.save(path)
        system.add_documents(BATCH)
        expected = _seda_answers(system)
        assert os.path.exists(wal_file_name(path))
        # no save since the batch: the snapshot alone is stale, the
        # snapshot + log replay is exact
        recovered = Seda.load(path)
        assert _seda_answers(recovered) == expected

    def test_save_truncates_log(self, tmp_path):
        path = str(tmp_path / "s.snapshot")
        system = Seda.from_documents(DOCS)
        system.save(path)
        system.add_documents(BATCH)
        system.save(path)
        records, warning = replay_wal(wal_file_name(path))
        assert (records, warning) == ([], None)
        recovered = Seda.load(path)
        assert _seda_answers(recovered) == _seda_answers(system)

    def test_torn_tail_replays_to_pre_batch_state(self, tmp_path):
        path = str(tmp_path / "s.snapshot")
        system = Seda.from_documents(DOCS)
        system.save(path)
        expected = _seda_answers(system)
        system.add_documents(BATCH)
        # tear the logged batch: only half its bytes reached disk
        wal_path = wal_file_name(path)
        blob = (tmp_path / "s.snapshot.wal").read_bytes()
        cut = len(WAL_MAGIC) + (len(blob) - len(WAL_MAGIC)) // 2
        (tmp_path / "s.snapshot.wal").write_bytes(blob[:cut])
        with pytest.warns(UserWarning, match="torn final record"):
            recovered = Seda.load(path)
        assert _seda_answers(recovered) == expected
        assert os.path.getsize(wal_path) == len(WAL_MAGIC)

    def test_unknown_wal_operation_raises(self, tmp_path):
        path = str(tmp_path / "s.snapshot")
        Seda.from_documents(DOCS).save(path)
        log = WriteAheadLog(wal_file_name(path))
        log.append({"op": "drop_everything"})
        log.close()
        with pytest.raises(WALError, match="unknown operation"):
            Seda.load(path)

    def test_batch_without_base_raises(self, tmp_path):
        """Replay cannot tell whether the snapshot absorbed a batch
        without its document-count position, so it refuses to guess."""
        path = str(tmp_path / "s.snapshot")
        Seda.from_documents(DOCS).save(path)
        log = WriteAheadLog(wal_file_name(path))
        log.append({"op": "add_documents",
                    "documents": [list(BATCH[0])]})
        log.close()
        with pytest.raises(WALError, match="no integer 'base'"):
            Seda.load(path)

    def test_replayed_value_links_survive(self, tmp_path):
        path = str(tmp_path / "s.snapshot")
        system = Seda.from_documents(DOCS)
        system.save(path)
        spec = ValueLinkSpec("/r/a", "/r/c", label="wal-spec")
        system.add_documents(BATCH, value_links=[spec])
        recovered = Seda.load(path)
        assert [s.to_dict() for s in recovered.value_links] == [
            s.to_dict() for s in system.value_links
        ]

    def test_element_documents_are_logged_as_xml(self, tmp_path):
        """Elements must serialize into the log: replay re-parses the
        identical markup instead of crashing on a repr string."""
        from repro.xmlio.parser import parse

        path = str(tmp_path / "s.snapshot")
        system = Seda.from_documents(DOCS)
        system.save(path)
        element = parse("<r><a>parsed element</a></r>")
        system.add_documents([("echo", element)])
        recovered = Seda.load(path)
        assert _seda_answers(recovered) == _seda_answers(system)


class TestShardedDurability:
    def test_batch_after_save_is_logged_and_replayed(self, tmp_path):
        directory = str(tmp_path / "s.shards")
        system = ShardedSeda.from_documents(DOCS, shards=2, parallel=False)
        system.save(directory)
        system.add_documents(BATCH)
        expected = _sharded_answers(system)
        assert os.path.exists(sharded_wal_file_name(directory))
        recovered = ShardedSeda.load(directory)
        assert _sharded_answers(recovered) == expected

    def test_save_truncates_log(self, tmp_path):
        directory = str(tmp_path / "s.shards")
        system = ShardedSeda.from_documents(DOCS, shards=2, parallel=False)
        system.save(directory)
        system.add_documents(BATCH)
        system.save(directory)
        records, warning = replay_wal(sharded_wal_file_name(directory))
        assert (records, warning) == ([], None)
        recovered = ShardedSeda.load(directory)
        assert _sharded_answers(recovered) == _sharded_answers(system)

    def test_batch_without_base_raises(self, tmp_path):
        directory = str(tmp_path / "s.shards")
        ShardedSeda.from_documents(DOCS, shards=2, parallel=False).save(
            directory
        )
        log = WriteAheadLog(sharded_wal_file_name(directory))
        log.append({"op": "add_documents",
                    "documents": [list(BATCH[0])]})
        log.close()
        with pytest.raises(WALError, match="no integer 'base'"):
            ShardedSeda.load(directory)

    def test_replay_matches_unsharded_answers(self, tmp_path):
        directory = str(tmp_path / "s.shards")
        system = ShardedSeda.from_documents(DOCS, shards=2, parallel=False)
        system.save(directory)
        system.add_documents(BATCH)
        plain = Seda.from_documents(DOCS + BATCH)
        recovered = ShardedSeda.load(directory)
        for pairs in QUERIES:
            assert _canon(recovered.search(pairs, k=10)) == _canon(
                plain.topk.search(Query.parse(pairs), k=10)
            )


class TestOlderSnapshotBesideNewerLog:
    """Restoring an older snapshot beside a newer log leaves a gap: the
    batches acknowledged between the two saves are in neither.  Load
    refuses to replay across it and fsck reports it."""

    def _assert_gap_refused(self, location):
        report = fsck_report(location)
        assert not report["ok"]
        assert any("base 4" in problem and "holds 3 documents" in problem
                   for problem in report["problems"])
        return pytest.raises(WALError, match="base 4 follows the "
                             "restored 3 documents")

    def test_seda(self, tmp_path):
        path = str(tmp_path / "s.snapshot")
        pair = [path, sidecar_file_name(path)]
        system = Seda.from_documents(DOCS)
        system.save(path)
        older = [open(name, "rb").read() for name in pair]
        system.add_documents([("d1", "<r><a>one</a></r>")])
        system.save(path)
        system.add_documents([("d2", "<r><a>two</a></r>")])
        system.close()
        for name, blob in zip(pair, older):
            with open(name, "wb") as handle:
                handle.write(blob)
        with self._assert_gap_refused(path):
            Seda.load(path)

    def test_sharded(self, tmp_path):
        directory = tmp_path / "s.shards"
        system = ShardedSeda.from_documents(DOCS, shards=2, parallel=False)
        system.save(str(directory))
        older = tmp_path / "older"
        shutil.copytree(directory, older)
        system.add_documents([("d1", "<r><a>one</a></r>")])
        system.save(str(directory))
        system.add_documents([("d2", "<r><a>two</a></r>")])
        system.close()
        for name in os.listdir(older):
            if name != "wal.log":
                shutil.copy(older / name, directory / name)
        with self._assert_gap_refused(str(directory)):
            ShardedSeda.load(str(directory))


class TestEmptyBatchRejected:
    """A batch without documents would leave the log position
    (``base``) where it was, so replay could not tell it was absorbed;
    both systems reject it before anything is logged."""

    SPEC = ValueLinkSpec("/r/a", "/r/c", label="empty-batch")

    def _assert_rejected(self, system, log_path):
        system.add_documents(BATCH)
        with open(log_path, "rb") as handle:
            before = handle.read()
        with pytest.raises(ValueError, match="at least one document"):
            system.add_documents([], value_links=[self.SPEC])
        with open(log_path, "rb") as handle:
            assert handle.read() == before
        assert len(replay_wal(log_path)[0]) == 1
        assert self.SPEC not in system.value_links

    def test_seda(self, tmp_path):
        path = str(tmp_path / "s.snapshot")
        system = Seda.from_documents(DOCS)
        system.save(path)
        self._assert_rejected(system, wal_file_name(path))

    def test_sharded(self, tmp_path):
        directory = str(tmp_path / "s.shards")
        system = ShardedSeda.from_documents(DOCS, shards=2, parallel=False)
        system.save(directory)
        self._assert_rejected(system, sharded_wal_file_name(directory))


class TestMalformedBatchRejected:
    """Every document of a batch parses before anything is logged or
    applied: one malformed document rejects the batch whole, so the log
    never holds a record replay cannot apply and the home still loads."""

    MALFORMED = [("echo", "<r><x>ok</x></r>"), ("foxtrot", "<r><x>broken")]

    def _assert_rejected(self, system, log_path, documents, answers,
                         reload):
        system.add_documents(BATCH)
        size = os.path.getsize(log_path)
        count = documents(system)
        expected = answers(system)
        with pytest.raises(ValueError, match="unclosed element"):
            system.add_documents(self.MALFORMED)
        assert os.path.getsize(log_path) == size
        assert documents(system) == count
        assert answers(system) == expected
        assert answers(reload()) == expected

    def test_seda(self, tmp_path):
        path = str(tmp_path / "s.snapshot")
        system = Seda.from_documents(DOCS)
        system.save(path)
        self._assert_rejected(
            system, wal_file_name(path),
            lambda s: len(s.collection.documents), _seda_answers,
            lambda: Seda.load(path),
        )

    def test_sharded(self, tmp_path):
        directory = str(tmp_path / "s.shards")
        system = ShardedSeda.from_documents(
            DOCS, shards=2, parallel=False, partitioner="round-robin"
        )
        system.save(directory)
        self._assert_rejected(
            system, sharded_wal_file_name(directory),
            lambda s: (s.document_count, [
                len(shard.collection.documents) for shard in s.shards
            ]),
            _sharded_answers,
            lambda: ShardedSeda.load(directory),
        )


QUERY_1 = [
    ("*", '"United States"'),
    ("trade_country", "*"),
    ("percentage", "*"),
]


def _topk_bytes(results):
    return json.dumps([
        [list(r.node_ids), list(r.content_scores), r.compactness, r.score]
        for r in results
    ]).encode("utf-8")


@pytest.fixture(scope="module")
def factbook():
    """The Factbook as serialized documents: an initial build and three
    post-save batches."""
    documents = [
        (name, serialize(root))
        for name, root in FactbookGenerator(scale=0.05).documents()
    ]
    split = int(len(documents) * 0.8)
    initial, tail = documents[:split], documents[split:]
    return initial, [tail[i::3] for i in range(3)]


class TestFactbookReplay:
    """Recovery from snapshot + log replay answers byte-identical to the
    live system that never crashed, on a corpus with value links."""

    def test_wal_replay_is_byte_identical(self, factbook, tmp_path):
        initial, batches = factbook
        path = str(tmp_path / "factbook.snapshot")
        live = Seda.from_documents(
            initial, value_links=FactbookGenerator.value_link_specs(),
            name="world-factbook",
        )
        live.save(path)
        for batch in batches:
            live.add_documents(batch)
        assert len(replay_wal(wal_file_name(path))[0]) == len(batches)
        recovered = Seda.load(path)
        assert _topk_bytes(recovered.search(QUERY_1, k=10).results) == (
            _topk_bytes(live.search(QUERY_1, k=10).results)
        )

    def test_sharded_wal_replay_is_byte_identical(self, factbook, tmp_path):
        initial, batches = factbook
        directory = str(tmp_path / "factbook.shards")
        live = ShardedSeda.from_documents(
            initial, shards=2, parallel=False,
            value_links=FactbookGenerator.value_link_specs(),
            name="world-factbook",
        )
        live.save(directory)
        for batch in batches:
            live.add_documents(batch)
        assert len(replay_wal(sharded_wal_file_name(directory))[0]) == (
            len(batches)
        )
        recovered = ShardedSeda.load(directory)
        assert _topk_bytes(recovered.search(QUERY_1, k=10)) == (
            _topk_bytes(live.search(QUERY_1, k=10))
        )
