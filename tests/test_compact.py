"""The compact layer: interning, byte-column codecs, trie, sidecars.

Unit coverage for ``repro.compact`` plus the properties the rest of the
system leans on: every codec is a lossless inverse pair, the trie is an
exact bijection between path strings and small int ids, and the lazy
column decode in :class:`~repro.index.inverted.InvertedIndex` stays
race-free under concurrent lock-free readers (the S3 surface).
"""

import json
import struct
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, strategies as st

from repro.compact import (
    PathTrie,
    Sidecar,
    StringTable,
    decode_postings,
    decode_sorted_ids,
    decode_stream,
    encode_postings,
    encode_sorted_ids,
    encode_stream,
    posting_count,
    publish_shared_memory,
)
from repro.datasets.factbook import FactbookGenerator
from repro.index.inverted import InvertedIndex
from repro.index.path_index import PathIndex
from repro.shard import ShardedSeda, publish_shared_payload
from repro.text.analyzer import Analyzer


class TestStringTable:
    def test_intern_is_idempotent_and_dense(self):
        table = StringTable()
        assert table.intern("country") == 0
        assert table.intern("economy") == 1
        assert table.intern("country") == 0
        assert table[1] == "economy"
        assert len(table) == 2

    def test_id_of_unknown_is_none(self):
        table = StringTable()
        table.intern("year")
        assert table.id_of("year") == 0
        assert table.id_of("month") is None

    def test_round_trip_preserves_ids(self):
        table = StringTable()
        for label in ("a", "b", "c"):
            table.intern(label)
        restored = StringTable.from_list(table.to_list())
        assert restored.to_list() == ["a", "b", "c"]
        assert restored.id_of("b") == table.id_of("b")


class TestPostingColumns:
    ENTRIES = [(3, [0, 2, 9]), (7, [1]), (400, [5, 6, 7]), (401, [])]

    def test_round_trip(self):
        blob = encode_postings(self.ENTRIES)
        assert decode_postings(blob) == self.ENTRIES

    def test_df_reads_one_varint(self):
        blob = encode_postings(self.ENTRIES)
        assert posting_count(blob) == len(self.ENTRIES)
        # Truncating everything after the count must not break the df
        # probe -- it never reads past the first varint.
        assert posting_count(blob[:1]) == len(self.ENTRIES)

    def test_unsorted_node_ids_rejected(self):
        with pytest.raises(ValueError):
            encode_postings([(5, [0]), (3, [0])])

    def test_unsorted_positions_rejected(self):
        with pytest.raises(ValueError):
            encode_postings([(1, [4, 2])])

    def test_decodes_from_memoryview(self):
        blob = encode_postings(self.ENTRIES)
        assert decode_postings(memoryview(blob)) == self.ENTRIES


class TestSortedIdColumns:
    def test_round_trip(self):
        ids = [0, 1, 5, 5, 130, 4096]
        assert decode_sorted_ids(encode_sorted_ids(ids)) == ids

    def test_empty(self):
        assert decode_sorted_ids(encode_sorted_ids([])) == []

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            encode_sorted_ids([2, 1])


class TestStreamColumns:
    def test_round_trip_preserves_score_order_ids(self):
        scores = [0.9, 0.5, 0.5, 0.1]
        node_ids = [42, 7, 300, 11]  # score order, not id order
        decoded_scores, decoded_ids = decode_stream(
            encode_stream(scores, node_ids)
        )
        assert list(decoded_scores) == scores
        assert list(decoded_ids) == node_ids

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            encode_stream([1.0], [1, 2])

    def test_decodes_from_memoryview(self):
        blob = encode_stream([0.25], [9])
        scores, ids = decode_stream(memoryview(blob))
        assert list(scores) == [0.25] and list(ids) == [9]


class TestPathTrie:
    def test_insert_find_render_round_trip(self):
        trie = PathTrie()
        paths = ["/country", "/country/economy", "/country/economy/GDP"]
        ids = [trie.insert(path) for path in paths]
        assert [trie.render(node) for node in ids] == paths
        assert [trie.find(path) for path in paths] == ids
        assert trie.find("/country/year") is None

    def test_prefixes_are_not_terminal(self):
        trie = PathTrie()
        trie.insert("/a/b/c")
        assert trie.find("/a/b") is None  # interior node, never inserted
        trie.insert("/a/b")
        assert trie.find("/a/b") is not None

    def test_shared_prefixes_share_nodes(self):
        trie = PathTrie()
        trie.insert("/country/economy/GDP")
        before = trie.node_count
        trie.insert("/country/economy/year")
        # Only the one new leaf; the three prefix nodes are shared.
        assert trie.node_count == before + 1

    def test_insert_is_idempotent(self):
        trie = PathTrie()
        assert trie.insert("/x/y") == trie.insert("/x/y")
        assert len(trie) == 1

    def test_paths_and_terminal_ids(self):
        trie = PathTrie()
        inserted = {"/b", "/a", "/a/c"}
        ids = {trie.insert(path) for path in inserted}
        assert set(trie.paths()) == inserted
        assert trie.terminal_ids() == ids
        assert len(trie) == 3
        assert "/a" in trie and "/z" not in trie

    def test_shared_label_table(self):
        labels = StringTable()
        one, two = PathTrie(labels=labels), PathTrie(labels=labels)
        one.insert("/country/year")
        two.insert("/country/name")
        assert len(labels) == 4  # "", country, year, name -- each once


class TestSidecar:
    def test_from_bytes_views(self):
        sidecar = Sidecar.from_bytes(b"abcdef")
        assert bytes(sidecar.view(2, 3)) == b"cde"
        assert len(sidecar) == 6

    def test_from_file_mmaps(self, tmp_path):
        path = tmp_path / "cols.bin"
        path.write_bytes(b"0123456789")
        sidecar = Sidecar.from_file(str(path))
        assert bytes(sidecar.view(3, 4)) == b"3456"
        sidecar.close()

    def test_from_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        sidecar = Sidecar.from_file(str(path))
        assert len(sidecar) == 0

    def test_shared_memory_round_trip(self):
        data = b"shared-column-bytes" * 10
        segment = publish_shared_memory("seda-test-compact-rt", data)
        try:
            attached = Sidecar.from_shared_memory("seda-test-compact-rt")
            # The segment may round up to a page; the logical window
            # must still read back exactly.
            assert len(attached) >= len(data)
            assert bytes(attached.view(0, len(data))) == data
            attached.close()
        finally:
            segment.close()
            segment.unlink()


# -- Hypothesis properties (S4): codecs are inverses, trie == dict ----------

_positions = st.lists(st.integers(min_value=0, max_value=500), max_size=6
                      ).map(sorted)
_posting_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10_000), _positions),
    max_size=20,
    unique_by=lambda entry: entry[0],
).map(lambda entries: sorted(entries, key=lambda entry: entry[0]))

_path_segments = st.text(
    alphabet=st.characters(blacklist_characters="/", blacklist_categories=("Cs",)),
    max_size=8,
)
_paths = st.lists(
    st.builds(lambda parts: "/" + "/".join(parts),
              st.lists(_path_segments, min_size=1, max_size=5)),
    max_size=15,
)


class TestCodecProperties:
    @given(_posting_lists)
    def test_posting_round_trip(self, entries):
        blob = encode_postings(entries)
        assert decode_postings(blob) == entries
        assert posting_count(blob) == len(entries)

    @given(st.lists(st.integers(min_value=0, max_value=10**9)).map(sorted))
    def test_sorted_ids_round_trip(self, ids):
        assert decode_sorted_ids(encode_sorted_ids(ids)) == ids

    @given(st.lists(
        st.tuples(st.floats(allow_nan=True, allow_infinity=True,
                            width=64),
                  st.integers(min_value=0, max_value=10**7)),
        max_size=20,
    ))
    def test_stream_round_trip_bit_exact(self, pairs):
        scores = [score for score, _ in pairs]
        node_ids = [node_id for _, node_id in pairs]
        decoded_scores, decoded_ids = decode_stream(
            encode_stream(scores, node_ids)
        )
        # Bit-pattern comparison so NaNs count as preserved too.
        assert (struct.pack(f"<{len(scores)}d", *decoded_scores)
                == struct.pack(f"<{len(scores)}d", *scores))
        assert list(decoded_ids) == node_ids

    @given(_paths)
    def test_trie_render_inverts_insert(self, paths):
        trie = PathTrie()
        for path in paths:
            assert trie.render(trie.insert(path)) == path

    @given(_paths, _paths)
    def test_trie_lookup_matches_set_lookup(self, inserted, probed):
        trie = PathTrie()
        for path in inserted:
            trie.insert(path)
        reference = set(inserted)
        assert set(trie.paths()) == reference
        for path in inserted + probed:
            assert (trie.find(path) is not None) == (path in reference)


# -- S3: lazy column decode under concurrent lock-free readers ---------------

def _built_indexes(collection):
    """Hot (never compacted) indexes over ``collection``: the object
    layout the compact columns must read back exactly."""
    inverted = InvertedIndex(Analyzer())
    paths = PathIndex(inverted.analyzer)
    for document in collection.documents:
        for node in document.nodes:
            paths.add_node(node.path, node.tag, node.direct_text)
            if node.direct_text:
                inverted.add_node(node.node_id, node.direct_text)
    return inverted, paths


class TestLazyDecodeConcurrency:
    THREADS = 8

    def _hammer(self, index, reference, terms):
        """Race THREADS readers into the cold index from one barrier;
        every observation must match the always-hot reference."""
        barrier = threading.Barrier(self.THREADS)
        failures = []

        def reader():
            barrier.wait()
            for _ in range(20):
                for term in terms:
                    postings = index.postings(term)
                    expected = reference.postings(term)
                    if postings != expected:
                        failures.append((term, postings, expected))
                    if (index.document_frequency(term)
                            != reference.document_frequency(term)):
                        failures.append(("df", term))

        threads = [threading.Thread(target=reader)
                   for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures[:3]

    def test_compacted_index_reads_match_hot_twin(self, figure2_collection):
        hot, _ = _built_indexes(figure2_collection)
        cold, _ = _built_indexes(figure2_collection)
        cold.compact()
        terms = sorted(hot.vocabulary())[:12]
        self._hammer(cold, hot, terms)
        stats = cold.estimated_memory()
        assert stats["materialized_terms"] > 0  # decodes actually ran

    def test_sidecar_loaded_index_reads_match_hot_twin(
        self, figure2_collection, tmp_path
    ):
        from repro.storage.snapshot import (
            SIDECAR_KEY, read_snapshot, write_snapshot,
        )

        hot, _ = _built_indexes(figure2_collection)
        analyzer = Analyzer()
        # A full snapshot needs every component; wrap just the index
        # payload in a minimal sidecar pair instead.
        cold_source, _ = _built_indexes(figure2_collection)
        cold_source.compact()
        payload = cold_source.to_dict()
        path = tmp_path / "inverted.snapshot"
        write_snapshot(str(path), {"collection": "t"}, {
            "collection": {"name": "t", "documents": []},
            "graph": {"version": 0, "edges": []},
            "inverted": payload,
            "path_index": {"all_paths": [], "columns_inline": {}},
            "node_store": {"nodes": {}},
            "dataguides": {"threshold": 0.4, "guides": [], "links": []},
            "registry": {"definitions": []},
            "streams": {"streams": [], "columns_inline": {}},
        })
        _meta, records = read_snapshot(str(path))
        cold = InvertedIndex.from_dict(
            records["inverted"], analyzer,
            sidecar=records.get(SIDECAR_KEY),
        )
        terms = sorted(hot.vocabulary())[:12]
        self._hammer(cold, hot, terms)

    def test_path_index_probes_match_after_compact(self, figure2_collection):
        _, hot = _built_indexes(figure2_collection)
        _, cold = _built_indexes(figure2_collection)
        cold.compact()
        barrier = threading.Barrier(self.THREADS)
        failures = []

        def reader():
            barrier.wait()
            for term in sorted(hot.vocabulary())[:8]:
                if cold.paths_for_term(term) != hot.paths_for_term(term):
                    failures.append(term)
            for tag in sorted(hot.tags())[:8]:
                if cold.paths_for_tag(tag) != hot.paths_for_tag(tag):
                    failures.append(tag)

        threads = [threading.Thread(target=reader)
                   for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures[:3]


class TestEstimatedMemory:
    def test_inverted_reports_columns_after_compact(self, figure2_collection):
        inverted, paths = _built_indexes(figure2_collection)
        before = inverted.estimated_memory()
        assert before["column_terms"] == 0
        inverted.compact()
        after = inverted.estimated_memory()
        assert after["column_terms"] == after["terms"] > 0
        assert after["column_bytes"] > 0

    def test_path_index_reports_trie(self, figure2_collection):
        _, paths = _built_indexes(figure2_collection)
        paths.compact()
        stats = paths.estimated_memory()
        assert stats["paths"] == len(paths) > 0
        assert stats["trie_nodes"] >= stats["paths"]
        assert stats["column_bytes"] > 0


# -- shared-memory payload across worker processes ------------------------

#: Query 1 variant whose match-all terms tie on score (deterministic
#: tie-breaking has to survive the process boundary too).
SHARED_QUERY = [("trade_country", "*"), ("percentage", "*")]
K = 10


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


def _attach_and_search(args):
    """Worker-process leg: attach the shared payload, answer a query.

    Returns the sidecar sources every shard actually reads from (the
    proof the columns came out of the published segments, not private
    file maps) plus the canonical answer bytes.
    """
    directory, pairs, k = args
    sharded = ShardedSeda.load(directory, shared_payload=True)
    sources = sorted(
        slot.get().inverted._sidecar.source for slot in sharded._slots
    )
    return sources, _canonical(sharded.search(pairs, k=k))


def test_sharded_workers_share_one_payload(tmp_path):
    """N loaders attach the same segments and answer byte-identically."""
    pairs = list(FactbookGenerator(scale=0.05).documents())
    sharded = ShardedSeda.from_documents(pairs, shards=2, parallel=False)
    directory = str(tmp_path / "mem.shards")
    sharded.save(directory)

    expected = _canonical(sharded.search(SHARED_QUERY, k=K))

    payload = publish_shared_payload(directory)
    try:
        with ProcessPoolExecutor(max_workers=2) as pool:
            reports = list(pool.map(
                _attach_and_search,
                [(directory, SHARED_QUERY, K)] * 2,
            ))
    finally:
        payload.unlink()

    sources = [report[0] for report in reports]
    assert all(
        source.startswith("shm:") for report in sources for source in report
    ), f"a worker fell back to file-backed sidecars: {sources}"
    assert sources[0] == sources[1], (
        f"workers attached different segments: {sources}"
    )
    published = {f"shm:{name}" for name in payload.segment_names.values()}
    assert set(sources[0]) == published
    assert all(report[1] == expected for report in reports), (
        "a shared-payload worker answered differently from the live system"
    )
