"""Whole-system snapshots: per-component round-trips, ``Seda.save`` /
``Seda.load`` equivalence, version gating, and incremental ingestion."""

import json
import os
import zlib

import pytest

from repro.cube.registry import Registry
from repro.datasets.factbook import FactbookGenerator
from repro.index.builder import IndexBuilder
from repro.index.inverted import InvertedIndex
from repro.index.path_index import PathIndex
from repro.model.collection import DocumentCollection
from repro.model.graph import DataGraph, EdgeKind
from repro.model.links import ValueLinkSpec
from repro.storage.snapshot import (
    SHARDED_VERSION,
    SNAPSHOT_VERSION,
    SnapshotError,
    read_snapshot,
    sidecar_file_name,
    snapshot_info,
)
from repro.summaries.dataguide import DataguideSet
from repro.system import Seda
from repro.text import Analyzer

TC_PATH = "/country/economy/import_partners/item/trade_country"
PCT_PATH = "/country/economy/import_partners/item/percentage"

QUERY_1 = [
    ("*", '"United States"'),
    ("trade_country", "*"),
    ("percentage", "*"),
]


@pytest.fixture(scope="module")
def seda():
    generator = FactbookGenerator(scale=0.02)
    system = Seda(
        generator.build_collection(),
        value_links=FactbookGenerator.value_link_specs(),
    )
    FactbookGenerator.register_standard_definitions(system.registry)
    return system


@pytest.fixture(scope="module")
def loaded(seda, tmp_path_factory):
    path = tmp_path_factory.mktemp("snapshot") / "factbook.snapshot"
    seda.save(path)
    return Seda.load(path)


def _topk_bytes(system, k=10):
    results = system.search(QUERY_1, k=k).results
    return json.dumps([
        [list(r.node_ids), list(r.content_scores), r.compactness, r.score]
        for r in results
    ]).encode("utf-8")


class TestComponentRoundTrips:
    def test_collection(self, seda):
        restored = DocumentCollection.from_dict(seda.collection.to_dict())
        original = seda.collection
        assert restored.name == original.name
        assert len(restored) == len(original)
        assert restored.node_count == original.node_count
        assert restored.paths() == original.paths()
        for node_id in range(original.node_count):
            mine, theirs = original.node(node_id), restored.node(node_id)
            assert mine.tag == theirs.tag
            assert mine.path == theirs.path
            assert mine.dewey == theirs.dewey
            assert mine.kind == theirs.kind
            assert mine.parent_id == theirs.parent_id
            assert mine.child_ids == theirs.child_ids
            assert mine.direct_text == theirs.direct_text

    def test_collection_path_stats(self, seda):
        restored = DocumentCollection.from_dict(seda.collection.to_dict())
        for path in seda.collection.paths():
            assert restored.path_occurrences(path) == (
                seda.collection.path_occurrences(path)
            )
            assert restored.path_document_frequency(path) == (
                seda.collection.path_document_frequency(path)
            )

    def test_collection_node_at(self, seda):
        restored = DocumentCollection.from_dict(seda.collection.to_dict())
        node = seda.collection.documents[0].nodes[-1]
        assert restored.node_by_ref(0, node.dewey).tag == node.tag

    def test_graph(self, seda):
        restored = DataGraph.from_dict(seda.graph.to_dict(), seda.collection)
        assert restored.edges == seda.graph.edges
        sample = seda.graph.edges[0]
        assert restored.out_edges(sample.source_id) == (
            seda.graph.out_edges(sample.source_id)
        )
        assert restored.in_edges(sample.target_id) == (
            seda.graph.in_edges(sample.target_id)
        )

    def test_inverted_index(self, seda):
        restored = InvertedIndex.from_dict(
            seda.inverted.to_dict(), seda.analyzer
        )
        assert restored.indexed_nodes == seda.inverted.indexed_nodes
        assert restored.vocabulary() == seda.inverted.vocabulary()
        for term in seda.inverted.vocabulary():
            assert restored.postings(term) == seda.inverted.postings(term)
            assert restored.document_frequency(term) == (
                seda.inverted.document_frequency(term)
            )

    def test_inverted_index_resave_keeps_raw_terms(self, seda):
        """Terms never decoded (still raw column bytes) survive a
        re-save byte for byte beside a materialized one."""
        payload = seda.inverted.to_dict()
        restored = InvertedIndex.from_dict(payload, seda.analyzer)
        restored.postings("united")  # materialize one term only
        resaved = restored.to_dict()
        for term in ("china", "mexico"):
            assert resaved["columns_inline"][term] == (
                payload["columns_inline"][term]
            )
        again = InvertedIndex.from_dict(resaved, seda.analyzer)
        assert again.vocabulary() == seda.inverted.vocabulary()
        for term in ("united", "china", "mexico"):
            assert again.postings(term) == seda.inverted.postings(term)

    def test_path_index(self, seda):
        restored = PathIndex.from_dict(
            seda.path_index.to_dict(), seda.analyzer
        )
        assert restored.all_paths() == seda.path_index.all_paths()
        assert restored.tags() == seda.path_index.tags()
        assert restored.vocabulary() == seda.path_index.vocabulary()
        for term in seda.path_index.vocabulary():
            assert restored.paths_for_term(term) == (
                seda.path_index.paths_for_term(term)
            )
        for tag in seda.path_index.tags():
            assert restored.paths_for_tag(tag) == (
                seda.path_index.paths_for_tag(tag)
            )
        assert restored.paths_for_tag("trade*") == (
            seda.path_index.paths_for_tag("trade*")
        )
        assert restored.paths_for_path(TC_PATH) == (
            seda.path_index.paths_for_path(TC_PATH)
        )

    def test_node_store(self, seda, loaded):
        # Not a snapshot record: the loaded collection refills its node
        # table as it restores each document and must answer exactly as
        # the built one.
        restored, built = loaded.collection, seda.collection
        assert restored.tags() == built.tags()
        assert restored.paths() == built.paths()
        for tag in built.tags():
            assert restored.by_tag(tag) == built.by_tag(tag)
        for path in built.paths():
            assert restored.by_path(path) == built.by_path(path)
        root = built.document(0).root
        assert restored.descendants_in_path(root.node_id, TC_PATH) == (
            built.descendants_in_path(root.node_id, TC_PATH)
        )

    def test_dataguides(self, seda):
        restored = DataguideSet.from_dict(seda.dataguides.to_dict())
        assert restored.threshold == seda.dataguides.threshold
        assert len(restored) == len(seda.dataguides)
        for mine, theirs in zip(seda.dataguides, restored):
            assert mine.guide_id == theirs.guide_id
            assert mine.paths == theirs.paths
            assert mine.document_ids == theirs.document_ids
            assert set(mine.source_path_sets) == set(theirs.source_path_sets)
        assert len(restored.links) == len(seda.dataguides.links)
        mine = {
            (sg.guide_id, sp, tg.guide_id, tp, kind, label)
            for sg, sp, tg, tp, kind, label in seda.dataguides.links
        }
        theirs = {
            (sg.guide_id, sp, tg.guide_id, tp, kind, label)
            for sg, sp, tg, tp, kind, label in restored.links
        }
        assert mine == theirs
        assert restored.false_positive_pairs() == (
            seda.dataguides.false_positive_pairs()
        )

    def test_registry(self, seda):
        restored = Registry.from_dict(seda.registry.to_dict())
        for definition in seda.registry.facts:
            twin = restored.fact(definition.name)
            assert twin.contexts == definition.contexts
            assert twin.context_list == definition.context_list
        for definition in seda.registry.dimensions:
            twin = restored.dimension(definition.name)
            assert twin.contexts == definition.contexts
            assert twin.context_list == definition.context_list

    def test_analyzer(self):
        analyzer = Analyzer(lowercase=False, remove_stopwords=True, stem=True)
        restored = Analyzer.from_dict(analyzer.to_dict())
        text = "The Quick Brown Foxes Jumped"
        assert restored.terms(text) == analyzer.terms(text)

    def test_analyzer_custom_stopwords(self):
        analyzer = Analyzer(remove_stopwords=True,
                            stopwords=frozenset({"qqq"}))
        restored = Analyzer.from_dict(analyzer.to_dict())
        assert restored.terms("qqq zzz") == ["zzz"]

    def test_value_link_spec(self):
        spec = ValueLinkSpec("/a/b", "/c/d", label="x")
        restored = ValueLinkSpec.from_dict(spec.to_dict())
        assert restored.primary_path == spec.primary_path
        assert restored.foreign_path == spec.foreign_path
        assert restored.label == spec.label


class TestSystemSnapshot:
    def test_topk_identical(self, seda, loaded):
        assert _topk_bytes(loaded) == _topk_bytes(seda)

    def test_context_summary_identical(self, seda, loaded):
        mine = seda.search(QUERY_1).context_summary
        theirs = loaded.search(QUERY_1).context_summary
        assert len(mine) == len(theirs)
        for index in range(len(mine)):
            assert list(mine.bucket(index)) == list(theirs.bucket(index))

    def test_connection_summary_identical(self, seda, loaded):
        mine = seda.search(QUERY_1).connection_summary
        theirs = loaded.search(QUERY_1).connection_summary
        assert {
            (pair, connection.describe(), support)
            for pair, connection, support in mine.all_connections()
        } == {
            (pair, connection.describe(), support)
            for pair, connection, support in theirs.all_connections()
        }

    def test_figure6_flow_on_loaded_system(self, loaded):
        from repro.summaries.connection import TreeConnection

        item = "/country/economy/import_partners/item"
        session = loaded.search(QUERY_1, k=10)
        refined = session.refine_contexts({
            0: ["/country"], 1: [TC_PATH], 2: [PCT_PATH],
        })
        chosen = refined.refine_connections([
            ((0, 1), TreeConnection("/country", TC_PATH, "/country")),
            ((1, 2), TreeConnection(TC_PATH, PCT_PATH, item)),
        ])
        table = chosen.complete_results()
        assert len(table) > 0
        schema = chosen.build_cube(table)
        assert len(schema.fact("import-trade-percentage")) > 0

    def test_registry_and_config_survive(self, seda, loaded):
        assert loaded.max_hops == seda.max_hops
        assert loaded.dataguides.threshold == seda.dataguides.threshold
        assert loaded.collection.name == seda.collection.name
        assert loaded.registry.has_fact("import-trade-percentage")
        assert [spec.label for spec in loaded.value_links] == (
            [spec.label for spec in seda.value_links]
        )

    def test_snapshot_info(self, seda, tmp_path):
        path = tmp_path / "sys.snapshot"
        seda.save(path)
        info = snapshot_info(path)
        assert info["meta"]["collection"] == seda.collection.name
        assert {name for name, _size in info["records"]} == {
            "collection", "graph", "inverted", "path_index",
            "dataguides", "registry",
        }
        assert info["total_bytes"] == path.stat().st_size

    def test_save_is_atomic(self, seda, tmp_path):
        path = tmp_path / "sys.snapshot"
        seda.save(path)
        assert not (tmp_path / "sys.snapshot.tmp").exists()

    def test_graph_version_survives_round_trip(self, seda, loaded):
        assert loaded.graph.version == seda.graph.version

    def test_graph_version_persists_bumps(self, seda, tmp_path):
        """A version bumped past the edge count (e.g. by ingestion) must
        restore exactly, not re-derive from len(edges)."""
        graph = DataGraph.from_dict(seda.graph.to_dict(), seda.collection)
        graph.bump_version()
        assert graph.version == seda.graph.version + 1
        restored = DataGraph.from_dict(graph.to_dict(), seda.collection)
        assert restored.version == graph.version
        assert restored.version != len(restored.edges)

    def test_current_version_is_six(self):
        # One format each: the reader accepts exactly these versions.
        assert SNAPSHOT_VERSION == 6
        assert SHARDED_VERSION == 2

    def test_current_save_load_round_trip(self, seda, tmp_path):
        path = str(tmp_path / "current.snapshot")
        seda.save(path)
        with open(path, "r", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        assert header["version"] == SNAPSHOT_VERSION == 6
        info = snapshot_info(path)
        assert info["sidecar_bytes"] == os.path.getsize(
            sidecar_file_name(path)
        ) > 0
        assert _topk_bytes(Seda.load(path)) == _topk_bytes(seda)


class TestImpactStreamsAfterLoad:
    """Impact streams are a cache, not a record: a loaded system starts
    with none and builds each on first use."""

    def test_empty_store_fills_and_serves_identically(self, seda, tmp_path):
        seda.search(QUERY_1, k=10)  # the saving system's streams are warm
        assert len(seda.streams) >= len(QUERY_1)
        path = tmp_path / "sys.snapshot"
        seda.save(path)
        loaded = Seda.load(path)
        assert len(loaded.streams) == 0
        assert _topk_bytes(loaded) == _topk_bytes(seda)
        assert len(loaded.streams) == len(QUERY_1)


class TestSnapshotErrors:
    def _tamper_header(self, path, out_path, **overrides):
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header.update(overrides)
        lines[0] = json.dumps(header)
        out_path.write_text("\n".join(lines) + "\n")

    def _resealed(self, path, out_path, edit):
        """Copy ``path`` with ``edit(header)`` applied and the integrity
        seal recomputed, so only the edit itself can be rejected."""
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        edit(header)
        lines[0] = json.dumps(header, separators=(",", ":"))
        lines[1] = json.dumps({
            "record": "integrity",
            "header_crc": zlib.crc32(lines[0].encode("utf-8")),
        }, separators=(",", ":"))
        out_path.write_text("\n".join(lines) + "\n")

    def test_version_mismatch_rejected(self, seda, tmp_path):
        """A newer and an older (version 5, which carried the node
        store and impact streams) header are both rejected, naming the
        one readable version."""
        path = tmp_path / "sys.snapshot"
        seda.save(path)
        bad = tmp_path / "bad.snapshot"
        for version in (SNAPSHOT_VERSION + 1, 5):
            self._tamper_header(path, bad, version=version)
            with pytest.raises(SnapshotError,
                               match="reads version 6 only -- rebuild"):
                Seda.load(bad)

    def test_header_without_checksums_rejected(self, seda, tmp_path):
        path = tmp_path / "sys.snapshot"
        seda.save(path)
        bad = tmp_path / "bad.snapshot"
        self._resealed(path, bad, lambda header: header.pop("crcs"))
        with pytest.raises(SnapshotError, match="no 'crcs' table"):
            Seda.load(bad)
        self._resealed(path, bad,
                       lambda header: header["sidecar"].pop("crc32"))
        with pytest.raises(SnapshotError, match="malformed sidecar"):
            Seda.load(bad)

    def test_missing_seal_rejected(self, seda, tmp_path):
        path = tmp_path / "sys.snapshot"
        seda.save(path)
        lines = path.read_text().splitlines()
        bad = tmp_path / "bad.snapshot"
        bad.write_text("\n".join(lines[:1] + lines[2:]) + "\n")
        with pytest.raises(SnapshotError, match="integrity seal"):
            Seda.load(bad)

    def test_wrong_format_rejected(self, seda, tmp_path):
        path = tmp_path / "sys.snapshot"
        seda.save(path)
        bad = tmp_path / "bad.snapshot"
        self._tamper_header(path, bad, format="other-format")
        with pytest.raises(SnapshotError, match="format"):
            Seda.load(bad)

    def test_missing_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.snapshot"
        bad.write_text('{"record": "collection", "payload": {}}\n')
        with pytest.raises(SnapshotError, match="header"):
            read_snapshot(bad)

    def test_truncated_snapshot_rejected(self, seda, tmp_path):
        path = tmp_path / "sys.snapshot"
        seda.save(path)
        lines = path.read_text().splitlines()
        bad = tmp_path / "bad.snapshot"
        bad.write_text("\n".join(lines[:3]) + "\n")
        with pytest.raises(SnapshotError, match="missing"):
            Seda.load(bad)

    def test_midline_truncation_rejected(self, seda, tmp_path):
        # A torn copy/download can cut a record mid-line, not at a
        # line boundary; that must also surface as a SnapshotError.
        path = tmp_path / "sys.snapshot"
        seda.save(path)
        bad = tmp_path / "bad.snapshot"
        bad.write_text(path.read_text()[: path.stat().st_size // 2])
        with pytest.raises(SnapshotError, match="torn record"):
            Seda.load(bad)
        with pytest.raises(SnapshotError, match="torn record"):
            snapshot_info(bad)

    def test_record_without_payload_rejected(self, seda, tmp_path):
        path = tmp_path / "sys.snapshot"
        seda.save(path)
        lines = path.read_text().splitlines()
        bad = tmp_path / "bad.snapshot"
        bad.write_text(
            "\n".join(lines) + '\n{"record": "registry"}\n'
        )
        with pytest.raises(SnapshotError, match="no payload"):
            Seda.load(bad)

    def test_unknown_record_rejected(self, seda, tmp_path):
        path = tmp_path / "sys.snapshot"
        seda.save(path)
        bad = tmp_path / "bad.snapshot"
        bad.write_text(
            path.read_text()
            + '{"record": "mystery", "payload": {}}\n'
        )
        with pytest.raises(SnapshotError, match="unknown record"):
            Seda.load(bad)

    def test_empty_file_rejected(self, tmp_path):
        bad = tmp_path / "empty.snapshot"
        bad.write_text("")
        with pytest.raises(SnapshotError, match="empty"):
            read_snapshot(bad)


class TestIncrementalAddDocuments:
    DOCS_A = [
        ("usa", """<country>United States
            <economy><import_partners>
              <item><trade_country>China</trade_country>
                    <percentage>15</percentage></item>
            </import_partners></economy></country>"""),
        ("mexico", """<country>Mexico
            <economy><import_partners>
              <item><trade_country>United States</trade_country>
                    <percentage>70.6</percentage></item>
            </import_partners></economy></country>"""),
    ]
    DOCS_B = [
        ("canada", """<country>Canada
            <economy><import_partners>
              <item><trade_country>United States</trade_country>
                    <percentage>54</percentage></item>
            </import_partners></economy></country>"""),
    ]
    SPECS = (
        ValueLinkSpec(
            "/country",
            "/country/economy/import_partners/item/trade_country",
            label="trade partner",
        ),
    )

    def _full(self):
        return Seda.from_documents(
            self.DOCS_A + self.DOCS_B, value_links=self.SPECS
        )

    def _incremental(self):
        seda = Seda.from_documents(self.DOCS_A, value_links=self.SPECS)
        seda.add_documents(self.DOCS_B)
        return seda

    def test_matches_full_rebuild(self):
        full, incremental = self._full(), self._incremental()
        query = [("trade_country", '"United States"'), ("percentage", "*")]
        mine = [
            (r.node_ids, r.score) for r in full.search(query).results
        ]
        theirs = [
            (r.node_ids, r.score) for r in incremental.search(query).results
        ]
        assert mine == theirs
        assert len(full.graph.edges) == len(incremental.graph.edges)
        assert full.collection.paths() == incremental.collection.paths()

    def test_no_duplicate_edges(self):
        incremental = self._incremental()
        assert len(set(incremental.graph.edges)) == (
            len(incremental.graph.edges)
        )

    def test_search_finds_new_document(self):
        seda = Seda.from_documents(self.DOCS_A, value_links=self.SPECS)
        assert not seda.search([("*", "canada")]).results
        seda.add_documents(self.DOCS_B)
        results = seda.search([("*", "canada")]).results
        assert results
        node = seda.collection.node(results[0].node_ids[0])
        assert node.doc_id == 2

    def test_dataguides_extended(self):
        seda = Seda.from_documents(self.DOCS_A, value_links=self.SPECS)
        before = len(seda.dataguides)
        seda.add_documents([("weird", "<thing><part>bolt</part></thing>")])
        assert len(seda.dataguides) == before + 1
        assert seda.dataguides.guide_for_document(2) is not None

    def test_add_documents_after_load(self, tmp_path):
        seda = Seda.from_documents(self.DOCS_A, value_links=self.SPECS)
        path = tmp_path / "sys.snapshot"
        seda.save(path)
        loaded = Seda.load(path)
        loaded.add_documents(self.DOCS_B)
        full = self._full()
        query = [("trade_country", '"United States"'), ("percentage", "*")]
        assert [
            (r.node_ids, r.score) for r in loaded.search(query).results
        ] == [
            (r.node_ids, r.score) for r in full.search(query).results
        ]
        assert len(loaded.graph.edges) == len(full.graph.edges)

    def test_reachability_cache_invalidated(self):
        seda = Seda.from_documents(self.DOCS_A, value_links=self.SPECS)
        query = [("trade_country", '"United States"'), ("percentage", "*")]
        seda.search(query)
        cached = seda.scoring.document_reachability()
        seda.search(query)
        # Reused between searches ...
        assert seda.scoring.document_reachability() is cached
        seda.add_documents(self.DOCS_B)
        seda.search(query)
        # ... and invalidated by new edges.
        assert seda.scoring.document_reachability() is not cached


class TestJsonBackends:
    """The reader and writer pick orjson when it is installed and stdlib
    ``json`` otherwise; a snapshot written by either loads with the
    other and answers identically, non-ASCII text included."""

    UNICODE_DOC = (
        "unicode",
        "<country><name>Zürich — 日本</name>"
        "<note>café «naïve» Zürich</note></country>",
    )
    QUERIES = [
        QUERY_1,
        [("*", "zürich")],
        [("*", "café"), ("name", "*")],
    ]

    @pytest.fixture(scope="class")
    def system(self):
        documents = list(FactbookGenerator(scale=0.01).documents())
        return Seda.from_documents(documents + [self.UNICODE_DOC])

    @pytest.mark.parametrize("writer, reader", [
        ("orjson", "json"), ("json", "orjson"),
    ])
    def test_backends_read_each_other(self, system, tmp_path, monkeypatch,
                                      writer, reader):
        from repro.query.term import Query
        from repro.storage import snapshot

        backends = {"orjson": pytest.importorskip("orjson"), "json": None}
        path = tmp_path / "backend.snapshot"
        monkeypatch.setattr(snapshot, "_fastjson", backends[writer])
        system.save(path)
        # orjson writes UTF-8, stdlib json ASCII escapes: the file shows
        # which backend wrote it.
        raw = "Zürich".encode() in path.read_bytes()
        assert raw == (writer == "orjson")
        monkeypatch.setattr(snapshot, "_fastjson", backends[reader])
        restored = Seda.load(path)
        for pairs in self.QUERIES:
            query = Query.parse(pairs)
            expected = system.topk.search(query, k=10)
            assert expected
            assert [
                (r.node_ids, r.content_scores, r.compactness, r.score)
                for r in restored.topk.search(query, k=10)
            ] == [
                (r.node_ids, r.content_scores, r.compactness, r.score)
                for r in expected
            ]
        document = restored.collection.documents[-1]
        assert [node.direct_text for node in document.nodes] == [
            node.direct_text
            for node in system.collection.documents[-1].nodes
        ]
