"""Failure injection and degenerate inputs across the stack."""

import pytest

from repro.model.collection import DocumentCollection
from repro.query.term import Query
from repro.system import Seda, SedaSession


class TestDegenerateCollections:
    def test_empty_collection_searchable(self):
        seda = Seda(DocumentCollection())
        session = seda.search([("*", "anything")], k=5)
        assert session.results == []
        assert all(len(bucket) == 0 for bucket in session.context_summary)
        assert len(session.connection_summary) == 0

    def test_single_empty_element(self):
        seda = Seda.from_documents(["<a/>"])
        session = seda.search([("*", "x")], k=5)
        assert session.results == []

    def test_text_only_document(self):
        seda = Seda.from_documents(["<a>just text here</a>"])
        session = seda.search([("*", "text")], k=5)
        assert len(session.results) == 1

    def test_deeply_nested_document(self):
        xml = "<a>" * 120 + "needle" + "</a>" * 120
        seda = Seda.from_documents([xml])
        session = seda.search([("*", "needle")], k=1)
        assert len(session.results) == 1
        node = seda.collection.node(session.results[0].node_ids[0])
        assert node.dewey.depth == 120

    def test_wide_document(self):
        children = "".join(f"<c>v{i}</c>" for i in range(500))
        seda = Seda.from_documents([f"<r>{children}</r>"])
        session = seda.search([("c", "v499")], k=1)
        assert len(session.results) == 1

    def test_duplicate_documents(self):
        xml = "<a><b>same</b></a>"
        seda = Seda.from_documents([xml, xml, xml])
        session = seda.search([("b", "same")], k=10)
        assert len(session.results) == 3

    def test_unicode_content(self):
        seda = Seda.from_documents(["<país><nombre>México</nombre></país>"])
        session = seda.search([("nombre", "méxico")], k=1)
        assert len(session.results) == 1


class TestSearchEdgeCases:
    @pytest.fixture
    def seda(self):
        return Seda.from_documents([
            "<a><x>red</x><y>blue</y></a>",
            "<a><x>red</x></a>",
        ])

    def test_k_zero(self, seda):
        assert seda.search([("*", "red")], k=0).results == []

    def test_k_larger_than_matches(self, seda):
        assert len(seda.search([("*", "red")], k=100).results) == 2

    def test_no_match_term_empties_everything(self, seda):
        session = seda.search([("*", "red"), ("*", "zzzz")], k=5)
        assert session.results == []

    def test_context_without_matches(self, seda):
        session = seda.search([("nonexistent_tag", "*")], k=5)
        assert session.results == []

    def test_refine_with_empty_selection_keeps_query(self, seda):
        session = seda.search([("*", "red")], k=5)
        refined = session.refine_contexts({})
        assert [r.node_ids for r in refined.results] == [
            r.node_ids for r in session.results
        ]

    def test_refine_connections_with_empty_list(self, seda):
        session = seda.search([("x", "red"), ("y", "blue")], k=5)
        assert isinstance(session.refine_connections([]), SedaSession)

    def test_query_object_accepted(self, seda):
        query = Query.parse([("x", "red")])
        assert seda.search(query, k=5).results


class TestCompleteResultEdgeCases:
    def test_no_candidates_empty_table(self, small_factbook_seda):
        session = small_factbook_seda.search([("year", "1066")], k=5)
        table = session.complete_results(
            term_paths={0: "/country/year"}
        )
        assert len(table) == 0
        assert table.display_rows() == []

    def test_cube_from_empty_table(self, small_factbook_seda):
        session = small_factbook_seda.search([("year", "1066")], k=5)
        table = session.complete_results(term_paths={0: "/country/year"})
        schema = session.build_cube(table)
        assert schema.fact_tables == {} or all(
            len(t) == 0 for t in schema.fact_tables.values()
        )

    def test_unknown_term_path_empty(self, small_factbook_seda):
        session = small_factbook_seda.search([("year", "*")], k=5)
        table = session.complete_results(term_paths={0: "/never/this"})
        assert len(table) == 0


class TestCubeEdgeCases:
    def test_unmatched_columns_ignored(self, small_factbook_seda):
        """Columns that match nothing are simply left out of the cube
        (Section 7: 'we simply ignore it while creating the cube')."""
        session = small_factbook_seda.search(
            [("location", "*")], k=5
        )
        table = session.complete_results(
            term_paths={0: "/country/geography/location"}
        )
        schema = session.build_cube(table)
        assert schema.fact_tables == {}

    def test_non_numeric_measures_kept_raw(self):
        from repro.cube.star import FactTable
        from repro.olap.cube import Cube

        table = FactTable("f", ["k"], ["f"], [("a", "not-a-number")])
        cube = Cube.from_fact_table(table)
        assert cube.aggregate("count") == 0
        assert cube.aggregate("sum") is None


class TestDataguideEdgeCases:
    def test_single_path_documents(self):
        from repro.summaries.dataguide import DataguideBuilder

        builder = DataguideBuilder(0.4)
        for doc_id in range(5):
            builder.add_paths({"/only"}, doc_id)
        assert builder.guide_count == 1

    def test_zero_threshold_merges_any_overlap(self):
        from repro.summaries.dataguide import DataguideBuilder

        builder = DataguideBuilder(0.0)
        builder.add_paths({"/a", "/a/x"}, 0)
        builder.add_paths({"/a", "/a/y"}, 1)
        assert builder.guide_count == 1

    def test_zero_threshold_disjoint_roots_stay_apart(self):
        from repro.summaries.dataguide import DataguideBuilder

        builder = DataguideBuilder(0.0)
        builder.add_paths({"/a"}, 0)
        builder.add_paths({"/b"}, 1)
        # Zero overlap means there is no "best" guide to merge into.
        assert builder.guide_count == 2


class TestKeyEdgeCases:
    def test_key_over_missing_sibling(self, small_factbook_seda):
        from repro.cube.keys import KeyResolutionError, RelativeKey

        collection = small_factbook_seda.collection
        key = RelativeKey(["../does_not_exist"])
        node_id = collection.by_path(
            "/country/economy/import_partners/item/percentage"
        )[0]
        with pytest.raises(KeyResolutionError):
            key.resolve_nodes(collection, node_id)

    def test_augmentation_records_failures(self, figure2_collection):
        from repro.cube.augment import Augmenter
        from repro.cube.registry import Registry
        from repro.query.term import Query
        from repro.twig.complete import ResultTable

        registry = Registry()
        registry.add_fact(
            "broken",
            [("/country/economy/GDP", ["/country/missing_key_path"])],
        )
        gdp_nodes = figure2_collection.by_path("/country/economy/GDP")
        query = Query.parse([("GDP", "*")])
        table = ResultTable(
            query, {0: "/country/economy/GDP"},
            [(node_id,) for node_id in gdp_nodes], figure2_collection,
        )
        augmented = Augmenter(figure2_collection, registry).augment(
            table, [registry.fact("broken")], []
        )
        assert augmented.failures
        assert all("missing_key_path" in msg for _n, _r, msg in augmented.failures)


class TestCorruptedSnapshotMatrix:
    """A corrupted byte -- snapshot or sidecar, flipped or lost --
    must surface as SnapshotError or load byte-identical answers,
    never silently wrong ones.  (A flipped line *terminator* leaves
    every payload byte intact; detection is not required there, only
    correctness.)"""

    DOCS = [
        ("alpha", "<r><a>red blue</a><b>green</b></r>"),
        ("bravo", "<r><a>blue</a><c>red red</c></r>"),
        ("charlie", "<r><b>green green</b><a>red</a></r>"),
    ]

    @pytest.fixture
    def snapshot_pair(self, tmp_path):
        import os

        path = str(tmp_path / "col.snapshot")
        Seda.from_documents(self.DOCS).save(path)
        assert os.path.exists(path + ".cols")
        return path

    @staticmethod
    def _offsets(size, samples=9):
        """Offsets spread across the file, endpoints included."""
        step = max(1, size // samples)
        return sorted({0, size - 1, *range(step // 2, size, step)})

    @staticmethod
    def _answers(system):
        return [
            (r.node_ids, r.content_scores, r.compactness, r.score)
            for r in system.search([("*", "red")], k=10).results
        ]

    @pytest.mark.parametrize("target", ["snapshot", "cols"])
    def test_single_bit_flips_are_detected(self, snapshot_pair, target):
        from repro.storage.snapshot import SnapshotError

        victim = snapshot_pair if target == "snapshot" \
            else snapshot_pair + ".cols"
        pristine = open(victim, "rb").read()
        expected = self._answers(Seda.load(snapshot_pair))
        for offset in self._offsets(len(pristine)):
            blob = bytearray(pristine)
            blob[offset] ^= 0x01
            with open(victim, "wb") as handle:
                handle.write(bytes(blob))
            try:
                loaded = Seda.load(snapshot_pair)
            except SnapshotError:
                continue
            assert self._answers(loaded) == expected, (
                f"undetected corruption at offset {offset} changed "
                f"query answers"
            )
        with open(victim, "wb") as handle:
            handle.write(pristine)
        Seda.load(snapshot_pair)  # matrix left it intact

    @pytest.mark.parametrize("target", ["snapshot", "cols"])
    def test_truncations_are_detected(self, snapshot_pair, target):
        from repro.storage.snapshot import SnapshotError

        victim = snapshot_pair if target == "snapshot" \
            else snapshot_pair + ".cols"
        pristine = open(victim, "rb").read()
        expected = self._answers(Seda.load(snapshot_pair))
        for keep in self._offsets(len(pristine)):
            with open(victim, "wb") as handle:
                handle.write(pristine[:keep])
            try:
                loaded = Seda.load(snapshot_pair)
            except SnapshotError:
                continue
            assert self._answers(loaded) == expected, (
                f"undetected truncation to {keep} bytes changed "
                f"query answers"
            )
        with open(victim, "wb") as handle:
            handle.write(pristine)
        Seda.load(snapshot_pair)

    def test_missing_sidecar_is_detected(self, snapshot_pair, tmp_path):
        import os

        from repro.storage.snapshot import SnapshotError

        os.remove(snapshot_pair + ".cols")
        with pytest.raises(SnapshotError):
            Seda.load(snapshot_pair)


class TestInjectedIOErrors:
    """The fault injector drives I/O failure through the durability
    seams; a failed save or append must leave the old state loadable."""

    DOCS = TestCorruptedSnapshotMatrix.DOCS
    BATCH = [("delta", "<r><a>red green</a><b>blue blue</b></r>")]

    def test_every_failed_save_operation_preserves_old_snapshot(
            self, tmp_path):
        from repro.testing.faults import FaultInjector

        path = str(tmp_path / "col.snapshot")
        system = Seda.from_documents(self.DOCS)
        system.save(path)
        names = sorted(d.name for d in Seda.load(path).collection.documents)
        fail_at = 0
        while True:
            fail_at += 1
            assert fail_at < 50, "fault sweep did not terminate"
            fresh = Seda.from_documents(self.DOCS + self.BATCH)
            with FaultInjector(fail_at=fail_at) as faults:
                try:
                    fresh.save(path)
                except OSError:
                    pass
                else:
                    break  # past the last operation: the save succeeded
            assert faults.operations == fail_at
            # Whatever the failed save left behind, the committed
            # snapshot still loads -- either the old or the new state.
            loaded = sorted(
                d.name for d in Seda.load(path).collection.documents
            )
            assert loaded in (
                names, sorted(names + [self.BATCH[0][0]])
            )

    def test_failed_wal_append_leaves_batch_unacknowledged(self, tmp_path):
        from repro.testing.faults import FaultInjector

        path = str(tmp_path / "col.snapshot")
        system = Seda.from_documents(self.DOCS)
        system.save(path)
        expected = sorted(
            d.name for d in Seda.load(path).collection.documents
        )
        with FaultInjector(fail_at=1, fail_on="wal_write"):
            with pytest.raises(OSError, match="injected I/O error"):
                system.add_documents(self.BATCH)
        # The batch never acknowledged; recovery must not invent it.
        recovered = Seda.load(path)
        assert sorted(
            d.name for d in recovered.collection.documents
        ) == expected

    def test_torn_wal_append_truncates_on_recovery(self, tmp_path):
        from repro.testing.faults import FaultInjector

        path = str(tmp_path / "col.snapshot")
        system = Seda.from_documents(self.DOCS)
        system.save(path)
        expected = sorted(
            d.name for d in Seda.load(path).collection.documents
        )
        system.add_documents(self.BATCH)  # acknowledged: magic + record
        with FaultInjector(torn_at=1, torn_bytes=7):
            with pytest.raises(OSError, match="torn write"):
                system.add_documents(
                    [("foxtrot", "<r><a>torn away</a></r>")]
                )
        with pytest.warns(UserWarning, match="torn final record"):
            recovered = Seda.load(path)
        assert sorted(
            d.name for d in recovered.collection.documents
        ) == sorted(expected + [self.BATCH[0][0]])
