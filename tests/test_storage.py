"""Node store streams, catalog statistics."""

from repro.storage.catalog import CollectionCatalog
from repro.storage.node_store import NodeStore


class TestNodeStore:
    def test_by_tag_dewey_order(self, figure2_collection):
        store = NodeStore(figure2_collection)
        items = store.by_tag("item")
        keys = [
            (figure2_collection.node(i).doc_id, figure2_collection.node(i).dewey)
            for i in items
        ]
        assert keys == sorted(keys)
        assert len(items) == 7  # 3 usa-2006, 1 usa-2002, 3 mexico-2003

    def test_by_path(self, figure2_collection):
        store = NodeStore(figure2_collection)
        path = "/country/economy/import_partners/item/percentage"
        assert len(store.by_path(path)) == 5

    def test_unknown_tag_empty(self, figure2_collection):
        store = NodeStore(figure2_collection)
        assert store.by_tag("nope") == []

    def test_refresh_picks_up_new_documents(self, figure2_collection):
        store = NodeStore(figure2_collection)
        before = len(store.by_tag("country"))
        figure2_collection.add_document("<country>Narnia</country>")
        store.refresh()
        assert len(store.by_tag("country")) == before + 1

    def test_descendants_in_path(self, figure2_collection):
        store = NodeStore(figure2_collection)
        root = figure2_collection.document(0).root
        path = "/country/economy/import_partners/item/trade_country"
        descendants = store.descendants_in_path(root.node_id, path)
        assert len(descendants) == 2
        values = {figure2_collection.node(d).value for d in descendants}
        assert values == {"China", "Canada"}

    def test_descendants_scoped_to_subtree(self, figure2_collection):
        store = NodeStore(figure2_collection)
        document = figure2_collection.document(0)
        import_partners = next(
            node for node in document.nodes if node.tag == "import_partners"
        )
        path = "/country/economy/import_partners/item/percentage"
        under = store.descendants_in_path(import_partners.node_id, path)
        assert len(under) == 2  # not the export percentage

    def test_sort_dewey(self, figure2_collection):
        store = NodeStore(figure2_collection)
        ids = [node.node_id for node in figure2_collection.iter_nodes()]
        shuffled = list(reversed(ids))
        assert store.sort_dewey(shuffled) == ids


class TestCatalog:
    def test_summary(self, figure2_collection):
        summary = CollectionCatalog(figure2_collection).summary()
        assert summary["documents"] == 3
        assert summary["nodes"] == figure2_collection.node_count
        assert summary["distinct_paths"] == figure2_collection.path_count()

    def test_path_frequencies_sorted(self, figure2_collection):
        rows = CollectionCatalog(figure2_collection).path_frequencies()
        counts = [row[1] for row in rows]
        assert counts == sorted(counts, reverse=True)

    def test_long_tail(self, figure2_collection):
        tail = CollectionCatalog(figure2_collection).long_tail(
            document_threshold=2
        )
        paths = [path for path, _df in tail]
        # GDP_ppp appears only in the 2006 document.
        assert "/country/economy/GDP_ppp" in paths

    def test_depth_histogram(self, figure2_collection):
        histogram = CollectionCatalog(figure2_collection).depth_histogram()
        assert histogram[1] == 1  # /country
        assert sum(histogram.values()) == figure2_collection.path_count()

    def test_tag_histogram(self, figure2_collection):
        histogram = CollectionCatalog(figure2_collection).tag_histogram()
        assert histogram["percentage"] == 2  # import + export contexts
