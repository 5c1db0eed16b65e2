"""The collection's node table (Dewey-ordered node streams), catalog
statistics."""

from repro.storage.catalog import CollectionCatalog


class TestNodeStore:
    """Per-tag and per-path node streams read off the collection."""

    def test_by_tag_dewey_order(self, figure2_collection):
        collection = figure2_collection
        items = collection.by_tag("item")
        keys = [
            (collection.node(i).doc_id, collection.node(i).dewey)
            for i in items
        ]
        assert keys == sorted(keys)
        assert len(items) == 7  # 3 usa-2006, 1 usa-2002, 3 mexico-2003
        # Every stream, attributes included, is in (doc_id, dewey)
        # order: the collection keeps node ids in allocation order.
        collection.add_document(
            '<country code="mx"><name lang="es">Mexico</name><item/></country>'
        )
        for ids in ([collection.by_tag(tag) for tag in collection.tags()]
                    + [collection.by_path(path)
                       for path in collection.paths()]):
            assert ids == sorted(ids)

    def test_by_path(self, figure2_collection):
        path = "/country/economy/import_partners/item/percentage"
        assert len(figure2_collection.by_path(path)) == 5

    def test_unknown_tag_empty(self, figure2_collection):
        assert figure2_collection.by_tag("nope") == []

    def test_reads_of_unknown_keys_insert_nothing(self, figure2_collection):
        """Only registering a document adds keys, so concurrent readers
        never see the tables grow under them."""
        collection = figure2_collection
        tags, paths = collection.tags(), collection.paths()
        root = collection.document(0).root
        assert collection.by_tag("nope") == []
        assert collection.by_path("/no/such/path") == []
        assert collection.descendants_in_path(root.node_id, "/no/such") == []
        assert (collection.tags(), collection.paths()) == (tags, paths)
        assert collection.path_occurrences("/no/such/path") == 0
        assert collection.path_document_frequency("/no/such/path") == 0

    def test_refresh_picks_up_new_documents(self, figure2_collection):
        before = len(figure2_collection.by_tag("country"))
        figure2_collection.add_document("<country>Narnia</country>")
        assert len(figure2_collection.by_tag("country")) == before + 1

    def test_descendants_in_path(self, figure2_collection):
        root = figure2_collection.document(0).root
        path = "/country/economy/import_partners/item/trade_country"
        descendants = figure2_collection.descendants_in_path(
            root.node_id, path
        )
        assert len(descendants) == 2
        values = {figure2_collection.node(d).value for d in descendants}
        assert values == {"China", "Canada"}

    def test_descendants_scoped_to_subtree(self, figure2_collection):
        document = figure2_collection.document(0)
        import_partners = next(
            node for node in document.nodes if node.tag == "import_partners"
        )
        path = "/country/economy/import_partners/item/percentage"
        under = figure2_collection.descendants_in_path(
            import_partners.node_id, path
        )
        assert len(under) == 2  # not the export percentage


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
