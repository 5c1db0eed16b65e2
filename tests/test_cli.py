"""The ``python -m repro`` command-line interface."""

import io
import json

import pytest

from repro.cli import _parse_term, build_parser, main


class TestTermParsing:
    def test_context_and_search(self):
        assert _parse_term("trade_country:*") == ("trade_country", "*")

    def test_phrase_search(self):
        assert _parse_term('*:"United States"') == ("*", '"United States"')

    def test_bare_keyword_defaults_context(self):
        assert _parse_term("romania") == ("*", "romania")

    def test_path_context(self):
        assert _parse_term("/country/year:2006") == ("/country/year", "2006")

    def test_empty_sides_become_star(self):
        assert _parse_term(":") == ("*", "*")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_stats_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.dataset == "factbook"
        assert args.scale == 0.02

    def test_search_terms_accumulate(self):
        args = build_parser().parse_args(
            ["search", "--term", "a:*", "--term", "b:*", "-k", "3"]
        )
        assert args.term == ["a:*", "b:*"]
        assert args.k == 3


class TestCommands:
    def test_stats(self):
        out = io.StringIO()
        code = main(["stats", "--scale", "0.01", "--top", "3"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "documents:" in text
        assert "distinct_paths:" in text
        assert "/country" in text

    def test_stats_from_directory(self, tmp_path):
        (tmp_path / "one.xml").write_text("<a><b>hello</b></a>")
        (tmp_path / "two.xml").write_text("<a><c>world</c></a>")
        out = io.StringIO()
        code = main(["stats", "--data", str(tmp_path)], out=out)
        assert code == 0
        assert "documents: 2" in out.getvalue()

    def test_stats_empty_directory_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["stats", "--data", str(tmp_path)], out=io.StringIO())

    def test_search(self):
        out = io.StringIO()
        code = main(
            ["search", "--scale", "0.01",
             "--term", '*:"United States"', "--term", "percentage:*",
             "-k", "5"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "Query:" in text
        assert "Context summary" in text
        assert "Connection summary" in text

    def test_search_without_terms_fails(self):
        with pytest.raises(SystemExit):
            main(["search"], out=io.StringIO())

    def test_table1_small_scale(self):
        out = io.StringIO()
        code = main(["table1", "--scale", "0.005"], out=out)
        assert code == 0
        text = out.getvalue()
        for name in ("factbook", "mondial", "googlebase", "recipeml"):
            assert name in text
        assert "dataguides=" in text

    def test_query1(self):
        out = io.StringIO()
        code = main(["query1", "--scale", "0.01"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "R(q)" in text
        assert "fact import-trade-percentage" in text
        assert "session effort" in text


class TestSnapshotCommands:
    def test_save_load_info(self, tmp_path):
        path = tmp_path / "factbook.snapshot"
        out = io.StringIO()
        code = main(
            ["snapshot", "save", str(path), "--scale", "0.01"], out=out
        )
        assert code == 0
        assert "saved snapshot" in out.getvalue()
        assert path.exists()

        out = io.StringIO()
        code = main(["snapshot", "info", str(path)], out=out)
        assert code == 0
        text = out.getvalue()
        assert "collection: world-factbook" in text
        assert "inverted" in text
        assert "dataguides" in text

        out = io.StringIO()
        code = main(
            ["snapshot", "load", str(path),
             "--term", '*:"United States"', "--term", "percentage:*"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "loaded snapshot" in text
        assert "Context summary" in text

    def test_load_rejects_bad_file(self, tmp_path):
        bad = tmp_path / "bad.snapshot"
        bad.write_text('{"record": "header", "format": "nope", "version": 1}\n')
        with pytest.raises(SystemExit, match="seda-snapshot"):
            main(["snapshot", "load", str(bad)], out=io.StringIO())

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="no snapshot file"):
            main(["snapshot", "info", str(tmp_path / "nope")],
                 out=io.StringIO())

    def test_snapshot_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["snapshot"])


class TestQueryFileParsing:
    def test_line_splits_on_double_semicolon(self):
        from repro.cli import _parse_query_line

        assert _parse_query_line('*:"United States" ;; trade_country:*') == [
            ("*", '"United States"'), ("trade_country", "*"),
        ]

    def test_single_term_line(self):
        from repro.cli import _parse_query_line

        assert _parse_query_line("*:canada") == [("*", "canada")]


class TestShardCommands:
    def test_build_info_search(self, tmp_path):
        target = tmp_path / "factbook.shards"
        out = io.StringIO()
        code = main(
            ["shard", "build", str(target), "--scale", "0.01",
             "--shards", "2", "--serial"],
            out=out,
        )
        assert code == 0
        assert "built 2 shards" in out.getvalue()
        assert (target / "manifest.json").exists()

        out = io.StringIO()
        assert main(["shard", "info", str(target)], out=out) == 0
        text = out.getvalue()
        assert "shards: 2" in text
        assert "shard-0000.snapshot" in text
        assert "partitioner: hash" in text

        out = io.StringIO()
        code = main(
            ["shard", "search", str(target),
             "--term", "trade_country:*", "--term", "percentage:*",
             "-k", "3"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "results from 2 shards" in text
        assert "shard 0:" in text and "shard 1:" in text

    def test_search_requires_terms(self, tmp_path):
        with pytest.raises(SystemExit, match="at least one --term"):
            main(["shard", "search", str(tmp_path)], out=io.StringIO())

    def test_info_rejects_non_sharded_directory(self, tmp_path):
        with pytest.raises(SystemExit, match="manifest"):
            main(["shard", "info", str(tmp_path)], out=io.StringIO())

    def test_build_rejects_bad_shard_count(self, tmp_path):
        with pytest.raises(SystemExit, match="--shards must be"):
            main(
                ["shard", "build", str(tmp_path / "x"), "--shards", "0",
                 "--scale", "0.01"],
                out=io.StringIO(),
            )


class TestObservabilityCommands:
    """``repro stats`` (registry mode) and ``repro explain``."""

    WORKLOAD = (
        "*:canada ;; year:*\n"
        "*:canada ;; year:*\n"   # in-batch duplicate -> a cache hit
        "trade_country:*\n"
    )

    def _query_file(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text(self.WORKLOAD)
        return str(path)

    def test_stats_default_mode_unchanged(self):
        out = io.StringIO()
        assert main(["stats", "--scale", "0.01"], out=out) == 0
        assert "documents:" in out.getvalue()

    def test_stats_queries_renders_registry_table(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["stats", "--scale", "0.01",
             "--queries", self._query_file(tmp_path)],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "query statistics: 3 served, 2 fingerprints" in text
        assert "count   hits" in text
        assert "*:canada ;; year:* [k=10]" in text
        assert "trade_country:* [k=10]" in text
        assert "slow queries" in text

    def test_stats_rejects_empty_query_file(self, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("# only comments\n\n")
        with pytest.raises(SystemExit, match="no queries"):
            main(["stats", "--queries", str(queries)], out=io.StringIO())

    def test_stats_json_matches_scripted_workload(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["stats", "--scale", "0.01",
             "--queries", self._query_file(tmp_path), "--json"],
            out=out,
        )
        assert code == 0
        data = json.loads(out.getvalue())  # valid JSON, full ground truth
        assert data["total_queries"] == 3
        fingerprints = data["fingerprints"]
        assert set(fingerprints) == {
            "*:canada ;; year:* [k=10]",
            "trade_country:* [k=10]",
        }
        duplicated = fingerprints["*:canada ;; year:* [k=10]"]
        assert duplicated["count"] == 2
        assert duplicated["cache_hits"] == 1
        assert duplicated["cache_hit_rate"] == 0.5
        singleton = fingerprints["trade_country:* [k=10]"]
        assert singleton["count"] == 1
        assert singleton["cache_hits"] == 0
        assert data["slow_threshold"] == 0.1

    def test_stats_save_then_read_snapshot(self, tmp_path):
        snapshot = tmp_path / "obs.snapshot"
        out = io.StringIO()
        code = main(
            ["stats", "--scale", "0.01",
             "--queries", self._query_file(tmp_path),
             "--save", str(snapshot)],
            out=out,
        )
        assert code == 0
        assert "saved snapshot" in out.getvalue()

        out = io.StringIO()
        code = main(["stats", "--snapshot", str(snapshot)], out=out)
        assert code == 0
        assert "query statistics: 3 served" in out.getvalue()

        out = io.StringIO()
        code = main(
            ["stats", "--snapshot", str(snapshot), "--json"], out=out
        )
        assert code == 0
        assert json.loads(out.getvalue())["total_queries"] == 3

    def test_stats_json_alone_rejected(self):
        with pytest.raises(SystemExit, match="--queries"):
            main(["stats", "--json"], out=io.StringIO())

    def test_stats_snapshot_without_obs_rejected(self, tmp_path):
        snapshot = tmp_path / "plain.snapshot"
        assert main(
            ["snapshot", "save", str(snapshot), "--scale", "0.01"],
            out=io.StringIO(),
        ) == 0
        with pytest.raises(SystemExit, match="no 'obs' record"):
            main(["stats", "--snapshot", str(snapshot)],
                 out=io.StringIO())

    def test_explain_text_output(self):
        out = io.StringIO()
        code = main(
            ["explain", "--scale", "0.01",
             "--term", "trade_country:*", "--term", "percentage:*",
             "-k", "3"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert text.startswith(
            "EXPLAIN percentage:* ;; trade_country:* [k=3]"
        )
        assert "combine path: pair" in text
        assert "streams opened: 2" in text
        assert "sorted accesses" in text
        assert "stopped: " in text
        assert "results: 3" in text

    def test_explain_json_matches_searcher_stats(self):
        out = io.StringIO()
        code = main(
            ["explain", "--scale", "0.01", "--term", "*:canada",
             "--term", "year:*", "--json"],
            out=out,
        )
        assert code == 0
        data = json.loads(out.getvalue())
        assert data["k"] == 10
        assert data["sorted_accesses"] == sum(
            entry["sorted_accesses"] for entry in data["per_term"]
        )
        assert data["stop_reason"] in (
            "empty-stream", "k-satisfied", "corner-bound", "exhaustion"
        )
        assert len(data["per_term"]) == 2

    def test_explain_requires_terms(self):
        with pytest.raises(SystemExit, match="at least one --term"):
            main(["explain"], out=io.StringIO())

    def test_explain_from_snapshot(self, tmp_path):
        snapshot = tmp_path / "seda.snapshot"
        assert main(
            ["snapshot", "save", str(snapshot), "--scale", "0.01"],
            out=io.StringIO(),
        ) == 0
        out = io.StringIO()
        code = main(
            ["explain", "--snapshot", str(snapshot),
             "--term", "*:canada"],
            out=out,
        )
        assert code == 0
        assert "combine path: single" in out.getvalue()


class TestFsckCommand:
    DOCS = [
        ("alpha", "<r><a>red blue</a><b>green</b></r>"),
        ("bravo", "<r><a>blue</a><c>red red</c></r>"),
    ]

    @pytest.fixture
    def snapshot(self, tmp_path):
        from repro.system import Seda

        path = str(tmp_path / "col.snapshot")
        Seda.from_documents(self.DOCS).save(path)
        return path

    def test_clean_snapshot_passes(self, snapshot):
        out = io.StringIO()
        code = main(["fsck", snapshot], out=out)
        assert code == 0
        text = out.getvalue()
        assert "ok: no integrity problems" in text
        assert "records_verified" in text or "sidecar" in text

    def test_clean_snapshot_json(self, snapshot):
        out = io.StringIO()
        code = main(["fsck", snapshot, "--json"], out=out)
        assert code == 0
        report = json.loads(out.getvalue())
        assert report["ok"]
        assert report["problems"] == []

    def test_corrupted_sidecar_fails(self, snapshot):
        blob = bytearray(open(snapshot + ".cols", "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(snapshot + ".cols", "wb") as handle:
            handle.write(bytes(blob))
        out = io.StringIO()
        code = main(["fsck", snapshot], out=out)
        assert code == 1
        assert "PROBLEM" in out.getvalue()

    def test_torn_wal_is_reported_without_repair(self, snapshot):
        import os

        from repro.storage.wal import wal_file_name
        from repro.system import Seda

        system = Seda.load(snapshot)
        system.add_documents([("delta", "<r><a>late</a></r>")])
        wal_path = wal_file_name(snapshot)
        blob = open(wal_path, "rb").read()
        with open(wal_path, "wb") as handle:
            handle.write(blob[:-3])  # tear the final record
        out = io.StringIO()
        code = main(["fsck", snapshot, "--json"], out=out)
        report = json.loads(out.getvalue())
        assert code == 0  # a torn tail is recoverable, not corruption
        assert report["ok"]
        assert any("torn" in warning for warning in report["warnings"])
        # fsck never repairs: the torn bytes are still on disk.
        assert open(wal_path, "rb").read() == blob[:-3]
        assert os.path.getsize(wal_path) == len(blob) - 3

    def test_sharded_directory(self, tmp_path):
        from repro.shard import ShardedSeda

        directory = str(tmp_path / "col.shards")
        ShardedSeda.from_documents(
            self.DOCS, shards=2, parallel=False
        ).save(directory)
        out = io.StringIO()
        code = main(["fsck", directory], out=out)
        assert code == 0
        assert "ok: no integrity problems" in out.getvalue()

    def test_missing_path_is_a_problem(self, tmp_path):
        out = io.StringIO()
        code = main(["fsck", str(tmp_path / "absent.snapshot")], out=out)
        assert code == 1
        assert "missing" in out.getvalue()
