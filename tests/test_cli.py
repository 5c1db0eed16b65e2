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
            ["search", "--snapshot", str(path),
             "--term", '*:"United States"', "--term", "percentage:*"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert text.startswith(
            f"{path} (single-file, 17 documents, 669 nodes)\n"
        )
        assert "Context summary" in text

    def test_load_rejects_bad_file(self, tmp_path):
        bad = tmp_path / "bad.snapshot"
        bad.write_text('{"record": "header", "format": "nope", "version": 1}\n')
        with pytest.raises(SystemExit, match="seda-snapshot"):
            main(["search", "--snapshot", str(bad), "--term", "a:*"],
                 out=io.StringIO())

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
        assert main(["snapshot", "info", str(target)], out=out) == 0
        text = out.getvalue()
        assert "shards: 2" in text
        assert "shard-0000.snapshot" in text
        assert "partitioner: hash" in text
        assert "imbalance[documents]" in text

        out = io.StringIO()
        code = main(
            ["search", "--snapshot", str(target),
             "--term", "trade_country:*", "--term", "percentage:*",
             "-k", "3"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert text.startswith(f"{target} (sharded, 17 documents, ")
        assert "Top-3 results:" in text
        assert "shard 0:" in text and "shard 1:" in text

    def test_search_requires_terms(self, tmp_path):
        with pytest.raises(SystemExit, match="at least one --term"):
            main(["search", "--snapshot", str(tmp_path)], out=io.StringIO())

    def test_info_rejects_non_sharded_directory(self, tmp_path):
        with pytest.raises(SystemExit, match="manifest"):
            main(["snapshot", "info", str(tmp_path)], out=io.StringIO())

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
        assert "streams opened: 1" in out.getvalue()


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


class TestOneLocationArgument:
    """Every reading command takes a snapshot file *or* a sharded
    directory; anything else is a one-line exit, never a traceback."""

    COMMANDS = {
        "search": ["search", "--snapshot", "{}", "--term", "percentage:*",
                   "-k", "3"],
        "explain": ["explain", "--snapshot", "{}", "--term", "percentage:*"],
        "info": ["info", "--snapshot", "{}"],
        "stats": ["stats", "--snapshot", "{}"],
        "snapshot info": ["snapshot", "info", "{}"],
        "fsck": ["fsck", "{}"],
    }
    SAVED = ("file", "directory")

    @pytest.fixture(scope="class")
    def locations(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("locations")
        paths = {
            "file": root / "factbook.snapshot",
            "directory": root / "factbook.shards",
            "missing": root / "absent.snapshot",
            "no manifest": root / "plain-directory",
            "text file": root / "notes.txt",
        }
        assert main(["snapshot", "save", str(paths["file"]),
                     "--scale", "0.01"], out=io.StringIO()) == 0
        assert main(["shard", "build", str(paths["directory"]),
                     "--scale", "0.01", "--shards", "2", "--serial"],
                    out=io.StringIO()) == 0
        paths["no manifest"].mkdir()
        paths["text file"].write_text("not a snapshot\n")
        return {kind: str(path) for kind, path in paths.items()}

    @pytest.mark.parametrize("kind", [
        "file", "directory", "missing", "no manifest", "text file",
    ])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_reading_command_on_location(self, locations, command, kind):
        location = locations[kind]
        argv = [part.format(location) for part in self.COMMANDS[command]]
        # A saved system without a stats registry has nothing for
        # `stats --snapshot` to render; fsck reports an unreadable
        # location as an integrity problem (exit code 1) instead.
        if command == "fsck":
            expected = 0 if kind in self.SAVED else 1
            assert main(argv, out=io.StringIO()) == expected
        elif kind in self.SAVED and command != "stats":
            assert main(argv, out=io.StringIO()) == 0
        else:
            with pytest.raises(SystemExit) as exit_info:
                main(argv, out=io.StringIO())
            message = str(exit_info.value.code)
            assert location in message
            assert "\n" not in message

    @pytest.mark.parametrize("damage", ["deleted", "corrupted"])
    def test_bad_shard_file_names_the_file(self, tmp_path, damage):
        directory = tmp_path / "factbook.shards"
        assert main(["shard", "build", str(directory), "--scale", "0.01",
                     "--shards", "2", "--serial"], out=io.StringIO()) == 0
        victim = directory / "shard-0001.snapshot"
        if damage == "deleted":
            victim.unlink()
        else:
            # The manifest still lists an existing file, so the
            # manifest check passes and the load's restore of that
            # shard fails.
            blob = victim.read_bytes()
            victim.write_bytes(blob.replace(b'"max_hops":12',
                                            b'"max_hops":13', 1))
        with pytest.raises(SystemExit, match="shard-0001.snapshot") as exit_info:
            main(["search", "--snapshot", str(directory),
                  "--term", "percentage:*"], out=io.StringIO())
        assert "\n" not in str(exit_info.value.code)

    def test_explain_json_is_the_explain_endpoint(self, locations):
        from repro.serving import ServingApp, load_serving_system

        for kind in self.SAVED:
            out = io.StringIO()
            assert main(["explain", "--snapshot", locations[kind],
                         "--term", "trade_country:*", "--term",
                         "percentage:*", "-k", "4", "--json"],
                        out=out) == 0
            app = ServingApp(load_serving_system(locations[kind]),
                             locations[kind])
            response = app.handle("POST", "/explain", {
                "query": "trade_country:* ;; percentage:*", "k": 4,
            })
            assert response.status == 200
            assert json.loads(out.getvalue()) == response.payload
            assert ("per_shard" in response.payload) == (kind == "directory")

    def test_explain_text_per_shard(self, locations):
        out = io.StringIO()
        assert main(["explain", "--snapshot", locations["directory"],
                     "--term", "percentage:*"], out=out) == 0
        text = out.getvalue()
        assert text.startswith("shard 0:\nEXPLAIN percentage:* [k=10]")
        assert "\nshard 1:\nEXPLAIN" in text

    def test_info_reports_memory_per_shard(self, locations):
        out = io.StringIO()
        assert main(["info", "--snapshot", locations["directory"], "--json"],
                    out=out) == 0
        report = json.loads(out.getvalue())
        assert [entry["shard"] for entry in report["per_shard"]] == [0, 1]
        assert report["totals"]["column_bytes"] == sum(
            entry[index]["column_bytes"]
            for entry in report["per_shard"]
            for index in ("inverted", "path_index", "streams")
        )
        out = io.StringIO()
        assert main(["info", "--snapshot", locations["directory"]],
                    out=out) == 0
        assert "  shard 1:\n    inverted:\n" in out.getvalue()

    def test_snapshot_info_json_for_both_kinds(self, locations):
        out = io.StringIO()
        assert main(["snapshot", "info", locations["file"], "--json"],
                    out=out) == 0
        info = json.loads(out.getvalue())
        assert info["meta"]["collection"] == "world-factbook"
        assert "inverted" in [name for name, _size in info["records"]]

        out = io.StringIO()
        assert main(["snapshot", "info", locations["directory"], "--json"],
                    out=out) == 0
        report = json.loads(out.getvalue())
        assert report["meta"]["shards"] == report["shards"] == 2
        assert report["documents"] == 17
        assert report["nodes"] == sum(
            entry["nodes"] for entry in report["per_shard"]
        )
        assert report["total_bytes"] == sum(
            entry["bytes"] for entry in report["per_shard"]
        )

    def test_leaf_commands(self):
        import argparse

        def leaves(parser, prefix):
            groups = [action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction)]
            if not groups:
                return [prefix]
            return [leaf for group in groups
                    for name, sub in group.choices.items()
                    for leaf in leaves(sub, f"{prefix} {name}".strip())]

        assert sorted(leaves(build_parser(), "")) == sorted([
            "stats", "search", "explain", "table1", "query1", "info",
            "serve", "snapshot save", "snapshot info", "fsck",
            "shard build", "shard split", "shard merge", "shard rebalance",
        ])

    @pytest.mark.parametrize("argv", [
        ["snapshot", "load", "x"], ["shard", "search", "x"],
        ["shard", "info", "x"], ["shard", "skew", "x"],
    ])
    def test_removed_commands_are_argparse_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
