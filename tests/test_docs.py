"""Documentation stays true: runnable API docs, consistency gates.

Three enforcement layers:

* ``docs/API.md``'s python blocks are executed, top to bottom, in one
  shared namespace -- the walk-through *is* a test.
* Consistency gates: every CLI subcommand must be documented in the
  README, every ``docs/*.md`` cross-reference must resolve, every
  source file and ``repro.`` module the docs name must exist, and
  ``CHANGES.md`` must carry an entry for the sharding PR (the
  convention: every PR appends one line, so the next session knows
  what is done).
* Every module under ``src/repro`` must open with a docstring stating
  its role (checked via ``ast``, no imports needed).
"""

import argparse
import ast
import pathlib
import re

import pytest

from repro.cli import build_parser


def _subparser_actions(parser):
    return [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]

ROOT = pathlib.Path(__file__).parent.parent
DOCS = ROOT / "docs"
SRC = ROOT / "src" / "repro"


def _python_blocks(markdown_path):
    """The ``python`` fenced code blocks of a markdown file, in order."""
    text = markdown_path.read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestApiWalkthrough:
    def test_api_md_snippets_run(self):
        """docs/API.md executes cleanly as one cumulative session."""
        blocks = _python_blocks(DOCS / "API.md")
        assert len(blocks) >= 6, "API.md lost its runnable walk-through"
        namespace = {"__name__": "docs_api_walkthrough"}
        for index, block in enumerate(blocks):
            try:
                exec(compile(block, f"docs/API.md[block {index}]", "exec"),
                     namespace)
            except Exception as error:  # pragma: no cover - failure path
                pytest.fail(
                    f"docs/API.md block {index} failed: {error}\n{block}"
                )

    def test_api_md_covers_the_entry_points(self):
        text = (DOCS / "API.md").read_text(encoding="utf-8")
        for name in ("Seda.from_documents", "search_many", "query_service",
                     "ShardedSeda", "shard_summary", "save", "load"):
            assert name in text, f"API.md no longer documents {name}"


class TestCliReadmeConsistency:
    def test_every_subcommand_is_in_the_readme(self):
        """`repro --help` and README.md must agree on the CLI surface."""
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        parser = build_parser()
        (subparsers,) = _subparser_actions(parser)
        for command, sub in sorted(subparsers.choices.items()):
            assert command in readme, (
                f"README.md does not mention the `{command}` subcommand"
            )
            for group in _subparser_actions(sub):
                for nested_command in group.choices:
                    assert f"{command} {nested_command}" in readme, (
                        f"README.md does not mention "
                        f"`{command} {nested_command}`"
                    )

    def test_docs_cross_references_resolve(self):
        """Relative markdown links inside docs/ and README must exist."""
        for source in (ROOT / "README.md", *DOCS.glob("*.md")):
            base = source.parent
            for target in re.findall(
                r"\]\((?!https?://|#)([^)#]+)\)",
                source.read_text(encoding="utf-8"),
            ):
                assert (base / target).exists(), (
                    f"{source.name} links to missing {target}"
                )

    def test_named_source_files_exist(self):
        """Every ``*.py`` path and ``src/repro/`` directory the docs
        name exists -- under the repo root, under ``src/repro`` (the
        docs' ``storage/snapshot.py`` shorthand), or beside the
        document; a bare ``context.py`` somewhere under ``src/repro``
        -- so deleting a module cannot leave the docs pointing at it."""
        missing = []
        for source in (ROOT / "README.md", *DOCS.glob("*.md")):
            text = source.read_text(encoding="utf-8")
            for name in re.findall(
                r"(?<![\w./-])((?:\.\./)?[\w./-]+\.py|src/repro/[\w/]*)\b",
                text,
            ):
                if "/" in name:
                    found = any((base / name).exists()
                                for base in (ROOT, SRC, source.parent))
                else:
                    found = any(SRC.rglob(name))
                if not found:
                    missing.append(f"{source.name}: {name}")
        assert not missing, f"docs name missing files: {missing}"

    def test_named_modules_exist(self):
        """Every dotted ``repro.`` name in the docs resolves: its module
        part to a file or package under ``src/repro``, and the first
        name past the module to something that module's source
        mentions."""
        missing = []
        for source in (ROOT / "README.md", *DOCS.glob("*.md")):
            text = source.read_text(encoding="utf-8")
            for dotted in set(re.findall(
                r"(?<![\w.])repro(?:\.\w+)+", text
            )):
                module = SRC
                for part in dotted.split(".")[1:]:
                    if (module / part).is_dir():
                        module = module / part
                    elif (module / f"{part}.py").is_file():
                        module = module / f"{part}.py"
                    else:
                        owner = (module / "__init__.py"
                                 if module.is_dir() else module)
                        if not re.search(
                            rf"\b{part}\b", owner.read_text(encoding="utf-8")
                        ):
                            missing.append(f"{source.name}: {dotted}")
                        break
        assert not missing, f"docs name missing modules: {missing}"

    def test_docs_suite_is_present(self):
        for name in ("ARCHITECTURE.md", "OPERATIONS.md", "API.md"):
            assert (DOCS / name).exists(), f"docs/{name} is missing"
        architecture = (DOCS / "ARCHITECTURE.md").read_text(encoding="utf-8")
        assert "## Sharding" in architecture


class TestChangelogDiscipline:
    def test_changes_md_has_one_entry_per_pr(self):
        text = (ROOT / "CHANGES.md").read_text(encoding="utf-8")
        entries = [
            line for line in text.splitlines()
            if line.startswith("- PR ")
        ]
        assert len(entries) >= 4, (
            "CHANGES.md must keep one `- PR n:` line per merged PR"
        )

    def test_changes_md_records_the_sharding_pr(self):
        text = (ROOT / "CHANGES.md").read_text(encoding="utf-8").lower()
        assert "shard" in text, (
            "CHANGES.md lacks an entry for the sharding PR"
        )


class TestModuleDocstrings:
    def test_every_module_states_its_role(self):
        missing = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if ast.get_docstring(tree) is None:
                missing.append(str(path.relative_to(ROOT)))
        assert not missing, (
            f"modules without a module docstring: {missing}"
        )

    def test_every_package_states_its_role(self):
        for package in sorted(SRC.rglob("__init__.py")):
            tree = ast.parse(package.read_text(encoding="utf-8"))
            docstring = ast.get_docstring(tree)
            assert docstring and len(docstring.split()) >= 5, (
                f"{package.relative_to(ROOT)} needs a real package "
                f"docstring"
            )
