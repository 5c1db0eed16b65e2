"""Shared fixtures of the paper reproductions: collections, built once.

Every module here regenerates one table or figure of the paper (its
docstring names which; README.md's "Benchmarks" section lists them);
fixtures are session-scoped because the paper-scale collections are
expensive to build.  ``FULL_SCALE`` can be lowered via the
``SEDA_BENCH_SCALE`` environment variable for quick smoke runs.

Statistics that depend on the collection size are pinned per scale
through the :func:`at_scale` fixture: exact values at the smoke scale
(0.05) and the paper's scale (1.0), a skip at any other scale.
"""

import os

import pytest

from repro.datasets.factbook import FactbookGenerator
from repro.datasets.googlebase import GoogleBaseGenerator
from repro.datasets.mondial import MondialGenerator
from repro.datasets.recipeml import RecipeMLGenerator
from repro.system import Seda

FULL_SCALE = float(os.environ.get("SEDA_BENCH_SCALE", "1.0"))
# The interactive-pipeline tests use a smaller slice so that each stays
# sub-second; Table 1 uses FULL_SCALE.
PIPELINE_SCALE = min(FULL_SCALE, 0.05)


@pytest.fixture(scope="session")
def at_scale():
    """``lookup(values)``: the expected value at ``FULL_SCALE``.

    ``values`` maps a scale to the value the statistic takes there;
    at a scale with no pinned value the calling test is skipped rather
    than asserting a number measured at another size.
    """

    def lookup(values):
        if FULL_SCALE not in values:
            pytest.skip(
                f"statistic pinned only at scales {sorted(values)}, "
                f"not SEDA_BENCH_SCALE={FULL_SCALE}"
            )
        return values[FULL_SCALE]

    return lookup


@pytest.fixture(scope="session")
def factbook_full():
    return FactbookGenerator(scale=FULL_SCALE).build_collection()


@pytest.fixture(scope="session")
def mondial_full():
    return MondialGenerator(scale=FULL_SCALE).build_collection()


@pytest.fixture(scope="session")
def googlebase_full():
    return GoogleBaseGenerator(scale=FULL_SCALE).build_collection()


@pytest.fixture(scope="session")
def recipeml_full():
    return RecipeMLGenerator(scale=FULL_SCALE).build_collection()


@pytest.fixture(scope="session")
def factbook_seda():
    """A fully wired SEDA instance on the pipeline-scale Factbook."""
    generator = FactbookGenerator(scale=PIPELINE_SCALE)
    seda = Seda(
        generator.build_collection(),
        value_links=FactbookGenerator.value_link_specs(),
    )
    FactbookGenerator.register_standard_definitions(seda.registry)
    return seda
