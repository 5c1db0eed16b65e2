"""Shared fixtures: small hand-built collections and dataset slices."""

import os

import pytest

try:
    from hypothesis import settings as _hypothesis_settings
except ImportError:  # pragma: no cover - hypothesis is a test-only dep
    _hypothesis_settings = None

if _hypothesis_settings is not None:
    # "ci" replays the same examples every run (derandomize), so CI
    # failures reproduce; "dev" keeps local runs exploring fresh inputs.
    # CI selects the profile via HYPOTHESIS_PROFILE=ci (see the
    # workflow); a bare CI=true environment gets it too.
    _hypothesis_settings.register_profile(
        "ci", derandomize=True, deadline=None
    )
    _hypothesis_settings.register_profile("dev", deadline=None)
    _hypothesis_settings.load_profile(
        os.environ.get(
            "HYPOTHESIS_PROFILE",
            "ci" if os.environ.get("CI") else "dev",
        )
    )

from repro.index.builder import IndexBuilder
from repro.model.collection import DocumentCollection
from repro.model.graph import DataGraph
from repro.model.links import LinkDiscoverer
from repro.query.matcher import TermMatcher

# A miniature Figure 2-style fragment set: three country documents.
USA_2006 = """
<country>United States
  <year>2006</year>
  <economy>
    <GDP_ppp>12.31T</GDP_ppp>
    <import_partners>
      <item><trade_country>China</trade_country><percentage>15%</percentage></item>
      <item><trade_country>Canada</trade_country><percentage>16.9%</percentage></item>
    </import_partners>
    <export_partners>
      <item><trade_country>Canada</trade_country><percentage>23.4%</percentage></item>
    </export_partners>
  </economy>
</country>
"""

USA_2002 = """
<country>United States
  <year>2002</year>
  <economy>
    <GDP>10.082T</GDP>
    <import_partners>
      <item><trade_country>Canada</trade_country><percentage>17.8%</percentage></item>
    </import_partners>
  </economy>
</country>
"""

MEXICO_2003 = """
<country>Mexico
  <year>2003</year>
  <economy>
    <GDP>924.4B</GDP>
    <import_partners>
      <item><trade_country>United States</trade_country><percentage>70.6%</percentage></item>
      <item><trade_country>Germany</trade_country><percentage>3.5%</percentage></item>
    </import_partners>
    <export_partners>
      <item><trade_country>United States</trade_country><percentage>87.6%</percentage></item>
    </export_partners>
  </economy>
</country>
"""


@pytest.fixture
def figure2_collection():
    collection = DocumentCollection(name="figure2")
    collection.add_document(USA_2006, name="usa-2006")
    collection.add_document(USA_2002, name="usa-2002")
    collection.add_document(MEXICO_2003, name="mexico-2003")
    return collection


@pytest.fixture
def figure2_indexes(figure2_collection):
    inverted, paths = IndexBuilder(figure2_collection).build()
    return inverted, paths


@pytest.fixture
def figure2_matcher(figure2_collection, figure2_indexes):
    inverted, paths = figure2_indexes
    return TermMatcher(figure2_collection, inverted, paths)


@pytest.fixture
def figure2_graph(figure2_collection):
    return DataGraph(figure2_collection)


@pytest.fixture
def linked_collection():
    """Two documents joined by an IDREF and a value link."""
    collection = DocumentCollection(name="linked")
    collection.add_document(
        '<country id="c1"><name>Atlantis</name>'
        "<capital>Poseidonia</capital></country>",
        name="atlantis",
    )
    collection.add_document(
        '<city><name>Poseidonia</name><country_ref ref="c1"/>'
        "<population>9000</population></city>",
        name="poseidonia",
    )
    graph = DataGraph(collection)
    LinkDiscoverer(graph).discover_idrefs()
    return collection, graph


@pytest.fixture(scope="session")
def small_factbook():
    """A small but complete Factbook slice (session-scoped: expensive)."""
    from repro.datasets.factbook import FactbookGenerator

    return FactbookGenerator(scale=0.02).build_collection()


@pytest.fixture(scope="session")
def small_factbook_seda():
    from repro.datasets.factbook import FactbookGenerator
    from repro.system import Seda

    generator = FactbookGenerator(scale=0.02)
    seda = Seda(
        generator.build_collection(),
        value_links=FactbookGenerator.value_link_specs(),
    )
    FactbookGenerator.register_standard_definitions(seda.registry)
    return seda
