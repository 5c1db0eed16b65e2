"""SEDA: Search Driven Analysis of Heterogeneous XML Data.

A from-scratch reproduction of Balmin et al., CIDR 2009.  The package
implements the complete system: XML parsing and storage, full-text and
path indexes, TA-based top-k search with compactness ranking, context
and connection summaries over merged dataguides, holistic twig joins
for complete results, star-schema construction with relative XML keys,
and a small OLAP engine.

Entry point::

    from repro import Seda
    seda = Seda.from_documents([...])
    session = seda.search([("*", '"United States"'),
                           ("trade_country", "*"),
                           ("percentage", "*")])
"""

from repro.query.term import Query, QueryTerm
from repro.service.query_service import QueryService
from repro.shard import ShardedSeda
from repro.system import Seda, SedaSession

__version__ = "1.1.0"

__all__ = [
    "Query", "QueryService", "QueryTerm", "Seda", "SedaSession",
    "ShardedSeda", "__version__",
]
