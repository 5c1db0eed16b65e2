"""The serving layer: one query-execution path with result caching."""

from repro.service.cache import ResultCache
from repro.service.query_service import QueryService
from repro.service.stats import BatchStats, QueryStats

__all__ = ["BatchStats", "QueryService", "QueryStats", "ResultCache"]
