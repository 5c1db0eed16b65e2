"""Property-based checks for the observability suite (Hypothesis).

Four properties the ISSUE pins down:

* EXPLAIN's total sorted accesses equal the sum of its per-term stream
  accesses, and every counter matches the searcher's own ``stats``.
* ``tuples_scored + pruned`` never exceeds the candidate cross-product
  bound (every considered combo pairs one candidate per term).
* Fingerprint normalization is idempotent and collapses whitespace,
  case, and term-order variants to one fingerprint.
* Histogram percentile estimates bracket the true (nearest-rank)
  sample percentiles.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import LatencyHistogram, explain, query_fingerprint
from repro.query.term import Query
from repro.system import Seda

DOCS = [
    ("a.xml", "<country><name>France Paris</name><gdp>2000</gdp>"
              "<year>2006</year></country>"),
    ("b.xml", "<country><name>Spain Madrid</name><gdp>1400</gdp>"
              "<year>2006</year></country>"),
    ("c.xml", "<country><name>Chile Santiago</name><gdp>300</gdp>"
              "<year>2004</year></country>"),
]

_SEDA = Seda.from_documents(DOCS)

_WORDS = ("france", "spain", "chile", "paris", "gdp", "year", "madrid",
          "santiago", "absent")
_CONTEXTS = ("*", "name", "gdp", "year", "country")

_terms = st.tuples(
    st.sampled_from(_CONTEXTS),
    st.one_of(st.sampled_from(_WORDS), st.just("*")),
)
_queries = st.lists(_terms, min_size=1, max_size=3)


@given(pairs=_queries, k=st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None)
def test_explain_totals_match_per_term_accesses(pairs, k):
    report = explain(_SEDA.topk, pairs, k=k)
    raw = _SEDA.topk.stats
    assert report.sorted_accesses == sum(
        entry["sorted_accesses"] for entry in report.per_term
    )
    assert report.sorted_accesses == raw["sorted_accesses"]
    assert [entry["candidates"] for entry in report.per_term] \
        == raw["candidates"]
    assert report.stop_reason in (
        "empty-stream", "k-satisfied", "corner-bound", "exhaustion"
    )


@given(pairs=_queries, k=st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None)
def test_considered_tuples_bounded_by_cross_product(pairs, k):
    report = explain(_SEDA.topk, pairs, k=k)
    bound = math.prod(
        entry["candidates"] for entry in report.per_term
    )
    assert report.tuples_scored + report.pruned <= bound
    if len(report.per_term) > 1:
        # Every returned tuple was scored; the single-term path streams
        # results directly and never enters the combine stage.
        assert report.tuples_scored >= len(report.results)


@given(
    pairs=st.lists(
        st.tuples(
            st.sampled_from(_CONTEXTS),
            st.sampled_from(_WORDS),
        ),
        min_size=1,
        max_size=3,
    ),
    k=st.integers(min_value=1, max_value=20),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_fingerprint_idempotent_and_collapses_variants(pairs, k, data):
    fingerprint = query_fingerprint(Query.parse(pairs), k)

    # Idempotence: re-parsing the rendered terms reproduces it exactly.
    rendered_pairs = []
    body = fingerprint.rsplit(" [k=", 1)[0]
    for rendered in body.split(" ;; "):
        context, _, search = rendered.partition(":")
        rendered_pairs.append((context, search))
    assert query_fingerprint(Query.parse(rendered_pairs), k) == fingerprint

    # Whitespace / case / term-order variants collapse.
    permuted = data.draw(st.permutations(pairs))
    mangled = [
        (context, f"  {search.upper()}  ") for context, search in permuted
    ]
    assert query_fingerprint(Query.parse(mangled), k) == fingerprint


@given(
    samples=st.lists(
        st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
        min_size=1,
        max_size=200,
    ),
    q=st.sampled_from((0.5, 0.9, 0.95, 0.99)),
)
@settings(max_examples=80, deadline=None)
def test_histogram_percentiles_bracket_true_percentiles(samples, q):
    histogram = LatencyHistogram()
    for value in samples:
        histogram.observe(value)
    # True nearest-rank percentile over the raw samples.
    ordered = sorted(samples)
    truth = ordered[max(1, math.ceil(q * len(ordered))) - 1]
    lower, upper = histogram.bracket(q)
    assert lower <= truth <= upper
    assert histogram.quantile(q) == upper
