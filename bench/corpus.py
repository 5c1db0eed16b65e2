"""Seeded inputs: the corpus, query pools, request streams, anchors.

The corpus is the paper-calibrated Factbook generator at its default
generator seed, so every run indexes the same documents; everything
the *program receives as traffic* -- query pools, request order, write
order, analyst anchors -- derives from the benchmark's ``--seed``.

Request streams are stratified (a fixed pattern of query shapes, a
fixed ratio of popular to rare anchors) so that two seeds draw
different queries from the same cost mix: the seed changes the inputs,
not how hard the workload is.
"""

import random
import re
import time

from repro.datasets.factbook import FactbookGenerator
from repro.xmlio import serialize

#: Result-list size every query asks for.
K = 10

#: Share of the corpus indexed before the run; the rest is written
#: online (``serve_rw``) or by the write tail (every other workload).
PRELOAD_SHARE = 0.8

#: Query shapes (term counts) in the order the cold stream cycles them.
SHAPE_PATTERN = (1, 2, 2, 3)

#: Words the query parser reads as operators, never as search tokens.
_OPERATORS = frozenset(("and", "or", "not"))

_WORD = re.compile(r"[A-Za-z]{3,}")


class Corpus:
    """The generated documents, split into preload and holdout."""

    def __init__(self, scale):
        start = time.perf_counter()
        roots = list(FactbookGenerator(scale=scale).documents())
        self.documents = [(name, serialize(root)) for name, root in roots]
        self.generate_s = time.perf_counter() - start
        split = max(1, int(len(self.documents) * PRELOAD_SHARE))
        self.preload = self.documents[:split]
        self.holdout = self.documents[split:]
        self._roots = [root for _name, root in roots[:split]]

    def facts(self):
        """Per preloaded document: ``[(tag, [token, ...]), ...]``."""
        per_document = []
        for root in self._roots:
            entries = []
            for element in root.iter_descendants():
                tokens = [
                    word.lower() for word in _WORD.findall(element.text)
                    if word.lower() not in _OPERATORS
                ]
                entries.append((element.tag, tokens))
            per_document.append(entries)
        return per_document

    def trade_rows(self):
        """Oracle fact rows straight from the preloaded documents:
        ``{(country, kind): sorted [(country, year, partner, pct)]}``
        for ``kind`` in import/export -- no index, no search."""
        rows = {}
        for root in self._roots:
            if root.tag != "country":
                continue
            name = root.text.strip()
            year = root.find("year").text.strip()
            economy = root.find("economy")
            for kind in ("import", "export"):
                bucket = rows.setdefault((name, kind), [])
                for item in economy.find(f"{kind}_partners").iter_elements():
                    bucket.append((
                        name, year,
                        item.find("trade_country").text.strip(),
                        float(item.find("percentage").text.rstrip("%")),
                    ))
        return {key: sorted(value) for key, value in rows.items()}


def user_bytes(documents):
    """Raw XML bytes of ``(name, xml)`` pairs: the user's data."""
    return sum(len(xml.encode("utf-8")) for _name, xml in documents)


def query_pools(facts, seed, size):
    """``{shape: [wire query, ...]}`` of distinct queries, ~``size`` total.

    Every query is drawn from one document's own tags and tokens, so it
    has at least one answer and does real top-k work; shapes are 1, 2
    and 3 terms in the ``SHAPE_PATTERN`` proportions.
    """
    rng = random.Random(f"{seed}:pool")
    pools = {}
    for shape in sorted(set(SHAPE_PATTERN)):
        wanted = size * SHAPE_PATTERN.count(shape) // len(SHAPE_PATTERN)
        pool, seen = [], set()
        # A tiny corpus has fewer distinct queries than wanted: stop
        # looking after a bounded number of draws.
        for _attempt in range(wanted * 8):
            if len(pool) == wanted:
                break
            entries = rng.choice(facts)
            if len(entries) < shape:
                continue
            terms = []
            for tag, tokens in rng.sample(entries, shape):
                pick = rng.random()
                if tokens and pick < 0.4:
                    terms.append(["*", rng.choice(tokens)])
                elif tokens and pick < 0.6:
                    terms.append([tag, rng.choice(tokens)])
                else:
                    terms.append([tag, "*"])
            if repr(terms) not in seen:
                seen.add(repr(terms))
                pool.append(terms)
        pools[shape] = pool
    return pools


def hot_pool(pools, seed, size):
    """``size`` multi-term queries: the hot set (fits any result cache)."""
    rng = random.Random(f"{seed}:hot")
    candidates = pools[2] + pools[3]
    return rng.sample(candidates, min(size, len(candidates)))


def zipf_stream(pool, seed, lane, exponent=1.1):
    """Endless Zipf(``exponent``)-ranked draws from ``pool``."""
    rng = random.Random(f"{seed}:zipf:{lane}")
    weights = [1.0 / (rank ** exponent) for rank in range(1, len(pool) + 1)]
    while True:
        yield from rng.choices(pool, weights=weights, k=256)


def cold_stream(pools, seed, lane):
    """Endless uniform draws, cycling the shapes in ``SHAPE_PATTERN``."""
    rng = random.Random(f"{seed}:cold:{lane}")
    while True:
        for shape in SHAPE_PATTERN:
            yield rng.choice(pools[shape] or pools[2])


def oracle_subset(pools, seed, size):
    """``size`` pool queries whose answers are byte-checked."""
    rng = random.Random(f"{seed}:oracle")
    everything = [query for shape in sorted(pools) for query in pools[shape]]
    return rng.sample(everything, min(size, len(everything)))


def write_order(holdout, seed):
    """The holdout documents in this seed's write order."""
    documents = list(holdout)
    random.Random(f"{seed}:writes").shuffle(documents)
    return documents


def _tokens(name):
    return re.findall(r"[a-z0-9]+", name.lower())


def _contains(haystack, needle):
    return any(
        haystack[i:i + len(needle)] == needle
        for i in range(len(haystack) - len(needle) + 1)
    )


def anchor_stream(trade_rows, seed):
    """Endless ``(country, kind)`` analyst anchors, one popular : three rare.

    Anchors are countries whose name is neither contained in nor
    contains another country's name, so the phrase search matches
    exactly the anchor's own documents and the oracle is unambiguous.
    *Popular* anchors also occur as somebody's trade partner (their
    search touches many more nodes); the fixed interleave keeps the
    cost mix of any run prefix independent of the seed.
    """
    names = sorted({name for name, _kind in trade_rows})
    tokens = {name: _tokens(name) for name in names}
    unambiguous = [
        name for name in names
        if not any(
            other != name and (
                _contains(tokens[other], tokens[name])
                or _contains(tokens[name], tokens[other])
            )
            for other in names
        )
    ]
    partners = {
        row[2] for rows in trade_rows.values() for row in rows
    }
    rng = random.Random(f"{seed}:anchors")
    popular = [name for name in unambiguous if name in partners]
    rare = [name for name in unambiguous if name not in partners] or popular
    popular = popular or rare

    def cycle(names):
        # Shuffled passes, not independent draws: a run covers most of
        # a stratum once, so two seeds differ in order more than in mix.
        while True:
            yield from rng.sample(names, len(names))

    popular, rare, kinds = cycle(popular), cycle(rare), cycle(
        ["import", "export"] * 2)
    while True:
        for stratum in (popular, rare, rare, rare):
            yield next(stratum), next(kinds)
