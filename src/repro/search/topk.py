"""Threshold-algorithm top-k search over per-term score streams.

The classic TA of Fagin, Lotem and Naor [8], adapted to graph tuples as
in the paper's top-k unit:

* one sorted stream per query term, ordered by descending content score
  (drawn from the full-text index);
* sorted access round-robins across streams; every newly seen node is
  combined with already-seen partner nodes of the other terms to form
  candidate tuples, whose exact scores (content x compactness) come
  from random access to the data graph;
* the threshold is the score a not-yet-formed tuple could still
  reach -- the rank-join *corner bound*: such a tuple has at least one
  member unseen in its stream (bounded by that frontier) while its
  other members may be anything already seen (bounded by the stream
  maxima), so the threshold is the max over which position is the
  unseen one, at perfect compactness.  (The plain all-frontiers
  combination is NOT a bound here: it misses tuples pairing a seen
  high scorer with an unseen partner.)  Once the k-th best tuple
  scores at or above the threshold, no unformed tuple can beat it and
  the search stops.

Partner enumeration is restricted to nodes in *reachable documents*
(same document, or one cross-document link away): compactness is
monotone in graph distance, and nodes further apart than ``max_hops``
cannot form a valid tuple at all (Definition 4 connectivity).

Hot-path engineering on top of the paper's algorithm:

* **Impact streams** -- a term's stream is built once per graph
  version, stored columnar in an :class:`ImpactStreamStore` (shared
  by every searcher, persisted through snapshots), and thereafter sorted
  access is an index into two flat arrays instead of a re-analysis of
  every candidate's text.
* **A per-search distance memo** -- ``search`` creates one dict of
  pair distances and hands it to every combine path; it dies when the
  search returns, so a read retains nothing it computed.
* **Bound-based pruning** -- before a candidate tuple's structural
  distances are computed, its upper bound (the mean of its known
  content scores at the best compactness ``m`` distinct nodes can
  reach, ``1/m``) is compared to the current k-th heap score; a combo
  that cannot strictly beat it is counted in ``stats["pruned"]`` and
  skipped.  Only strictly-worse bounds are pruned, so tied tuples
  still reach the deterministic tie-break and answers are unchanged.
  The TA stopping threshold keeps the seed's compactness-1 cap (on
  top of the corner bound above).  An unbounded search (``k=None``)
  neither prunes nor stops early, so ``search(q, k=None)[:k]`` is the
  exhaustive reference a bounded search must equal byte for byte.

Scatter-gather support: ``search`` accepts an optional
:class:`SharedBound` -- a monotone lower bound on the k-th best score
*across every shard of a sharded collection*.  The searcher publishes
its own k-th heap score into the bound and prunes (and early-stops)
against it exactly as it does against the local heap: only strictly
worse candidates are dropped, so the merged cross-shard top-k is
unchanged (see :mod:`repro.shard`).
"""

import collections
import heapq
import itertools
import threading

from repro.index.streams import ImpactStream, ImpactStreamStore
from repro.search.result import ResultTuple

#: Sentinel for inline distance-memo probes (None is a memoized value).
_MISSING = object()

_NEG_INF = float("-inf")


class SharedBound:
    """A monotone lower bound on the global k-th best score.

    One instance is shared by every per-shard searcher answering the
    same query: each publishes its local k-th heap score via
    :meth:`offer`, and all of them prune candidate tuples whose upper
    bound falls *strictly* below :attr:`value`.  Any published value is
    the k-th best of some subset of the corpus's tuples, hence at most
    the final global k-th score -- so strictly-below-bound pruning can
    never evict a tuple from the merged top-k, ties included.

    Reads are lock-free (one attribute load); :meth:`offer` takes a
    lock only when it would actually raise the bound, so the racy
    fast-path check never lets the value move downward.
    """

    __slots__ = ("_lock", "value")

    def __init__(self):
        self._lock = threading.Lock()
        self.value = _NEG_INF

    def offer(self, score):
        """Raise the bound to ``score`` if it is an improvement."""
        if score > self.value:
            with self._lock:
                if score > self.value:
                    self.value = score
        return self.value

    def __repr__(self):
        return f"SharedBound({self.value})"


class TopKSearcher:
    """TA-style top-k evaluation of SEDA queries."""

    def __init__(self, matcher, scoring, partner_limit=200,
                 allow_repeats=False, streams=None):
        self.matcher = matcher
        self.scoring = scoring
        self.partner_limit = partner_limit
        self.allow_repeats = allow_repeats
        #: Shared per-term stream cache.  Pass the system's store so
        #: every searcher over the same indexes reuses one set of
        #: streams; a private store is created otherwise.
        self.streams = streams if streams is not None else ImpactStreamStore()
        #: The last search's counters: the only state a searcher
        #: mutates, which is why concurrent searches each build their
        #: own.  Everything derived from the graph lives on the scoring
        #: model, everything derived from the indexes in ``streams``.
        self.stats = {}

    # -- public API -----------------------------------------------------------

    def search(self, query, k=10, shared_bound=None):
        """Return the top-``k`` :class:`ResultTuple` list, best first.

        ``shared_bound`` is the cross-shard :class:`SharedBound` used
        by scatter-gather search; leave it ``None`` (the default) for a
        standalone system -- behavior is then exactly the classic TA.
        """
        if k is not None and k <= 0:
            # An empty answer set; without this guard the stopping
            # logic would treat a 0-capacity heap as full and index
            # into it.
            self.stats = {
                "sorted_accesses": 0,
                "tuples_scored": 0,
                "pruned": 0,
                "early_stop": True,
                "candidates": [],
                "per_term_accesses": [],
                "path": None,
                "stop_reason": "k-zero",
            }
            return []
        terms = query.terms
        # Reset stats before any work so that every entry -- including
        # queries that bail out on an empty stream below -- leaves this
        # query's numbers behind, never the previous query's.
        self.stats = {
            "sorted_accesses": 0,
            "tuples_scored": 0,
            "pruned": 0,
            "early_stop": False,
            "candidates": [],
            "per_term_accesses": [],
            "path": None,
            "stop_reason": None,
        }
        streams = [self._stream(term) for term in terms]
        self.stats["candidates"] = [len(stream) for stream in streams]
        self.stats["per_term_accesses"] = [0] * len(terms)
        self.stats["path"] = self._path_name(terms)
        if any(len(stream) == 0 for stream in streams):
            self.stats["stop_reason"] = "empty-stream"
            return []
        if len(terms) == 1:
            return self._single_term(streams[0], terms, k)

        doc_reach = self.scoring.document_reachability()
        # Pair distances under symmetric (lo, hi) keys, for this search
        # only: nothing outlives the call.
        memo = {}
        seen_by_doc = [collections.defaultdict(list) for _ in terms]
        seen_scores = [dict() for _ in terms]
        frontiers = [stream.scores[0] for stream in streams]
        # Stream maxima (first element of each impact-sorted stream):
        # the corner-bound stopping threshold needs the best score a
        # *seen* partner can contribute, which is the stream's top.
        maxima = [stream.scores[0] for stream in streams]
        cursors = [0] * len(terms)
        heap = []  # min-heap of (score, tiebreak, ResultTuple)
        exhausted = 0

        while exhausted < len(terms):
            exhausted = 0
            # Snapshot the cross-shard bound once per round: it only
            # ever rises, so a slightly stale read prunes less, never
            # wrongly.
            floor = (
                shared_bound.value if shared_bound is not None else _NEG_INF
            )
            for i, stream in enumerate(streams):
                cursor = cursors[i]
                if cursor >= len(stream):
                    exhausted += 1
                    continue
                score = stream.scores[cursor]
                node_id = stream.node_ids[cursor]
                cursors[i] += 1
                frontiers[i] = score
                self.stats["sorted_accesses"] += 1
                self.stats["per_term_accesses"][i] += 1
                doc_id = self.matcher.collection.node(node_id).doc_id
                seen_scores[i][node_id] = score
                seen_by_doc[i][doc_id].append(node_id)
                self._combine(
                    i, node_id, score, terms, seen_by_doc, seen_scores,
                    doc_reach, heap, k, floor, memo,
                )
            if k is not None:
                local_best = _NEG_INF
                if len(heap) >= k:
                    local_best = heap[0][0]
                    if shared_bound is not None:
                        shared_bound.offer(local_best)
                imported = (
                    shared_bound.value if shared_bound is not None
                    else _NEG_INF
                )
                if local_best > _NEG_INF or imported > _NEG_INF:
                    # Rank-join corner bound: an unformed tuple has at
                    # least one member still unseen in its stream
                    # (score <= that frontier), while every other
                    # member is bounded by its stream's maximum -- the
                    # frontier alone does NOT bound tuples pairing an
                    # already-seen high scorer with an unseen partner.
                    # The max over which position is the unseen one,
                    # at the compactness-1 cap, bounds every tuple
                    # still formable, so stopping at it never drops a
                    # qualifying answer (and an m-node tuple's real
                    # compactness is <= 1/m, so its score is strictly
                    # below the bound -- ties cannot arise at it).
                    threshold = max(
                        self.scoring.upper_bound([
                            frontiers[i] if i == j else maxima[i]
                            for i in range(len(terms))
                        ])
                        for j in range(len(terms))
                    )
                    if (local_best >= threshold
                            or imported > threshold):
                        self.stats["early_stop"] = True
                        self.stats["stop_reason"] = "corner-bound"
                        break

        if self.stats["stop_reason"] is None:
            self.stats["stop_reason"] = "exhaustion"
        results = [entry[2] for entry in heap]
        results.sort(key=lambda r: (-r.score, r.node_ids))
        return results

    def counters(self):
        """The last search's effort counters, as serving statistics
        record them (one entry per searcher a query ran)."""
        stats = self.stats
        return {
            "sorted_accesses": stats["sorted_accesses"],
            "tuples_scored": stats["tuples_scored"],
            "pruned": stats["pruned"],
            "early_stop": stats["early_stop"],
        }

    # -- internals --------------------------------------------------------------

    def _stream(self, term):
        """Impact-ordered stream for ``term``, cached per graph version.

        The stream is built at most once per ``(term, graph version)``
        across every searcher sharing the store; repeated queries get
        the columnar arrays back in O(1).
        """
        version = self.scoring.graph.version
        key = term.cache_key()
        cached = self.streams.get(key, version)
        if cached is not None:
            return cached
        return self.streams.put(key, version, self._build_stream(term))

    def _build_stream(self, term):
        """Score and impact-sort a term's candidates (the slow build)."""
        scored = []
        for node_id in self.matcher.candidates(term):
            score = self.scoring.content_score(node_id, term)
            if score > 0.0:
                scored.append((score, node_id))
        return ImpactStream.from_scored(scored)

    def _single_term(self, stream, terms, k):
        """One-term queries need no combination: stream order is final.

        Compactness of a singleton is 1, so the combined score is the
        content score and the stream is already the answer.
        """
        results = []
        count = len(stream) if k is None else min(k, len(stream))
        for index in range(count):
            score = stream.scores[index]
            combined = self.scoring.combine([score], 1.0)
            results.append(
                ResultTuple(
                    (stream.node_ids[index],), (score,), 1.0, combined
                )
            )
        self.stats["early_stop"] = len(stream) > len(results)
        self.stats["stop_reason"] = (
            "k-satisfied" if self.stats["early_stop"] else "exhaustion"
        )
        return results

    def _path_name(self, terms):
        """Which combine implementation this query's shape selects.

        Mirrors the dispatch in :meth:`_combine` (``single`` needs no
        combination at all); recorded in ``stats["path"]`` so EXPLAIN
        can report it without re-deriving the dispatch rules.
        """
        if len(terms) == 1:
            return "single"
        plain_weights = (
            self.scoring.content_weight == 1.0
            and self.scoring.structure_weight == 1.0
        )
        if plain_weights and not self.allow_repeats:
            if len(terms) == 2:
                return "pair"
            if len(terms) == 3:
                return "triple"
        return "general"

    def _combine_pair(self, i, node_id, score, seen_scores, partners,
                      heap, k, prune, floor, memo):
        """The two-term hot loop, with tail pruning.

        Partners are visited in descending score order (ties by node
        id), so the candidate means only shrink along the loop: the
        first combo whose upper bound falls strictly below the pruning
        limit -- the k-th heap score or the cross-shard ``floor``,
        whichever is higher -- proves every remaining combo does too,
        and the whole tail is pruned at once.  The final heap holds the
        top-k combos under a strict total order (score, then node-id
        tiebreak), so visiting order changes no answer.  The search's
        distance ``memo`` is probed inline (one dict lookup).
        """
        scoring = self.scoring
        stats = self.stats
        j = 1 - i
        scores_j = seen_scores[j]
        ordered = sorted(
            partners, key=lambda partner: (-scores_j[partner], partner)
        )
        for index, partner in enumerate(ordered):
            if partner == node_id:
                continue
            combo = (node_id, partner) if i == 0 else (partner, node_id)
            partner_score = scores_j[partner]
            mean = (score + partner_score) / 2
            if prune:
                limit = floor
                if len(heap) >= k and heap[0][0] > limit:
                    limit = heap[0][0]
                if mean * 0.5 < limit:
                    # Everything after this partner scores no better;
                    # count only combos that could actually have formed.
                    stats["pruned"] += sum(
                        1 for tail in ordered[index:] if tail != node_id
                    )
                    break
            key = (
                (node_id, partner) if node_id <= partner
                else (partner, node_id)
            )
            distance = memo.get(key, _MISSING)
            if distance is _MISSING:
                distance = memo[key] = scoring.pair_distance(node_id, partner)
            stats["tuples_scored"] += 1
            if distance is None:
                continue
            total = mean * (1.0 / (1.0 + distance))
            if k is None or len(heap) < k:
                content_scores = (
                    (score, partner_score) if i == 0
                    else (partner_score, score)
                )
                entry = (
                    total,
                    (-combo[0], -combo[1]),
                    ResultTuple(
                        combo, content_scores,
                        1.0 / (1.0 + distance), total,
                    ),
                )
                heapq.heappush(heap, entry)
            elif total >= heap[0][0]:
                tiebreak = (-combo[0], -combo[1])
                if (total, tiebreak) > (heap[0][0], heap[0][1]):
                    content_scores = (
                        (score, partner_score) if i == 0
                        else (partner_score, score)
                    )
                    heapq.heapreplace(
                        heap,
                        (
                            total,
                            tiebreak,
                            ResultTuple(
                                combo, content_scores,
                                1.0 / (1.0 + distance), total,
                            ),
                        ),
                    )

    def _combine_triple(self, i, node_id, score, seen_scores, partner_lists,
                        heap, k, prune, floor, memo):
        """The three-term hot loop: nested descending-order iteration.

        Same shape as :meth:`_combine_pair`, one level deeper: both
        partner lists are visited in descending score order, so a
        failing bound prunes the rest of the inner list, and a bound
        that fails even against the inner list's *best* score prunes
        every remaining outer partner as well.  Means are accumulated
        in term order (IEEE addition is not associative), so totals are
        bit-identical to the generic path.
        """
        scoring = self.scoring
        stats = self.stats
        j1, j2 = (j for j in range(3) if j != i)
        scores_1, scores_2 = seen_scores[j1], seen_scores[j2]
        first = sorted(
            partner_lists[j1], key=lambda p: (-scores_1[p], p)
        )
        second = sorted(
            partner_lists[j2], key=lambda p: (-scores_2[p], p)
        )
        best_second = scores_2[second[0]]
        third = 1.0 / 3.0
        for outer_index, a in enumerate(first):
            if a == node_id:
                continue
            score_a = scores_1[a]
            if prune:
                limit = floor
                if len(heap) >= k and heap[0][0] > limit:
                    limit = heap[0][0]
            else:
                limit = _NEG_INF
            if limit > _NEG_INF:
                # Even paired with the inner list's best partner this
                # outer partner cannot reach the pruning limit; the
                # remaining (lower-scored) outer partners cannot
                # either.  The mean is formed in term order below; for
                # the bound the max over permutations is what matters,
                # and addition is commutative, so this test is exact.
                best_mean = (
                    (score + score_a + best_second) / 3 if i == 0
                    else (score_a + score + best_second) / 3 if i == 1
                    else (score_a + best_second + score) / 3
                )
                if best_mean * third < limit:
                    # Count only combos that could actually have
                    # formed: exclude the new node and a == b repeats.
                    second_set = set(second)
                    base = len(second) - (node_id in second_set)
                    for tail in first[outer_index:]:
                        if tail != node_id:
                            stats["pruned"] += base - (tail in second_set)
                    break
            for inner_index, b in enumerate(second):
                if b == node_id or b == a:
                    continue
                score_b = scores_2[b]
                if i == 0:
                    combo = (node_id, a, b)
                    mean = (score + score_a + score_b) / 3
                elif i == 1:
                    combo = (a, node_id, b)
                    mean = (score_a + score + score_b) / 3
                else:
                    combo = (a, b, node_id)
                    mean = (score_a + score_b + score) / 3
                if prune:
                    limit = floor
                    if len(heap) >= k and heap[0][0] > limit:
                        limit = heap[0][0]
                    if mean * third < limit:
                        # Every later inner partner scores no better;
                        # count only combos that could actually have
                        # formed.
                        stats["pruned"] += sum(
                            1 for tail in second[inner_index:]
                            if tail != node_id and tail != a
                        )
                        break
                anchor = combo[0]
                other_1, other_2 = combo[1], combo[2]
                key = (
                    (anchor, other_1) if anchor <= other_1
                    else (other_1, anchor)
                )
                distance_1 = memo.get(key, _MISSING)
                if distance_1 is _MISSING:
                    distance_1 = memo[key] = scoring.pair_distance(
                        anchor, other_1
                    )
                if distance_1 is None:
                    distance_2 = None
                else:
                    key = (
                        (anchor, other_2) if anchor <= other_2
                        else (other_2, anchor)
                    )
                    distance_2 = memo.get(key, _MISSING)
                    if distance_2 is _MISSING:
                        distance_2 = memo[key] = scoring.pair_distance(
                            anchor, other_2
                        )
                stats["tuples_scored"] += 1
                if distance_1 is None or distance_2 is None:
                    continue
                compactness = 1.0 / (1.0 + (distance_1 + distance_2))
                total = mean * compactness
                if k is None or len(heap) < k:
                    contents = (
                        (score, score_a, score_b) if i == 0
                        else (score_a, score, score_b) if i == 1
                        else (score_a, score_b, score)
                    )
                    entry = (
                        total,
                        (-combo[0], -combo[1], -combo[2]),
                        ResultTuple(combo, contents, compactness, total),
                    )
                    heapq.heappush(heap, entry)
                elif total >= heap[0][0]:
                    tiebreak = (-combo[0], -combo[1], -combo[2])
                    if (total, tiebreak) > (heap[0][0], heap[0][1]):
                        contents = (
                            (score, score_a, score_b) if i == 0
                            else (score_a, score, score_b) if i == 1
                            else (score_a, score_b, score)
                        )
                        heapq.heapreplace(
                            heap,
                            (
                                total,
                                tiebreak,
                                ResultTuple(
                                    combo, contents, compactness, total
                                ),
                            ),
                        )

    def _partners(self, j, docs, seen_by_doc, seen_scores):
        """Highest-scoring seen nodes of term ``j`` within ``docs``.

        The ``partner_limit`` cap selects from the *seen-so-far* set,
        which depends on stream interleaving -- so on corpora dense
        enough to hit the cap (> ``partner_limit`` same-term matches
        reachable from one node), runs over different stream layouts
        (a shard vs. the whole corpus) may truncate different
        partners.  The sharded merge-equivalence contract therefore
        excludes cap-saturated corpora; see ``docs/ARCHITECTURE.md``.
        """
        partners = []
        for doc_id in docs:
            partners.extend(seen_by_doc[j].get(doc_id, ()))
        if len(partners) > self.partner_limit:
            # Tie-break by node id so that which tied-score partners
            # survive the cap never depends on stream arrival order.
            partners.sort(
                key=lambda node_id: (-seen_scores[j][node_id], node_id)
            )
            partners = partners[: self.partner_limit]
        return partners

    def _combine(self, i, node_id, score, terms, seen_by_doc, seen_scores,
                 doc_reach, heap, k, floor, memo):
        """Form and score all tuples that include the newly seen node.

        Every combo is formed exactly once across the whole search: the
        forming event is the arrival of its last member (at any earlier
        member's arrival the rest is missing from the seen tables), so
        no dedup bookkeeping is needed.

        This is the hottest loop in the system; the common shapes
        (two- and three-term queries at the default unit weights) take
        specialized paths with the scoring arithmetic inlined
        (``x ** 1.0 == x`` exactly, so the inline product is
        bit-identical to :meth:`ScoringModel.score_tuple`), partners in
        descending score order for tail pruning, and heap entries only
        materialized for combos that actually enter the heap.
        """
        collection = self.matcher.collection
        doc_id = collection.node(node_id).doc_id
        docs = {doc_id} | doc_reach.get(doc_id, set())
        m = len(terms)
        partner_lists = []
        for j in range(m):
            if j == i:
                partner_lists.append([node_id])
                continue
            partners = self._partners(j, docs, seen_by_doc, seen_scores)
            if not partners:
                return
            partner_lists.append(partners)
        scoring = self.scoring
        stats = self.stats
        allow_repeats = self.allow_repeats
        prune = k is not None
        # m distinct nodes are pairwise at distance >= 1, so the star
        # approximation's size is at least m - 1 and compactness at most
        # 1/m; with repeats allowed nodes can coincide and the cap is 1.
        compactness_cap = 1.0 if allow_repeats else 1.0 / m
        plain_weights = (
            scoring.content_weight == 1.0 and scoring.structure_weight == 1.0
        )
        if plain_weights and not allow_repeats:
            if m == 2:
                self._combine_pair(
                    i, node_id, score, seen_scores,
                    partner_lists[1 - i], heap, k, prune, floor, memo,
                )
                return
            if m == 3:
                self._combine_triple(
                    i, node_id, score, seen_scores, partner_lists,
                    heap, k, prune, floor, memo,
                )
                return
        for combo in itertools.product(*partner_lists):
            if not allow_repeats and len(set(combo)) < len(combo):
                continue
            # Every combo member was drawn from the seen tables, so its
            # content score is already known -- a dict lookup, never a
            # recomputation.
            content_scores = [
                seen_scores[j][combo[j]] for j in range(m)
            ]
            if prune:
                limit = floor
                if len(heap) >= k and heap[0][0] > limit:
                    limit = heap[0][0]
                # The true score is the bound shrunk by the actual
                # compactness <= cap, so a bound strictly below the
                # pruning limit (the k-th heap score or another shard's
                # published bound) can never enter the merged top-k --
                # skip the (expensive) structural distance work
                # entirely.  Bounds *equal* to the limit are not pruned:
                # at cap compactness the tuple could still win on the
                # deterministic tie-break.
                bound = scoring.upper_bound(content_scores, compactness_cap)
                if bound < limit:
                    stats["pruned"] += 1
                    continue
            compactness = scoring.compactness(combo, memo)
            stats["tuples_scored"] += 1
            if compactness is None:
                continue
            total = scoring.combine(content_scores, compactness)
            if k is None or len(heap) < k:
                entry = (
                    total,
                    tuple(-nid for nid in combo),
                    ResultTuple(combo, content_scores, compactness, total),
                )
                heapq.heappush(heap, entry)
            elif total >= heap[0][0]:
                # Compare the tiebreak too, not just the score: among
                # equal-score tuples the survivor must be decided by the
                # deterministic key (lexicographically smaller node ids
                # win), never by stream arrival order.
                tiebreak = tuple(-nid for nid in combo)
                if (total, tiebreak) > (heap[0][0], heap[0][1]):
                    heapq.heapreplace(
                        heap,
                        (
                            total,
                            tiebreak,
                            ResultTuple(
                                combo, content_scores, compactness, total
                            ),
                        ),
                    )
