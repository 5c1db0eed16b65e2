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
  scores strictly above the threshold, no unformed tuple can reach it
  and the search stops (at equality a tied unformed tuple could still
  win the node-id tie-break).

Partner enumeration is restricted to nodes in *reachable documents*
(same document, or one cross-document link away): compactness is
monotone in graph distance, and nodes further apart than ``max_hops``
cannot form a valid tuple at all (Definition 4 connectivity).

One enumeration combines every query of two or more terms.  It fills
the slots in term order: the new node's slot holds the new node, and
every other slot walks its seen partners best first (descending
score, ties by node id), skipping nodes already chosen.  A candidate's
pruning bound folds, left to right in term order, the chosen scores,
its own score and the best score each still-open slot can offer, and
weighs that mean as the score does, at the best compactness ``m``
distinct nodes can reach, ``1/m`` (they are pairwise at distance
>= 1).  Scores only
fall along a slot, so the first candidate whose bound is strictly
below the pruning limit -- the k-th heap score, or the cross-shard
bound if higher -- prunes the rest of its slot, and
``stats["pruned"]`` counts the formable combos in that region.  At
the last open slot the fold is the exact sum the score uses, the same
left-to-right fold as :meth:`ScoringModel.combine`.  Only
strictly-worse bounds are pruned, so tied tuples still reach the
deterministic tie-break and answers are unchanged.

Hot-path engineering on top of the paper's algorithm:

* **Impact streams** -- a term's stream is built once per graph
  version, stored columnar in an :class:`ImpactStreamStore` (shared
  by every searcher, rebuilt on first use after a load or a write),
  and thereafter sorted access is an index into two flat arrays
  instead of a re-analysis of every candidate's text.
* **A per-search distance memo** -- ``search`` creates one dict of
  pair distances for its enumeration; it dies when the search
  returns, so a read retains nothing it computed.
* **Bounds before distances** -- the pruning bound above needs only
  content scores, so a pruned combo costs no structural work.  The TA
  stopping threshold keeps the seed's compactness-1 cap (on top of
  the corner bound above).  An unbounded search (``k=None``) neither
  prunes nor stops early, so ``search(q, k=None)[:k]`` is the
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

    def __init__(self, matcher, scoring, partner_limit=200, streams=None):
        self.matcher = matcher
        self.scoring = scoring
        self.partner_limit = partner_limit
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
            "stop_reason": None,
        }
        streams = [self._stream(term) for term in terms]
        self.stats["candidates"] = [len(stream) for stream in streams]
        self.stats["per_term_accesses"] = [0] * len(terms)
        if any(len(stream) == 0 for stream in streams):
            self.stats["stop_reason"] = "empty-stream"
            return []
        if len(terms) == 1:
            return self._single_term(streams[0], k)

        seen_by_doc = [collections.defaultdict(list) for _ in terms]
        seen_scores = [dict() for _ in terms]
        heap = []  # min-heap of (score, tiebreak, ResultTuple)
        combine = _Enumeration(self, seen_by_doc, seen_scores, heap, k).combine
        frontiers = [stream.scores[0] for stream in streams]
        # Stream maxima (first element of each impact-sorted stream):
        # the corner-bound stopping threshold needs the best score a
        # *seen* partner can contribute, which is the stream's top.
        maxima = [stream.scores[0] for stream in streams]
        cursors = [0] * len(terms)
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
                combine(i, node_id, doc_id, floor)
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
                    # still formable.  Stop only strictly above it: a
                    # tuple can reach the bound itself (structure
                    # weight 0 ranks by content alone), and a tied
                    # unformed tuple may still win the node-id
                    # tie-break.
                    threshold = max(
                        self.scoring.upper_bound([
                            frontiers[i] if i == j else maxima[i]
                            for i in range(len(terms))
                        ])
                        for j in range(len(terms))
                    )
                    if max(local_best, imported) > threshold:
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

    def _single_term(self, stream, k):
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

    def _partners(self, j, docs, seen_by_doc, seen_scores):
        """Term ``j``'s seen nodes within ``docs``, best first.

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
        if len(partners) > 1:
            scores = seen_scores[j]
            # Tie-break by node id so that neither the order nor which
            # tied partners survive the cap depends on arrival order.
            partners.sort(key=lambda node_id: (-scores[node_id], node_id))
        del partners[self.partner_limit:]
        return partners


class _Enumeration:
    """The one combine path: every tuple a newly seen node completes.

    One instance serves one search of ``m >= 2`` terms; the module
    docstring gives the slot order and the pruning bound.  Every combo
    is formed exactly once across the whole search: the forming event
    is the arrival of its last member (at any earlier member's arrival
    the rest is missing from the seen tables), so no dedup bookkeeping
    is needed.  The heap holds the top-k under a strict total order
    (score, then node-id tiebreak), so visiting order changes no
    answer.  The state lives on the instance rather than in recursive
    closures, which would form reference cycles and keep a finished
    search's memo alive until the cycle collector ran.
    """

    __slots__ = (
        "searcher", "m", "seen_by_doc", "seen_scores", "heap", "k",
        "reach", "pair_distance", "content_weight", "structure_weight",
        "cap", "memo", "slots", "best", "chosen", "chosen_scores", "i",
        "node_id", "last", "floor",
    )

    def __init__(self, searcher, seen_by_doc, seen_scores, heap, k):
        scoring = searcher.scoring
        self.searcher = searcher
        self.m = m = len(seen_scores)
        self.seen_by_doc = seen_by_doc
        self.seen_scores = seen_scores
        self.heap = heap
        self.k = k
        self.reach = scoring.document_reachability()
        self.pair_distance = scoring.pair_distance
        self.content_weight = scoring.content_weight
        self.structure_weight = scoring.structure_weight
        # m distinct nodes are pairwise at distance >= 1, so the star's
        # size is at least m - 1 and compactness at most 1/m.
        self.cap = (1.0 / m) ** scoring.structure_weight
        # Pair distances under symmetric (lo, hi) keys, for this search
        # only: nothing outlives the call.
        self.memo = {}
        # Per arrival: each slot's candidates best first, the best score
        # each can offer, the nodes and scores chosen so far, the new
        # node's slot, the last open slot and the cross-shard floor.
        self.slots = [None] * m
        self.best = [None] * m
        self.chosen = [None] * m
        self.chosen_scores = [None] * m
        self.i = self.node_id = self.last = self.floor = None

    def combine(self, i, node_id, doc_id, floor):
        """Score the tuples ``node_id``, just seen on term ``i``'s
        stream in document ``doc_id``, completes, pruning against
        ``floor`` (the cross-shard bound) and the k-th heap score."""
        m, slots, best = self.m, self.slots, self.best
        seen_scores = self.seen_scores
        reachable = self.reach.get(doc_id)
        docs = ({doc_id} | reachable) if reachable else (doc_id,)
        for j in range(m):
            found = [node_id] if j == i else self.searcher._partners(
                j, docs, self.seen_by_doc, seen_scores
            )
            if not found:
                return
            slots[j] = found
            best[j] = seen_scores[j][found[0]]
        self.i, self.node_id, self.floor = i, node_id, floor
        self.last = m - 2 if i == m - 1 else m - 1  # the last open slot
        self.chosen[i] = node_id
        self.chosen_scores[i] = best[i]
        self._fill(0, 0.0)

    def _formable(self, j, start, used):
        """Combos of distinct nodes, none in ``used``, with slot ``j``
        drawn from ``slots[j][start:]`` and every later open slot from
        its whole list."""
        later = j + 2 if j + 1 == self.i else j + 1
        candidates = self.slots[j][start:]
        if later >= self.m:
            return sum(1 for node in candidates if node not in used)
        return sum(
            self._formable(later, 0, (*used, node))
            for node in candidates if node not in used
        )

    def _fill(self, j, partial):
        """Fill open slot ``j`` onwards; ``partial`` is the left-to-right
        fold of the chosen scores before it."""
        i, m, best, chosen = self.i, self.m, self.best, self.chosen
        chosen_scores, stats = self.chosen_scores, self.searcher.stats
        content_weight, cap = self.content_weight, self.cap
        heap, k, floor = self.heap, self.k, self.floor
        prune = k is not None
        if j == i:
            partial += best[i]
            j += 1
        slot = self.slots[j]
        scores = self.seen_scores[j]
        node_id = self.node_id
        used = (*chosen[:j], node_id)
        if j != self.last:
            rest = best[j + 1:]
            for index, candidate in enumerate(slot):
                if candidate in used:
                    continue
                score = scores[candidate]
                if prune:
                    fold = partial + score
                    for later in rest:
                        fold += later
                    limit = floor
                    if len(heap) >= k and heap[0][0] > limit:
                        limit = heap[0][0]
                    if (fold / m) ** content_weight * cap < limit:
                        stats["pruned"] += self._formable(j, index, used)
                        return
                chosen[j] = candidate
                chosen_scores[j] = score
                self._fill(j + 1, partial + score)
            return
        # The last open slot, the hot loop.  Only the new node's slot
        # can follow it; the star (distances from the first member) has
        # a part fixed for the whole loop.
        memo, pair_distance = self.memo, self.pair_distance
        structure_weight = self.structure_weight
        tail = best[i] if i > j else None
        fixed = 0
        if j:
            hub = chosen[0]
            for other in (*chosen[1:j], *chosen[j + 1:]):
                key = (hub, other) if hub <= other else (other, hub)
                distance = memo.get(key, _MISSING)
                if distance is _MISSING:
                    distance = memo[key] = pair_distance(hub, other)
                if distance is None:
                    fixed = None
                    break
                fixed += distance
        else:
            # Two terms with the new node second: a one-edge star.
            hub = node_id
        for index, candidate in enumerate(slot):
            if candidate in used:
                continue
            score = scores[candidate]
            fold = partial + score
            if tail is not None:
                fold += tail
            mean = fold / m
            if prune:
                limit = floor
                if len(heap) >= k and heap[0][0] > limit:
                    limit = heap[0][0]
                if mean ** content_weight * cap < limit:
                    # Every later candidate scores no better; count
                    # only combos that could actually have formed.
                    stats["pruned"] += sum(
                        1 for later in slot[index:] if later not in used
                    )
                    return
            stats["tuples_scored"] += 1
            if fixed is None:
                continue
            key = (candidate, hub) if candidate <= hub else (hub, candidate)
            distance = memo.get(key, _MISSING)
            if distance is _MISSING:
                distance = memo[key] = pair_distance(candidate, hub)
            if distance is None:
                continue
            compactness = 1.0 / (1.0 + (distance + fixed))
            total = mean ** content_weight * compactness ** structure_weight
            chosen[j] = candidate
            chosen_scores[j] = score
            if k is None or len(heap) < k:
                heapq.heappush(heap, (
                    total,
                    tuple(-member for member in chosen),
                    ResultTuple(chosen, chosen_scores, compactness, total),
                ))
            elif total >= heap[0][0]:
                # Compare the tiebreak too, not just the score: among
                # equal-score tuples the survivor must be decided by the
                # deterministic key (smaller node ids win), never by
                # arrival order.
                tiebreak = tuple(-member for member in chosen)
                if (total, tiebreak) > (heap[0][0], heap[0][1]):
                    heapq.heapreplace(heap, (
                        total,
                        tiebreak,
                        ResultTuple(chosen, chosen_scores, compactness, total),
                    ))
