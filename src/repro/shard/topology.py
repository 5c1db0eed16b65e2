"""Elastic shard topology: split, merge, rebalance, and skew reporting.

A :class:`~repro.shard.sharded.ShardedSeda`'s shard count is fixed at
build time by partitioner arithmetic -- until a shard fills up or runs
hot, at which point the operations here change the topology *without a
full rebuild*: they rewrite only the affected shards' snapshot files
and commit by writing a new manifest generation whose document table is
the explicit document->shard assignment map (and whose
``routing_epoch`` records that the topology moved).

Three properties carry every operation:

1. **Placement independence.**  Search results depend only on global
   node ids, corpus-wide term statistics, and link co-location -- none
   of which a topology change touches -- so ``search``/``search_many``
   are byte-identical before, during (online path), and after any
   split/merge/rebalance.
2. **Co-location preservation.**  Documents move in whole *units*: the
   connected components of the cross-document link edges (IDREF, XLink,
   value links).  By the co-location invariant every such component is
   intra-shard, so moving components whole keeps it intact.
3. **Affected-shards-only I/O.**  Unaffected shards keep their existing
   snapshot files; the new manifest points at them unchanged, with
   their ``shard_doc_bases`` watermarks preserved so write-ahead
   batches they have not absorbed still replay onto them.  The
   manifest write is the single commit point: a crash before it
   recovers onto the old topology, after it onto the new one.
"""

import os

from repro.shard.slot import _ShardSlot
from repro.storage.snapshot import (
    read_obs_state,
    read_sharded_manifest,
    sidecar_file_name,
)
from repro.storage.wal import sharded_wal_file_name
from repro.system import Seda
from repro.xmlio.dom import Element

#: Metrics :func:`propose_rebalance` can equalize.
REBALANCE_METRICS = ("documents", "nodes")


# -- document reconstruction --------------------------------------------------

def _document_to_element(document):
    """Rebuild the parsed :class:`Element` tree behind a live document.

    Walks the flat node list in document order (the same order
    :meth:`Document.from_element` created it in): element nodes become
    elements, attribute nodes become entries of their parent's
    attribute dict, and direct text re-attaches as a string child.
    The round trip is exact -- re-flattening the returned tree yields
    the same tags, paths, and node count -- which is what lets a
    topology operation rebuild a shard from another shard's in-memory
    documents without re-parsing any XML.
    """
    elements = {}
    root = None
    for node in document.nodes:
        if node.is_attribute:
            elements[node.parent_id].attributes[node.tag[1:]] = (
                node.direct_text or ""
            )
            continue
        element = Element(node.tag)
        if node.direct_text:
            element.append(node.direct_text)
        elements[node.node_id] = element
        if node.parent_id is None:
            root = element
        else:
            elements[node.parent_id].append(element)
    return root


# -- co-location units --------------------------------------------------------

def colocation_units(system, shard_index):
    """One shard's movable units: doc components of its link edges.

    Returns a list of lists of *global* document indexes, each list one
    connected component of the shard's cross-document link edges
    (single documents with no cross-document links are singleton
    units).  Units are ordered -- and internally sorted -- by global
    index, so planning over them is deterministic.  Moving units whole
    is what preserves the link co-location invariant.
    """
    shard = system.shard(shard_index)
    shard_globals = system._shard_docs[shard_index]
    parent = list(range(len(shard_globals)))

    def find(position):
        while parent[position] != position:
            parent[position] = parent[parent[position]]
            position = parent[position]
        return position

    collection = shard.collection
    for edge in shard.graph.edges:
        source_doc = collection.node(edge.source_id).doc_id
        target_doc = collection.node(edge.target_id).doc_id
        if source_doc == target_doc:
            continue
        root_a, root_b = find(source_doc), find(target_doc)
        if root_a != root_b:
            parent[max(root_a, root_b)] = min(root_a, root_b)
    groups = {}
    for position, global_index in enumerate(shard_globals):
        groups.setdefault(find(position), []).append(global_index)
    return [groups[root] for root in sorted(groups)]


# -- shard rebuilds -----------------------------------------------------------

def _extract_elements(system, global_indexes):
    """``(name, Element)`` pairs for documents, read from the old topology."""
    pairs = []
    for global_index in global_indexes:
        shard = system._doc_shard[global_index]
        position = system._shard_docs[shard].index(global_index)
        document = system.shard(shard).collection.documents[position]
        pairs.append((document.name, _document_to_element(document)))
    return pairs


def _rebuild_shard(system, shard_index, pairs, expected_counts, reference):
    """Build shard ``shard_index``'s system fresh from ``pairs``.

    The shard is rebuilt whole (never appended to) so its local
    document order stays the global order restricted to the shard --
    the property global node-id translation depends on.  ``reference``
    supplies the per-shard build configuration (analyzer, hop bound,
    dataguide threshold) so the rebuilt indexes score exactly like the
    originals.
    """
    seda = Seda.from_documents(
        pairs,
        value_links=system.value_links,
        name=f"{system.name}#{shard_index}",
        max_hops=reference.max_hops,
        dataguide_threshold=reference.dataguides.threshold,
        analyzer=reference.analyzer,
    )
    rebuilt = [len(document.nodes) for document in seda.collection.documents]
    if rebuilt != list(expected_counts):
        raise RuntimeError(
            f"shard {shard_index} rebuild produced node counts {rebuilt} "
            f"but the document table records {list(expected_counts)}; "
            "document reconstruction is not faithful"
        )
    return seda


# -- commit protocol ----------------------------------------------------------

def _install(system, new_slots, new_bases, affected):
    """Swap the new topology into the live system and commit it.

    ``new_slots``/``new_bases`` are the full post-operation slot and
    watermark lists; ``affected`` the post-operation indexes of rebuilt
    shards.  The routing epoch bumps exactly once per operation.  The
    commit (:meth:`ShardedSeda._commit` into the system's home) rewrites
    only the affected shards, advancing their watermarks, and keeps the
    write-ahead log: unaffected shard files keep their watermarks, so
    batches they have not absorbed must survive for replay.  A system
    without a home (never saved or loaded) changes in memory only:
    returns ``False``.
    """
    system._slots = new_slots
    for index in affected:
        slot = system._slots[index]
        slot.on_load = system._wire_shard
        system._wire_shard(slot.get())
    system._shard_doc_bases = new_bases
    system._rebuild_topology()
    system.stats.invalidate()
    system._routing_epoch += 1
    if system._service is not None:
        system._service.invalidate()
    if system._home is None:
        return False
    system._commit(system._home, affected)
    return True


# -- operations ---------------------------------------------------------------

def split(system, shard_id):
    """Split shard ``shard_id`` in two; the new shard appends at the end.

    The shard's co-location units are distributed greedily by node
    count between the old and the new shard (units in global order,
    each to the lighter side, ties staying put), so both halves end up
    roughly even without breaking any link component.  Raises
    :class:`ValueError` when the shard holds fewer than two units --
    one link-connected blob cannot be split without losing edges.
    Returns an operation summary; only the two affected shards'
    snapshot files are rewritten.
    """
    if not 0 <= shard_id < len(system._slots):
        raise ValueError(f"no shard {shard_id} (shards: {len(system._slots)})")
    units = colocation_units(system, shard_id)
    if len(units) < 2:
        raise ValueError(
            f"shard {shard_id} is one link-connected unit; splitting it "
            "would break the co-location invariant"
        )
    new_index = len(system._slots)
    keep_weight = move_weight = 0
    moved = []
    for unit in units:
        weight = sum(system._docs[g][2] for g in unit)
        if move_weight < keep_weight:
            moved.extend(unit)
            move_weight += weight
        else:
            keep_weight += weight
    moved_set = set(moved)
    pairs_keep, pairs_move = [], []
    counts_keep, counts_move = [], []
    reference = system.shard(shard_id)
    for position, global_index in enumerate(system._shard_docs[shard_id]):
        document = reference.collection.documents[position]
        pair = (document.name, _document_to_element(document))
        row = system._docs[global_index]
        if global_index in moved_set:
            pairs_move.append(pair)
            counts_move.append(row[2])
            row[1] = new_index
        else:
            pairs_keep.append(pair)
            counts_keep.append(row[2])
    new_slots = list(system._slots)
    new_slots[shard_id] = _ShardSlot(seda=_rebuild_shard(
        system, shard_id, pairs_keep, counts_keep, reference
    ))
    new_slots.append(_ShardSlot(seda=_rebuild_shard(
        system, new_index, pairs_move, counts_move, reference
    )))
    new_bases = system._shard_doc_bases + [len(system._docs)]
    committed = _install(system, new_slots, new_bases, {shard_id, new_index})
    return {
        "op": "split",
        "shard": shard_id,
        "new_shard": new_index,
        "moved_documents": len(moved_set),
        "shards": len(system._slots),
        "routing_epoch": system._routing_epoch,
        "affected_shards": [shard_id, new_index],
        "committed": committed,
    }


def merge(system, a, b):
    """Merge shards ``a`` and ``b``; the surviving shard is the lower index.

    The higher index disappears: shards above it shift down one
    position (keeping their snapshot files -- the manifest's shard
    list is positional), and only the surviving shard is rebuilt, with
    its merged documents in global order.  Returns an operation
    summary.
    """
    shards = len(system._slots)
    if a == b:
        raise ValueError("cannot merge a shard with itself")
    for index in (a, b):
        if not 0 <= index < shards:
            raise ValueError(f"no shard {index} (shards: {shards})")
    if shards < 2:
        raise ValueError("need at least two shards to merge")
    lo, hi = min(a, b), max(a, b)
    merged_globals = sorted(
        system._shard_docs[lo] + system._shard_docs[hi]
    )
    pairs = _extract_elements(system, merged_globals)
    counts = [system._docs[g][2] for g in merged_globals]
    reference = system.shard(lo)
    for row in system._docs:
        if row[1] == hi:
            row[1] = lo
        elif row[1] > hi:
            row[1] -= 1
    new_slots = list(system._slots)
    new_slots[lo] = _ShardSlot(
        seda=_rebuild_shard(system, lo, pairs, counts, reference)
    )
    del new_slots[hi]
    new_bases = list(system._shard_doc_bases)
    del new_bases[hi]
    committed = _install(system, new_slots, new_bases, {lo})
    return {
        "op": "merge",
        "merged": [lo, hi],
        "surviving_shard": lo,
        "moved_documents": len(merged_globals),
        "shards": len(system._slots),
        "routing_epoch": system._routing_epoch,
        "affected_shards": [lo],
        "committed": committed,
    }


def _plan_int(value):
    """One index of a move plan: an integer or a digit string."""
    if isinstance(value, str) and value.isascii() and value.isdigit():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            f"a move names a document index and a shard as integers, "
            f"not {value!r}"
        )
    return value


def rebalance(system, plan):
    """Move documents between shards according to ``plan``.

    ``plan`` is ``{"moves": {global_document_index: target_shard}}``;
    indexes are integers or digit strings (plans round-trip through
    JSON via the CLI and the serving endpoint), never bools or floats.
    Every co-location unit must move all-or-nothing to a single
    target; violating moves raise :class:`ValueError` before anything
    changes.  Moves onto a document's current shard are dropped; an
    effectively empty plan is a no-op that does not bump the routing
    epoch.  All shards that gain or lose documents are rebuilt; the
    rest keep their files.
    """
    shards = len(system._slots)
    if not isinstance(plan, dict):
        raise ValueError(
            "a rebalance plan is a mapping with a 'moves' entry, not "
            f"{type(plan).__name__}"
        )
    raw_moves = plan.get("moves", {})
    if not isinstance(raw_moves, dict):
        raise ValueError(
            "a rebalance plan's 'moves' must map document index to "
            f"target shard, not {type(raw_moves).__name__}"
        )
    moves = {}
    for key, value in raw_moves.items():
        global_index, target = _plan_int(key), _plan_int(value)
        if not 0 <= global_index < len(system._docs):
            raise ValueError(f"no document with global index {global_index}")
        if not 0 <= target < shards:
            raise ValueError(f"no shard {target} (shards: {shards})")
        if system._docs[global_index][1] != target:
            moves[global_index] = target
    if not moves:
        return {
            "op": "rebalance",
            "moved_documents": 0,
            "shards": shards,
            "routing_epoch": system._routing_epoch,
            "affected_shards": [],
            "committed": False,
        }
    sources = {system._docs[g][1] for g in moves}
    for source in sorted(sources):
        for unit in colocation_units(system, source):
            targets = {moves.get(g) for g in unit}
            if targets == {None}:
                continue
            if len(unit) > 1 and (None in targets or len(targets) > 1):
                raise ValueError(
                    f"documents {unit} form one link-connected unit and "
                    "must move together to a single target shard"
                )
    affected = sources | set(moves.values())
    # Extract every affected shard's post-move document list from the
    # *old* topology before touching the table.
    new_members = {
        index: [g for g in system._shard_docs[index] if g not in moves]
        for index in affected
    }
    for global_index, target in moves.items():
        new_members[target].append(global_index)
    reference = system.shard(min(affected))
    rebuilt = {}
    for index in sorted(affected):
        members = sorted(new_members[index])
        rebuilt[index] = _rebuild_shard(
            system, index,
            _extract_elements(system, members),
            [system._docs[g][2] for g in members],
            reference,
        )
    for global_index, target in moves.items():
        system._docs[global_index][1] = target
    new_slots = list(system._slots)
    for index, seda in rebuilt.items():
        new_slots[index] = _ShardSlot(seda=seda)
    committed = _install(
        system, new_slots, system._shard_doc_bases, affected
    )
    return {
        "op": "rebalance",
        "moved_documents": len(moves),
        "shards": shards,
        "routing_epoch": system._routing_epoch,
        "affected_shards": sorted(affected),
        "committed": committed,
    }


def propose_rebalance(system, metric="documents"):
    """Draft a rebalance plan equalizing ``metric`` across shards.

    Greedy: repeatedly move one co-location unit from the most- to the
    least-loaded shard, choosing the unit whose weight comes closest
    to halving the gap, while each move strictly shrinks it.  The
    result is a plan for :func:`rebalance` -- deterministic, co-location
    safe by construction, and conservative (it stops rather than
    oscillate).  ``metric`` is ``"documents"`` or ``"nodes"``.
    """
    if metric not in REBALANCE_METRICS:
        raise ValueError(
            f"unknown metric {metric!r} (choose from {REBALANCE_METRICS})"
        )

    def weigh(unit):
        if metric == "documents":
            return len(unit)
        return sum(system._docs[g][2] for g in unit)

    shards = len(system._slots)
    units = {
        index: [(weigh(unit), unit)
                for unit in colocation_units(system, index)]
        for index in range(shards)
    }
    loads = [sum(weight for weight, _unit in units[index])
             for index in range(shards)]
    moves = {}
    while True:
        donor = max(range(shards), key=lambda i: (loads[i], i))
        receiver = min(range(shards), key=lambda i: (loads[i], i))
        gap = loads[donor] - loads[receiver]
        best = None
        for position, (weight, unit) in enumerate(units[donor]):
            if 0 < weight < gap:
                distance = abs(gap - 2 * weight)
                if best is None or distance < best[0]:
                    best = (distance, position, weight, unit)
        if best is None:
            break
        _distance, position, weight, unit = best
        units[donor].pop(position)
        units[receiver].append((weight, unit))
        loads[donor] -= weight
        loads[receiver] += weight
        for global_index in unit:
            moves[global_index] = receiver
    return {
        "metric": metric,
        "moves": moves,
        "projected_loads": loads,
    }


# -- skew reporting -----------------------------------------------------------

def skew_report(directory):
    """Describe a saved sharded snapshot directory, loading no shard.

    Reads the manifest (its ``meta``, documents and nodes per shard),
    the shard files' on-disk sizes (snapshot plus column sidecar -- the
    postings bytes), and the retained observability state
    (``obs.json``) for per-shard query traffic, and reports each metric
    with its imbalance ratio (max over mean; 1.0 is perfectly even)
    beside the collection totals.  The report is what
    :func:`propose_rebalance` decisions are made from; ``repro snapshot
    info`` prints it.
    """
    manifest = read_sharded_manifest(directory)
    shard_files = manifest["shard_files"]
    per_shard = [
        {"shard": index, "file": shard_file, "documents": 0, "nodes": 0,
         "bytes": 0, "traffic": 0}
        for index, shard_file in enumerate(shard_files)
    ]
    for _name, shard, node_count in manifest["documents"]:
        per_shard[shard]["documents"] += 1
        per_shard[shard]["nodes"] += node_count
    for entry in per_shard:
        path = os.path.join(directory, entry["file"])
        for piece in (path, sidecar_file_name(path)):
            try:
                entry["bytes"] += os.path.getsize(piece)
            except OSError:
                pass
    traffic = {}
    obs_payload = read_obs_state(directory)
    if obs_payload is not None:
        from repro.obs.registry import StatsRegistry

        traffic = StatsRegistry.from_dict(obs_payload).per_shard_traffic()
    for entry in per_shard:
        shard_traffic = traffic.get(entry["shard"])
        if shard_traffic is not None:
            entry["traffic"] = (
                shard_traffic["sorted_accesses"]
                + shard_traffic["tuples_scored"]
                + shard_traffic["pruned"]
            )

    def imbalance(key):
        values = [entry[key] for entry in per_shard]
        total = sum(values)
        if not values or total == 0:
            return None
        return max(values) / (total / len(values))

    return {
        "collection": manifest["meta"].get("collection", "collection"),
        "meta": manifest["meta"],
        "shards": len(shard_files),
        "documents": len(manifest["documents"]),
        "nodes": sum(entry["nodes"] for entry in per_shard),
        "total_bytes": sum(entry["bytes"] for entry in per_shard),
        "routing_epoch": manifest["routing_epoch"],
        "generation": manifest["generation"],
        "wal_present": os.path.exists(sharded_wal_file_name(directory)),
        "per_shard": per_shard,
        "imbalance": {
            key: imbalance(key)
            for key in ("documents", "nodes", "bytes", "traffic")
        },
    }
