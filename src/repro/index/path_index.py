"""The Figure 8 path full-text index, trie-backed.

"This full-text index contains all keywords that appear in the data set
as content, as well as all the tag names.  Each distinct path is
treated as a virtual document.  Hence, the posting lists contain all
the paths a given word appears in.  We store the count of occurrences
of each path in the document store."  (Section 5)

Accordingly, this index stores only term -> set-of-paths; occurrence
counts are fetched from the collection's path table when a summary
needs them.  Tag names are indexed separately from content keywords so
that probing by tag (context = node name) does not collide with a data
value that happens to equal a tag name.

Internally a path is not a string but a small int: the terminal node id
of a :class:`~repro.compact.trie.PathTrie` shared across the system, so
every label segment is stored once and shared prefixes collapse.  Per
key the index holds one of two forms, checked in order:

* ``_*_ids`` -- materialized (hot, mutable) sets of trie ids;
* ``_*_cols`` -- delta-encoded byte columns of sorted path-table
  positions (:func:`~repro.compact.columns.encode_sorted_ids`), inline
  ``bytes`` or ``[offset, length]`` windows into a snapshot sidecar,
  translated to trie ids through ``_id_map`` on decode.

The path table (``_id_map``) is append-only: a new path takes the next
position, so a column encoded once stays valid for the life of the
index and :meth:`PathIndex.compact` only ever encodes the hot sets.

Probes decode cold entries read-only (no pop) and cache the rendered
string set; only :meth:`add_node` materializes an entry into its
mutable id-set form.
"""

import fnmatch
import threading

from repro.compact.columns import decode_sorted_ids, encode_sorted_ids
from repro.compact.trie import PathTrie


class PathIndex:
    """Keyword/tag -> distinct root-to-leaf paths."""

    def __init__(self, analyzer, trie=None):
        self.analyzer = analyzer
        #: May be shared with the dataguides (one label table, one set
        #: of prefix nodes per system); this index only ever reads and
        #: inserts, so sharing is safe under the single-writer rule.
        self.trie = trie if trie is not None else PathTrie()
        self._content_ids = {}        # term -> set of trie ids (hot)
        self._tag_ids = {}            # tag  -> set of trie ids (hot)
        self._content_cols = {}       # term -> bytes | [offset, length]
        self._tag_cols = {}
        # The path table: _id_map[position] is a path's trie id, the
        # currency columns are encoded in; _position inverts it.
        self._id_map = []
        self._position = {}
        self._sidecar = None
        # Probe-side cache of rendered string sets, keyed ("c"|"t", key);
        # add_node invalidates exactly the keys it touches.
        self._hot = {}
        self._paths_cache = None      # frozenset of all rendered paths
        # Serializes cold-entry materialization for concurrent readers.
        self._materialize_lock = threading.Lock()

    # -- construction ------------------------------------------------------

    def add_node(self, path, tag, text):
        """Register one node's path under its tag and content terms."""
        pid = self.trie.insert(path)
        if pid not in self._position:
            self._position[pid] = len(self._id_map)
            self._id_map.append(pid)
            self._paths_cache = None
        self._entry(self._tag_ids, self._tag_cols, tag).add(pid)
        self._hot.pop(("t", tag), None)
        if text:
            for token in self.analyzer.analyze(text):
                self._entry(self._content_ids, self._content_cols,
                            token.text).add(pid)
                self._hot.pop(("c", token.text), None)

    def compact(self):
        """Fold every hot id set into a delta-encoded byte column.

        Columns speak path-table positions, which never move, so cold
        entries are left as they are.  Re-callable after incremental
        ingestion.
        """
        with self._materialize_lock:
            position = self._position
            for ids, cols in ((self._content_ids, self._content_cols),
                              (self._tag_ids, self._tag_cols)):
                for key, pids in list(ids.items()):
                    cols[key] = encode_sorted_ids(
                        sorted(position[pid] for pid in pids)
                    )
                    del ids[key]
        return self

    # -- lazy materialization ------------------------------------------------

    def _col_blob(self, entry):
        """Column bytes for a ``_*_cols`` entry (sidecar markers resolve
        to zero-copy windows)."""
        if isinstance(entry, (bytes, memoryview)):
            return entry
        offset, length = entry
        return self._sidecar.view(offset, length)

    def _decode_cold(self, entry):
        """Trie ids for a column entry (path-table indexes mapped)."""
        id_map = self._id_map
        return [id_map[i] for i in decode_sorted_ids(self._col_blob(entry))]

    def _entry(self, ids, cols, key):
        """The mutable trie-id set for ``key``, creating it if needed."""
        pids = self._ids_lookup(ids, cols, key)
        if pids is None:
            pids = ids[key] = set()
        return pids

    def _ids_lookup(self, ids, cols, key):
        """The trie-id set for ``key``, or ``None``; materializes cold
        entries.

        Thread-safe via double-checked locking: concurrent query workers
        racing on the same key must not lose the cold record to a second
        ``pop``.  The hot set is assigned before the cold form is
        discarded, so lock-free readers always find the key in at least
        one table.
        """
        pids = ids.get(key)
        if pids is not None:
            return pids
        if not cols:
            return None
        with self._materialize_lock:
            pids = ids.get(key)
            if pids is not None:
                return pids
            entry = cols.get(key)
            if entry is None:
                return None
            pids = ids[key] = set(self._decode_cold(entry))
            cols.pop(key, None)
        return pids

    def _path_set(self, kind, ids, cols, key):
        """Rendered path strings for ``key`` (read-only; cold entries
        are decoded without being materialized, and the rendered set is
        cached until :meth:`add_node` touches the key)."""
        cached = self._hot.get((kind, key))
        if cached is not None:
            return cached
        pids = ids.get(key)
        if pids is None:
            entry = cols.get(key)
            if entry is not None:
                pids = self._decode_cold(entry)
            else:
                # A concurrent materializer may have moved the key (it
                # assigns before popping): one final re-check.
                pids = ids.get(key)
                if pids is None:
                    return frozenset()
        render = self.trie.render
        paths = frozenset(render(pid) for pid in pids)
        self._hot[(kind, key)] = paths
        return paths

    def _known_keys(self, ids, cols):
        """A stable copy of every key across both tables.

        Taken under the lock: materialization moves entries between
        tables concurrently, and iterating a dict while it changes
        raises RuntimeError.
        """
        with self._materialize_lock:
            return set(ids) | set(cols)

    # -- snapshot serialization ----------------------------------------------

    def to_dict(self):
        """Snapshot form: both tables as byte columns over ``all_paths``.

        Each key's path set is coded as sorted indexes into the
        ``all_paths`` list (every path string appears once) and
        delta-encoded into one byte column under ``columns_inline``
        (content keys prefixed ``c:``, tag keys ``t:``); the snapshot
        writer moves the bytes into the binary sidecar.
        """
        with self._materialize_lock:
            render = self.trie.render
            path_list = sorted(render(pid) for pid in self._id_map)
            index_of = {path: i for i, path in enumerate(path_list)}
            pid_to_index = {
                pid: index_of[render(pid)] for pid in self._id_map
            }
            columns = {}
            for prefix, ids, cols in (
                ("c:", self._content_ids, self._content_cols),
                ("t:", self._tag_ids, self._tag_cols),
            ):
                for name in set(ids) | set(cols):
                    pids = ids.get(name)
                    if pids is None:
                        pids = self._decode_cold(cols[name])
                    columns[prefix + name] = encode_sorted_ids(
                        sorted(pid_to_index[pid] for pid in pids)
                    )
            return {"all_paths": path_list, "columns_inline": columns}

    @classmethod
    def from_dict(cls, payload, analyzer, trie=None, sidecar=None):
        """Rebuild a path index from :meth:`to_dict`, lazily.

        Accepts inline columns (``columns_inline``) and sidecar
        ``[offset, length]`` column tables (``columns``) alike; per-key
        payloads stay cold until first probed or extended.
        """
        index = cls(analyzer, trie=trie)
        index._id_map = [index.trie.insert(path)
                         for path in payload["all_paths"]]
        index._position = {
            pid: position for position, pid in enumerate(index._id_map)
        }
        columns = payload.get("columns_inline")
        if columns is None:
            columns = payload["columns"]
            index._sidecar = sidecar
        for key, entry in columns.items():
            kind, name = key[:2], key[2:]
            if kind == "c:":
                index._content_cols[name] = entry
            else:
                index._tag_cols[name] = entry
        return index

    # -- probes (Section 5's three usage modes) ------------------------------

    def paths_for_term(self, term):
        """Distinct paths whose node content contains the analyzed term."""
        return set(self._path_set("c", self._content_ids,
                                  self._content_cols, term))

    def paths_for_tag(self, tag):
        """Distinct paths whose *leaf* node name is ``tag``.

        Supports ``*`` wildcards (e.g. ``trade*``): per Definition 3 the
        context of a query term may be a keyword query over tag names,
        allowing wildcards.
        """
        if "*" not in tag:
            return set(self._path_set("t", self._tag_ids, self._tag_cols,
                                      tag))
        names = self._known_keys(self._tag_ids, self._tag_cols)
        matched = set()
        for candidate in names:
            if fnmatch.fnmatchcase(candidate, tag):
                matched |= self._path_set("t", self._tag_ids,
                                          self._tag_cols, candidate)
        return matched

    def paths_for_path(self, path):
        """Probe with a full root-to-leaf path (Section 5: use the last
        tag name of the path, then confirm the full path)."""
        leaf = path.rsplit("/", 1)[-1]
        return {
            candidate
            for candidate in self.paths_for_tag(leaf)
            if candidate == path
        }

    def all_paths(self):
        cached = self._paths_cache
        if cached is None:
            render = self.trie.render
            cached = self._paths_cache = frozenset(
                render(pid) for pid in self._id_map
            )
        return set(cached)

    def tags(self):
        return sorted(self._known_keys(self._tag_ids, self._tag_cols))

    def vocabulary(self):
        return sorted(self._known_keys(self._content_ids,
                                       self._content_cols))

    def __len__(self):
        return len(self._id_map)

    def estimated_memory(self):
        """Resident-footprint digest (``repro info``, benchmarks)."""
        with self._materialize_lock:
            column_bytes = 0
            for cols in (self._content_cols, self._tag_cols):
                for entry in cols.values():
                    column_bytes += len(self._col_blob(entry))
            return {
                "paths": len(self._id_map),
                "terms": len(self._content_ids) + len(self._content_cols),
                "tags": len(self._tag_ids) + len(self._tag_cols),
                "column_bytes": column_bytes,
                "trie_nodes": self.trie.node_count,
                "labels": len(self.trie.labels),
            }
