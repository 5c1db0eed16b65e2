"""Memory-compact index representations shared across components.

The paper's indexes are dicts of Python objects; at scale, resident
memory -- not CPU -- is what caps shards-per-box.  This package holds
the compact building blocks every index layer shares:

* :mod:`~repro.compact.intern` -- a dense string-interning table
  assigning small int ids to tags, terms, and path labels;
* :mod:`~repro.compact.trie` -- a shared-prefix trie over interned
  label ids, replacing per-entry path strings;
* :mod:`~repro.compact.columns` -- delta/varint byte-column codecs for
  posting lists, sorted id sets, and impact streams;
* :mod:`~repro.compact.shm` -- read-only sidecar buffers (mmap or
  ``multiprocessing.shared_memory``) that let N shard processes share
  one copy of the columns.

Every consumer decodes lazily, per key, on first access -- so the
public index APIs and their results are those of plain object tables.
"""

from repro.compact.columns import (
    decode_postings,
    decode_sorted_ids,
    decode_stream,
    encode_postings,
    encode_sorted_ids,
    encode_stream,
    posting_count,
)
from repro.compact.intern import StringTable
from repro.compact.shm import Sidecar, publish_shared_memory
from repro.compact.trie import PathTrie

__all__ = [
    "StringTable",
    "PathTrie",
    "Sidecar",
    "publish_shared_memory",
    "encode_postings",
    "decode_postings",
    "posting_count",
    "encode_sorted_ids",
    "decode_sorted_ids",
    "encode_stream",
    "decode_stream",
]
