"""Memory-compact index representations shared across components.

The paper's indexes are dicts of Python objects; at scale, resident
memory -- not CPU -- is what caps shards-per-box.  This package holds
the compact building blocks every index layer shares:

* :mod:`~repro.compact.intern` -- a dense string-interning table
  assigning small int ids to tags, terms, and path labels;
* :mod:`~repro.compact.trie` -- a shared-prefix trie over interned
  label ids, replacing per-entry path strings;
* :mod:`~repro.compact.columns` -- delta/varint byte-column codecs for
  posting lists and sorted id sets;
* :mod:`~repro.compact.sidecar` -- read-only sidecar buffers: an mmapped
  ``.cols`` file, whose pages every process loading the same snapshot
  shares through the OS page cache.

Every consumer decodes lazily, per key, on first access -- so the
public index APIs and their results are those of plain object tables.
"""

from repro.compact.columns import (
    decode_postings,
    decode_sorted_ids,
    encode_postings,
    encode_sorted_ids,
    posting_count,
)
from repro.compact.intern import StringTable
from repro.compact.sidecar import Sidecar
from repro.compact.trie import PathTrie

__all__ = [
    "StringTable",
    "PathTrie",
    "Sidecar",
    "encode_postings",
    "decode_postings",
    "posting_count",
    "encode_sorted_ids",
    "decode_sorted_ids",
]
