"""Storage substrate: SEDA's stand-in for DB2 pureXML.

The paper stores XML in DB2 pureXML and keeps auxiliary indexes beside
it (Figure 4).  This package provides the operations SEDA actually
needs from that store beyond the collection's own node table
(:class:`~repro.model.collection.DocumentCollection` keeps the
Dewey-ordered node lists per tag and per root-to-leaf path that feed
the holistic twig joins of Section 7):

* :class:`CollectionCatalog` -- collection statistics used by summaries
  and by the experiment harness.
* :mod:`~repro.storage.snapshot` -- whole-system snapshots: one
  versioned JSON-lines file holding every Figure 4 component
  (collection nodes, data-graph edges, both full-text indexes,
  dataguides, and the cube registry) behind a header record
  carrying a format string and version number.  ``Seda.save``/
  ``Seda.load`` ride on it so a cold start skips parsing, link
  discovery, index building, and dataguide mining entirely; see the
  module docstring for the record-by-record format specification.  A
  sharded collection is a directory of such snapshots behind one
  manifest, and loading it restores every shard.
"""

from repro.storage.catalog import CollectionCatalog
from repro.storage.snapshot import (
    SnapshotError,
    fsck_report,
    read_snapshot,
    snapshot_info,
    write_snapshot,
)
from repro.storage.wal import WALError, WriteAheadLog, replay_wal, verify_wal

__all__ = [
    "CollectionCatalog",
    "SnapshotError",
    "WALError",
    "WriteAheadLog",
    "fsck_report",
    "read_snapshot",
    "replay_wal",
    "snapshot_info",
    "verify_wal",
    "write_snapshot",
]
