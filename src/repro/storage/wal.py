"""Write-ahead document log: no acknowledged batch survives only in RAM.

Snapshots make cold starts cheap, but between snapshots every
``add_documents`` batch lives only in process memory -- a crash loses
it even though the caller was told it succeeded.  The write-ahead log
closes that window.  This module is the log itself: the file format,
appends, truncation, and replay.  The protocol around it -- append
before apply, truncate after the snapshot commit, replay on load, all
beside the system's *home* (the location it was last saved to or
loaded from) -- is :class:`repro.system.WriteProtocol`, which
:class:`~repro.system.Seda` (``<path>.wal``) and
:class:`~repro.shard.ShardedSeda` (``<dir>/wal.log``) share.

File format (binary)::

    SEDAWAL1                                   # 8-byte magic
    <u32 length> <u32 crc32> <payload bytes>   # record 0
    <u32 length> <u32 crc32> <payload bytes>   # record 1
    ...

Little-endian prefixes; ``crc32`` (zlib) covers the payload bytes.
Payloads are UTF-8 JSON dictionaries -- for document batches::

    {"op": "add_documents",
     "base": N,
     "documents": [[name_or_null, xml_text], ...],
     "value_links": [spec.to_dict(), ...]}

``base`` is the system's (for a sharded collection, the global)
document count when the batch was acknowledged.  Every batch adds at
least one document, so replay skips what the snapshot already holds
(``base`` below its document count) and refuses a gap (``base`` past
it); a record without ``base`` is rejected (:func:`batch_record`)
instead of being guessed at.

Recovery semantics (:func:`replay_wal`):

* A record whose payload runs past end-of-file, or whose length prefix
  is itself cut short, is a **torn final record** -- the crash hit
  mid-append, the batch was never acknowledged.  The file is truncated
  back to the last complete record and a warning is returned; nothing
  is lost that was ever promised.
* A record that is *complete on disk* but fails its CRC is
  **corruption**, not tearing -- bytes the log once acknowledged have
  rotted.  That raises :class:`WALError` (a
  :class:`~repro.storage.snapshot.SnapshotError`): silently dropping
  an acknowledged batch, or replaying garbage, would both be silent
  wrong answers.
* A missing file replays as empty: no batch was logged since the
  location became a home (the file appears on the first append).

Appends go through the :mod:`repro.storage.durable` seams (write,
flush+fsync), so the fault-injection harness can tear an append at any
byte and the kill -9 crash harness can die inside one.
"""

import json
import os
import struct
import zlib

from repro.model.links import ValueLinkSpec
from repro.storage import durable
from repro.storage.snapshot import SnapshotError

WAL_MAGIC = b"SEDAWAL1"
_PREFIX = struct.Struct("<II")  # payload length, payload crc32

#: Conventional log location for a snapshot at ``path``.
WAL_SUFFIX = ".wal"

#: Conventional log name inside a sharded snapshot directory.
SHARDED_WAL_FILE = "wal.log"


class WALError(SnapshotError):
    """A write-ahead log is corrupt beyond torn-tail recovery."""


def wal_file_name(snapshot_path):
    """The conventional WAL path for the snapshot at ``snapshot_path``."""
    return f"{os.fspath(snapshot_path)}{WAL_SUFFIX}"


def sharded_wal_file_name(directory):
    """The conventional WAL path inside a sharded snapshot directory."""
    return os.path.join(directory, SHARDED_WAL_FILE)


def _write_record_bytes(handle, data):
    """Append one encoded record; the fault harness's torn-write seam."""
    handle.write(data)


class WriteAheadLog:
    """Appendable, checksummed, fsynced record log at one path."""

    def __init__(self, path):
        self.path = os.fspath(path)
        self._handle = None

    # -- writing --------------------------------------------------------------

    def _open(self):
        if self._handle is None or self._handle.closed:
            fresh = not os.path.exists(self.path)
            self._handle = open(self.path, "ab")
            if fresh or os.path.getsize(self.path) == 0:
                _write_record_bytes(self._handle, WAL_MAGIC)
                durable.fsync_file(self._handle)
                durable.fsync_directory(os.path.dirname(self.path))
        return self._handle

    def append(self, payload):
        """Durably append one JSON-serializable ``payload`` dict.

        Returns only after the record (length prefix, CRC, payload) is
        written *and fsynced*: when the caller acknowledges the batch,
        the batch is on disk.
        """
        data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        record = _PREFIX.pack(len(data), zlib.crc32(data)) + data
        handle = self._open()
        _write_record_bytes(handle, record)
        durable.fsync_file(handle)

    def truncate(self):
        """Reset the log to empty (a snapshot save absorbed its records).

        The file is cut back to the bare magic in place.  It needs no
        atomicity of its own: callers truncate only after the snapshot
        commit, and a crash *between* commit and truncate leaves
        records whose positions the new snapshot already covers, which
        replay skips.
        """
        self.close()
        with open(self.path, "wb") as handle:
            _write_record_bytes(handle, WAL_MAGIC)
            durable.fsync_file(handle)
        durable.fsync_directory(os.path.dirname(self.path))

    def close(self):
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None

    def __repr__(self):
        return f"WriteAheadLog({self.path!r})"


def replay_wal(path, repair=True):
    """Read every acknowledged record; returns ``(records, warning)``.

    ``records`` is the list of decoded payload dicts in append order.
    ``warning`` is ``None`` for a clean log, or a human-readable
    description of a torn final record -- in which case the file has
    been truncated back to its last complete record (``repair=False``
    reports without touching the file, for read-only verification).
    A missing file is an empty log.  Raises :class:`WALError` on a
    foreign magic or on mid-file corruption (a complete record whose
    CRC or JSON fails).
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        return [], None
    if not blob:
        return [], None
    if not blob.startswith(WAL_MAGIC):
        if len(blob) < len(WAL_MAGIC) and WAL_MAGIC.startswith(blob):
            # A strict prefix of the magic: the crash hit the very
            # first append, inside log initialization.  Nothing was
            # ever acknowledged -- an empty log, not a foreign file.
            warning = (
                f"{path}: torn magic ({len(blob)}/{len(WAL_MAGIC)} "
                f"bytes; crash during log initialization, truncating)"
            )
            if repair:
                with open(path, "wb") as handle:
                    durable.fsync_file(handle)
            return [], warning
        raise WALError(
            f"{path}: not a write-ahead log "
            f"(magic {blob[:8]!r}, expected {WAL_MAGIC!r})"
        )
    records = []
    offset = len(WAL_MAGIC)
    total = len(blob)
    warning = None
    while offset < total:
        if offset + _PREFIX.size > total:
            warning = (
                f"{path}: torn final record at offset {offset} "
                f"(incomplete length prefix; truncating)"
            )
            break
        length, crc = _PREFIX.unpack_from(blob, offset)
        start = offset + _PREFIX.size
        end = start + length
        if end > total:
            warning = (
                f"{path}: torn final record at offset {offset} "
                f"(payload announces {length} bytes, file holds "
                f"{total - start}; truncating)"
            )
            break
        payload = blob[start:end]
        if zlib.crc32(payload) != crc:
            raise WALError(
                f"{path}: record at offset {offset} fails its checksum "
                f"(stored {crc}, computed {zlib.crc32(payload)}) -- the "
                f"log is corrupt, not torn; restore from snapshot/backup"
            )
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise WALError(
                f"{path}: record at offset {offset} passes its checksum "
                f"but does not decode as JSON ({error}); writer bug or "
                f"foreign file"
            ) from None
        if not isinstance(record, dict):
            raise WALError(
                f"{path}: record at offset {offset} is not an object "
                f"({type(record).__name__})"
            )
        records.append(record)
        offset = end
    if warning is not None and repair:
        with open(path, "r+b") as handle:
            handle.truncate(offset)
            durable.fsync_file(handle)
    return records, warning


def batch_record(record):
    """Unpack one replayed ``add_documents`` record.

    Returns ``(base, pairs, specs)``: the record's ``base`` position,
    the ``(name, xml)`` pairs, and the :class:`ValueLinkSpec` list.
    Raises :class:`WALError` for any other operation or a record
    without an integer ``base`` -- replay cannot tell what it already
    absorbed.
    """
    op = record.get("op")
    if op != "add_documents":
        raise WALError(
            f"write-ahead log holds unknown operation {op!r}; "
            f"written by a newer version?"
        )
    base = record.get("base")
    if not isinstance(base, int):
        raise WALError(
            f"write-ahead batch has no integer 'base' (found {base!r}); "
            f"replay cannot tell whether the snapshot absorbed it -- "
            f"restore from snapshot/backup"
        )
    pairs = [tuple(pair) for pair in record.get("documents", ())]
    specs = [ValueLinkSpec.from_dict(payload)
             for payload in record.get("value_links", ())]
    return base, pairs, specs


def verify_wal(path):
    """Read-only health report for one log; never modifies the file.

    Returns ``{"present": bool, "records": n, "torn_tail": str|None,
    "error": str|None}`` -- the shape ``repro fsck`` renders.  A
    missing file is healthy (durability off / freshly truncated).
    """
    report = {"present": os.path.exists(path), "records": 0,
              "torn_tail": None, "error": None}
    if not report["present"]:
        return report
    try:
        records, warning = replay_wal(path, repair=False)
    except WALError as error:
        report["error"] = str(error)
        return report
    report["records"] = len(records)
    report["torn_tail"] = warning
    return report
