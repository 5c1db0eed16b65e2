"""Durable file-write primitives: the storage layer's crash seams.

Every "atomic" writer in this package (snapshots, sharded manifests,
obs state, the write-ahead log) funnels its power-loss-sensitive
operations through the four functions here, for two reasons:

* **Correctness** -- a temp-file ``os.replace`` alone does not survive
  power loss: the rename can hit disk before the data does, leaving a
  committed name pointing at unwritten blocks.  The durable sequence is
  flush + ``fsync`` the temp file, ``os.replace``, then ``fsync`` the
  containing directory so the rename itself is persisted.
  :func:`replace_durably` is that sequence.
* **Testability** -- these module attributes are the monkeypatch seams
  the deterministic fault-injection harness
  (:mod:`repro.testing.faults`) wraps to simulate I/O errors, torn
  writes, and kill -9 at precise points.  Keeping the seams in one
  module means a single patch surface covers every durable writer.

``fsync_directory`` is best-effort: directory fsync is unsupported on
some platforms/filesystems, and a failed directory sync only widens
the crash window -- it never corrupts -- so errors are swallowed.
"""

import os


def fsync_file(handle):
    """Flush ``handle`` and force its bytes to stable storage."""
    handle.flush()
    os.fsync(handle.fileno())


def fsync_directory(path):
    """Persist directory entries (renames/creates) under ``path``.

    Best-effort: platforms that cannot open or fsync a directory lose
    nothing but the tighter durability window.
    """
    try:
        fd = os.open(path if path else ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def replace(source, target):
    """Atomically rename ``source`` over ``target`` (the commit point)."""
    os.replace(source, target)


def replace_durably(source, target):
    """Commit ``source`` over ``target`` and persist the rename.

    The caller has already fsynced ``source``'s contents (via
    :func:`fsync_file` on the open handle); this performs the rename
    and then syncs the containing directory so a power cut after
    return cannot roll the commit back.
    """
    replace(source, target)
    fsync_directory(os.path.dirname(os.fspath(target)))
