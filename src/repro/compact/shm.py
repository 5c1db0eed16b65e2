"""Read-only sidecar buffers: file-, bytes-, and shared-memory-backed.

A snapshot stores its byte columns in a binary *sidecar* file
next to the JSON-lines snapshot; component records carry only
``{key: [offset, length]}`` tables.  :class:`Sidecar` is the uniform
buffer handle the readers slice zero-copy ``memoryview`` windows from:

* :meth:`Sidecar.from_file` -- ``mmap`` the sidecar read-only, so the
  OS page cache backs lazy per-term decodes (and multiple processes
  mapping the same file already share one physical copy);
* :meth:`Sidecar.from_bytes` -- wrap an in-memory blob (worker-payload
  transfers, tests);
* :meth:`Sidecar.from_shared_memory` -- attach a
  ``multiprocessing.shared_memory`` segment published by
  :func:`publish_shared_memory`, the explicit N-shard-processes /
  one-copy configuration (see :mod:`repro.shard`).

Attaching on Python < 3.13 registers the segment with the resource
tracker, whose exit-time cleanup would unlink it under every *other*
process; attach-only handles unregister themselves, leaving lifetime
ownership with the publisher.
"""

import mmap


class Sidecar:
    """One snapshot's column bytes behind a zero-copy ``view`` API."""

    __slots__ = ("_buffer", "source", "_closer")

    def __init__(self, buffer, source=None, closer=None):
        self._buffer = buffer
        self.source = source
        self._closer = closer

    def view(self, offset, length):
        """A read-only ``memoryview`` window onto one column."""
        return memoryview(self._buffer)[offset:offset + length]

    def crc32(self, length=None):
        """CRC32 over the first ``length`` bytes (default: all of them).

        The version-5 snapshot header announces this value so loads
        detect a corrupted column payload before any window decodes;
        ``length`` is the announced byte count -- a shared-memory
        segment may round up to a page, so the checksum must cover the
        logical payload, not the allocation.
        """
        import zlib

        size = len(self) if length is None else min(length, len(self))
        return zlib.crc32(self.view(0, size))

    def __len__(self):
        return len(self._buffer)

    def close(self):
        """Release the backing resource (best effort: exported views
        keep an mmap/shared-memory buffer alive until they are gone)."""
        closer, self._closer = self._closer, None
        if closer is not None:
            try:
                closer()
            except BufferError:  # pragma: no cover - views still exported
                pass

    @classmethod
    def from_bytes(cls, data):
        return cls(bytes(data), source="<bytes>")

    @classmethod
    def from_file(cls, path):
        """Memory-map ``path`` read-only (empty files wrap as ``b''``)."""
        with open(path, "rb") as handle:
            try:
                buffer = mmap.mmap(handle.fileno(), 0,
                                   access=mmap.ACCESS_READ)
            except ValueError:  # cannot mmap an empty file
                return cls(b"", source=path)
        return cls(buffer, source=path, closer=buffer.close)

    @classmethod
    def from_shared_memory(cls, name):
        """Attach a published segment by name (read-only by convention).

        The attaching process does not own the segment: its resource-
        tracker registration is dropped so interpreter exit here never
        unlinks the memory under the publisher or sibling workers.
        """
        from multiprocessing import resource_tracker, shared_memory

        segment = shared_memory.SharedMemory(name=name)
        try:  # pragma: no cover - tracker internals vary per version
            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:
            pass
        sidecar = cls(segment.buf, source=f"shm:{name}",
                      closer=segment.close)
        # Keep the SharedMemory object reachable for the buffer's life.
        sidecar._closer = _SegmentCloser(segment)
        return sidecar

    def __repr__(self):
        return f"Sidecar({len(self)} bytes from {self.source!r})"


class _SegmentCloser:
    """Holds the attached segment and closes it exactly once."""

    __slots__ = ("segment",)

    def __init__(self, segment):
        self.segment = segment

    def __call__(self):
        segment, self.segment = self.segment, None
        if segment is not None:
            segment.close()


def publish_shared_memory(name, data):
    """Create shared segment ``name`` holding ``data``; returns it.

    The caller owns the handle: keep it referenced while workers attach
    and call ``.close()`` + ``.unlink()`` when the fleet is done.  The
    allocated size may round up to a page; readers must slice by the
    published logical length, not the segment size.
    """
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(
        name=name, create=True, size=max(1, len(data))
    )
    segment.buf[:len(data)] = data
    return segment
