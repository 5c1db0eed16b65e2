"""Read-only sidecar buffers over mmapped column files.

A snapshot stores its byte columns in a binary *sidecar* file
next to the JSON-lines snapshot; component records carry only
``{key: [offset, length]}`` tables.  :class:`Sidecar` is the uniform
buffer handle the readers slice zero-copy ``memoryview`` windows from.
:meth:`Sidecar.from_file` maps the sidecar read-only, so the OS page
cache backs lazy per-term decodes, and every process mapping the same
file (N workers loading one sharded directory) shares one physical
copy of the columns.
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
        ``length`` is the announced byte count, so bytes past the
        logical payload never enter the checksum.
        """
        import zlib

        size = len(self) if length is None else min(length, len(self))
        return zlib.crc32(self.view(0, size))

    def __len__(self):
        return len(self._buffer)

    def close(self):
        """Release the backing resource (best effort: exported views
        keep an mmap buffer alive until they are gone)."""
        closer, self._closer = self._closer, None
        if closer is not None:
            try:
                closer()
            except BufferError:  # pragma: no cover - views still exported
                pass

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

    def __repr__(self):
        return f"Sidecar({len(self)} bytes from {self.source!r})"

