"""Delta/varint byte-column codecs for postings and id sets.

Each codec turns one index entry (a posting list, a sorted id set) into
a single ``bytes`` column and back, losslessly:

* **Posting columns** store node-id *gaps* and position *gaps* as
  unsigned varints -- posting lists are sorted by node id and positions
  are ascending token ordinals, so gaps are small and most entries cost
  one or two bytes instead of a ~100-byte ``Posting`` object.
  :func:`posting_count` reads the document frequency from the first
  varint alone, so ``df`` probes never decode the column.
* **Sorted-id columns** (path-index entries) are plain gap varints.

Decoders accept ``bytes`` or any buffer (``memoryview`` over an mmapped
sidecar), enabling zero-copy reads from a snapshot's binary sidecar.
"""


def _append_uvarint(buf, value):
    while value >= 0x80:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def _read_uvarint(data, pos):
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7


# -- posting columns ---------------------------------------------------------

def encode_postings(entries):
    """Encode ``[(node_id, positions), ...]`` (sorted by node id).

    Layout: ``count`` then per entry ``node-id gap``, ``len(positions)``,
    and the position gaps, all unsigned varints.
    """
    buf = bytearray()
    _append_uvarint(buf, len(entries))
    previous = 0
    for node_id, positions in entries:
        if node_id < previous:
            raise ValueError("posting node ids must be sorted ascending")
        _append_uvarint(buf, node_id - previous)
        previous = node_id
        _append_uvarint(buf, len(positions))
        last = 0
        for position in positions:
            if position < last:
                raise ValueError("positions must be sorted ascending")
            _append_uvarint(buf, position - last)
            last = position
    return bytes(buf)


def decode_postings(data):
    """Decode a posting column to ``[(node_id, [positions]), ...]``."""
    count, pos = _read_uvarint(data, 0)
    entries = []
    node_id = 0
    for _ in range(count):
        gap, pos = _read_uvarint(data, pos)
        node_id += gap
        length, pos = _read_uvarint(data, pos)
        positions = []
        value = 0
        for _ in range(length):
            step, pos = _read_uvarint(data, pos)
            value += step
            positions.append(value)
        entries.append((node_id, positions))
    return entries


def posting_count(data):
    """The entry count (document frequency) -- first varint only."""
    return _read_uvarint(data, 0)[0]


# -- sorted id columns -------------------------------------------------------

def encode_sorted_ids(ids):
    """Encode an ascending iterable of non-negative ints as gap varints."""
    buf = bytearray()
    ids = list(ids)
    _append_uvarint(buf, len(ids))
    previous = 0
    for value in ids:
        if value < previous:
            raise ValueError("ids must be sorted ascending")
        _append_uvarint(buf, value - previous)
        previous = value
    return bytes(buf)


def decode_sorted_ids(data):
    """Decode a sorted-id column back to a list of ints."""
    count, pos = _read_uvarint(data, 0)
    ids = []
    value = 0
    for _ in range(count):
        gap, pos = _read_uvarint(data, pos)
        value += gap
        ids.append(value)
    return ids

