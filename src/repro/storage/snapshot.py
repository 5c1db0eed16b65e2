"""Versioned on-disk snapshots of a whole SEDA system.

The paper assumes indexes and dataguide summaries are "precomputed on
the entire data graph" and loaded "into memory only once from disk"
(Section 6.1).  This module is that persistence layer generalized to
every Figure 4 component, so a fully constructed system cold-starts
from one file instead of re-parsing, re-indexing, re-discovering links,
and re-mining dataguides.

Snapshot format (JSON lines, UTF-8):

* Line 1 is the **header**::

      {"record": "header", "format": "seda-snapshot", "version": 6,
       "meta": {...}, "crcs": {record_name: crc32, ...},
       "sidecar": {"file": ..., "bytes": N, "crc32": ...}}

  ``format`` and ``version`` gate compatibility: readers reject files
  whose format string differs or whose version is not
  :data:`SNAPSHOT_VERSION`.  There is no cross-version migration: a
  file written in an older format is rebuilt from its source XML and
  saved again.  ``crcs`` holds a CRC32 over each record line's UTF-8
  bytes and the sidecar announcement (present when the file has byte
  columns, see below) one over the whole blob; all are verified on
  load, so any single corrupted byte raises :class:`SnapshotError`
  instead of decoding into silently wrong answers.  ``meta`` carries
  system-level configuration -- collection name, ``max_hops``, the
  dataguide merge threshold, the analyzer configuration, and any
  value-link specs -- everything needed to reconstruct behavior-affecting
  settings.  Write-ahead replay needs no stamp of its own: a logged
  batch's ``base`` is compared with the collection's document count.

* Line 2 is the **integrity seal**, ``{"record": "integrity",
  "header_crc": N}``: a CRC32 over the header line's bytes, the one
  line the ``crcs`` table cannot protect.

* Each following line is one **component record**::

      {"record": "<component>", "payload": {...}}

  with one record per component, written in a fixed order: ``collection``
  (flat node lists per document -- no XML text, so loading bypasses the
  parser), ``graph`` (non-tree edges by node id), ``inverted`` (postings
  with positions and per-node token counts), ``path_index``
  (keyword/tag -> path tables), ``dataguides`` (the exact
  :meth:`DataguideSet.to_dict` payload, same as its standalone ``save``
  format), and ``registry`` (fact/dimension definitions); optionally
  followed by ``obs`` (the serialized
  :class:`~repro.obs.registry.StatsRegistry` -- per-fingerprint query
  statistics and the slow-query log -- so a reloaded service keeps its
  observability history).  Caches are not records: the collection
  refills its per-path and per-tag node lists as it restores each
  document, and impact streams are built on first use.

Compatibility rules: unknown record types are rejected (they signal a
newer writer); missing required records are rejected (optional records
may be absent); node ids embedded in component payloads are only
meaningful relative to the collection record in the same file.  Writers
always emit via a temp file and atomic rename -- with the temp file
fsynced before the rename and the containing directory fsynced after
(the :mod:`repro.storage.durable` sequence) -- so a crash, including a
power cut, never leaves a torn snapshot at the committed name.  A
crash *does* leave stale ``*.tmp`` files behind; ``repro fsck``
reports them and they are safe to delete.

The binary sidecar
------------------

A component payload may carry its bulk data as compact byte columns
under a ``columns_inline`` key (``{name: bytes}``).  The writer strips
those out of the JSON, concatenates the blobs (sorted by name) into one
binary sidecar file next to the snapshot (``<file>.cols``), and
substitutes a ``columns`` table of ``[offset, length]`` windows.  The
header then records ``"sidecar": {"file": <basename>, "bytes": N,
"crc32": C}``; readers validate the sidecar's size and checksum (torn-state
detection -- the sidecar is staged at ``<file>.cols.tmp`` before the
main file commits and only renamed into place afterwards, so the main
file's rename is the single commit point; a reader that finds the
announced checksum still sitting at the staged name completes the
interrupted rename itself) and attach it as a read-only
``mmap``-backed :class:`~repro.compact.sidecar.Sidecar`, returned under the
:data:`SIDECAR_KEY` pseudo-record.  Component readers then decode
per-key windows lazily and zero-copy.  A snapshot without byte columns
has no sidecar and no header key.

Sharded snapshots
-----------------

A sharded collection (:mod:`repro.shard`) persists as a **directory**:

* ``shard-0000.snapshot`` ... ``shard-NNNN.snapshot`` -- one ordinary
  single-system snapshot per shard, each individually valid in the
  format above;
* ``obs.json`` (optional) -- the collection-level retained
  query-statistics registry (:func:`write_obs_state`), written after
  the manifest commits; absence just means no observability history;
* ``manifest.json`` -- the topology record, written **last** among the
  shard files (atomic temp-file rename), so a crashed first save never
  leaves a directory that parses.  Re-saves bump a ``generation`` counter and write the
  shard files under generation-suffixed names
  (``shard-0000.g1.snapshot``), so the old manifest keeps pointing at
  intact old files until the new manifest commits::

      {"format": "seda-sharded-snapshot", "version": 2,
       "generation": G, "routing_epoch": E,
       "shard_doc_bases": [B0, B1, ...],
       "meta": {"collection": ..., "shards": N, "partitioner": ...,
                "value_links": [...]},
       "documents": [[name, shard_index, node_count], ...],
       "shard_files": ["shard-0000.snapshot", ...]}

  ``documents`` lists every document in **global** order -- the
  explicit document->shard assignment map; the ``node_count`` column
  is what lets a reader reconstruct the global node-id space (and
  therefore translate per-shard result ids) without opening a single
  shard file, which is how ``repro snapshot info`` describes a
  directory.  Loading the collection restores every shard file.
  ``routing_epoch`` is bumped by every topology operation, and
  ``shard_doc_bases`` records per shard the global document count when
  that shard's file was written (write-ahead records at or past it
  are replayed onto the shard).  Every field is required; a manifest
  of another version is rejected like a snapshot of another version.
"""

import json
import os
import warnings
import zlib

from repro.compact.sidecar import Sidecar
from repro.storage import durable

try:  # optional accelerator: ~5x faster decode of large records
    import orjson as _fastjson
except ImportError:  # pragma: no cover - environment-dependent
    _fastjson = None

SNAPSHOT_FORMAT = "seda-snapshot"
#: The one format version this reader accepts (and the writer emits).
SNAPSHOT_VERSION = 6

#: Pseudo-record under which :func:`read_snapshot` returns the attached
#: sidecar buffer (never present in the file itself).
SIDECAR_KEY = "__sidecar__"


def sidecar_file_name(path):
    """The sidecar file path for snapshot ``path``."""
    return f"{os.fspath(path)}.cols"

#: Component records every complete snapshot must contain.
REQUIRED_RECORDS = (
    "collection",
    "graph",
    "inverted",
    "path_index",
    "dataguides",
    "registry",
)

#: Component records a snapshot may carry but a reader must not demand.
OPTIONAL_RECORDS = ("obs",)

_KNOWN_RECORDS = frozenset(REQUIRED_RECORDS) | frozenset(OPTIONAL_RECORDS)


class SnapshotError(ValueError):
    """A snapshot file is malformed, incomplete, or incompatible."""


def _loads(text):
    if _fastjson is not None:
        return _fastjson.loads(text)
    return json.loads(text)


def _dumps(obj):
    if _fastjson is not None:
        return _fastjson.dumps(obj).decode("utf-8")
    return json.dumps(obj, separators=(",", ":"))


def _externalize_columns(payload, sidecar):
    """Move a payload's inline byte columns into the sidecar buffer.

    Returns a shallow copy with ``columns_inline`` replaced by a
    ``columns`` table of ``[offset, length]`` windows (the payload
    itself is never mutated -- callers may retain and re-save it).
    """
    if not (isinstance(payload, dict) and "columns_inline" in payload):
        return payload
    payload = dict(payload)
    inline = payload.pop("columns_inline")
    table = {}
    for name in sorted(inline):
        blob = inline[name]
        table[name] = [len(sidecar), len(blob)]
        sidecar += blob
    payload["columns"] = table
    return payload


def write_snapshot(path, meta, records):
    """Write a snapshot atomically.

    ``meta`` is the header's system-level metadata; ``records`` maps
    component name -> JSON-serializable payload and must cover
    :data:`REQUIRED_RECORDS`; :data:`OPTIONAL_RECORDS` entries are
    written when present.  Payloads carrying ``columns_inline`` byte
    columns get those written to the binary sidecar.

    Crash safety: the new sidecar is staged at ``<file>.cols.tmp``
    (fsynced, **not** renamed) before the main file commits, and only
    renamed to ``<file>.cols`` afterwards.  The main file's atomic
    rename is therefore the single commit point -- a crash anywhere
    before it leaves the previous snapshot/sidecar pair fully intact,
    and a crash between the two renames leaves a committed main file
    whose reader completes the interrupted sidecar rename itself (the
    staged bytes are identified by the header's announced CRC).  An
    empty sidecar is not written at all and any stale one is removed
    (after the commit, for the same reason).
    """
    missing = [name for name in REQUIRED_RECORDS if name not in records]
    if missing:
        raise SnapshotError(f"snapshot is missing records: {missing}")
    ordered = [name for name in REQUIRED_RECORDS + OPTIONAL_RECORDS
               if name in records]
    sidecar = bytearray()
    # Serialize every record line up front: the header
    # announces each line's CRC32, so the lines must exist before the
    # header is written.
    lines = {}
    for name in ordered:
        payload = _externalize_columns(records[name], sidecar)
        lines[name] = _dumps({"record": name, "payload": payload})
    header = {
        "record": "header",
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "meta": meta,
        "crcs": {
            name: zlib.crc32(line.encode("utf-8"))
            for name, line in lines.items()
        },
    }
    sidecar_path = sidecar_file_name(path)
    sidecar_tmp = f"{sidecar_path}.tmp"
    if sidecar:
        header["sidecar"] = {
            "file": os.path.basename(sidecar_path),
            "bytes": len(sidecar),
            "crc32": zlib.crc32(bytes(sidecar)),
        }
        # Stage only: the rename waits until the main file has
        # committed, so the old pair stays loadable up to that point.
        with open(sidecar_tmp, "wb") as handle:
            handle.write(bytes(sidecar))
            durable.fsync_file(handle)
    # The crcs table protects every record line; the *integrity seal*
    # (line 2) protects the header line itself -- its CRC covers the
    # header's raw bytes, so a flipped bit in meta, the crcs table, or
    # the sidecar announcement is caught instead of silently steering
    # the load.  A flip in the seal line can only produce a (clean)
    # mismatch or a JSON error, never a silent acceptance.
    header_line = _dumps(header)
    seal_line = _dumps({
        "record": "integrity",
        "header_crc": zlib.crc32(header_line.encode("utf-8")),
    })
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(header_line + "\n")
        handle.write(seal_line + "\n")
        for name in ordered:
            handle.write(lines[name] + "\n")
        durable.fsync_file(handle)
    durable.replace_durably(tmp_path, path)  # the commit point
    if sidecar:
        durable.replace_durably(sidecar_tmp, sidecar_path)
    else:
        for leftover in (sidecar_path, sidecar_tmp):
            try:
                os.remove(leftover)
            except OSError:
                pass


def _utf8_lines(handle, path):
    """Enumerate a text handle's lines, turning decode failures --
    flipped bytes land outside UTF-8 as often as inside it -- into
    :class:`SnapshotError` instead of a bare ``UnicodeDecodeError``."""
    number = 0
    iterator = iter(handle)
    while True:
        number += 1
        try:
            line = next(iterator)
        except StopIteration:
            return
        except UnicodeDecodeError as error:
            raise SnapshotError(
                f"{path}:{number}: not valid UTF-8 ({error}) -- corrupt "
                f"snapshot; restore from backup"
            ) from None
        yield number, line


def _read_header(line, path):
    try:
        header = _loads(line)
    except ValueError as error:  # stdlib and orjson decode errors alike
        raise SnapshotError(f"{path}: header is not valid JSON") from error
    if not isinstance(header, dict) or header.get("record") != "header":
        raise SnapshotError(f"{path}: first record must be the header")
    if header.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"{path}: not a {SNAPSHOT_FORMAT} file "
            f"(format={header.get('format')!r})"
        )
    if header.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{path}: unsupported snapshot version "
            f"{header.get('version')!r}; this release reads version "
            f"{SNAPSHOT_VERSION} only -- rebuild the snapshot from its "
            f"source XML and save it again"
        )
    for key in ("meta", "crcs"):
        if not isinstance(header.get(key), dict):
            raise SnapshotError(
                f"{path}: header has no {key!r} table -- corrupt "
                f"snapshot; restore from backup"
            )
    return header


def _complete_sidecar_commit(path, sidecar_path, expected, expected_crc,
                             repair):
    """Finish a sidecar rename a crash interrupted, or return ``None``.

    :func:`write_snapshot` commits the main file *between* staging the
    new sidecar at ``<sidecar>.tmp`` and renaming it into place, so a
    crash in that window leaves a committed header announcing bytes
    that still sit at the staged name.  The announced CRC identifies
    them definitively: if the staged file matches, the rename is
    completed (best-effort -- on a read-only filesystem the staged
    buffer is served in place) and the buffer returned.  Anything else
    -- no staged file, or stale bytes from an *earlier* crash --
    returns ``None`` and the caller reports the original error.

    ``repair=False`` (fsck's verification-only mode) serves the staged
    buffer without touching the filesystem.
    """
    staged = f"{sidecar_path}.tmp"
    try:
        buffer = Sidecar.from_file(staged)
    except (FileNotFoundError, OSError, ValueError):
        return None
    if len(buffer) < expected or buffer.crc32(expected) != expected_crc:
        buffer.close()
        return None
    if repair:
        warnings.warn(
            f"{path}: completing a snapshot commit interrupted by a "
            f"crash (sidecar {os.path.basename(staged)!r} matched the "
            f"header's checksum and was renamed into place)",
            RuntimeWarning,
            stacklevel=4,
        )
        try:
            durable.replace_durably(staged, sidecar_path)
        except OSError:
            pass  # read-only media: serve the staged bytes directly
    else:
        warnings.warn(
            f"{path}: snapshot commit was interrupted by a crash -- the "
            f"sidecar bytes sit at {os.path.basename(staged)!r} and "
            f"match the header's checksum; loading normally completes "
            f"the rename (do NOT delete the staged file)",
            RuntimeWarning,
            stacklevel=4,
        )
    return buffer


def _attach_sidecar(header, path, repair=True):
    """The sidecar buffer the header announces, or ``None``.

    The announced file is memory-mapped; it must cover the announced
    byte count -- a short file means the snapshot pair is torn -- and
    match the announced CRC.  When the announced file is missing,
    short, or fails its checksum but a staged ``<sidecar>.tmp`` matches
    the announced CRC, the interrupted commit is completed instead of
    failing (see :func:`_complete_sidecar_commit`).
    """
    announced = header.get("sidecar")
    if announced is None:
        return None
    try:
        name = announced["file"]
        expected, expected_crc = announced["bytes"], announced["crc32"]
    except (TypeError, KeyError):
        raise SnapshotError(
            f"{path}: malformed sidecar announcement {announced!r} -- "
            f"corrupt snapshot; restore from backup"
        ) from None
    sidecar, problem = None, None
    sidecar_path = os.path.join(
        os.path.dirname(os.fspath(path)) or ".", name
    )
    try:
        sidecar = Sidecar.from_file(sidecar_path)
    except FileNotFoundError:
        problem = (
            f"missing sidecar file {name!r} (expected {expected} "
            f"bytes; the snapshot/sidecar pair must move together)"
        )
    if problem is None and len(sidecar) < expected:
        problem = (
            f"sidecar {name!r} holds {len(sidecar)} bytes, header "
            f"announces {expected} -- torn snapshot pair, not a wrong "
            f"file; restore both files from the same save"
        )
    if problem is None:
        actual_crc = sidecar.crc32(expected)
        if actual_crc == expected_crc:
            return sidecar
        problem = (
            f"sidecar {name!r} fails its checksum over {expected} bytes "
            f"(stored {expected_crc}, computed {actual_crc}) -- the "
            f"column payload is corrupt; restore from backup or re-save "
            f"from source"
        )
    replacement = _complete_sidecar_commit(
        path, sidecar_path, expected, expected_crc, repair
    )
    if replacement is not None:
        if sidecar is not None:
            sidecar.close()
        return replacement
    raise SnapshotError(f"{path}: {problem}")


def read_snapshot(path, repair=True):
    """Read and validate a snapshot; returns ``(meta, records)``.

    ``records`` maps component name -> payload.  When the header
    announces a binary sidecar, the attached buffer is returned under
    ``records[SIDECAR_KEY]``.  Raises :class:`SnapshotError` on
    format/version mismatch, unknown record types, or missing
    components.  A sidecar rename interrupted by a
    crash mid-save is completed on the way in (with a
    ``RuntimeWarning``); ``repair=False`` verifies the staged bytes
    without renaming them -- fsck's read-only mode.
    """
    header, header_line, sealed, records = None, None, False, {}
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in _utf8_lines(handle, path):
            line = line.strip()
            if not line:
                continue
            if header is None:
                header = _read_header(line, path)
                header_line = line
                continue
            try:
                record = _loads(line)
            except ValueError as error:
                raise SnapshotError(
                    f"{path}:{number}: torn record (invalid JSON)"
                ) from error
            name = record.get("record") if isinstance(record, dict) else None
            if not sealed:
                # The seal's CRC covers the header's raw bytes -- the
                # one line the crcs table cannot protect (it lives
                # inside it).  Any flip in meta, the crcs table, or the
                # sidecar announcement lands here as a mismatch, before
                # the announcement is trusted to attach anything.
                if name != "integrity":
                    break
                stored = record.get("header_crc")
                actual = zlib.crc32(header_line.encode("utf-8"))
                if stored != actual:
                    raise SnapshotError(
                        f"{path}:{number}: header fails its integrity "
                        f"seal (stored {stored}, computed {actual}) -- "
                        f"corrupt snapshot; restore from backup"
                    )
                sealed = True
                attached = _attach_sidecar(header, path, repair)
                if attached is not None:
                    records[SIDECAR_KEY] = attached
                continue
            if name not in _KNOWN_RECORDS:
                raise SnapshotError(
                    f"{path}:{number}: unknown record type {name!r}"
                )
            if "payload" not in record:
                raise SnapshotError(
                    f"{path}:{number}: record {name!r} has no payload"
                )
            stored = header["crcs"].get(name)
            actual = zlib.crc32(line.encode("utf-8"))
            if stored != actual:
                raise SnapshotError(
                    f"{path}:{number}: record {name!r} fails its "
                    f"checksum (stored {stored}, computed {actual}) "
                    f"-- corrupt snapshot; restore from backup"
                )
            records[name] = record["payload"]
    if header is None:
        raise SnapshotError(f"{path}: empty snapshot file")
    if not sealed:
        raise SnapshotError(
            f"{path}: snapshot is missing its integrity seal after the "
            f"header -- truncated or corrupt; restore from backup"
        )
    missing = [name for name in REQUIRED_RECORDS if name not in records]
    if missing:
        raise SnapshotError(f"{path}: missing records: {missing}")
    return header["meta"], records


SHARDED_FORMAT = "seda-sharded-snapshot"
#: The one manifest version this reader accepts (and the writer
#: emits); its routing state is ``routing_epoch`` (bumped by every
#: topology operation -- split/merge/rebalance) and ``shard_doc_bases``
#: (per shard, the global document count at the moment that shard's
#: file was written; write-ahead records with ``base >=
#: shard_doc_bases[s]`` are *not* absorbed by shard ``s``'s file and
#: must be replayed onto it).
SHARDED_VERSION = 2
SHARDED_MANIFEST = "manifest.json"

#: Shard files are named by zero-padded shard index; re-saves into a
#: directory that already holds a manifest use a bumped *generation*
#: so the old files stay intact until the new manifest commits.
SHARD_FILE_TEMPLATE = "shard-{index:04d}.snapshot"
SHARD_FILE_GENERATION_TEMPLATE = "shard-{index:04d}.g{generation}.snapshot"


def shard_file_name(index, generation=0):
    """The shard file name for ``index`` at ``generation``."""
    if generation:
        return SHARD_FILE_GENERATION_TEMPLATE.format(
            index=index, generation=generation
        )
    return SHARD_FILE_TEMPLATE.format(index=index)


def next_shard_generation(directory):
    """The generation a save into ``directory`` must write.

    A fresh (or manifest-less) directory starts at generation 0 --
    plain ``shard-NNNN.snapshot`` names.  A directory with a readable
    manifest gets the next generation, so the re-save writes entirely
    *new* shard files and the old manifest keeps pointing at intact
    old ones until the new manifest atomically replaces it -- a crash
    mid-re-save can never leave a manifest referencing half-rewritten
    shards.
    """
    path = os.path.join(directory, SHARDED_MANIFEST)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = _loads(handle.read())
        if not isinstance(manifest, dict):
            return 0  # valid JSON but not a manifest: overwrite as fresh
        return int(manifest.get("generation", 0)) + 1
    except (FileNotFoundError, ValueError, TypeError):
        return 0


def write_sharded_manifest(directory, meta, documents, shard_files,
                           generation=0, routing_epoch=0,
                           shard_doc_bases=None):
    """Write a sharded snapshot's ``manifest.json`` atomically.

    ``documents`` is the global-order ``[name, shard_index,
    node_count]`` table -- the explicit document->shard assignment map
    routing works from; ``shard_files`` the per-shard file names
    (relative to ``directory``).  ``routing_epoch`` is bumped by every
    topology operation; ``shard_doc_bases`` records, per shard, the
    global document count when that shard's file was written (defaults
    to the full count: a plain save absorbs everything everywhere).
    Callers write the shard files *first*: the manifest is the commit
    record.
    """
    if shard_doc_bases is None:
        shard_doc_bases = [len(documents)] * len(shard_files)
    manifest = {
        "format": SHARDED_FORMAT,
        "version": SHARDED_VERSION,
        "generation": generation,
        "routing_epoch": int(routing_epoch),
        "shard_doc_bases": [int(base) for base in shard_doc_bases],
        "meta": meta,
        "documents": [list(row) for row in documents],
        "shard_files": list(shard_files),
    }
    path = os.path.join(directory, SHARDED_MANIFEST)
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(_dumps(manifest) + "\n")
        durable.fsync_file(handle)
    durable.replace_durably(tmp_path, path)
    return path


def read_sharded_manifest(directory):
    """Read and validate ``manifest.json``; returns the manifest dict.

    Raises :class:`SnapshotError` on a missing manifest, a foreign
    format string, another version, a field of the wrong shape (every
    field is required and type-checked here, once, so no reader
    downstream meets a shape it does not expect), or a manifest whose
    listed shard files are absent.
    """
    path = os.path.join(directory, SHARDED_MANIFEST)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        raise SnapshotError(
            f"{directory}: not a sharded snapshot (no {SHARDED_MANIFEST})"
        ) from None
    try:
        manifest = _loads(text)
    except ValueError as error:
        raise SnapshotError(f"{path}: manifest is not valid JSON") from error
    if not isinstance(manifest, dict) or (
        manifest.get("format") != SHARDED_FORMAT
    ):
        raise SnapshotError(
            f"{path}: not a {SHARDED_FORMAT} manifest "
            f"(format={manifest.get('format') if isinstance(manifest, dict) else None!r})"
        )
    if manifest.get("version") != SHARDED_VERSION:
        raise SnapshotError(
            f"{path}: unsupported sharded snapshot version "
            f"{manifest.get('version')!r}; this release reads version "
            f"{SHARDED_VERSION} only -- rebuild the collection from its "
            f"source XML and save it again"
        )

    def require(name, valid, need):
        if name not in manifest or not valid(manifest[name]):
            raise SnapshotError(
                f"{path}: malformed {name} {manifest.get(name)!r} "
                f"(need {need})"
            )

    def count(value):
        return isinstance(value, int) and value >= 0

    require("meta", lambda meta: isinstance(meta, dict), "an object")
    require("shard_files", lambda files: isinstance(files, list) and all(
        isinstance(name, str) for name in files
    ), "a list of file names")
    require("documents", lambda rows: isinstance(rows, list), "a list")
    require("generation", count, "int >= 0")
    require("routing_epoch", count, "int >= 0")
    shard_count = len(manifest["shard_files"])
    for row in manifest["documents"]:
        if not (
            isinstance(row, list) and len(row) == 3
            and isinstance(row[1], int) and 0 <= row[1] < shard_count
            and isinstance(row[2], int) and row[2] >= 0
        ):
            raise SnapshotError(
                f"{path}: malformed document row {row!r} "
                f"(need [name, shard_index < {shard_count}, node_count])"
            )
    document_count = len(manifest["documents"])
    require("shard_doc_bases", lambda bases: (
        isinstance(bases, list) and len(bases) == shard_count
        and all(count(base) and base <= document_count for base in bases)
    ), f"{shard_count} ints in [0, {document_count}]")
    missing = [
        shard_file for shard_file in manifest["shard_files"]
        if not os.path.exists(os.path.join(directory, shard_file))
    ]
    if missing:
        raise SnapshotError(
            f"{directory}: manifest lists missing shard files: {missing}"
        )
    return manifest


#: Collection-level retained query statistics in a sharded snapshot
#: directory.  The per-shard snapshot files cannot carry this -- the
#: registry spans shards (per-shard skew is *inside* each fingerprint's
#: record) -- so it rides alongside the manifest.
OBS_STATE_FILE = "obs.json"


def write_obs_state(directory, payload):
    """Atomically write the registry payload as ``obs.json``."""
    path = os.path.join(directory, OBS_STATE_FILE)
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(_dumps(payload) + "\n")
        durable.fsync_file(handle)
    durable.replace_durably(tmp_path, path)
    return path


def read_obs_state(directory):
    """The ``obs.json`` payload, or ``None`` when absent/unreadable.

    Observability history is advisory: a torn or missing file must
    never block restoring the collection itself.
    """
    path = os.path.join(directory, OBS_STATE_FILE)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = _loads(handle.read())
    except (FileNotFoundError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def clear_obs_state(directory):
    """Remove a stale ``obs.json`` (re-save with observability off)."""
    try:
        os.remove(os.path.join(directory, OBS_STATE_FILE))
    except OSError:
        pass


def _verify_snapshot_file(path, problems, warnings, checked, label=None):
    """Fold one snapshot file's health into an fsck report's lists.

    Reads with ``repair=False`` (fsck never modifies anything) and
    returns ``(staged, documents)``: ``staged`` is the staged sidecar
    path when the file's save was interrupted mid-commit -- that
    ``.tmp`` is load-bearing (a normal load completes its rename) and
    must not be reported as deletable -- and ``documents`` is the
    file's ``(name, node_count)`` list (the sharded fsck checks it
    against the manifest's assignment map), or ``None`` when the file
    could not be read.
    """
    import warnings as warnmod

    label = label or os.fspath(path)
    try:
        with warnmod.catch_warnings(record=True) as caught:
            warnmod.simplefilter("always")
            _meta, records = read_snapshot(path, repair=False)
    except FileNotFoundError:
        problems.append(f"{label}: snapshot file is missing")
        return None, None
    except SnapshotError as error:
        problems.append(str(error))
        return None, None
    staged = None
    for entry in caught:
        if issubclass(entry.category, RuntimeWarning):
            warnings.append(str(entry.message))
            staged = f"{sidecar_file_name(path)}.tmp"
    checked[label] = {"version": SNAPSHOT_VERSION, "records": sorted(
        name for name in records if name != SIDECAR_KEY
    )}
    attached = records.get(SIDECAR_KEY)
    if attached is not None:
        checked[label]["sidecar_bytes"] = len(attached)
        attached.close()
    documents = [
        (record["name"], len(record["parents"]))
        for record in records["collection"]["documents"]
    ]
    return staged, documents


def _verify_wal_file(path, problems, warnings, checked, document_count):
    """Fold one write-ahead log's health into an fsck report's lists.

    ``document_count`` is what the snapshot or manifest beside the log
    holds (``None`` when it could not be read).  The first batch it did
    not absorb must start exactly there: a later ``base`` means an older
    snapshot was restored beside a newer log, and load would refuse it.
    """
    from repro.storage.wal import replay_wal, verify_wal

    report = verify_wal(path)
    if not report["present"]:
        return
    checked[os.fspath(path)] = {"wal_records": report["records"]}
    if report["error"]:
        problems.append(report["error"])
    elif report["records"] and document_count is not None:
        records, _warning = replay_wal(path, repair=False)
        bases = [record.get("base") for record in records]
        first = next((base for base in bases if isinstance(base, int)
                      and base >= document_count), None)
        if first is not None and first > document_count:
            problems.append(
                f"{path}: first unabsorbed write-ahead batch starts at "
                f"base {first}, but the snapshot holds {document_count} "
                f"documents -- the batches between them are lost; "
                f"restore the snapshot saved with this log"
            )
    if report["torn_tail"]:
        warnings.append(
            f"{report['torn_tail']} -- the interrupted append was never "
            f"acknowledged; replay (Seda.load) repairs this automatically"
        )


def _verify_shard_assignment(directory, manifest, shard_documents,
                             problems):
    """Check the manifest's assignment map against the shard files.

    The manifest's document table assigns every document to exactly one
    shard.  Each shard file must hold exactly the documents assigned to
    it whose global index is below that shard's ``shard_doc_bases``
    watermark (in global order, with matching node counts); documents
    at or above a shard's watermark are not in its file yet and must be
    covered by a write-ahead record, or they would be silently lost on
    load.  ``shard_documents`` is the per-shard ``(name, node_count)``
    list from :func:`_verify_snapshot_file` (``None`` for unreadable
    files, which already reported their own problem).
    """
    from repro.storage.wal import sharded_wal_file_name

    rows = manifest["documents"]
    bases = manifest["shard_doc_bases"]
    expected = [[] for _ in manifest["shard_files"]]
    unabsorbed = []
    for global_index, (name, shard, node_count) in enumerate(rows):
        if global_index < bases[shard]:
            expected[shard].append((name, node_count))
        else:
            unabsorbed.append(global_index)
    for shard, documents in enumerate(shard_documents):
        if documents is None:
            continue  # unreadable file: already a problem of its own
        if documents == expected[shard]:
            continue
        label = os.path.join(directory, manifest["shard_files"][shard])
        extra = [name for name, _count in documents
                 if (name, _count) not in set(expected[shard])]
        missing = [name for name, _count in expected[shard]
                   if (name, _count) not in set(documents)]
        problems.append(
            f"{label}: shard file disagrees with the manifest's "
            f"assignment map (expected {len(expected[shard])} documents, "
            f"found {len(documents)}; missing {missing[:3]!r}, "
            f"unassigned extras {extra[:3]!r})"
        )
    if unabsorbed:
        covered = set()
        try:
            from repro.storage.wal import replay_wal

            records, _warning = replay_wal(
                sharded_wal_file_name(directory), repair=False
            )
        except Exception:  # noqa: BLE001 - WAL check reports separately
            records = []
        for record in records:
            base = record.get("base")
            if isinstance(base, int):  # replay rejects the others
                covered.update(
                    range(base, base + len(record.get("documents", ())))
                )
        lost = [index for index in unabsorbed if index not in covered]
        if lost:
            names = [rows[index][0] for index in lost[:3]]
            problems.append(
                f"{directory}: {len(lost)} document(s) past their "
                f"shard's absorption watermark are not covered by any "
                f"write-ahead record (first: {names!r}) -- they would "
                f"be lost on load"
            )


def _stale_tmp_files(paths):
    """The ``<path>.tmp`` leftovers that exist among ``paths``."""
    return [
        f"{os.fspath(path)}.tmp" for path in paths
        if os.path.exists(f"{os.fspath(path)}.tmp")
    ]


def fsck_report(path):
    """Verify a snapshot/sidecar/WAL set; the ``repro fsck`` backend.

    ``path`` is a single-system snapshot file or a sharded snapshot
    directory.  Returns ``{"target", "kind", "ok", "problems",
    "warnings", "checked"}``: ``problems`` are integrity failures
    (checksum mismatches, torn pairs, missing files -- the snapshot
    set cannot be trusted), ``warnings`` are survivable findings
    (torn WAL tail, stale ``*.tmp`` leftovers, an interrupted sidecar
    rename), and ``checked`` summarizes what was examined.  Never
    modifies anything -- WAL torn tails are reported, not repaired.
    """
    from repro.storage.wal import sharded_wal_file_name, wal_file_name

    problems, warnings, checked = [], [], {}
    if os.path.isdir(path):
        kind = "sharded"
        document_count = None
        try:
            manifest = read_sharded_manifest(path)
        except SnapshotError as error:
            problems.append(str(error))
            manifest = None
        if manifest is not None:
            checked[os.path.join(path, SHARDED_MANIFEST)] = {
                "generation": manifest["generation"],
                "routing_epoch": manifest["routing_epoch"],
                "shards": len(manifest["shard_files"]),
                "documents": len(manifest["documents"]),
            }
            listed = set()
            protected = set()
            shard_documents = []
            for shard_file in manifest["shard_files"]:
                shard_path = os.path.join(path, shard_file)
                listed.update((shard_file, f"{shard_file}.cols"))
                staged, documents = _verify_snapshot_file(
                    shard_path, problems, warnings, checked,
                    label=shard_path,
                )
                shard_documents.append(documents)
                if staged is not None:
                    protected.add(os.path.basename(staged))
            _verify_shard_assignment(
                path, manifest, shard_documents, problems
            )
            document_count = len(manifest["documents"])
            for name in sorted(os.listdir(path)):
                if name in protected:
                    continue  # load-bearing staged sidecar, warned above
                if name.endswith(".tmp"):
                    warnings.append(
                        f"{os.path.join(path, name)}: stale temp file "
                        f"from an interrupted save; safe to delete"
                    )
                elif (name.startswith("shard-")
                        and (name.endswith(".snapshot")
                             or name.endswith(".snapshot.cols"))
                        and name not in listed):
                    warnings.append(
                        f"{os.path.join(path, name)}: not referenced by "
                        f"the manifest (superseded generation); safe to "
                        f"delete"
                    )
        _verify_wal_file(
            sharded_wal_file_name(path), problems, warnings, checked,
            document_count,
        )
    else:
        kind = "snapshot"
        staged, documents = _verify_snapshot_file(
            path, problems, warnings, checked
        )
        _verify_wal_file(
            wal_file_name(path), problems, warnings, checked,
            None if documents is None else len(documents),
        )
        for stale in _stale_tmp_files(
            (path, sidecar_file_name(path), wal_file_name(path))
        ):
            if stale == staged:
                continue  # load-bearing staged sidecar, warned above
            warnings.append(
                f"{stale}: stale temp file from an interrupted save; "
                f"safe to delete"
            )
    return {
        "target": os.fspath(path),
        "kind": kind,
        "ok": not problems,
        "problems": problems,
        "warnings": warnings,
        "checked": checked,
    }


def snapshot_info(path):
    """Header metadata plus per-record sizes, without restoring anything.

    Returns ``{"meta": ..., "records": [(name, bytes), ...],
    "total_bytes": N, "sidecar_bytes": N}`` -- what ``repro snapshot
    info`` prints.  ``total_bytes`` is the JSON file alone;
    ``sidecar_bytes`` (0 when the file has no byte columns) is the
    binary column payload riding alongside it.  Streams the file line
    by line, so inspecting a large snapshot stays cheap.
    """
    meta = None
    sizes = []
    total = 0
    sidecar_bytes = 0
    with open(path, "r", encoding="utf-8") as handle:
        for _number, line in _utf8_lines(handle, path):
            stripped = line.strip()
            if not stripped:
                continue
            total += len(line.encode("utf-8"))
            if meta is None:
                header = _read_header(stripped, path)
                meta = header["meta"]
                sidecar_bytes = header.get("sidecar", {}).get("bytes", 0)
                continue
            try:
                record = _loads(stripped)
            except ValueError as error:
                raise SnapshotError(
                    f"{path}: torn record (invalid JSON)"
                ) from error
            name = record.get("record") if isinstance(record, dict) else None
            if name == "integrity":  # header seal, not a component
                continue
            sizes.append((name, len(stripped.encode("utf-8"))))
    if meta is None:
        raise SnapshotError(f"{path}: empty snapshot file")
    return {
        "meta": meta,
        "records": sizes,
        "total_bytes": total,
        "sidecar_bytes": sidecar_bytes,
    }
