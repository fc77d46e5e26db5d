"""Index persistence: save/load a built ACT index.

The paper targets *static* polygon sets, so building once and shipping
the index to query nodes is the natural deployment. The on-disk format
(version 2) is a single ``.npz`` whose every member is an array, so a
load is array reads and nothing else:

============ ======= ================ ============================== =======
member       dtype   shape            bytes                          zip
============ ======= ================ ============================== =======
nodes        uint64  ``(N, fanout)``  ``8 * N * fanout``             stored
roots        uint64  ``(6,)``         48 (one per face)              deflate
lookup       uint32  ``(W,)``         ``4 * W``                      deflate
grid_params  float64 ``(5,)``/``(1,)`` 40 planar / 8 S2-like          deflate
meta         uint8   ``(M,)``         ``M``: JSON (version, fanout,  deflate
                                      boundary level, grid kind,
                                      build stats)
ring_xy      float64 ``(2, V)``       ``16 * V``: every ring's       deflate
                                      vertices, x row then y row
ring_ptr     int64   ``(R + 1,)``     ``8 * (R + 1)``: ring CSR      deflate
poly_ptr     int64   ``(P + 1,)``     ``8 * (P + 1)``: polygon CSR   deflate
============ ======= ================ ============================== =======

``N`` pool rows, ``W`` lookup words, ``V`` vertices in ``R`` rings of
``P`` polygons. The last three are a
:class:`~repro.geometry.polygon.PolygonColumns`: rings stored already
normalised (shell CCW, holes CW), shell first. The edge table behind
exact refinement packs from them in one vectorized pass, and
:attr:`ACTIndex.polygons <repro.act.index.ACTIndex.polygons>` builds
``Polygon`` objects from them only when something asks.

The stored arrays *are* the canonical :class:`~repro.act.core.ACTCore`
representation, so :func:`load_index` materializes the core directly
from the ``.npz`` buffers — nothing is rebuilt or re-laid-out, and only
``meta`` is parsed as JSON. Loading returns an
:class:`~repro.act.index.ACTIndex` that answers identically to the
original (tests assert bit-equal lookups).

The archive is written member by member so the node pool — the one
array that dominates index size — is a *stored* (uncompressed) zip
member while the small members stay deflated. A stored member is raw
``.npy`` bytes at a known file offset, which is what makes
``load_index(path, mmap_mode="r")`` possible: the node pool becomes an
``np.memmap`` over the archive itself, so huge indexes cold-start
lazily (pages fault in on first touch) and forked worker processes
share the pool through the page cache instead of each holding a copy.
The member's local header is padded (a zip extra field) so the stream —
and with it the array data, which ``.npy`` aligns within the stream —
starts on a 64-byte file offset: the mapped pool is an *aligned* array
(``flags.aligned``), which numpy gathers from measurably faster
(``_descend`` 50 -> 39 ns/point) and never silently copies. Archives
written without the padding load as before, just unaligned.

**Integrity.** Every archive carries a manifest in its zip comment
(written with the central directory, after every member): per member,
the CRC32 of its ``.npy`` stream plus the dtype/shape/byte count it
must decode to — the byte cost of every member is stated when written
and checked when read. The CRC is the one the zip layer computes as it
writes a member and checks every byte against as it reads one, so a
member read whole is hashed once, by the read; the comment is read
with the central directory, so checking the manifest costs no member
read. :func:`load_index` verifies on open — the default
``verify="header"`` covers every member read (all but a mapped node
pool, geometry included) and checks the pool's declared geometry and
recorded CRC without touching its data (an mmap cold load stays lazy:
the pool's pages are never faulted in just to hash them), while
``verify="full"`` also streams the mapped pool through the zip layer's
hash, 16 MiB at a time. Any mismatch, a missing manifest or member,
and any structurally unreadable archive raises
:class:`~repro.errors.ArtifactCorruptError`, which the serving
lifecycle treats as a NACK (quarantine + rollback). A version-1
archive (polygons as a GeoJSON member) raises
:class:`~repro.errors.ACTError`: rebuild and save it again.
"""

from __future__ import annotations

import json
import os
import struct
import zipfile
import zlib
from pathlib import Path
from typing import BinaryIO, Optional, Union

import numpy as np

from ..errors import (ACTError, ArtifactCorruptError, CapacityError,
                      ReproError)
from ..geometry.bbox import Rect
from ..geometry.polygon import PolygonColumns
from ..grid.planar import PlanarGrid
from ..grid.s2like import S2LikeGrid
from .core import ACTCore
from .index import ACTIndex
from .lookup_table import LookupTable
from .stats import IndexStats

#: On-disk format version (bump on layout changes). Version 1 stored
#: the polygons as a GeoJSON member; it has no reader.
FORMAT_VERSION = 2

#: Members read whole on every load (all but ``meta``, which is read
#: first, and the node pool, which may be mapped instead).
_EAGER_MEMBERS = ("roots", "lookup", "grid_params",
                  "ring_xy", "ring_ptr", "poly_ptr")

#: Checksum algorithm recorded in the manifest (stdlib CRC32; the
#: manifest names it so a future xxhash/CRC32C upgrade can coexist).
CHECKSUM_ALGO = "crc32"

#: File offset alignment of the stored node-pool member (a cache line).
MEMBER_ALIGN = 64

#: Header id of the padding record in the node pool's zip extra field
#: (the id zipalign uses; readers skip ids they do not know).
_PAD_EXTRA_ID = 0xD935

#: Valid ``verify=`` modes for :func:`load_index`.
_VERIFY_MODES = ("off", "header", "full")


def save_index(index: ACTIndex, path: Union[str, Path]) -> None:
    """Persist ``index`` to ``path`` (``.npz``; extension not enforced)."""
    core = index.core
    columns = index.columns
    columns.check()  # never write geometry a reader would refuse
    grid = index.grid
    if isinstance(grid, PlanarGrid):
        grid_kind = "planar"
        grid_params = [grid.bounds.min_x, grid.bounds.min_y,
                       grid.bounds.max_x, grid.bounds.max_y,
                       float(grid.max_level)]
    elif isinstance(grid, S2LikeGrid):
        grid_kind = "s2like"
        grid_params = [float(grid.max_level)]
    else:
        raise ACTError(
            f"cannot serialize indexes over grid type "
            f"{type(grid).__name__!r}"
        )
    meta = {
        "version": FORMAT_VERSION,
        "fanout": core.fanout,
        "num_trie_entries": core.num_entries,
        "boundary_level": index.boundary_level,
        "grid_kind": grid_kind,
        "stats": _stats_to_dict(index.stats),
    }
    members = {
        "nodes": core.nodes,
        "roots": core.roots,
        "lookup": core.lookup_table.words,
        "grid_params": np.asarray(grid_params, dtype=np.float64),
        "meta": np.frombuffer(json.dumps(meta).encode("utf-8"),
                              dtype=np.uint8),
        "ring_xy": columns.xy,
        "ring_ptr": columns.ring_ptr,
        "poly_ptr": columns.poly_ptr,
    }
    # hand-rolled npz: the node pool is a STORED member so load_index
    # can memory-map it in place; everything else stays deflated
    manifest: dict = {"format": FORMAT_VERSION, "algo": CHECKSUM_ALGO,
                      "members": {}}
    with zipfile.ZipFile(path, "w", allowZip64=True) as archive:
        for name, array in members.items():
            array = np.ascontiguousarray(array)
            info = zipfile.ZipInfo(f"{name}.npy",
                                   date_time=(1980, 1, 1, 0, 0, 0))
            if name == "nodes":
                info.compress_type = zipfile.ZIP_STORED
                info.extra = _aligning_extra(archive, info)
            else:
                info.compress_type = zipfile.ZIP_DEFLATED
            with archive.open(info, "w") as fp:
                np.lib.format.write_array(fp, array, allow_pickle=False)
            manifest["members"][name] = {
                "crc32": info.CRC,  # the zip layer hashed the stream
                "bytes": int(array.nbytes),
                "dtype": str(array.dtype),
                "shape": list(array.shape),
            }
        # the manifest rides in the archive comment, which the zip
        # layer writes last (with the central directory, on close) and
        # reads first: it covers every member, a truncated write cannot
        # carry it, and checking it costs a reader no member read
        archive.comment = json.dumps(manifest).encode("utf-8")


def _aligning_extra(archive: zipfile.ZipFile,
                    info: zipfile.ZipInfo) -> bytes:
    """The zip extra field that makes ``info``, written next, start its
    bytes on a :data:`MEMBER_ALIGN` file offset: one well-formed record
    (:data:`_PAD_EXTRA_ID`, length, zeros) sized to pad the local
    header. ``.npy`` aligns its data inside the stream the same way, so
    the mapped array starts on a cache line."""
    start = archive.start_dir + zipfile.sizeFileHeader + len(info.filename)
    pad = -start % MEMBER_ALIGN
    if pad < 4:  # a record is at least its own 4-byte header
        pad += MEMBER_ALIGN
    return struct.pack("<HH", _PAD_EXTRA_ID, pad - 4) + bytes(pad - 4)


def save_index_atomic(index: ACTIndex, path: Union[str, Path]) -> Path:
    """Persist ``index`` to ``path`` via write-temp + rename.

    The archive is written to a hidden sibling temp file and moved into
    place with :func:`os.replace`, so a reader never observes a partial
    archive and — crucially for zero-downtime reloads — a process that
    memory-mapped the *old* file at ``path`` keeps a valid map: the
    rename unlinks the old directory entry but the old inode survives
    until the last map goes away.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        save_index(index, tmp)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:
                pass
    return path


def _read_manifest(archive: zipfile.ZipFile,
                   path: Union[str, Path]) -> dict:
    """The parsed integrity manifest from the archive comment."""
    if not archive.comment:
        raise ArtifactCorruptError(
            f"{path}: archive carries no integrity manifest (its zip "
            f"comment is empty); re-save it with this version")
    try:
        manifest = json.loads(archive.comment.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ArtifactCorruptError(
            f"{path}: integrity manifest is unreadable: {exc}") from exc
    if not isinstance(manifest, dict) \
            or not isinstance(manifest.get("members"), dict):
        raise ArtifactCorruptError(
            f"{path}: integrity manifest has no member table")
    return manifest


def _check_member(path: Union[str, Path], archive: zipfile.ZipFile,
                  members: dict, name: str, array: np.ndarray) -> None:
    """One member against its manifest entry: the dtype/shape/bytes it
    decoded to, and the CRC32 of its ``.npy`` stream as the central
    directory records it. That CRC is what the zip layer checks every
    byte against as it reads a member (:func:`_read_member`), so a
    read member is hashed exactly once; a mapped pool is not hashed
    here at all (:func:`_hash_member` does that under ``"full"``)."""
    entry = members.get(name)
    if not isinstance(entry, dict):
        raise ArtifactCorruptError(
            f"{path}: member {name!r} is missing from the integrity "
            f"manifest")
    try:  # np.dtype() lookup beats str(array.dtype) (a slow property)
        ok = (entry.get("bytes") == array.nbytes
              and entry.get("shape") == list(array.shape)
              and np.dtype(entry.get("dtype")) == array.dtype)
    except TypeError:
        ok = False
    if not ok:
        raise ArtifactCorruptError(
            f"{path}: member {name!r} does not match its manifest "
            f"entry: manifest says {entry.get('dtype')}"
            f"{list(entry.get('shape', ()))} ({entry.get('bytes')} B), "
            f"archive decodes to {array.dtype}{list(array.shape)} "
            f"({array.nbytes} B)")
    crc = archive.getinfo(f"{name}.npy").CRC
    if crc != entry.get("crc32"):
        raise ArtifactCorruptError(
            f"{path}: member {name!r} checksum mismatch (crc32 "
            f"{crc:#010x}, manifest {entry.get('crc32')!r})")


def _read_member(archive: zipfile.ZipFile, name: str) -> np.ndarray:
    """One member read whole, into an array of its own. Reading to the
    end is what makes the zip layer compare the CRC32 of every byte it
    produced with the central directory's (``BadZipFile`` otherwise)."""
    with archive.open(f"{name}.npy") as fp:
        array = np.lib.format.read_array(fp, allow_pickle=False)
        if fp.read(1):
            raise ValueError(f"member {name!r} has bytes past its array")
    return array


def _hash_member(archive: zipfile.ZipFile, path: Union[str, Path],
                 name: str) -> None:
    """Stream a (mapped) member through the zip layer, 16 MiB at a
    time, so it hashes every byte against the central directory's CRC
    without the pool ever being copied whole."""
    try:
        with archive.open(f"{name}.npy") as fp:
            while fp.read(1 << 24):
                pass
    except zipfile.BadZipFile as exc:
        raise ArtifactCorruptError(
            f"{path}: member {name!r} checksum mismatch: {exc}") from exc


#: Exceptions that mean "the archive itself is unreadable" — wrapped
#: into :class:`ArtifactCorruptError` by :func:`load_index` so callers
#: get one typed error for every flavor of on-disk corruption.
_CORRUPTION_ERRORS = (zipfile.BadZipFile, zlib.error, ValueError,
                      EOFError, KeyError, IndexError, struct.error,
                      UnicodeDecodeError)


def load_index(path: Union[str, Path],
               mmap_mode: Optional[str] = None,
               verify: str = "header") -> ACTIndex:
    """Load an index written by :func:`save_index`.

    Every member is an array and goes to its owner as it is: the node
    pool, roots and lookup-table words to
    :class:`~repro.act.core.ACTCore`, the ring columns to the index as
    a :class:`~repro.geometry.polygon.PolygonColumns`. Only ``meta`` is
    JSON, and no :class:`~repro.geometry.polygon.Polygon` is built.

    ``mmap_mode`` (``"r"`` read-only or ``"c"`` copy-on-write) maps the
    node pool straight from the archive instead of reading it: the
    returned core's ``nodes`` array is backed by the file, pages in
    lazily on first access, and is shared (not duplicated) across
    processes forked after the load.

    ``verify`` controls integrity checking against the manifest in the
    archive comment: ``"header"`` (default) checks every member's
    dtype/shape/bytes and recorded CRC; every member read (all but a
    mapped pool) was hashed against that CRC by the read itself, and a
    mapped pool's data is not touched (mmap loads stay lazy);
    ``"full"`` additionally hashes a mapped pool; ``"off"`` skips the
    manifest (reads still check the zip layer's CRCs).
    Failures — and structurally unreadable archives under any mode —
    raise :class:`~repro.errors.ArtifactCorruptError`; an archive of
    another format version raises :class:`~repro.errors.ACTError`.
    """
    if mmap_mode not in (None, "r", "c"):
        raise ACTError(
            f"mmap_mode must be None, 'r' or 'c', got {mmap_mode!r}"
        )
    if verify not in _VERIFY_MODES:
        raise ACTError(
            f"verify must be one of {_VERIFY_MODES}, got {verify!r}"
        )
    try:
        # the zip is handed an open file so that the file is closed here
        # even when the zip parse raises
        with open(path, "rb") as handle, \
                zipfile.ZipFile(handle) as archive:
            meta_array = _read_member(archive, "meta")
            meta = json.loads(bytes(meta_array.tobytes()).decode("utf-8"))
            if meta.get("version") != FORMAT_VERSION:
                raise ACTError(
                    f"unsupported index format version "
                    f"{meta.get('version')!r} (this reader reads "
                    f"{FORMAT_VERSION}); rebuild the index and save it "
                    f"again"
                )
            # a mapped pool's bytes are never even read here
            nodes = (_mmap_npz_member(archive, handle, path, "nodes",
                                      mmap_mode)
                     if mmap_mode else _read_member(archive, "nodes"))
            arrays = {name: _read_member(archive, name)
                      for name in _EAGER_MEMBERS}
            if verify != "off":
                members = _read_manifest(archive, path)["members"]
                arrays["meta"], arrays["nodes"] = meta_array, nodes
                for name, array in arrays.items():
                    _check_member(path, archive, members, name, array)
                if verify == "full" and mmap_mode:
                    _hash_member(archive, path, "nodes")
            # walks the set headers: words that do not parse are damage
            lookup_table = LookupTable(arrays["lookup"])
            columns = PolygonColumns(arrays["ring_xy"], arrays["ring_ptr"],
                                     arrays["poly_ptr"])
            columns.check()
    except CapacityError as exc:
        raise ArtifactCorruptError(
            f"index artifact {path} is corrupt: {exc}") from exc
    except ReproError:
        raise
    except _CORRUPTION_ERRORS as exc:
        raise ArtifactCorruptError(
            f"index artifact {path} is corrupt or truncated: "
            f"{type(exc).__name__}: {exc}"
        ) from exc

    grid_params = arrays["grid_params"]
    grid: Union[PlanarGrid, S2LikeGrid]
    if meta["grid_kind"] == "planar":
        bounds = Rect(*grid_params[:4])
        grid = PlanarGrid(bounds, max_level=int(grid_params[4]))
    elif meta["grid_kind"] == "s2like":
        grid = S2LikeGrid(max_level=int(grid_params[0]))
    else:
        raise ACTError(f"unknown grid kind {meta['grid_kind']!r}")

    core = ACTCore(
        nodes, arrays["roots"], lookup_table,
        fanout=meta["fanout"], num_entries=meta["num_trie_entries"],
    )
    stats = _stats_from_dict(meta["stats"])
    return ACTIndex(grid, core, columns, stats, meta["boundary_level"])


def _mmap_npz_member(archive: zipfile.ZipFile, fp: BinaryIO,
                     path: Union[str, Path], name: str,
                     mmap_mode: str) -> np.ndarray:
    """Memory-map one *stored* ``.npy`` member of an open ``.npz``.

    A stored zip member is the raw ``.npy`` stream at
    ``local header offset + header size``, so after parsing the npy
    header the array data can be mapped directly from the archive file
    (``fp``, the file ``archive`` reads) — zero copies, lazy paging.
    """
    member = f"{name}.npy"
    try:
        info = archive.getinfo(member)
    except KeyError:
        raise ArtifactCorruptError(
            f"archive {path} has no member {member!r}") from None
    if info.compress_type != zipfile.ZIP_STORED:
        raise ACTError(
            f"member {member!r} is compressed and cannot be memory-"
            f"mapped; re-save the index with this version to enable "
            f"mmap_mode"
        )
    # the central directory's header_offset points at the local
    # file header; its name/extra lengths give the data offset
    fp.seek(info.header_offset)
    local = fp.read(30)
    if len(local) != 30 or local[:4] != b"PK\x03\x04":
        raise ArtifactCorruptError(
            f"{path}: corrupt local file header for {member!r}")
    name_len, extra_len = struct.unpack("<HH", local[26:30])
    fp.seek(info.header_offset + 30 + name_len + extra_len)
    version = np.lib.format.read_magic(fp)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(fp)
    elif version == (2, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(fp)
    else:
        raise ArtifactCorruptError(
            f"unsupported npy format version {version} in {member!r}"
        )
    data_offset = fp.tell()
    end = data_offset + int(
        np.dtype(dtype).itemsize * int(np.prod(shape, dtype=np.int64)))
    file_size = os.fstat(fp.fileno()).st_size
    if file_size < end:
        raise ArtifactCorruptError(
            f"{path}: member {member!r} is truncated (needs bytes "
            f"up to offset {end}, file ends at {file_size})")
    return np.memmap(fp, dtype=dtype,
                     mode=mmap_mode,  # type: ignore[arg-type]
                     offset=data_offset, shape=shape,
                     order="F" if fortran else "C")


def verify_artifact(path: Union[str, Path], full: bool = False) -> dict:
    """Standalone integrity check of a serialized index.

    ``full=False`` mirrors ``load_index(verify="header")`` — every
    member but the node pool is read (and so hashed), the pool only has
    its declared geometry and recorded CRC checked; ``full=True``
    hashes the pool too. Returns the parsed manifest on success; raises
    :class:`~repro.errors.ArtifactCorruptError` on any mismatch, on a
    structurally unreadable archive, or when the archive carries no
    manifest.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle, \
                zipfile.ZipFile(handle) as archive:
            manifest = _read_manifest(archive, path)
            members = manifest["members"]
            for name in members:
                if name == "nodes":
                    array = _mmap_npz_member(archive, handle, path, name,
                                             "r")
                    if full:
                        _hash_member(archive, path, name)
                else:
                    array = _read_member(archive, name)
                _check_member(path, archive, members, name, array)
    except CapacityError as exc:
        raise ArtifactCorruptError(
            f"index artifact {path} is corrupt: {exc}") from exc
    except ReproError:
        raise
    except _CORRUPTION_ERRORS as exc:
        raise ArtifactCorruptError(
            f"index artifact {path} is corrupt or truncated: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    return manifest


def quarantine_artifact(path: Union[str, Path]) -> Path:
    """Move a failed artifact into a sibling ``<name>.quarantine/`` dir.

    The reload coordinator calls this after an artifact flunks
    verification so the bad file can never be re-served (a retried
    reload materializes a fresh one) while staying on disk for
    forensics. The rename keeps the inode alive, so workers that
    already memory-mapped the file before it went bad-on-disk are
    untouched. Returns the quarantined location.
    """
    path = Path(path)
    qdir = path.with_name(path.name + ".quarantine")
    qdir.mkdir(exist_ok=True)
    target = qdir / path.name
    n = 1
    while target.exists():
        target = qdir / f"{path.name}.{n}"
        n += 1
    os.replace(path, target)
    return target


def _stats_to_dict(stats: IndexStats) -> dict:
    out = {k: getattr(stats, k) for k in (
        "num_polygons", "precision_meters", "boundary_level", "fanout",
        "grid_name", "raw_boundary_cells", "raw_interior_cells",
        "indexed_cells", "conflict_cells", "trie_nodes", "trie_bytes",
        "trie_entries", "lookup_table_bytes", "lookup_table_sets",
        "build_coverings_seconds", "build_super_seconds",
        "build_trie_seconds",
    )}
    return out


def _stats_from_dict(data: dict) -> IndexStats:
    stats = IndexStats()
    for key, value in data.items():
        setattr(stats, key, value)
    return stats
