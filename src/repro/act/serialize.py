"""Index persistence: save/load a built ACT index.

The paper targets *static* polygon sets, so building once and shipping
the index to query nodes is the natural deployment. The on-disk format
is a single compressed ``.npz``:

* the node pool (``(num_nodes, fanout)`` uint64) and face roots;
* the lookup-table uint32 array;
* grid parameters (kind, bounds, max level);
* the original polygons (GeoJSON, needed for exact-mode refinement);
* build stats (JSON) so Table-I metrics survive the roundtrip.

The stored arrays *are* the canonical :class:`~repro.act.core.ACTCore`
representation, so :func:`load_index` materializes the core directly
from the ``.npz`` buffers — nothing is rebuilt or re-laid-out, which
keeps cold loads (e.g. the serve registry pinning an index on first
request) at array-copy speed. Loading returns
an :class:`~repro.act.index.ACTIndex` that answers identically to the
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

**Integrity.** Every archive carries a ``manifest`` member written
last: per-member CRC32 over the raw array bytes plus the dtype/shape/
byte-count each member must decode to. :func:`load_index` verifies on
open — the default ``verify="header"`` checks every *small* member's
checksum and the node pool's declared geometry (so an mmap cold load
stays lazy: the pool's pages are never faulted in just to hash them),
while ``verify="full"`` also hashes the node pool (chunked, so even a
memory-mapped pool is streamed rather than copied). Any mismatch — and
any structurally unreadable archive — raises
:class:`~repro.errors.ArtifactCorruptError`, which the serving
lifecycle treats as a NACK (quarantine + rollback). Archives written
before the manifest existed still load under ``verify="header"``;
``verify="full"`` refuses them.
"""

from __future__ import annotations

import json
import os
import struct
import zipfile
import zlib
from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from ..errors import (ACTError, ArtifactCorruptError, CapacityError,
                      ReproError)
from ..geometry import geojson
from ..geometry.bbox import Rect
from ..grid.planar import PlanarGrid
from ..grid.s2like import S2LikeGrid
from .core import ACTCore
from .index import ACTIndex
from .lookup_table import LookupTable
from .stats import IndexStats

#: On-disk format version (bump on layout changes).
FORMAT_VERSION = 1

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


def _crc32_array(array: np.ndarray) -> int:
    """CRC32 over an array's raw data bytes, streamed in chunks.

    Chunking matters for memory-mapped pools: the bytes are hashed
    16 MiB at a time straight off the buffer (pages fault in and can be
    reclaimed), never copied wholesale with ``tobytes()``.
    """
    view = memoryview(np.ascontiguousarray(array)).cast("B")
    crc = 0
    step = 1 << 24
    for start in range(0, len(view), step):
        crc = zlib.crc32(view[start:start + step], crc)
    return crc & 0xFFFFFFFF


def save_index(index: ACTIndex, path: Union[str, Path]) -> None:
    """Persist ``index`` to ``path`` (``.npz``; extension not enforced)."""
    core = index.core
    polygons_doc = geojson.feature_collection(
        geojson.feature(p, {"id": pid})
        for pid, p in enumerate(index.polygons)
    )
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
        "polygons": np.frombuffer(
            json.dumps(polygons_doc).encode("utf-8"), dtype=np.uint8
        ),
    }
    # hand-rolled npz: the node pool is a STORED member so load_index
    # can memory-map it in place; everything else stays deflated
    manifest: dict = {"format": FORMAT_VERSION, "algo": CHECKSUM_ALGO,
                      "members": {}}
    with zipfile.ZipFile(path, "w", allowZip64=True) as archive:
        for name, array in members.items():
            array = np.ascontiguousarray(array)
            manifest["members"][name] = {
                "crc32": _crc32_array(array),
                "bytes": int(array.nbytes),
                "dtype": str(array.dtype),
                "shape": list(array.shape),
            }
            info = zipfile.ZipInfo(f"{name}.npy",
                                   date_time=(1980, 1, 1, 0, 0, 0))
            if name == "nodes":
                info.compress_type = zipfile.ZIP_STORED
                info.extra = _aligning_extra(archive, info)
            else:
                info.compress_type = zipfile.ZIP_DEFLATED
            with archive.open(info, "w") as fp:
                np.lib.format.write_array(fp, array, allow_pickle=False)
        # the manifest goes last so it covers every data member; a
        # truncated write can therefore never produce an archive whose
        # manifest vouches for members that were not fully written
        info = zipfile.ZipInfo("manifest.npy",
                               date_time=(1980, 1, 1, 0, 0, 0))
        info.compress_type = zipfile.ZIP_DEFLATED
        with archive.open(info, "w") as fp:
            np.lib.format.write_array(
                fp,
                np.frombuffer(json.dumps(manifest).encode("utf-8"),
                              dtype=np.uint8),
                allow_pickle=False)


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


def _npy_payload(raw: bytes) -> bytes:
    """The data bytes of a v1/v2 ``.npy`` stream, without a numpy
    array round-trip — the manifest is a tiny uint8 member, and going
    through ``NpzFile.__getitem__`` for it costs as much as loading a
    whole extra data member on every verified open."""
    if raw[:6] != b"\x93NUMPY":
        raise ValueError("not an npy stream")
    if raw[6] == 1:
        offset = 10 + int.from_bytes(raw[8:10], "little")
    else:
        offset = 12 + int.from_bytes(raw[8:12], "little")
    if offset >= len(raw):
        raise ValueError("npy stream truncated before its data")
    return raw[offset:]


def _read_manifest(data: Any, path: Union[str, Path]) -> Optional[dict]:
    """The parsed integrity manifest, or ``None`` for pre-manifest
    archives (written before this format carried one)."""
    if "manifest" not in getattr(data, "files", ()):
        return None
    try:
        archive = getattr(data, "zip", None)
        if archive is not None:
            payload = _npy_payload(archive.read("manifest.npy"))
        else:  # NpzFile without an open zip handle (never numpy's own)
            payload = bytes(data["manifest"].tobytes())
        manifest = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError, KeyError, OSError,
            zipfile.BadZipFile) as exc:
        raise ArtifactCorruptError(
            f"{path}: integrity manifest is unreadable: {exc}"
        ) from exc
    if not isinstance(manifest, dict) \
            or not isinstance(manifest.get("members"), dict):
        raise ArtifactCorruptError(
            f"{path}: integrity manifest has no member table")
    return manifest


def _check_member(path: Union[str, Path], members: dict, name: str,
                  array: np.ndarray, data: bool = True) -> None:
    """One member against its manifest entry; ``data=False`` checks only
    the decoded geometry (dtype/shape/bytes), never touching the data —
    that is what keeps the mmap cold-load path lazy."""
    entry = members.get(name)
    if not isinstance(entry, dict):
        raise ArtifactCorruptError(
            f"{path}: member {name!r} is missing from the integrity "
            f"manifest")
    array = np.asarray(array)
    try:  # np.dtype() lookup beats str(array.dtype) (a slow property)
        dtype_ok = np.dtype(entry.get("dtype")) == array.dtype
    except TypeError:
        dtype_ok = False
    if (int(entry.get("bytes", -1)) != int(array.nbytes)
            or not dtype_ok
            or list(entry.get("shape", ())) != list(array.shape)):
        raise ArtifactCorruptError(
            f"{path}: member {name!r} does not match its manifest "
            f"entry: manifest says {entry.get('dtype')}"
            f"{list(entry.get('shape', ()))} ({entry.get('bytes')} B), "
            f"archive decodes to {array.dtype}{list(array.shape)} "
            f"({array.nbytes} B)")
    if data:
        crc = _crc32_array(array)
        want = int(entry.get("crc32", -1))
        if crc != want:
            raise ArtifactCorruptError(
                f"{path}: member {name!r} checksum mismatch "
                f"(crc32 {crc:#010x}, manifest {want:#010x})")


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

    The node pool, roots and lookup-table words feed
    :class:`~repro.act.core.ACTCore` directly, as the arrays they are.

    ``mmap_mode`` (``"r"`` read-only or ``"c"`` copy-on-write) maps the
    node pool straight from the archive instead of reading it: the
    returned core's ``nodes`` array is backed by the file, pages in
    lazily on first access, and is shared (not duplicated) across
    processes forked after the load.

    ``verify`` controls integrity checking against the embedded
    manifest: ``"header"`` (default) checksums every small member and
    validates the node pool's declared geometry without touching its
    data (mmap loads stay lazy; eagerly read pools are still covered by
    the zip layer's own CRC); ``"full"`` additionally hashes the node
    pool bytes; ``"off"`` skips the manifest entirely. Failures — and
    structurally unreadable archives under any mode — raise
    :class:`~repro.errors.ArtifactCorruptError`.
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
        # np.load is handed an open file so that the file is closed here
        # even when the zip parse inside np.load raises
        with open(path, "rb") as handle, np.load(handle) as data:
            meta_bytes = bytes(data["meta"].tobytes())
            meta = json.loads(meta_bytes.decode("utf-8"))
            if meta.get("version") != FORMAT_VERSION:
                raise ACTError(
                    f"unsupported index format version "
                    f"{meta.get('version')!r}"
                )
            manifest = None
            if verify != "off":
                manifest = _read_manifest(data, path)
                if manifest is None and verify == "full":
                    raise ArtifactCorruptError(
                        f"{path}: archive carries no integrity manifest "
                        f"(pre-manifest format); re-save to enable "
                        f"verify='full'")
            # NpzFile reads members lazily, so skipping data["nodes"] in
            # mmap mode means the pool's bytes are never even read here
            nodes = (_mmap_npz_member(path, "nodes.npy", mmap_mode)
                     if mmap_mode else data["nodes"])
            roots = data["roots"]
            lookup_array = data["lookup"]
            grid_params = data["grid_params"]
            polygons_bytes = bytes(data["polygons"].tobytes())
            polygons_doc = json.loads(polygons_bytes.decode("utf-8"))
            if manifest is not None:
                members = manifest["members"]
                _check_member(path, members, "meta",
                              np.frombuffer(meta_bytes, dtype=np.uint8))
                _check_member(path, members, "polygons",
                              np.frombuffer(polygons_bytes,
                                            dtype=np.uint8))
                _check_member(path, members, "roots", roots)
                _check_member(path, members, "lookup", lookup_array)
                _check_member(path, members, "grid_params", grid_params)
                _check_member(path, members, "nodes", nodes,
                              data=(verify == "full"))
            # walks the set headers: words that do not parse are damage
            lookup_table = LookupTable(lookup_array)
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

    grid: Union[PlanarGrid, S2LikeGrid]
    if meta["grid_kind"] == "planar":
        bounds = Rect(*grid_params[:4])
        grid = PlanarGrid(bounds, max_level=int(grid_params[4]))
    elif meta["grid_kind"] == "s2like":
        grid = S2LikeGrid(max_level=int(grid_params[0]))
    else:
        raise ACTError(f"unknown grid kind {meta['grid_kind']!r}")

    core = ACTCore(
        nodes, roots, lookup_table,
        fanout=meta["fanout"], num_entries=meta["num_trie_entries"],
    )
    polygons = []
    for feat in polygons_doc["features"]:
        geom = geojson.geometry_from_geojson(feat["geometry"])
        polygons.append(geom)
    stats = _stats_from_dict(meta["stats"])
    return ACTIndex(grid, core, polygons, stats, meta["boundary_level"])


def _mmap_npz_member(path: Union[str, Path], member: str,
                     mmap_mode: str) -> np.ndarray:
    """Memory-map one *stored* ``.npy`` member of an ``.npz`` archive.

    A stored zip member is the raw ``.npy`` stream at
    ``local header offset + header size``, so after parsing the npy
    header the array data can be mapped directly from the archive file
    — zero copies, lazy paging.
    """
    with zipfile.ZipFile(path) as archive:
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
    with open(path, "rb") as fp:
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
        fp.seek(0, os.SEEK_END)
        if fp.tell() < end:
            raise ArtifactCorruptError(
                f"{path}: member {member!r} is truncated (needs bytes "
                f"up to offset {end}, file ends at {fp.tell()})")
    return np.memmap(path, dtype=dtype,
                     mode=mmap_mode,  # type: ignore[arg-type]
                     offset=data_offset, shape=shape,
                     order="F" if fortran else "C")


def verify_artifact(path: Union[str, Path], full: bool = False) -> dict:
    """Standalone integrity check of a serialized index.

    ``full=False`` mirrors ``load_index(verify="header")`` — every small
    member is checksummed, the node pool only has its declared geometry
    validated; ``full=True`` hashes the pool too. Returns the parsed
    manifest on success; raises
    :class:`~repro.errors.ArtifactCorruptError` on any mismatch, on a
    structurally unreadable archive, or when the archive predates the
    manifest format.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle, np.load(handle) as data:
            manifest = _read_manifest(data, path)
            if manifest is None:
                raise ArtifactCorruptError(
                    f"{path}: archive carries no integrity manifest "
                    f"(pre-manifest format); re-save to enable "
                    f"verification")
            members = manifest["members"]
            for name in members:
                if name == "nodes" and not full:
                    array = _mmap_npz_member(path, "nodes.npy", "r")
                    _check_member(path, members, name, array, data=False)
                else:
                    _check_member(path, members, name, data[name])
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
