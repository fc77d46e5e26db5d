"""Tests for index persistence (save/load roundtrip)."""

import json
import shutil
import struct
import zipfile

import numpy as np
import pytest

import _legacy_descend as legacy
from repro import ACTIndex
from repro.act.core import ACTCore
from repro.act.serialize import (MEMBER_ALIGN, load_index,
                                 quarantine_artifact, save_index,
                                 verify_artifact)
from repro.errors import ACTError, ArtifactCorruptError
from repro.geometry import regular_polygon
from repro.grid.s2like import S2LikeGrid


@pytest.fixture(scope="module")
def saved(tmp_path_factory, nyc_polygons):
    index = ACTIndex.build(nyc_polygons[:8], precision_meters=150.0)
    path = tmp_path_factory.mktemp("idx") / "index.npz"
    save_index(index, path)
    return index, path


class TestRoundtrip:
    def test_lookups_identical(self, saved, taxi_batch):
        original, path = saved
        loaded = load_index(path)
        lngs, lats = taxi_batch
        a = original.lookup_batch(lngs, lats)
        b = loaded.lookup_batch(lngs, lats)
        assert np.array_equal(a, b)

    def test_counts_identical(self, saved, taxi_batch):
        original, path = saved
        loaded = load_index(path)
        lngs, lats = taxi_batch
        assert loaded.count_points(lngs, lats).tolist() == \
            original.count_points(lngs, lats).tolist()
        assert loaded.count_points(lngs, lats, exact=True).tolist() == \
            original.count_points(lngs, lats, exact=True).tolist()

    def test_scalar_queries_identical(self, saved, taxi_batch):
        original, path = saved
        loaded = load_index(path)
        lngs, lats = taxi_batch
        for k in range(0, 500, 17):
            assert loaded.query(lngs[k], lats[k]) == \
                original.query(lngs[k], lats[k])

    def test_stats_preserved(self, saved):
        original, path = saved
        loaded = load_index(path)
        assert loaded.stats.indexed_cells == original.stats.indexed_cells
        assert loaded.stats.precision_meters == \
            original.stats.precision_meters
        assert loaded.boundary_level == original.boundary_level
        assert loaded.core.fanout == original.core.fanout

    def test_polygons_preserved(self, saved):
        original, path = saved
        loaded = load_index(path)
        assert len(loaded.polygons) == len(original.polygons)
        for a, b in zip(loaded.polygons, original.polygons):
            assert a.area == pytest.approx(b.area)
        assert loaded.polygons == original.polygons


def _forbidden_layout(*args, **kwargs):
    raise AssertionError("load_index laid the node pool out again")


class TestColumnarLoad:
    def test_lookup_table_is_held_as_the_loaded_words(
            self, overlap_index, tmp_path):
        """One ``uint32`` array from the archive to the core: no list
        copy, nothing re-interned."""
        path = tmp_path / "overlap.npz"
        save_index(overlap_index, path)
        for mmap_mode in (None, "r"):
            table = load_index(path, mmap_mode=mmap_mode).core.lookup_table
            assert table.num_unique_sets > 0
            assert isinstance(table.words, np.ndarray)
            assert table.words.dtype == np.uint32 and table.words.ndim == 1
            assert np.array_equal(table.words,
                                  overlap_index.core.lookup_table.words)
            held = [getattr(table, slot) for slot in table.__slots__]
            assert all(isinstance(value, np.ndarray) for value in held)
            assert table.set_starts.tolist() == \
                overlap_index.core.lookup_table.set_starts.tolist()

    def test_lookup_words_that_do_not_parse_fail_typed(
            self, overlap_index, tmp_path):
        """A table whose set headers overrun it — every checksum right,
        the content wrong — is a corrupt artifact, not an IndexError."""
        path = tmp_path / "overlap.npz"
        save_index(overlap_index, path)
        damaged = load_index(path)
        damaged.core.lookup_table.words = np.append(
            damaged.core.lookup_table.words, np.uint32(9))
        save_index(damaged, path)
        for verify in ("off", "header", "full"):
            with pytest.raises(ArtifactCorruptError, match="overruns"):
                load_index(path, verify=verify)

    def test_load_never_constructs_a_trie(self, saved, monkeypatch):
        """Cold loads hand the .npz arrays to the ACTCore as they are;
        laying the pool out again is a regression."""
        _, path = saved
        monkeypatch.setattr(ACTCore, "from_cells", _forbidden_layout)
        loaded = load_index(path)
        assert loaded.core.num_nodes > 0

    def test_loaded_core_arrays_match(self, saved):
        """The stored arrays ARE the canonical representation."""
        original, path = saved
        loaded = load_index(path)
        assert np.array_equal(loaded.core.nodes, original.core.nodes)
        assert np.array_equal(loaded.core.roots, original.core.roots)
        assert loaded.core.num_entries == original.core.num_entries


class TestMmapLoad:
    def test_answers_identical_to_eager(self, saved, taxi_batch):
        original, path = saved
        mapped = load_index(path, mmap_mode="r")
        lngs, lats = taxi_batch
        assert np.array_equal(mapped.lookup_batch(lngs, lats),
                              original.lookup_batch(lngs, lats))
        assert mapped.count_points(lngs, lats).tolist() == \
            original.count_points(lngs, lats).tolist()
        assert mapped.count_points(lngs, lats, exact=True).tolist() == \
            original.count_points(lngs, lats, exact=True).tolist()
        for k in range(0, 500, 29):
            assert mapped.query(lngs[k], lats[k]) == \
                original.query(lngs[k], lats[k])

    def test_node_pool_is_file_backed_not_copied(self, saved):
        """The acceptance gate: mmap loads never copy the node pool."""
        import mmap as mmap_module

        original, path = saved
        mapped = load_index(path, mmap_mode="r")
        nodes = mapped.core.nodes
        assert nodes.base is not None, "node pool must not own its data"
        base = nodes
        while isinstance(base, np.ndarray) and base.base is not None:
            if isinstance(base.base, np.ndarray):
                assert np.shares_memory(nodes, base.base)
            base = base.base
        assert isinstance(base, mmap_module.mmap), (
            "core.nodes must bottom out at a file mapping, not an "
            "in-memory copy"
        )
        assert np.array_equal(np.asarray(nodes), original.core.nodes)
        # ... and mapped where numpy can use it as it is: an unaligned
        # pool is gathered from slowly and copied whole by `take`
        assert nodes.flags.aligned
        assert nodes.ctypes.data % MEMBER_ALIGN == 0
        assert np.shares_memory(nodes.reshape(-1), nodes)

    def test_dropped_index_unmaps_without_the_collector(self, saved,
                                                        taxi_batch):
        """No reference cycle holds the pool: a process that replaces
        its index (a reload, a benchmark's cold starts) gives the old
        mapping back with the last reference, not at some later
        generation-2 collection."""
        import gc
        import weakref

        _, path = saved
        gc.collect()
        gc.disable()
        try:
            mapped = load_index(path, mmap_mode="r").prewarm()
            mapped.count_points(*taxi_batch, exact=True)
            index_ref = weakref.ref(mapped)
            pool_ref = weakref.ref(mapped.core.nodes.base)
            del mapped
            assert index_ref() is None and pool_ref() is None
        finally:
            gc.enable()

    def test_unpadded_archive_loads_and_answers_identically(
            self, saved, tmp_path, taxi_batch):
        """Archives written before the node pool was aligned: same
        members and manifest, the pool just sits where it falls."""
        original, path = saved
        old = tmp_path / "unpadded.npz"
        legacy.write_unpadded(path, old)
        with zipfile.ZipFile(old) as archive:
            assert archive.getinfo("nodes.npy").extra == b""
        lngs, lats = taxi_batch
        want = original.lookup_batch(lngs, lats)
        for mmap_mode in (None, "r"):
            loaded = load_index(old, mmap_mode=mmap_mode, verify="full")
            assert np.array_equal(loaded.lookup_batch(lngs, lats), want)
            assert loaded.count_points(lngs, lats, exact=True).tolist() \
                == original.count_points(lngs, lats, exact=True).tolist()
        assert not load_index(old, mmap_mode="r").core.nodes.flags.aligned
        assert verify_artifact(old, full=True) == verify_artifact(
            path, full=True)

    def test_padded_archive_is_still_a_plain_npz(self, saved):
        """The padding is one well-formed zip extra record: the zip
        layer and plain ``np.load`` read the archive as before."""
        original, path = saved
        with zipfile.ZipFile(path) as archive:
            assert archive.testzip() is None
            info = archive.getinfo("nodes.npy")
            header_id, size = struct.unpack("<HH", info.extra[:4])
            assert len(info.extra) == 4 + size
            assert not any(info.extra[4:])
            with open(path, "rb") as fp:
                fp.seek(info.header_offset + 26)
                name_len, extra_len = struct.unpack("<HH", fp.read(4))
            assert extra_len == len(info.extra)
            stream_at = info.header_offset + 30 + name_len + extra_len
            assert stream_at % MEMBER_ALIGN == 0
            # only the mapped member pays for padding
            assert all(other.extra == b"" for other in archive.infolist()
                       if other is not info)
        with np.load(path) as data:
            assert np.array_equal(data["nodes"], original.core.nodes)

    def test_mmap_load_never_constructs_a_trie(self, saved, monkeypatch):
        _, path = saved
        monkeypatch.setattr(ACTCore, "from_cells", _forbidden_layout)
        mapped = load_index(path, mmap_mode="r")
        assert mapped.core.num_nodes > 0

    def test_copy_on_write_mode(self, saved, taxi_batch):
        original, path = saved
        mapped = load_index(path, mmap_mode="c")
        lngs, lats = taxi_batch
        assert np.array_equal(mapped.lookup_batch(lngs[:200], lats[:200]),
                              original.lookup_batch(lngs[:200], lats[:200]))

    def test_invalid_mode_rejected(self, saved):
        _, path = saved
        with pytest.raises(ACTError):
            load_index(path, mmap_mode="w+")

    def test_node_member_is_stored_uncompressed(self, saved):
        """The zip layout that makes the mapping possible."""
        import zipfile

        _, path = saved
        with zipfile.ZipFile(path) as archive:
            assert archive.getinfo("nodes.npy").compress_type == \
                zipfile.ZIP_STORED
            # the small members, geometry included, still compress
            for member in archive.namelist():
                if member != "nodes.npy":
                    assert archive.getinfo(member).compress_type == \
                        zipfile.ZIP_DEFLATED


class TestVariants:
    def test_s2like_grid_roundtrip(self, tmp_path, taxi_batch):
        polys = [regular_polygon(-73.95, 40.7, 0.05, 8)]
        index = ACTIndex.build(polys, precision_meters=150.0,
                               grid=S2LikeGrid())
        path = tmp_path / "s2.npz"
        save_index(index, path)
        loaded = load_index(path)
        lngs, lats = taxi_batch
        assert np.array_equal(loaded.lookup_batch(lngs, lats),
                              index.lookup_batch(lngs, lats))

    def test_small_fanout_roundtrip(self, tmp_path, nyc_polygons,
                                    taxi_batch):
        index = ACTIndex.build(nyc_polygons[:3], precision_meters=250.0,
                               fanout=16)
        path = tmp_path / "f16.npz"
        save_index(index, path)
        loaded = load_index(path)
        lngs, lats = taxi_batch
        assert np.array_equal(loaded.lookup_batch(lngs[:500], lats[:500]),
                              index.lookup_batch(lngs[:500], lats[:500]))

    def test_donut_polygon_roundtrip(self, tmp_path, donut):
        # polygon with a hole survives the ring columns
        shifted = donut  # donut is in unit coordinates; grid fits to it
        index = ACTIndex.build([shifted], precision_meters=50_000.0)
        path = tmp_path / "donut.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert len(loaded.polygons[0].holes) == 1
        assert loaded.polygons == [donut]

    def test_bad_version_rejected(self, tmp_path, saved, monkeypatch):
        import repro.act.serialize as ser

        original, _ = saved
        path = tmp_path / "vx.npz"
        current = ser.FORMAT_VERSION
        monkeypatch.setattr(ser, "FORMAT_VERSION", 999)
        save_index(original, path)
        monkeypatch.setattr(ser, "FORMAT_VERSION", current)
        with pytest.raises(ACTError):
            load_index(path)

    def test_version_1_archive_has_no_reader(self, tmp_path, saved,
                                             monkeypatch):
        """Format 1 kept the polygons as GeoJSON; nothing reads it, and
        the refusal is the version error, not a corrupt artifact."""
        import repro.act.serialize as ser

        original, _ = saved
        path = tmp_path / "v1.npz"
        monkeypatch.setattr(ser, "FORMAT_VERSION", 1)
        save_index(original, path)
        monkeypatch.undo()
        for verify in ("off", "header", "full"):
            with pytest.raises(ACTError, match="version 1") as err:
                load_index(path, mmap_mode="r", verify=verify)
            assert not isinstance(err.value, ArtifactCorruptError)


class TestAtomicWrites:
    """Atomic writes: write-temp + rename (a shard slice's path)."""

    def test_atomic_save_roundtrips_and_leaves_no_temp(self, tmp_path,
                                                      saved, taxi_batch):
        from repro.act.serialize import save_index_atomic

        original, _ = saved
        path = tmp_path / "atomic.npz"
        save_index_atomic(original, path)
        assert [p.name for p in tmp_path.iterdir()] == ["atomic.npz"]
        loaded = load_index(path)
        lngs, lats = taxi_batch
        assert np.array_equal(original.lookup_batch(lngs, lats),
                              loaded.lookup_batch(lngs, lats))

    def test_replace_keeps_existing_mmap_valid(self, tmp_path, saved,
                                               nyc_polygons, taxi_batch):
        # the zero-downtime contract: os.replace() over a file another
        # process (or this one) has memory-mapped must leave the old
        # map fully readable — the old inode survives until unmapped
        from repro.act.serialize import save_index_atomic

        original, _ = saved
        path = tmp_path / "swap.npz"
        save_index_atomic(original, path)
        mapped_old = load_index(path, mmap_mode="r")
        lngs, lats = taxi_batch
        before = mapped_old.count_points(lngs, lats)

        replacement = ACTIndex.build(nyc_polygons[8:16],
                                     precision_meters=150.0)
        save_index_atomic(replacement, path)
        # the old map still answers bit-identically post-replace...
        assert mapped_old.count_points(lngs, lats).tolist() == \
            before.tolist()
        # ...and a fresh load sees the replacement
        fresh = load_index(path, mmap_mode="r")
        assert fresh.num_polygons == replacement.num_polygons
        assert fresh.count_points(lngs, lats).tolist() == \
            replacement.count_points(lngs, lats).tolist()


def _member_data_span(path, member):
    """(data_offset, payload_size) of one member's bytes in the zip."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    with open(path, "rb") as fp:
        fp.seek(info.header_offset + 26)
        name_len, extra_len = struct.unpack("<HH", fp.read(4))
    start = info.header_offset + 30 + name_len + extra_len
    return start, info.compress_size


def _flip_byte(path, offset):
    with open(path, "r+b") as fp:
        fp.seek(offset)
        byte = fp.read(1)[0]
        fp.seek(offset)
        fp.write(bytes([byte ^ 0xFF]))


class TestIntegrity:
    """The embedded integrity manifest: verification on load,
    standalone audits, and quarantine of artifacts that flunk."""

    @pytest.fixture
    def copy(self, saved, tmp_path):
        _, path = saved
        target = tmp_path / "copy.npz"
        shutil.copyfile(path, target)
        return target

    def test_manifest_covers_every_member(self, saved):
        _, path = saved
        with zipfile.ZipFile(path) as archive:
            manifest = json.loads(archive.comment)
            names = archive.namelist()
        assert manifest["algo"] == "crc32"
        assert manifest["format"] == 2
        assert set(manifest["members"]) == {
            "nodes", "roots", "lookup", "grid_params", "meta",
            "ring_xy", "ring_ptr", "poly_ptr"}
        # the manifest is the comment, not a member
        assert sorted(names) == sorted(
            f"{name}.npy" for name in manifest["members"])
        with np.load(path) as data:
            for name, entry in manifest["members"].items():
                assert set(entry) == {"crc32", "bytes", "dtype", "shape"}
                array = data[name]
                assert entry["bytes"] == array.nbytes
                assert entry["dtype"] == str(array.dtype)
                assert entry["shape"] == list(array.shape)

    def test_full_verify_roundtrip(self, saved, taxi_batch):
        original, path = saved
        lngs, lats = taxi_batch
        for mmap_mode in (None, "r"):
            loaded = load_index(path, mmap_mode=mmap_mode, verify="full")
            assert np.array_equal(original.lookup_batch(lngs, lats),
                                  loaded.lookup_batch(lngs, lats))

    def test_node_pool_bitflip_caught_by_full_verify(self, copy):
        start, size = _member_data_span(copy, "nodes.npy")
        _flip_byte(copy, start + size - 4)  # inside the array data
        with pytest.raises(ArtifactCorruptError, match="checksum"):
            load_index(copy, mmap_mode="r", verify="full")
        # header mode deliberately never touches the mapped pool's
        # bytes (that is what keeps cold loads lazy) — documented gap
        load_index(copy, mmap_mode="r", verify="header")

    def test_node_pool_bitflip_caught_eagerly(self, copy):
        # an eager (non-mmap) read goes through the zip layer, whose
        # own CRC catches the flip even in header mode
        start, size = _member_data_span(copy, "nodes.npy")
        _flip_byte(copy, start + size - 4)
        with pytest.raises(ArtifactCorruptError):
            load_index(copy, verify="header")

    def test_small_member_bitflip_caught_in_header_mode(self, copy):
        # small members are checksummed in every mode, mmap included
        start, size = _member_data_span(copy, "roots.npy")
        _flip_byte(copy, start + size // 2)
        with pytest.raises(ArtifactCorruptError):
            load_index(copy, mmap_mode="r", verify="header")

    def test_truncated_archive_rejected(self, copy):
        with zipfile.ZipFile(copy) as archive:  # a padded archive
            assert archive.getinfo("nodes.npy").extra
        size = copy.stat().st_size
        with open(copy, "r+b") as fp:
            fp.truncate(int(size * 0.6))
        with pytest.raises(ArtifactCorruptError):
            load_index(copy, verify="header")
        with pytest.raises(ArtifactCorruptError):
            load_index(copy, mmap_mode="r", verify="full")

    def test_verify_off_skips_the_manifest(self, copy, taxi_batch):
        # corruption in the pool goes unnoticed when asked not to look
        start, size = _member_data_span(copy, "nodes.npy")
        _flip_byte(copy, start + size - 4)
        loaded = load_index(copy, mmap_mode="r", verify="off")
        lngs, lats = taxi_batch
        loaded.lookup_batch(lngs, lats)  # serves (possibly garbage)

    def test_invalid_verify_mode_rejected(self, saved):
        _, path = saved
        with pytest.raises(ACTError, match="verify"):
            load_index(path, verify="paranoid")

    def test_pre_manifest_archive(self, copy, tmp_path):
        # an archive without a manifest: every format-2 writer puts one
        # in the comment, so a missing one (a re-zip that dropped the
        # comment) is damage to every verifying mode; "off" still loads
        old = tmp_path / "stripped.npz"
        legacy.write_unpadded(copy, old, comment=False)
        for verify in ("header", "full"):
            with pytest.raises(ArtifactCorruptError, match="no integrity"):
                load_index(old, mmap_mode="r", verify=verify)
        with pytest.raises(ArtifactCorruptError, match="no integrity"):
            verify_artifact(old)
        load_index(old, mmap_mode="r", verify="off")

    def test_verify_artifact_returns_manifest_and_raises(self, copy):
        manifest = verify_artifact(copy, full=True)
        assert set(manifest["members"]) >= {"nodes", "meta"}
        start, size = _member_data_span(copy, "nodes.npy")
        _flip_byte(copy, start + size - 4)
        # header-level audit never reads the pool's bytes...
        verify_artifact(copy, full=False)
        # ...the full audit does (the zip layer's own CRC trips first)
        with pytest.raises(ArtifactCorruptError):
            verify_artifact(copy, full=True)

    def test_quarantine_layout_and_collisions(self, copy, tmp_path):
        first = quarantine_artifact(copy)
        assert first == tmp_path / "copy.npz.quarantine" / "copy.npz"
        assert first.exists() and not copy.exists()
        copy.write_bytes(b"second failure")
        second = quarantine_artifact(copy)
        assert second.name == "copy.npz.1"
        assert second.parent == first.parent
        assert not copy.exists()


GEOMETRY_MEMBERS = ("ring_xy", "ring_ptr", "poly_ptr")


def _rewrite(source, target, replace=None, cut=None):
    """Copy ``source`` to ``target`` member by member, comment (the
    manifest) included, with ``replace`` giving some members other
    ``.npy`` bytes and ``cut`` naming one member cut to half its bytes:
    the zip layer's own CRCs all hold, only the content is wrong."""
    replace = replace or {}
    with zipfile.ZipFile(source) as src, \
            zipfile.ZipFile(target, "w", allowZip64=True) as dst:
        dst.comment = src.comment
        for info in src.infolist():
            raw = replace.get(info.filename, src.read(info.filename))
            if info.filename == cut:
                raw = raw[:len(raw) // 2]
            out = zipfile.ZipInfo(info.filename, date_time=info.date_time)
            out.compress_type = info.compress_type
            with dst.open(out, "w") as fp:
                fp.write(raw)


def _npy_bytes(array):
    import io

    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, allow_pickle=False)
    return buffer.getvalue()


class TestGeometryMembers:
    """The ring columns are covered like every other member: a flip is
    caught in header mode (mapped or eager), a cut or missing member is
    a corrupt artifact, and columns that do not describe a polygon set
    are refused even with verification off."""

    @pytest.fixture
    def copy(self, saved, tmp_path):
        _, path = saved
        target = tmp_path / "copy.npz"
        shutil.copyfile(path, target)
        return target

    @pytest.mark.parametrize("member", GEOMETRY_MEMBERS)
    @pytest.mark.parametrize("mmap_mode", [None, "r"])
    def test_bitflip_caught_in_header_mode(self, copy, member, mmap_mode):
        start, size = _member_data_span(copy, f"{member}.npy")
        _flip_byte(copy, start + size // 2)
        with pytest.raises(ArtifactCorruptError):
            load_index(copy, mmap_mode=mmap_mode, verify="header")

    @pytest.mark.parametrize("member", GEOMETRY_MEMBERS)
    @pytest.mark.parametrize("mmap_mode", [None, "r"])
    def test_changed_data_caught_by_the_manifest(self, saved, tmp_path,
                                                 member, mmap_mode):
        """One value changed and the member re-zipped: the zip CRC is
        right, so only the manifest's checksum can see it."""
        _, path = saved
        with np.load(path) as data:
            array = data[member].copy()
        array.reshape(-1)[-1] += 1
        bad = tmp_path / "bad.npz"
        _rewrite(path, bad, replace={f"{member}.npy": _npy_bytes(array)})
        with pytest.raises(ArtifactCorruptError, match="checksum"):
            load_index(bad, mmap_mode=mmap_mode, verify="header")
        with pytest.raises(ArtifactCorruptError, match="checksum"):
            verify_artifact(bad)

    @pytest.mark.parametrize("member", GEOMETRY_MEMBERS)
    def test_truncated_member_rejected(self, saved, tmp_path, member):
        _, path = saved
        bad = tmp_path / "cut.npz"
        _rewrite(path, bad, cut=f"{member}.npy")
        for verify in ("off", "header", "full"):
            with pytest.raises(ArtifactCorruptError):
                load_index(bad, mmap_mode="r", verify=verify)

    @pytest.mark.parametrize("member", GEOMETRY_MEMBERS)
    def test_missing_member_rejected(self, copy, tmp_path, member):
        bad = tmp_path / "missing.npz"
        legacy.write_unpadded(copy, bad, skip=(f"{member}.npy",))
        for mmap_mode in (None, "r"):
            for verify in ("off", "header"):
                with pytest.raises(ArtifactCorruptError):
                    load_index(bad, mmap_mode=mmap_mode, verify=verify)

    def test_offsets_that_do_not_partition_are_refused(self, saved,
                                                       tmp_path):
        """A ring of two vertices: every checksum can be right (a
        writer bug, not a flip) and the load still refuses it."""
        original, path = saved
        with np.load(path) as data:
            ring_ptr = data["ring_ptr"].copy()
        ring_ptr[1] = 2
        bad = tmp_path / "two.npz"
        _rewrite(path, bad, replace={"ring_ptr.npy": _npy_bytes(ring_ptr)})
        with pytest.raises(ArtifactCorruptError, match="partition"):
            load_index(bad, verify="off")
        columns = original.columns
        bent = type(columns)(columns.xy, ring_ptr, columns.poly_ptr)
        with pytest.raises(ValueError, match="partition"):
            bent.check()

    def test_header_mode_reads_no_member_beyond_off(self, saved,
                                                    monkeypatch):
        """The manifest is the archive comment: header verification
        opens exactly the members an unverified load opens."""
        _, path = saved
        opened = []
        real_open = zipfile.ZipFile.open

        def recording_open(self, name, *args, **kwargs):
            opened.append(getattr(name, "filename", name))
            return real_open(self, name, *args, **kwargs)

        monkeypatch.setattr(zipfile.ZipFile, "open", recording_open)
        reads = {}
        for verify in ("off", "header"):
            opened.clear()
            load_index(path, mmap_mode="r", verify=verify)
            reads[verify] = sorted(opened)
        assert reads["header"] == reads["off"]
        assert "nodes.npy" not in reads["off"]
        assert {f"{m}.npy" for m in GEOMETRY_MEMBERS} <= set(reads["off"])
