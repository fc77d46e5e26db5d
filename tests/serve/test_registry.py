"""Tests for the index registry: lazy materialization, pinning, and
serialize round-trips driven through the registry."""

import threading

import numpy as np
import pytest

from repro import ACTIndex
from repro.errors import ServeError, UnknownIndexError
from repro.serve import IndexRegistry


class TestLazyMaterialization:
    def test_builder_runs_once_and_pins(self, nyc_polygons):
        calls = []

        def build():
            calls.append(1)
            return ACTIndex.build(nyc_polygons, precision_meters=300.0)

        registry = IndexRegistry()
        registry.register("lazy", build)
        assert not calls
        assert not registry.is_materialized("lazy")
        first = registry.get("lazy")
        second = registry.get("lazy")
        assert first is second
        assert len(calls) == 1
        assert registry.is_materialized("lazy")

    def test_register_index_is_pinned_immediately(self, nyc_index):
        registry = IndexRegistry()
        registry.register_index("pinned", nyc_index)
        assert registry.is_materialized("pinned")
        assert registry.get("pinned") is nyc_index

    def test_duplicate_name_rejected(self, nyc_index):
        registry = IndexRegistry()
        registry.register_index("dup", nyc_index)
        with pytest.raises(ServeError):
            registry.register("dup", lambda: nyc_index)

    def test_unknown_name(self):
        registry = IndexRegistry()
        with pytest.raises(UnknownIndexError):
            registry.get("nope")
        with pytest.raises(UnknownIndexError):
            registry.describe("nope")

    def test_concurrent_get_builds_once(self, nyc_polygons):
        calls = []
        started = threading.Barrier(8)

        def build():
            calls.append(1)
            return ACTIndex.build(nyc_polygons, precision_meters=300.0)

        registry = IndexRegistry()
        registry.register("race", build)
        results = []

        def worker():
            started.wait()
            results.append(registry.get("race"))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert all(r is results[0] for r in results)

    def test_register_index_pins_atomically_with_registration(
            self, nyc_index):
        # register_index publishes the hot-path view under the registry
        # lock: once the name resolves at all, the pinned view and the
        # registration always agree (no window where unregister() can
        # observe a registered-but-unpinned or unregistered-but-pinned
        # name)
        registry = IndexRegistry()
        registry.register_index("atomic", nyc_index)
        assert registry.materialized["atomic"].index is nyc_index
        assert registry.materialized["atomic"].generation == 1
        assert registry.is_materialized("atomic")
        registry.unregister("atomic")
        assert "atomic" not in registry.materialized
        assert "atomic" not in registry.names()

    def test_register_unregister_hammering_stays_coherent(self, nyc_index):
        # many threads registering fresh names while another unregisters
        # them as fast as it can: the lock-free view and the
        # registrations must never disagree when the dust settles
        registry = IndexRegistry()
        names = [f"idx-{i}" for i in range(64)]
        start = threading.Barrier(3)

        def register(chunk):
            start.wait()
            for name in chunk:
                registry.register_index(name, nyc_index)

        def unregisterer():
            start.wait()
            for name in names * 3:
                try:
                    registry.unregister(name)
                except UnknownIndexError:
                    pass

        threads = [
            threading.Thread(target=register, args=(names[:32],)),
            threading.Thread(target=register, args=(names[32:],)),
            threading.Thread(target=unregisterer),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        registered = registry.names()
        for name in names:
            pinned = name in registry.materialized
            assert pinned == (name in registered)
            if pinned:
                assert registry.is_materialized(name)
                assert registry.materialized[name].index is nyc_index

    def test_prewarm_materializes_and_builds_edge_tables(
            self, nyc_polygons):
        registry = IndexRegistry()
        registry.register(
            "warm",
            lambda: ACTIndex.build(nyc_polygons, precision_meters=300.0))
        warmed = registry.prewarm()
        assert set(warmed) == {"warm"}
        index = warmed["warm"]
        assert registry.get("warm") is index
        # the packed-edge engine is built eagerly, not on first request
        assert index.executor._edge_table is not None

    def test_describe_before_and_after(self, nyc_polygons):
        registry = IndexRegistry()
        registry.register(
            "d", lambda: ACTIndex.build(nyc_polygons, precision_meters=300.0))
        before = registry.describe("d")
        assert before["materialized"] is False
        assert "num_polygons" not in before
        registry.get("d")
        after = registry.describe("d")
        assert after["materialized"] is True
        assert after["num_polygons"] == len(nyc_polygons)


class TestSerializeRoundTrip:
    """save -> load through the registry must answer identically."""

    def test_roundtrip_identical_results(self, tmp_path, nyc_index,
                                         query_points, serial_results):
        registry = IndexRegistry()
        registry.register_index("orig", nyc_index)
        path = tmp_path / "nyc_index.npz"
        registry.save("orig", path)

        registry.register_path("reloaded", path)
        assert not registry.is_materialized("reloaded")
        reloaded = registry.get("reloaded")
        assert registry.describe("reloaded")["source"] == "path"

        lngs, lats = query_points
        for lng, lat, expected in zip(lngs, lats, serial_results):
            assert reloaded.query(lng, lat) == expected
        np.testing.assert_array_equal(
            reloaded.count_points(lngs, lats),
            nyc_index.count_points(lngs, lats),
        )
        np.testing.assert_array_equal(
            reloaded.count_points(lngs, lats, exact=True),
            nyc_index.count_points(lngs, lats, exact=True),
        )

    def test_mmap_registration_identical_and_file_backed(
            self, tmp_path, nyc_index, query_points):
        import mmap as mmap_module

        registry = IndexRegistry()
        registry.register_index("orig", nyc_index)
        path = tmp_path / "mm.npz"
        registry.save("orig", path)
        registry.register_path("mapped", path, mmap_mode="r")
        mapped = registry.get("mapped")
        lngs, lats = query_points
        np.testing.assert_array_equal(
            mapped.count_points(lngs, lats, exact=True),
            nyc_index.count_points(lngs, lats, exact=True),
        )
        base = mapped.core.nodes
        while isinstance(base, np.ndarray) and base.base is not None:
            base = base.base
        assert isinstance(base, mmap_module.mmap)
        assert registry.describe("mapped")["mmap_mode"] == "r"

    def test_roundtrip_preserves_guarantees(self, tmp_path, nyc_index):
        registry = IndexRegistry()
        registry.register_index("orig", nyc_index)
        path = tmp_path / "idx.npz"
        registry.save("orig", path)
        registry.register_path("back", path)
        reloaded = registry.get("back")
        assert reloaded.boundary_level == nyc_index.boundary_level
        assert reloaded.precision_meters == nyc_index.precision_meters
        assert reloaded.num_polygons == nyc_index.num_polygons
