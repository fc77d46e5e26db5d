"""The index as arrays: ring columns from save to refinement.

* the edge table packed from ring columns equals the per-polygon
  packing loop it replaced (kept here as the oracle), holes included;
* ``ACTIndex.polygons`` materialised on demand equals the polygons the
  index was built from, on a planar and an S2-like grid;
* nothing on the load or query path builds a ``Polygon`` or parses
  GeoJSON: load + prewarm, exact joins, the service's exact batch and
  cutting slices all run on the columns;
* scalar ``query_exact`` (now refined by the packed-edge engine) answers
  what the per-candidate ``Polygon.contains`` loop answered, on points
  jittered around every vertex.
"""

import numpy as np
import pytest

from repro import ACTIndex
from repro.act.serialize import load_index, save_index
from repro.datasets import nyc
from repro.geometry import PackedEdgeTable, Polygon, geojson, regular_polygon
from repro.geometry.polygon import PolygonColumns
from repro.grid.s2like import S2LikeGrid
from repro.serve import ACTService, IndexRegistry
from repro.serve.shard import plan_shard_map, write_slices


def legacy_from_polygons(polygons):
    """The per-polygon packing loop ``from_polygons`` ran before the
    table packed from ring columns: the bit-identity oracle."""
    num = len(polygons)
    indptr = np.zeros(num + 1, dtype=np.int64)
    boxes = np.empty((4, num), dtype=np.float64)
    parts = []
    for pid, polygon in enumerate(polygons):
        parts.append(polygon.edge_arrays)
        indptr[pid + 1] = indptr[pid] + polygon.edge_arrays[0].shape[0]
        box = polygon.bbox
        boxes[:, pid] = (box.min_x, box.min_y, box.max_x, box.max_y)
    edges = [np.concatenate([part[k] for part in parts]) for k in range(4)]
    return (*edges, indptr, *boxes)


def _donut(cx, cy, outer, inner):
    shell = regular_polygon(cx, cy, outer, 9).shell.vertices
    hole = regular_polygon(cx, cy, inner, 7, phase=0.3).shell.vertices
    return Polygon(shell, holes=[hole])


@pytest.fixture(scope="module")
def nyc_with_donut(nyc_polygons):
    return list(nyc_polygons[:10]) + [_donut(-73.95, 40.72, 0.02, 0.008)]


DATASETS = {
    "nyc": lambda nyc_polygons, overlap_polygons: nyc_polygons,
    "overlap": lambda nyc_polygons, overlap_polygons: overlap_polygons,
    "census": lambda nyc_polygons, overlap_polygons:
        nyc.census_blocks(300, seed=11),
    "donuts": lambda nyc_polygons, overlap_polygons: [
        _donut(0.0, 0.0, 4.0, 1.0),
        Polygon([(0, 0), (4, 0), (4, 4), (0, 4)],
                holes=[[(1, 1), (2, 1), (2, 2), (1, 2)],
                       [(2.5, 2.5), (3, 2.5), (3, 3), (2.5, 3)]]),
        regular_polygon(9.0, 9.0, 1.0, 5),
    ],
}


class TestPackFromColumns:
    @pytest.mark.parametrize("dataset", sorted(DATASETS))
    def test_bit_identical_to_the_per_polygon_loop(
            self, dataset, nyc_polygons, overlap_polygons):
        polygons = DATASETS[dataset](nyc_polygons, overlap_polygons)
        table = PackedEdgeTable.from_columns(
            PolygonColumns.from_polygons(polygons))
        packed = (table.xs, table.ys, table.xe, table.ye, table.indptr,
                  table.min_x, table.min_y, table.max_x, table.max_y)
        for got, want in zip(packed, legacy_from_polygons(polygons)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert table.num_polygons == len(polygons)

    def test_loaded_columns_pack_the_same_table(self, nyc_with_donut,
                                                tmp_path):
        index = ACTIndex.build(nyc_with_donut, precision_meters=400.0)
        path = tmp_path / "donut.npz"
        save_index(index, path)
        loaded = load_index(path, mmap_mode="r").prewarm()
        table = loaded.executor.edge_table
        want = legacy_from_polygons(nyc_with_donut)
        for name, array in zip(("xs", "ys", "xe", "ye", "indptr", "min_x",
                                "min_y", "max_x", "max_y"), want):
            assert np.array_equal(getattr(table, name), array), name

    def test_empty_set(self):
        columns = PolygonColumns.from_polygons([])
        columns.check()
        assert len(columns) == 0
        assert PackedEdgeTable.from_columns(columns).num_edges == 0


class TestMaterialisedPolygons:
    @pytest.mark.parametrize("grid", [None, S2LikeGrid()],
                             ids=["planar", "s2like"])
    def test_on_demand_polygons_equal_the_built_ones(
            self, nyc_with_donut, grid, tmp_path):
        index = ACTIndex.build(nyc_with_donut, precision_meters=400.0,
                               grid=grid)
        path = tmp_path / "index.npz"
        save_index(index, path)
        loaded = load_index(path, mmap_mode="r")
        assert loaded.num_polygons == len(nyc_with_donut)
        polygons = loaded.polygons
        assert polygons == nyc_with_donut
        assert loaded.polygons is polygons  # materialised once
        for got, want in zip(polygons, nyc_with_donut):
            assert got.shell.is_ccw and not any(h.is_ccw for h in got.holes)
            assert got.bbox == want.bbox
            assert got.area == want.area


@pytest.fixture
def no_polygon_objects(monkeypatch):
    """Make building a ``Polygon`` (either way) or parsing GeoJSON raise."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a Polygon was built on the array-only path")

    monkeypatch.setattr(Polygon, "__init__", forbidden)
    monkeypatch.setattr(PolygonColumns, "to_polygons", forbidden)
    monkeypatch.setattr(geojson, "geometry_from_geojson", forbidden)


class TestNothingBuildsAPolygon:
    @pytest.fixture(scope="class")
    def artifact(self, nyc_with_donut, tmp_path_factory):
        index = ACTIndex.build(nyc_with_donut, precision_meters=400.0)
        path = tmp_path_factory.mktemp("arrays") / "index.npz"
        save_index(index, path)
        return index, path

    def test_load_prewarm_and_exact_queries(self, artifact, taxi_batch,
                                            no_polygon_objects):
        built, path = artifact
        lngs, lats = taxi_batch
        loaded = load_index(path, mmap_mode="r").prewarm()
        assert loaded.num_polygons == built.num_polygons
        assert np.array_equal(
            loaded.count_points(lngs, lats, exact=True),
            built.count_points(lngs, lats, exact=True))
        assert loaded.query_exact(lngs[0], lats[0]) == \
            built.query_exact(lngs[0], lats[0])

    def test_service_exact_batch(self, artifact, taxi_batch,
                                 no_polygon_objects):
        built, path = artifact
        lngs, lats = taxi_batch
        registry = IndexRegistry()
        registry.register_index("nyc", load_index(path, mmap_mode="r"))
        service = ACTService(registry=registry)
        try:
            batch = service.query_batch("nyc", lngs[:500], lats[:500],
                                        exact=True)
        finally:
            service.close()
        want = [built.query_exact(x, y)
                for x, y in zip(lngs[:500], lats[:500])]
        got = [batch[k].true_hits + batch[k].candidates
               for k in range(500)]
        assert [sorted(ids) for ids in got] == [sorted(w) for w in want]

    def test_write_slices_on_two_slots(self, artifact, tmp_path,
                                       no_polygon_objects):
        built, path = artifact
        loaded = load_index(path, mmap_mode="r")
        paths = write_slices(loaded, plan_shard_map({"nyc": loaded}, 2),
                             tmp_path, "nyc")
        assert sorted(paths) == [0, 1]
        for slot_path in paths.values():
            columns = load_index(slot_path, mmap_mode="r").columns
            for got, want in ((columns.xy, built.columns.xy),
                              (columns.ring_ptr, built.columns.ring_ptr),
                              (columns.poly_ptr, built.columns.poly_ptr)):
                assert np.array_equal(got, want)


def _old_query_exact(index, lng, lat):
    """``query_exact`` before it shared the packed-edge engine."""
    result = index.query(lng, lat)
    return result.true_hits + tuple(
        pid for pid in result.candidates
        if index.polygons[pid].contains(lng, lat))


class TestQueryExactDifferential:
    @pytest.mark.parametrize("grid", [None, S2LikeGrid()],
                             ids=["planar", "s2like"])
    def test_matches_the_contains_loop_near_every_vertex(
            self, nyc_with_donut, grid):
        index = ACTIndex.build(nyc_with_donut, precision_meters=400.0,
                               grid=grid)
        rng = np.random.default_rng(38)
        xy = np.concatenate([p.edge_arrays[0:2] for p in nyc_with_donut],
                            axis=1)
        points = [xy]
        for scale in (1e-9, 1e-7, 1e-5, 1e-3):
            points.append(xy + rng.normal(0.0, scale, size=xy.shape))
        lngs, lats = np.concatenate(points, axis=1)
        refined = 0
        for lng, lat in zip(lngs.tolist(), lats.tolist()):
            got = index.query_exact(lng, lat)
            assert got == _old_query_exact(index, lng, lat), (lng, lat)
            refined += bool(index.query(lng, lat).candidates)
        assert refined > 100  # the points do reach refinement
