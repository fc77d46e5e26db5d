"""End-to-end integration scenarios across the whole stack."""

from functools import reduce

from repro import ACTIndex
from repro.baselines import RTreeJoinBaseline, ScanJoin
from repro.datasets import (
    REGION,
    boroughs,
    census_blocks,
    overlapping_zones,
    taxi_points,
)
from repro.geometry import geojson, point_polygon_distance_meters
from repro.join import JoinResult, join_stream


class TestPaperPipeline:
    """The paper's evaluation pipeline end to end, miniaturized."""

    def test_boroughs_workload(self):
        polys = boroughs(complexity=3)
        index = ACTIndex.build(polys, precision_meters=120.0)
        lngs, lats = taxi_points(5000, seed=11)
        approx = index.executor.join(lngs, lats)
        exact = index.executor.join(lngs, lats, exact=True)
        scan = ScanJoin(polys).count_points(lngs, lats)
        assert exact.counts.tolist() == scan.tolist()
        assert (approx.counts >= exact.counts).all()
        excess = int((approx.counts - exact.counts).sum())
        assert excess <= 0.02 * exact.counts.sum() + 50

    def test_census_workload(self):
        blocks = census_blocks(150)
        index = ACTIndex.build(blocks, precision_meters=60.0)
        lngs, lats = taxi_points(4000, seed=12)
        exact = index.count_points(lngs, lats, exact=True)
        scan = ScanJoin(blocks).count_points(lngs, lats)
        assert exact.tolist() == scan.tolist()

    def test_act_beats_rtree_on_refinements(self):
        """The structural reason for the paper's Figure 3 speedups."""
        polys = boroughs(complexity=3)
        index = ACTIndex.build(polys, precision_meters=120.0)
        lngs, lats = taxi_points(3000, seed=13)
        act = index.executor.join(lngs, lats, exact=True)
        rtree = RTreeJoinBaseline(polys)
        rtree_candidates = int(rtree.count_points(lngs, lats).sum())
        assert act.stats.num_refined * 5 < rtree_candidates


class TestGeofencingScenario:
    """The Uber-style use case from the paper's introduction."""

    def test_overlapping_products(self):
        zones = overlapping_zones(REGION, 20, seed=21)
        index = ACTIndex.build(zones, precision_meters=30.0)
        lngs, lats = taxi_points(3000, seed=22)
        scan = ScanJoin(zones)
        for k in range(0, 3000, 37):
            got = sorted(index.query_exact(lngs[k], lats[k]))
            assert got == sorted(scan.query(lngs[k], lats[k]))

    def test_precision_guarantee_empirical(self):
        zones = overlapping_zones(REGION, 8, seed=23)
        index = ACTIndex.build(zones, precision_meters=100.0)
        bound = index.guaranteed_precision_meters
        lngs, lats = taxi_points(2500, seed=24)
        scan = ScanJoin(zones)
        worst = 0.0
        for k in range(2500):
            reported = set(index.query_approx(lngs[k], lats[k]))
            truth = set(scan.query(lngs[k], lats[k]))
            for pid in reported - truth:
                worst = max(worst, point_polygon_distance_meters(
                    zones[pid], lngs[k], lats[k]))
        assert worst <= bound * 1.001


class TestStreamingScenario:
    def test_dispatch_stream(self, nyc_index):
        from repro.datasets import point_stream

        batches = list(join_stream(nyc_index.executor,
                                   point_stream(6000, 1000, seed=31)))
        assert len(batches) == 6
        total = reduce(JoinResult.merged, batches)
        assert total.stats.num_points == 6000
        # sanity latency ceiling, per batch
        assert all(b.stats.seconds < 1.0 for b in batches)


class TestExportScenario:
    def test_covering_to_geojson(self, tmp_path, nyc_index, nyc_polygons):
        """Figure 1's rendering path: dump covering cells as GeoJSON."""
        from repro.act.builder import ACTBuilder

        builder = ACTBuilder(nyc_index.grid)
        covering = builder._coverer.cover(nyc_polygons[0], boundary_level=9)
        features = [geojson.feature(nyc_polygons[0], {"kind": "polygon"})]
        from repro.geometry.polygon import box_polygon

        for cell in covering.boundary[:50]:
            features.append(geojson.feature(
                box_polygon(nyc_index.grid.cell_rect(cell)),
                {"kind": "boundary"},
            ))
        for cell in covering.interior[:50]:
            features.append(geojson.feature(
                box_polygon(nyc_index.grid.cell_rect(cell)),
                {"kind": "interior"},
            ))
        path = tmp_path / "covering.geojson"
        geojson.dump_features(path, features)
        loaded = geojson.load_polygons(path)
        assert len(loaded) == len(features)

