"""Tests for the interior-rectangle true-hit filtering baseline."""

import pytest

from repro.baselines.interior_rect import (
    InteriorRectIndex,
    maximal_inscribed_rect,
)
from repro.baselines.scan import ScanJoin


class TestInscribedRect:
    def test_rect_inside_polygon(self, hexagon):
        rect = maximal_inscribed_rect(hexagon)
        assert rect is not None
        for x, y in rect.sample_grid(5, 5):
            assert hexagon.contains(x, y)

    def test_rect_nontrivial_area(self, hexagon):
        rect = maximal_inscribed_rect(hexagon)
        assert rect.area > 0.3 * hexagon.area

    def test_concave_polygon(self, l_shape):
        rect = maximal_inscribed_rect(l_shape)
        assert rect is not None
        for x, y in rect.sample_grid(5, 5):
            assert l_shape.contains(x, y)

    def test_donut_rect_avoids_hole(self, donut):
        rect = maximal_inscribed_rect(donut)
        assert rect is not None
        for x, y in rect.sample_grid(6, 6):
            assert donut.contains(x, y)


class TestIndex:
    @pytest.fixture(scope="class")
    def index(self, nyc_polygons):
        return InteriorRectIndex(nyc_polygons)

    def test_true_hits_exact(self, index, nyc_polygons, taxi_batch):
        lngs, lats = taxi_batch
        for k in range(0, 800, 11):
            true_hits, _ = index.query(lngs[k], lats[k])
            for pid in true_hits:
                assert nyc_polygons[pid].contains(lngs[k], lats[k])

    def test_exact_matches_scan(self, index, nyc_polygons, taxi_batch):
        lngs, lats = taxi_batch
        exact = index.count_points(lngs[:1200], lats[:1200], exact=True)
        scan = ScanJoin(nyc_polygons).count_points(lngs[:1200], lats[:1200])
        assert exact.tolist() == scan.tolist()

    def test_true_hit_rate_between_zero_and_one(self, index, taxi_batch):
        lngs, lats = taxi_batch
        rate = index.true_hit_rate(lngs[:600], lats[:600])
        assert 0.0 <= rate <= 1.0

    def test_single_rect_weaker_than_act(self, nyc_polygons, taxi_batch):
        """The paper's claim: interior coverings beat single inner
        rectangles at true-hit filtering."""
        from repro import ACTIndex

        lngs, lats = taxi_batch
        index = InteriorRectIndex(nyc_polygons)
        rect_rate = index.true_hit_rate(lngs[:800], lats[:800])

        act = ACTIndex.build(nyc_polygons, precision_meters=120.0)
        result = act.executor.join(lngs[:800], lats[:800])
        act_rate = result.stats.true_hit_ratio
        assert act_rate > rect_rate
