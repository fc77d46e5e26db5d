"""Tests for filter-and-refine joins and the refinement-savings claim."""


from repro.baselines.scan import ScanJoin
from repro.join.filter_refine import FilterRefineJoin


class TestFilterRefine:
    def test_exact_counts(self, nyc_polygons, taxi_batch):
        lngs, lats = taxi_batch
        result = FilterRefineJoin(nyc_polygons).join(lngs, lats)
        scan = ScanJoin(nyc_polygons).count_points(lngs, lats)
        assert result.counts.tolist() == scan.tolist()

    def test_every_candidate_refined(self, nyc_polygons, taxi_batch):
        lngs, lats = taxi_batch
        result = FilterRefineJoin(nyc_polygons).join(lngs, lats)
        assert result.stats.num_refined == result.stats.num_candidate_refs
        assert result.stats.num_refined >= result.stats.num_result_pairs
        assert result.stats.num_true_hits == 0

    def test_scalar_query(self, nyc_polygons, taxi_batch):
        lngs, lats = taxi_batch
        join = FilterRefineJoin(nyc_polygons)
        scan = ScanJoin(nyc_polygons)
        for k in range(0, 400, 13):
            assert sorted(join.query(lngs[k], lats[k])) == \
                sorted(scan.query(lngs[k], lats[k]))


class TestACTExactJoin:
    def test_exact_counts(self, nyc_index, nyc_polygons, taxi_batch):
        lngs, lats = taxi_batch
        result = nyc_index.executor.join(lngs, lats, exact=True)
        scan = ScanJoin(nyc_polygons).count_points(lngs, lats)
        assert result.counts.tolist() == scan.tolist()

    def test_true_hits_skip_refinement(self, nyc_index, nyc_polygons,
                                       taxi_batch):
        """ACT refines orders of magnitude fewer pairs than plain
        filter+refine — the paper's true-hit-filtering payoff."""
        lngs, lats = taxi_batch
        act = nyc_index.executor.join(lngs, lats, exact=True)
        classic = FilterRefineJoin(nyc_polygons).join(lngs, lats)
        assert act.stats.num_refined * 10 < classic.stats.num_refined
        assert act.counts.tolist() == classic.counts.tolist()

    def test_works_on_overlaps(self, overlap_index, overlap_polygons,
                               taxi_batch):
        lngs, lats = taxi_batch
        result = overlap_index.executor.join(lngs, lats, exact=True)
        scan = ScanJoin(overlap_polygons).count_points(lngs, lats)
        assert result.counts.tolist() == scan.tolist()


class TestPluggableFilter:
    def test_rtree_and_act_filters_agree(self, nyc_index, nyc_polygons,
                                         taxi_batch):
        lngs, lats = taxi_batch
        classic = FilterRefineJoin(nyc_polygons).join(lngs[:800], lats[:800])
        act = nyc_index.executor.join(lngs[:800], lats[:800],
                                     exact=True)
        assert classic.counts.tolist() == act.counts.tolist()
