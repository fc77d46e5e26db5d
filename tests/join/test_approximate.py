"""Tests for the approximate join (``JoinExecutor.join``, no refinement)."""

import numpy as np

from repro.baselines.scan import ScanJoin


class TestApproximateJoin:
    def test_counts_match_index_counts(self, nyc_index, taxi_batch):
        lngs, lats = taxi_batch
        result = nyc_index.executor.join(lngs, lats)
        direct = nyc_index.count_points(lngs, lats)
        assert result.counts.tolist() == direct.tolist()

    def test_stats_consistency(self, nyc_index, taxi_batch):
        lngs, lats = taxi_batch
        result = nyc_index.executor.join(lngs, lats)
        stats = result.stats
        assert stats.num_points == len(lngs)
        assert stats.num_refined == 0
        assert stats.num_result_pairs == result.total_pairs
        assert stats.num_true_hits + stats.num_candidate_refs == \
            stats.num_result_pairs
        assert stats.seconds > 0
        assert stats.throughput_mpts > 0

    def test_no_false_negatives_vs_scan(self, nyc_index, nyc_polygons,
                                        taxi_batch):
        lngs, lats = taxi_batch
        result = nyc_index.executor.join(lngs, lats)
        scan = ScanJoin(nyc_polygons).count_points(lngs, lats)
        assert (result.counts >= scan).all()

    def test_join_pairs_complete(self, nyc_index, taxi_batch):
        lngs, lats = taxi_batch
        pts, pids = nyc_index.executor.pairs(lngs[:400], lats[:400],
                                             exact=False)
        pairs = list(zip(pts.tolist(), pids.tolist()))
        # pair multiset must reproduce the counts
        counts = np.zeros(nyc_index.num_polygons, dtype=np.int64)
        for _, pid in pairs:
            counts[pid] += 1
        direct = nyc_index.count_points(lngs[:400], lats[:400])
        assert counts.tolist() == direct.tolist()
        # per-point agreement with scalar queries
        by_point = {}
        for point_idx, pid in pairs:
            by_point.setdefault(point_idx, []).append(pid)
        for k in range(0, 400, 17):
            want = sorted(nyc_index.query_approx(lngs[k], lats[k]))
            assert sorted(by_point.get(k, [])) == want

    def test_top_k(self, nyc_index, taxi_batch):
        lngs, lats = taxi_batch
        result = nyc_index.executor.join(lngs, lats)
        top = result.top_k(3)
        assert len(top) <= 3
        values = list(top.values())
        assert values == sorted(values, reverse=True)
        assert all(result.counts[pid] == count for pid, count in top.items())

    def test_true_hit_ratio_high_on_partition(self, nyc_index, taxi_batch):
        """Paper claim: interior cells resolve the vast majority of hits."""
        lngs, lats = taxi_batch
        result = nyc_index.executor.join(lngs, lats)
        assert result.stats.true_hit_ratio > 0.9
