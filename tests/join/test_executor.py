"""Tests of the columnar JoinExecutor — the one engine every join uses."""

import numpy as np
import pytest

from repro.baselines.scan import ScanJoin
from repro.errors import JoinError
from repro.geometry.edge_table import PackedEdgeTable
from repro.join.executor import refine_pairs


class TestCountPoints:
    def test_approximate_matches_decoded(self, nyc_index, taxi_batch):
        lngs, lats = taxi_batch
        counts = nyc_index.executor.count_points(lngs, lats)
        want = np.zeros(nyc_index.num_polygons, dtype=np.int64)
        for e in nyc_index.lookup_batch(lngs, lats).tolist():
            for pid in nyc_index.decode_entry(int(e)).all_ids:
                want[pid] += 1
        assert counts.tolist() == want.tolist()

    def test_exact_matches_bruteforce(self, overlap_index, overlap_polygons,
                                      taxi_batch):
        lngs, lats = taxi_batch
        counts = overlap_index.executor.count_points(lngs, lats, exact=True)
        scan = ScanJoin(overlap_polygons).count_points(lngs, lats)
        assert counts.tolist() == scan.tolist()

    def test_index_delegates_to_executor(self, nyc_index, taxi_batch):
        lngs, lats = taxi_batch
        assert nyc_index.count_points(lngs, lats).tolist() == \
            nyc_index.executor.count_points(lngs, lats).tolist()

    def test_executor_is_cached(self, nyc_index):
        assert nyc_index.executor is nyc_index.executor

    def test_empty_batch(self, nyc_index):
        for exact in (False, True):
            result = nyc_index.executor.join(np.empty(0), np.empty(0),
                                             exact=exact)
            assert result.counts.tolist() == [0] * nyc_index.num_polygons
            stats = result.stats
            assert (stats.num_points, stats.num_true_hits,
                    stats.num_candidate_refs, stats.num_refined,
                    stats.num_result_pairs) == (0, 0, 0, 0, 0)

    @pytest.mark.parametrize("exact", [False, True])
    def test_join_is_count_points(self, overlap_index, taxi_batch, exact):
        lngs, lats = taxi_batch
        executor = overlap_index.executor
        result = executor.join(lngs, lats, exact=exact)
        assert result.counts.tolist() == \
            executor.count_points(lngs, lats, exact=exact).tolist()
        assert result.stats.num_points == len(lngs)
        assert result.stats.num_result_pairs == int(result.counts.sum())
        cand_pts, _ = overlap_index.core.candidate_pairs(
            executor.entries(lngs, lats))
        assert result.stats.num_candidate_refs == len(cand_pts)
        assert result.stats.num_refined == (len(cand_pts) if exact else 0)

    @pytest.mark.parametrize("lngs, lats", [
        ([-73.9, -73.95], [40.7]),              # unequal lengths
        ([[-73.9, -73.95]], [[40.7, 40.71]]),   # 2-D
        (-73.9, 40.7),                          # 0-D
    ])
    def test_mismatched_columns_raise(self, nyc_index, lngs, lats):
        with pytest.raises(JoinError):
            nyc_index.executor.join(lngs, lats)
        with pytest.raises(JoinError):
            nyc_index.executor.count_points(lngs, lats, exact=True)


class TestRefinedCounts:
    def test_accounting(self, overlap_index, taxi_batch):
        lngs = np.asarray(taxi_batch[0], dtype=np.float64)
        lats = np.asarray(taxi_batch[1], dtype=np.float64)
        executor = overlap_index.executor
        entries = executor.entries(lngs, lats)
        result = executor.join(lngs, lats, exact=True)
        want_true = overlap_index.core.count_hits(
            entries, overlap_index.num_polygons, include_candidates=False)
        assert result.stats.num_true_hits == int(want_true.sum())
        cand_pts, _ = overlap_index.core.candidate_pairs(entries)
        assert result.stats.num_refined == int(cand_pts.shape[0])
        # exact results never exceed approximate ones
        approx = overlap_index.core.count_hits(
            entries, overlap_index.num_polygons, include_candidates=True)
        assert (result.counts <= approx).all()


class TestPairs:
    def test_exact_pairs_match_scalar(self, overlap_index, taxi_batch):
        lngs, lats = taxi_batch
        pts, pids = overlap_index.executor.pairs(
            lngs[:300], lats[:300], exact=True)
        got = sorted(zip(pts.tolist(), pids.tolist()))
        want = []
        for k in range(300):
            for pid in overlap_index.query_exact(float(lngs[k]),
                                                 float(lats[k])):
                want.append((k, pid))
        assert got == sorted(want)


class TestRefinePairs:
    def test_grouped_refinement_matches_per_pair(self, nyc_polygons,
                                                 taxi_batch):
        lngs = np.asarray(taxi_batch[0][:500], dtype=np.float64)
        lats = np.asarray(taxi_batch[1][:500], dtype=np.float64)
        rng = np.random.default_rng(99)
        point_idx = rng.integers(0, 500, size=200)
        polygon_ids = rng.integers(0, len(nyc_polygons), size=200)
        inside = refine_pairs(nyc_polygons, point_idx, polygon_ids,
                              lngs, lats)
        for n, (k, pid) in enumerate(zip(point_idx.tolist(),
                                         polygon_ids.tolist())):
            want = nyc_polygons[pid].contains(float(lngs[k]),
                                              float(lats[k]))
            assert bool(inside[n]) == bool(want)

    def test_empty_pairs(self, nyc_polygons):
        empty = np.empty(0, dtype=np.int64)
        inside = refine_pairs(nyc_polygons, empty, empty,
                              np.empty(0), np.empty(0))
        assert inside.shape == (0,)


class TestPackedRefinement:
    def test_executor_routes_through_packed_table(self, overlap_index,
                                                  taxi_batch):
        executor = overlap_index.executor
        table = executor.edge_table
        assert isinstance(table, PackedEdgeTable)
        assert executor.edge_table is table  # built once, cached
        lngs = np.asarray(taxi_batch[0], dtype=np.float64)
        lats = np.asarray(taxi_batch[1], dtype=np.float64)
        entries = executor.entries(lngs, lats)
        point_idx, polygon_ids = overlap_index.core.candidate_pairs(
            entries)
        got = executor.refine_pairs(point_idx, polygon_ids, lngs, lats)
        want = refine_pairs(overlap_index.polygons, point_idx,
                            polygon_ids, lngs, lats)
        assert np.array_equal(got, want)

    def test_huge_fanout_fallback_identical(self, nyc_polygons,
                                            taxi_batch):
        """A polygon over the chunk budget is a chunk of its own, refined
        by the same kernel; the split must be seamless."""
        lngs = np.asarray(taxi_batch[0][:400], dtype=np.float64)
        lats = np.asarray(taxi_batch[1][:400], dtype=np.float64)
        rng = np.random.default_rng(7)
        point_idx = rng.integers(0, 400, size=300)
        polygon_ids = rng.integers(0, len(nyc_polygons), size=300)
        # a budget below every polygon's edge count makes every pair its
        # own chunk; a mixed budget splits the batch unevenly
        counts = [len(list(p.edges())) for p in nyc_polygons]
        for chunk_edges in (1, int(np.median(counts))):
            table = PackedEdgeTable.from_polygons(
                nyc_polygons, chunk_edges=chunk_edges)
            got = table.refine(point_idx, polygon_ids, lngs, lats)
            want = refine_pairs(nyc_polygons, point_idx, polygon_ids,
                                lngs, lats)
            assert np.array_equal(got, want), chunk_edges

    def test_exact_join_identical_to_grouped(self, overlap_index,
                                             overlap_polygons,
                                             taxi_batch):
        """End to end: packed-refined exact counts == grouped counts."""
        lngs = np.asarray(taxi_batch[0], dtype=np.float64)
        lats = np.asarray(taxi_batch[1], dtype=np.float64)
        executor = overlap_index.executor
        entries = executor.entries(lngs, lats)
        counts = executor.join(lngs, lats, exact=True).counts
        grouped = overlap_index.core.count_hits(
            entries, overlap_index.num_polygons,
            include_candidates=False)
        pt, pid = overlap_index.core.candidate_pairs(entries)
        inside = refine_pairs(overlap_polygons, pt, pid, lngs, lats)
        grouped += np.bincount(
            pid[inside], minlength=overlap_index.num_polygons)
        assert counts.tolist() == grouped.tolist()


class TestSortedDescent:
    def test_sorted_entries_identical(self, nyc_index, taxi_batch):
        lngs, lats = taxi_batch
        cells = nyc_index.grid.leaf_cells_batch(
            np.asarray(lngs, dtype=np.float64),
            np.asarray(lats, dtype=np.float64))
        plain = nyc_index.core.lookup_entries(cells)
        sorted_ = nyc_index.core.lookup_entries(cells, sort_by_cell=True)
        assert np.array_equal(plain, sorted_)
