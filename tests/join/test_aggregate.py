"""Tests for count aggregation across batches: ``JoinResult.merged``
folded over ``join_stream`` (the file and class names outlive the
``CountAggregator`` they were written for)."""

from functools import reduce

import numpy as np
import pytest

from repro.errors import JoinError
from repro.join import JoinResult, JoinStats, join_stream


def _result(counts, num_points):
    return JoinResult(np.array(counts), JoinStats(num_points=num_points))


def _slices(lngs, lats, size):
    return ((lngs[at:at + size], lats[at:at + size])
            for at in range(0, len(lngs), size))


class TestCountAggregator:
    def test_update_accumulates(self):
        total = _result([1, 0, 2], 5).merged(_result([0, 1, 1], 5))
        assert total.counts.tolist() == [1, 1, 3]
        assert total.stats.num_points == 10

    def test_shape_mismatch_raises(self):
        with pytest.raises(JoinError):
            _result([0, 0, 0], 1).merged(_result([0, 0, 0, 0], 1))

    def test_merge(self):
        a = _result([1, 2], 3)
        b = _result([10, 0], 4)
        merged = a.merged(b)
        assert merged.counts.tolist() == [11, 2]
        assert merged.stats.num_points == 7
        # neither operand is modified
        assert a.counts.tolist() == [1, 2] and a.stats.num_points == 3
        assert b.counts.tolist() == [10, 0] and b.stats.num_points == 4

    def test_top_k_and_dict(self):
        total = _result([5, 0, 4, 0], 9).merged(_result([0, 0, 5, 1], 6))
        assert total.top_k(2) == {2: 9, 0: 5}
        assert total.top_k(10) == {2: 9, 0: 5, 3: 1}


class TestChunkedCounting:
    def test_chunked_equals_single_shot(self, nyc_index, taxi_batch):
        lngs, lats = taxi_batch
        whole = nyc_index.count_points(lngs, lats)
        chunked = reduce(JoinResult.merged, join_stream(
            nyc_index.executor, _slices(lngs, lats, 700)))
        assert chunked.counts.tolist() == whole.tolist()

    def test_chunked_exact_mode(self, nyc_index, taxi_batch):
        lngs, lats = taxi_batch
        whole = nyc_index.count_points(lngs, lats, exact=True)
        chunked = reduce(JoinResult.merged, join_stream(
            nyc_index.executor, _slices(lngs, lats, 1000), exact=True))
        assert chunked.counts.tolist() == whole.tolist()


class TestStreamCounting:
    def test_stream_totals(self, nyc_index):
        from repro.datasets import point_stream

        batches = list(join_stream(nyc_index.executor,
                                   point_stream(2500, 600, seed=3)))
        assert len(batches) == 5  # 600*4 + 100
        total = reduce(JoinResult.merged, batches)
        assert total.stats.num_points == 2500

    @pytest.mark.parametrize("exact", [False, True])
    def test_merged_stream_equals_sum_and_single_shot(
            self, overlap_index, taxi_batch, exact):
        lngs, lats = taxi_batch
        executor = overlap_index.executor
        batches = list(join_stream(executor, _slices(lngs, lats, 900),
                                   exact=exact))
        total = reduce(JoinResult.merged, batches)
        whole = executor.join(lngs, lats, exact=exact)
        assert total.counts.tolist() == whole.counts.tolist()
        for field in ("num_points", "num_true_hits", "num_candidate_refs",
                      "num_refined", "num_result_pairs"):
            summed = sum(getattr(b.stats, field) for b in batches)
            assert getattr(total.stats, field) == summed, field
            assert getattr(whole.stats, field) == summed, field
        assert total.stats.seconds == pytest.approx(
            sum(b.stats.seconds for b in batches))
