"""Tests for the streaming micro-batch join (``join_stream``)."""

from functools import reduce

import numpy as np

from repro.datasets import point_stream
from repro.join import JoinResult, join_stream


class TestStreamingJoin:
    def test_batches_accumulate(self, nyc_index):
        total = np.zeros(nyc_index.num_polygons, dtype=np.int64)
        running = None
        for batch in join_stream(nyc_index.executor,
                                 point_stream(3000, 750, seed=4)):
            total += batch.counts
            running = batch if running is None else running.merged(batch)
        assert running.counts.tolist() == total.tolist()
        assert running.stats.num_points == 3000

    def test_run_equals_manual_loop(self, nyc_index):
        executor = nyc_index.executor
        a = reduce(JoinResult.merged,
                   join_stream(executor, point_stream(2000, 500, seed=8)))
        b = np.zeros(nyc_index.num_polygons, dtype=np.int64)
        for lngs, lats in point_stream(2000, 500, seed=8):
            b += executor.join(lngs, lats).counts
        assert a.counts.tolist() == b.tolist()

    def test_streaming_equals_batch(self, nyc_index, taxi_batch):
        lngs, lats = taxi_batch
        slices = ((lngs[start:start + 512], lats[start:start + 512])
                  for start in range(0, len(lngs), 512))
        streamed = reduce(JoinResult.merged,
                          join_stream(nyc_index.executor, slices))
        whole = nyc_index.count_points(lngs, lats)
        assert streamed.counts.tolist() == whole.tolist()

    def test_exact_mode(self, nyc_index, taxi_batch):
        lngs, lats = taxi_batch
        (batch,) = join_stream(nyc_index.executor, [(lngs, lats)],
                               exact=True)
        assert batch.counts.tolist() == \
            nyc_index.count_points(lngs, lats, exact=True).tolist()
        assert batch.stats.num_refined > 0

    def test_latency_stats(self, nyc_index):
        """Per-batch latency is each result's ``stats.seconds``."""
        assert list(join_stream(nyc_index.executor, [])) == []
        batches = list(join_stream(nyc_index.executor,
                                   point_stream(2000, 400, seed=2)))
        assert len(batches) == 5
        latencies = [batch.stats.seconds for batch in batches]
        assert all(seconds > 0 for seconds in latencies)
        total = reduce(JoinResult.merged, batches)
        assert max(latencies) <= total.stats.seconds
