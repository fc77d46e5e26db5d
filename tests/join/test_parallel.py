"""Tests for the multiprocessing scaling harness."""

import pytest

from repro.join.parallel import (
    ScalingPoint,
    fork_available,
    parallel_join,
    scaling_sweep,
)

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="fork start method unavailable")


class TestScalingPoint:
    def test_throughput(self):
        point = ScalingPoint(workers=2, seconds=0.5, num_points=1_000_000)
        assert point.throughput_mpts == pytest.approx(2.0)

    def test_zero_seconds(self):
        assert ScalingPoint(1, 0.0, 10).throughput_mpts == 0.0


class TestParallelCount:
    def test_single_worker_path(self, nyc_index, taxi_batch):
        lngs, lats = taxi_batch
        result = parallel_join(nyc_index, lngs, lats, workers=1)
        assert result.counts.tolist() == \
            nyc_index.count_points(lngs, lats).tolist()
        assert result.stats.num_points == len(lngs)
        assert result.stats.seconds > 0

    @needs_fork
    def test_multiworker_counts_match_serial(self, nyc_index, taxi_batch):
        lngs, lats = taxi_batch
        serial = nyc_index.executor.join(lngs, lats)
        for workers in (2, 3, 4):
            parallel = parallel_join(nyc_index, lngs, lats, workers=workers)
            assert parallel.counts.tolist() == serial.counts.tolist(), \
                workers
            # the statistics are the whole batch's, not one slice's
            assert parallel.stats.num_points == len(lngs)
            assert parallel.stats.num_result_pairs == \
                serial.stats.num_result_pairs
            assert parallel.stats.seconds > 0

    @needs_fork
    def test_multiworker_exact_counts(self, nyc_index, taxi_batch):
        lngs, lats = taxi_batch
        serial = nyc_index.executor.join(lngs, lats, exact=True)
        parallel = parallel_join(nyc_index, lngs, lats, workers=2,
                                 exact=True)
        assert parallel.counts.tolist() == serial.counts.tolist()
        assert parallel.stats.num_refined == serial.stats.num_refined

    @needs_fork
    def test_mmap_index_forks_without_rereading(self, nyc_index,
                                                taxi_batch, tmp_path,
                                                monkeypatch):
        """Workers inherit the file-backed node pool through fork; no
        process re-opens the .npz after the parent's load."""
        import repro.act.serialize as ser
        from repro.act.serialize import load_index, save_index

        path = tmp_path / "index.npz"
        save_index(nyc_index, path)
        mapped = load_index(path, mmap_mode="r")

        calls = {"n": 0}
        real = ser.load_index

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(ser, "load_index", counting)
        lngs, lats = taxi_batch
        serial = nyc_index.count_points(lngs, lats, exact=True)
        parallel = parallel_join(mapped, lngs, lats, workers=2, exact=True)
        assert parallel.counts.tolist() == serial.tolist()
        assert calls["n"] == 0, "fork must share the load, not repeat it"

    @needs_fork
    def test_uneven_splits(self, nyc_index, taxi_batch):
        lngs, lats = taxi_batch
        # 4000 points, 7 workers -> uneven slices
        parallel = parallel_join(nyc_index, lngs, lats, workers=7)
        serial = nyc_index.count_points(lngs, lats)
        assert parallel.counts.tolist() == serial.tolist()
        # fewer points than workers, down to none, is the serial join
        for n in (3, 0):
            few = parallel_join(nyc_index, lngs[:n], lats[:n], workers=7)
            assert few.stats.num_points == n
            assert few.counts.tolist() == \
                nyc_index.count_points(lngs[:n], lats[:n]).tolist()


class TestSweep:
    @needs_fork
    def test_sweep_shape(self, nyc_index, taxi_batch):
        lngs, lats = taxi_batch
        points = scaling_sweep(nyc_index, lngs, lats, worker_counts=[1, 2])
        assert [p.workers for p in points] == [1, 2]
        assert all(p.num_points == len(lngs) for p in points)
        assert all(p.seconds > 0 for p in points)
