"""Request IDs, stage traces, the sampler, and the slow-query log."""

import os
import time

import pytest

from repro.obs import SlowQueryLog, Trace, Tracer, mint_request_id


class TestRequestIds:
    def test_unique_and_pid_prefixed(self):
        ids = {mint_request_id() for _ in range(1000)}
        assert len(ids) == 1000
        assert all(i.startswith(f"{os.getpid():x}-") for i in ids)


class TestTrace:
    def test_stages_tile_wall_clock(self):
        trace = Trace(mint_request_id())
        time.sleep(0.01)
        trace.stamp("admission")
        time.sleep(0.02)
        trace.stamp("descent")
        out = trace.to_dict()
        total = out["total_ms"]
        stage_sum = out["stage_sum_ms"]
        # stamps tile the request wall-clock by construction, so the
        # per-stage sum tracks end-to-end latency (within the tiny tail
        # spent after the last stamp)
        assert stage_sum <= total
        assert stage_sum == pytest.approx(total, rel=0.10, abs=0.5)
        assert [s["stage"] for s in out["stages"]] == \
            ["admission", "descent"]
        assert out["stages"][1]["ms"] > out["stages"][0]["ms"]

    def test_budget_marks_in_dict(self):
        trace = Trace("r-3")
        trace.note_budget("admission", 0.2)
        out = trace.to_dict()
        assert out["budget_remaining_ms"] == [
            {"hop": "admission", "ms": pytest.approx(200.0)}]
        assert out["request_id"] == "r-3"
        assert out["kind"] == "query"


class TestTracer:
    def test_deterministic_interval(self):
        tracer = Tracer(sample_interval=10)
        traces = [tracer.sample() for _ in range(100)]
        assert sum(t is not None for t in traces) == 10
        # every 10th admission exactly
        assert all((t is not None) == ((i + 1) % 10 == 0)
                   for i, t in enumerate(traces))

    def test_zero_disables_sampling_but_not_force(self):
        tracer = Tracer(sample_interval=0)
        assert all(tracer.sample() is None for _ in range(50))
        forced = tracer.sample(request_id="want-trace", force=True)
        assert forced is not None
        assert forced.request_id == "want-trace"

    def test_force_does_not_consume_phase(self):
        tracer = Tracer(sample_interval=2)
        tracer.sample(force=True)
        assert tracer.sample() is None
        assert tracer.sample() is not None

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_interval=-1)


class TestSlowQueryLog:
    def test_threshold_filters(self):
        log = SlowQueryLog(threshold_s=0.1, capacity=8)
        assert not log.maybe_record(0.05, "query", request_id="fast")
        assert log.maybe_record(0.15, "query", request_id="slow")
        (entry,) = log.entries()
        assert entry["request_id"] == "slow"
        assert entry["total_ms"] == pytest.approx(150.0)
        assert entry["pid"] == os.getpid()

    def test_zero_threshold_disables(self):
        log = SlowQueryLog(threshold_s=0.0)
        assert not log.maybe_record(100.0, "query")
        assert log.entries() == []

    def test_ring_keeps_most_recent(self):
        log = SlowQueryLog(threshold_s=0.0001, capacity=3)
        for i in range(10):
            log.maybe_record(0.001 * (i + 1), "query", request_id=str(i))
        ids = [e["request_id"] for e in log.entries()]
        assert ids == ["7", "8", "9"]
        stats = log.stats()
        assert stats["recorded"] == 10
        assert stats["dropped"] == 7
        assert stats["size"] == 3

    def test_sampled_entry_carries_stage_breakdown(self):
        log = SlowQueryLog(threshold_s=0.0001)
        trace = Trace("slow-1")
        trace.stamp("descent")
        log.maybe_record(0.5, "query", trace=trace,
                         extra={"shed": True})
        (entry,) = log.entries()
        assert entry["request_id"] == "slow-1"
        assert entry["shed"] is True
        assert [s["stage"] for s in entry["stages"]] == ["descent"]

    def test_clear(self):
        log = SlowQueryLog(threshold_s=0.0001)
        log.maybe_record(1.0, "query")
        assert log.clear() == 1
        assert log.entries() == []

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SlowQueryLog(capacity=0)
