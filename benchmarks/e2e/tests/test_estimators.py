import pytest

from actbench.estimators import (per_request_min, percentile, spread,
                                 summarize)


def test_per_request_min_keeps_each_requests_fastest_pass():
    passes = [[3.0, 1.0, 5.0], [2.0, 4.0, 5.5], [9.0, 1.5, 4.0]]
    assert per_request_min(passes) == [2.0, 1.0, 4.0]


def test_per_request_min_rejects_passes_of_different_sequences():
    with pytest.raises(ValueError):
        per_request_min([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        per_request_min([])


def test_one_slow_pass_does_not_move_the_estimate():
    quiet = [[1.0] * 50 for _ in range(4)]
    noisy = quiet + [[10.0] * 50]
    assert per_request_min(noisy) == per_request_min(quiet)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 201)]  # 1..200
    assert percentile(values, 0.50) == 100.0
    assert percentile(values, 0.95) == 190.0  # exactly 10 beyond


def test_percentile_is_withheld_with_fewer_than_ten_samples_beyond():
    assert percentile([float(v) for v in range(199)], 0.95) is None
    assert percentile([float(v) for v in range(20)], 0.95) is None
    # the median is never withheld
    assert percentile([1.0, 2.0, 3.0], 0.50) == 2.0


def test_summarize_divides_points_by_summed_minima():
    minima = [0.001] * 200
    out = summarize(minima, [100] * 200)
    assert out["points_per_s"] == pytest.approx(100_000.0)
    assert out["req_p50_ms"] == pytest.approx(1.0)
    assert out["req_p95_ms"] == pytest.approx(1.0)
    assert summarize([0.001] * 20, [100] * 20)["req_p95_ms"] is None


def test_spread_is_interquartile_distance_over_median():
    values = [float(v) for v in range(1, 12)]  # 1..11: q1=3, q3=9, med=6
    assert spread(values) == pytest.approx(1.0)
    assert spread([5.0] * 10) == 0.0
    assert spread([5.0]) is None
