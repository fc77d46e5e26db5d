import json

import pytest

from actbench.spans import SpanLog, TilingError


def test_self_time_is_duration_minus_what_children_cover():
    log = SpanLog()
    root = log.add("request", 0.0, 10.0, None, 0)
    service = log.add("service", 2.0, 8.0, root, 0)
    log.add("descent", 3.0, 5.0, service, 0)
    log.add("refine", 5.0, 6.0, service, 0)
    assert log.self_times() == [4.0, 3.0, 2.0, 1.0]
    assert log.self_time_by_name() == {
        "request": 4.0, "service": 3.0, "descent": 2.0, "refine": 1.0}


def test_overlapping_children_count_once_and_clip_to_the_parent():
    log = SpanLog()
    root = log.add("request", 0.0, 10.0, None, 0)
    log.add("a", 1.0, 6.0, root, 0)
    log.add("b", 4.0, 8.0, root, 0)      # overlaps a on [4, 6]
    log.add("c", 9.0, 15.0, root, 0)     # runs past the parent's end
    assert log.self_times()[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_lay_out_places_children_end_to_end():
    log = SpanLog()
    log.lay_out(7, ("request", 10.0, [
        ("client_encode", 1.0, ()),
        ("service", 5.0, [("descent", 2.0, ()), ("refine", 1.0, ())]),
        ("encode", 2.0, ()),
    ]), start=100.0)
    by_name = {s.name: s for s in log.spans}
    assert (by_name["service"].start, by_name["service"].end) == (101.0, 106.0)
    assert (by_name["refine"].start, by_name["refine"].end) == (103.0, 104.0)
    assert by_name["encode"].start == 106.0
    assert by_name["descent"].parent == log.spans.index(by_name["service"])
    assert {s.request for s in log.spans} == {7}
    totals = log.self_time_by_name()
    assert totals["request"] == pytest.approx(2.0)
    assert totals["service"] == pytest.approx(2.0)


def test_tiling_passes_when_a_few_requests_cross_by_noise():
    log = SpanLog()
    for k in range(100):
        child = 1.5 if k < 3 else 0.5   # three requests cross
        log.lay_out(k, ("request", 1.0, [("service", child, ())]), float(k))
    assert len(log.overflows()) == 3
    log.check_tiling(0.0)
    # an overflowing child covers its whole parent, never more
    assert log.self_time_by_name()["request"] == pytest.approx(97 * 0.5)


def test_tiling_allows_children_to_outlast_parents_by_the_tolerance_only():
    log = SpanLog()
    log.lay_out(0, ("request", 1.0, [("leaf_cells", 0.6, ()),
                                     ("descent", 0.45, ())]), 0.0)
    log.check_tiling(0.10)          # 5 % over: a zero remainder plus noise
    with pytest.raises(TilingError):
        log.check_tiling(0.01)


def test_tiling_is_checked_per_parent_name():
    log = SpanLog()
    log.lay_out(0, ("request", 10.0, [
        ("service", 1.0, [("descent", 2.0, ())])]), 0.0)
    with pytest.raises(TilingError, match="'service'"):
        log.check_tiling(0.10)


def test_bad_spans_are_refused():
    log = SpanLog()
    with pytest.raises(ValueError):
        log.add("request", 2.0, 1.0, None, 0)
    with pytest.raises(ValueError):
        log.add("request", 0.0, 1.0, 5, 0)


def test_dump_writes_every_field(tmp_path):
    log = SpanLog()
    log.lay_out(0, ("request", 1.0, [("service", 0.5, ())]), 0.0)
    path = tmp_path / "trace.json"
    log.dump(path, {"workload": "w"})
    data = json.loads(path.read_text())
    assert data["meta"] == {"workload": "w"}
    assert data["spans"][1] == {"name": "service", "start": 0.0, "end": 0.5,
                                "parent": 0, "request": 0}
