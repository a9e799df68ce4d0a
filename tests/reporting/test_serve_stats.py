"""Serve-mode latency summaries: nearest-rank percentiles."""

from repro.reporting.serve import ServeStats, percentile


def test_p50_of_two_samples_is_the_lower():
    assert percentile([1, 2], 0.50) == 1


def test_p50_of_one_to_hundred_is_fifty():
    assert percentile(list(range(1, 101)), 0.50) == 50


def test_p99_of_hundred_samples_is_not_the_maximum():
    assert percentile(list(range(1, 101)), 0.99) == 99


def test_empty_list_is_zero():
    assert percentile([], 0.99) == 0.0


def test_q_zero_is_the_minimum():
    assert percentile([3, 5, 8], 0.0) == 3


def test_q_one_is_the_maximum():
    assert percentile([3, 5, 8], 1.0) == 8


def test_snapshot_reports_nearest_rank_latencies():
    stats = ServeStats()
    for sample in range(1, 101):
        stats.record("OT", float(sample))
    latency = stats.snapshot()["latency_by_workload"]["OT"]
    assert (latency["count"], latency["p50"], latency["p99"]) == (
        100, 50.0, 99.0
    )
    assert latency["p999"] == 100.0
