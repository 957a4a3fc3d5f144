"""ServiceMetrics regressions: percentile keys, snapshot atomicity."""

import threading

import pytest

from repro.service.metrics import (
    LatencyWindow,
    ServiceMetrics,
    aggregate_worker_stats,
)


# ----------------------------------------------------------------------
# percentile key rendering
# ----------------------------------------------------------------------
def test_percentile_keys_do_not_collide():
    """0.999 must render p99.9, not round up into q=1.0's p100."""
    assert LatencyWindow.percentile_key(0.5) == "p50"
    assert LatencyWindow.percentile_key(0.9) == "p90"
    assert LatencyWindow.percentile_key(0.99) == "p99"
    assert LatencyWindow.percentile_key(0.999) == "p99.9"
    assert LatencyWindow.percentile_key(0.9999) == "p99.99"
    assert LatencyWindow.percentile_key(1.0) == "p100"


def test_percentiles_keep_distinct_tail_quantiles():
    window = LatencyWindow()
    for i in range(1000):
        window.record_many(i / 1000.0, 1)
    out = window.percentiles(qs=(0.99, 0.999, 1.0))
    assert set(out) == {"p99", "p99.9", "p100"}
    # Three distinct quantiles: the old p100 collision silently dropped
    # one of these.
    assert out["p99"] < out["p99.9"] < out["p100"]
    assert out["p100"] == pytest.approx(0.999)


def test_default_percentiles_include_p99_9():
    window = LatencyWindow()
    window.record_many(0.1, 1)
    assert set(window.percentiles()) == {"p50", "p90", "p99", "p99.9"}


# ----------------------------------------------------------------------
# snapshot atomicity
# ----------------------------------------------------------------------
def test_snapshot_rate_consistent_with_its_own_counters():
    """The rate inside a snapshot derives from that snapshot's counters.

    A torn snapshot read the counters, released the lock, then computed
    the rate from *newer* state — so a stats reply could disagree with
    itself.  Hammer the metrics from writer threads and check every
    snapshot is internally consistent.
    """
    metrics = ServiceMetrics()
    stop = threading.Event()

    def writer():
        while not stop.is_set():
            metrics.note_ingested()
            metrics.note_processed_batch(count=1, novel=0, latency=0.001)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for thread in threads:
        thread.start()
    try:
        for _ in range(300):
            snap = metrics.snapshot()
            if snap["elapsed"] > 0:
                assert snap["ingest_rate"] == pytest.approx(
                    snap["processed"] / snap["elapsed"])
            assert snap["drops"] == (snap["dropped_oldest"]
                                     + snap["rejected"])
    finally:
        stop.set()
        for thread in threads:
            thread.join()


def test_snapshot_zero_elapsed_rate_counts_processed():
    fake_now = [0.0]
    metrics = ServiceMetrics(clock=lambda: fake_now[0])
    metrics.note_ingested()
    metrics.note_processed_batch(count=1, novel=0, latency=0.01)
    snap = metrics.snapshot()
    assert snap["elapsed"] == 0.0
    assert snap["ingest_rate"] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# the stage ledger
# ----------------------------------------------------------------------
def test_stage_ledger_keeps_shortest_and_longest_measurement():
    metrics = ServiceMetrics()
    metrics.note_stages({"enqueue": 0.5, "classify": 0.1},
                        {"enqueue": 2, "classify": 2})
    metrics.note_stages({"enqueue": 0.3}, {"enqueue": 1})
    stages = metrics.snapshot()["stages"]
    # Two measurements, 0.5 s and 0.3 s: the minimum is 0.3, never a
    # zero default.
    assert stages["enqueue"] == {"calls": 2, "items": 3,
                                 "seconds": pytest.approx(0.8),
                                 "min": 0.3, "max": 0.5}
    assert stages["classify"]["min"] == stages["classify"]["max"] == 0.1


def test_fleet_merge_of_stage_ledgers_sums_totals_and_keeps_extremes():
    w0, w1 = ServiceMetrics(), ServiceMetrics()
    w0.note_stages({"archive": 0.2}, {"archive": 4})
    w1.note_stages({"archive": 0.05}, {"archive": 1})
    w1.note_stages({"archive": 0.4, "dequeue": 0.01},
                   {"archive": 2, "dequeue": 2})
    merged = aggregate_worker_stats({"w0": w0.snapshot(),
                                     "w1": w1.snapshot()})
    assert merged["stages"]["archive"] == {"calls": 3, "items": 7,
                                           "seconds": pytest.approx(0.65),
                                           "min": 0.05, "max": 0.4}
    assert merged["stages"]["dequeue"]["calls"] == 1
