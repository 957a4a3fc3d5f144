"""Heartbeat accumulator: per-interval aggregation semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.heartbeat.accumulator import HeartbeatAccumulator, HeartbeatRecord
from repro.util.errors import ValidationError


def test_heartbeat_attributed_to_ending_interval():
    """A heartbeat belongs to the interval its end falls in (paper Fig 2)."""
    acc = HeartbeatAccumulator(interval=1.0)
    acc.record(1, t_begin=0.5, t_end=1.5)  # spans boundary, ends in interval 1
    records = acc.finalize(now=3.0)
    assert len(records) == 1
    assert records[0].interval_index == 1
    assert records[0].avg_duration == pytest.approx(1.0)


def test_counts_and_mean_duration_accumulate():
    acc = HeartbeatAccumulator(interval=1.0)
    acc.record(1, 0.0, 0.1)
    acc.record(1, 0.2, 0.5)
    acc.record(2, 0.5, 0.6)
    records = acc.finalize(now=1.0)
    by_id = {r.hb_id: r for r in records}
    assert by_id[1].count == 2
    assert by_id[1].avg_duration == pytest.approx(0.2)
    assert by_id[2].count == 1


def test_no_per_heartbeat_records():
    """AppEKG's core property: one record per (interval, id), not per beat."""
    acc = HeartbeatAccumulator(interval=1.0)
    for i in range(1000):
        acc.record(1, i * 0.001, i * 0.001 + 0.0005)
    records = acc.finalize(now=1.0)
    assert len(records) == 1
    assert records[0].count == 1000


def test_quiet_intervals_produce_no_records():
    acc = HeartbeatAccumulator(interval=1.0)
    acc.record(1, 0.1, 0.2)
    acc.record(1, 5.1, 5.2)
    records = acc.finalize(now=6.0)
    assert [r.interval_index for r in records] == [0, 5]


def test_sink_called_on_flush():
    seen = []
    acc = HeartbeatAccumulator(interval=1.0, sink=seen.append)
    acc.record(1, 0.1, 0.2)
    assert seen == []  # not yet flushed
    acc.record(1, 1.5, 1.6)  # crossing into interval 1 flushes interval 0
    assert len(seen) == 1 and seen[0].interval_index == 0


def test_record_validation():
    acc = HeartbeatAccumulator(interval=1.0)
    with pytest.raises(ValidationError):
        acc.record(1, 2.0, 1.0)
    with pytest.raises(ValidationError):
        HeartbeatAccumulator(interval=0.0)


def test_span_distributes_proportionally():
    acc = HeartbeatAccumulator(interval=1.0)
    acc.record_span(1, n=100, t0=0.0, t1=2.0)  # half in each interval
    records = acc.finalize(now=2.0)
    assert [r.interval_index for r in records] == [0, 1]
    assert records[0].count == pytest.approx(50.0)
    assert records[1].count == pytest.approx(50.0)
    assert records[0].avg_duration == pytest.approx(0.02)


def test_span_partial_overlap():
    acc = HeartbeatAccumulator(interval=1.0)
    acc.record_span(1, n=10, t0=0.75, t1=1.25)
    records = acc.finalize(now=2.0)
    counts = {r.interval_index: r.count for r in records}
    assert counts[0] == pytest.approx(5.0)
    assert counts[1] == pytest.approx(5.0)


def test_span_zero_length():
    acc = HeartbeatAccumulator(interval=1.0)
    acc.record_span(1, n=7, t0=0.5, t1=0.5)
    records = acc.finalize(now=1.0)
    assert records[0].count == pytest.approx(7.0)


def test_span_validation():
    acc = HeartbeatAccumulator(interval=1.0)
    with pytest.raises(ValidationError):
        acc.record_span(1, n=0, t0=0.0, t1=1.0)
    with pytest.raises(ValidationError):
        acc.record_span(1, n=5, t0=1.0, t1=0.5)


def test_duration_sum_property():
    record = HeartbeatRecord(rank=0, hb_id=1, interval_index=0, time=1.0,
                             count=4.0, avg_duration=0.25)
    assert record.duration_sum == pytest.approx(1.0)


def test_total_events_counted():
    acc = HeartbeatAccumulator(interval=1.0)
    acc.record(1, 0.0, 0.1)
    acc.record_span(2, n=9, t0=0.0, t1=0.5)
    assert acc.total_events == 10


@settings(max_examples=50, deadline=None)
@given(
    beats=st.lists(
        st.tuples(st.integers(1, 3),
                  st.floats(0, 50, allow_nan=False),
                  st.floats(0, 2, allow_nan=False)),
        max_size=60,
    )
)
def test_accumulator_conservation_property(beats):
    """Total count and total duration are conserved through aggregation."""
    beats = sorted(((hb, t0, t0 + d) for hb, t0, d in beats), key=lambda b: b[2])
    acc = HeartbeatAccumulator(interval=1.0)
    for hb, t0, t1 in beats:
        acc.record(hb, t0, t1)
    records = acc.finalize(now=60.0)
    assert sum(r.count for r in records) == pytest.approx(len(beats))
    expected = sum(t1 - t0 for _hb, t0, t1 in beats)
    assert sum(r.duration_sum for r in records) == pytest.approx(expected, abs=1e-6)


def test_min_max_durations_tracked():
    acc = HeartbeatAccumulator(interval=1.0)
    acc.record(1, 0.0, 0.1)
    acc.record(1, 0.2, 0.5)
    acc.record(1, 0.6, 0.65)
    records = acc.finalize(now=1.0)
    assert records[0].min_duration == pytest.approx(0.05)
    assert records[0].max_duration == pytest.approx(0.3)
    assert records[0].min_duration <= records[0].avg_duration <= records[0].max_duration


def test_min_max_reset_per_interval():
    acc = HeartbeatAccumulator(interval=1.0)
    acc.record(1, 0.0, 0.5)   # interval 0: duration 0.5
    acc.record(1, 1.0, 1.1)   # interval 1: duration 0.1
    records = acc.finalize(now=2.0)
    assert records[0].max_duration == pytest.approx(0.5)
    assert records[1].max_duration == pytest.approx(0.1)


def test_span_min_max_is_per_beat_duration():
    acc = HeartbeatAccumulator(interval=1.0)
    acc.record_span(1, n=100, t0=0.0, t1=0.5)
    records = acc.finalize(now=1.0)
    assert records[0].min_duration == pytest.approx(0.005)
    assert records[0].max_duration == pytest.approx(0.005)


# ----------------------------------------------------------------------
# min_duration sentinel
# ----------------------------------------------------------------------
def _rec(hb_id=1, interval_index=0, count=1.0, avg=0.2, low=None, high=0.4,
         rank=0):
    from repro.heartbeat.accumulator import HeartbeatRecord

    return HeartbeatRecord(rank=rank, hb_id=hb_id,
                           interval_index=interval_index, time=1.0,
                           count=count, avg_duration=avg,
                           min_duration=low, max_duration=high)


def test_min_duration_defaults_to_none_sentinel():
    rec = _rec()
    assert rec.min_duration is None
    assert rec.min_duration_or_inf() == float("inf")


def test_csv_round_trips_none_minimum(tmp_path):
    """The not-observed sentinel survives the CSV sink and loader."""
    from repro.heartbeat.output import CSVSink, read_csv_records

    path = tmp_path / "none.csv"
    with CSVSink(path) as sink:
        sink(_rec(low=None))
    loaded = read_csv_records(path)
    assert loaded[0].min_duration is None
    assert loaded[0].max_duration == pytest.approx(0.4)

