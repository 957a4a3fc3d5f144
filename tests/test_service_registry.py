"""Stream lifecycle, service metrics, and the bounded stream queue."""

import threading
import time

import pytest

from repro.service.metrics import LatencyWindow, ServiceMetrics
from repro.service.registry import StreamRegistry
from repro.service.server import (
    ACCEPTED,
    DROPPED_OLDEST,
    REJECTED,
    BoundedStreamQueue,
)
from repro.util.errors import ServiceError, ValidationError


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_register_get_and_duplicate():
    reg = StreamRegistry(idle_timeout=10.0)
    state = reg.register("s1", app="graph500", rank=2)
    assert reg.get("s1") is state
    assert len(reg) == 1
    with pytest.raises(ServiceError):
        reg.register("s1")
    with pytest.raises(ServiceError):
        reg.register("")


def test_unknown_stream_rejected():
    with pytest.raises(ServiceError):
        StreamRegistry().get("ghost")


def test_idle_expiry_uses_last_seen():
    clock = FakeClock()
    reg = StreamRegistry(idle_timeout=5.0, clock=clock)
    reg.register("fresh")
    reg.register("stale")
    clock.advance(4.0)
    reg.touch("fresh")
    clock.advance(2.0)  # stale idle 6s, fresh idle 2s
    assert reg.expire_idle() == ["stale"]
    assert len(reg) == 1
    assert reg.expired == 1
    # expired streams keep their final stats in the fleet view
    assert any(row["stream_id"] == "stale"
               for row in reg.fleet_status()["finished"])


def test_close_removes_and_archives():
    reg = StreamRegistry()
    reg.register("s1")
    state = reg.close("s1")
    assert state is not None and state.closed
    assert len(reg) == 0
    assert reg.close("s1") is None  # idempotent


def test_sequence_gap_tracking():
    reg = StreamRegistry()
    state = reg.register("s")
    state.note_sequence(0)
    state.note_sequence(1)
    state.note_sequence(4)  # lost 2, 3
    assert state.last_seq == 4
    assert state.seq_gaps == 2


def test_fleet_status_aggregates_lag_and_counts():
    reg = StreamRegistry()
    a = reg.register("a")
    b = reg.register("b")
    with a.lock:
        a.enqueued, a.processed, a.novel = 10, 7, 1
    with b.lock:
        b.enqueued, b.processed = 4, 4
    status = reg.fleet_status()
    assert status["n_streams"] == 2
    assert status["total_lag"] == 3
    assert status["novel_total"] == 1
    rows = {r["stream_id"]: r for r in status["streams"]}
    assert rows["a"]["lag"] == 3 and rows["b"]["lag"] == 0


def test_phase_occupancy_includes_finished_streams():
    """A dashboard polled right after a fleet drains still sees occupancy."""

    class StubTracker:
        def __init__(self, counts):
            self._counts = counts

        def phase_counts(self):
            return dict(self._counts)

        def phase_sequence(self):
            return []

    reg = StreamRegistry()
    reg.register("live", tracker=StubTracker({0: 3, 1: 1}))
    reg.register("done", tracker=StubTracker({0: 1, -1: 2}))
    reg.close("done")
    occupancy = reg.fleet_status()["phase_occupancy"]
    assert occupancy["0"]["intervals"] == 4
    assert occupancy["1"]["intervals"] == 1
    assert occupancy["-1"]["intervals"] == 2
    total = sum(o["intervals"] for o in occupancy.values())
    assert abs(sum(o["share"] for o in occupancy.values()) - 1.0) < 1e-9
    assert total == 7


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def test_latency_window_is_bounded():
    window = LatencyWindow(capacity=10)
    for i in range(100):
        window.record_many(float(i), 1)
    assert window.observed == 100
    pct = window.percentiles()
    # only the last 10 observations (90..99) remain
    assert 90.0 <= pct["p50"] <= 99.0


def test_latency_window_empty_percentiles_zero():
    assert LatencyWindow().percentiles() == {
        "p50": 0.0, "p90": 0.0, "p99": 0.0, "p99.9": 0.0}


def test_metrics_ingest_rate_with_fake_clock():
    clock = FakeClock()
    metrics = ServiceMetrics(clock=clock)
    assert metrics.ingest_rate() == 0.0
    metrics.note_ingested()
    clock.advance(2.0)
    metrics.note_processed_batch(count=10, novel=0, latency=0.001)
    assert metrics.ingest_rate() == pytest.approx(5.0)


def test_metrics_snapshot_counts():
    metrics = ServiceMetrics()
    metrics.note_ingested(3)
    metrics.note_processed_batch(count=1, novel=1, latency=0.01)
    metrics.note_dropped_oldest()
    metrics.note_rejected(2)
    metrics.note_heartbeats(7)
    snap = metrics.snapshot()
    assert snap["ingested"] == 3
    assert snap["processed"] == 1 and snap["novel"] == 1
    assert snap["drops"] == 3
    assert snap["heartbeats"] == 7
    assert snap["classify_latency"]["p50"] == pytest.approx(0.01)


# ----------------------------------------------------------------------
# bounded queue policies
# ----------------------------------------------------------------------
def test_queue_validates_arguments():
    with pytest.raises(ValidationError):
        BoundedStreamQueue(0)
    with pytest.raises(ValidationError):
        BoundedStreamQueue(4, policy="yolo")


def popped(q, max_items):
    """The items of one ``pop_batch``, without their admission stamps."""
    return [item for item, _admitted in q.pop_batch(max_items)]


def test_queue_stamps_admission_time():
    q = BoundedStreamQueue(4)
    before = time.perf_counter()
    q.put("a")
    q.put("b")
    (a, admitted_a), (b, admitted_b) = q.pop_batch(10)
    assert (a, b) == ("a", "b")
    assert before <= admitted_a <= admitted_b <= time.perf_counter()


def test_reject_policy():
    q = BoundedStreamQueue(2, policy="reject")
    assert q.put(1) == ACCEPTED
    assert q.put(2) == ACCEPTED
    assert q.put(3) == REJECTED
    assert popped(q, 10) == [1, 2]
    assert q.put(3) == ACCEPTED


def test_drop_oldest_policy():
    q = BoundedStreamQueue(2, policy="drop-oldest")
    q.put("a")
    q.put("b")
    assert q.put("c") == DROPPED_OLDEST
    assert popped(q, 10) == ["b", "c"]


def test_block_policy_waits_for_consumer():
    q = BoundedStreamQueue(1, policy="block")
    q.put("first")
    outcomes = []

    def producer():
        outcomes.append(q.put("second", timeout=5.0))

    thread = threading.Thread(target=producer)
    thread.start()
    time.sleep(0.05)
    assert not outcomes  # producer is parked on the full queue
    assert popped(q, 1) == ["first"]
    thread.join(timeout=5.0)
    assert outcomes == [ACCEPTED]
    assert popped(q, 1) == ["second"]


def test_block_policy_times_out():
    q = BoundedStreamQueue(1, policy="block")
    q.put("x")
    with pytest.raises(ServiceError):
        q.put("y", timeout=0.05)


def test_close_unblocks_producer():
    q = BoundedStreamQueue(1, policy="block")
    q.put("x")
    errors = []

    def producer():
        try:
            q.put("y", timeout=5.0)
        except ServiceError as exc:
            errors.append(exc)

    thread = threading.Thread(target=producer)
    thread.start()
    time.sleep(0.05)
    q.close()
    thread.join(timeout=5.0)
    assert len(errors) == 1
