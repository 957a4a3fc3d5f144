"""Observability layer: tracing, exposition, self-heartbeats, logging.

Unit tests run everywhere; the end-to-end tests bind loopback sockets
and carry the ``socket`` marker (deselect with ``-m "not socket"``).
"""

import io
import json
import math
import socket
import threading
import time
import urllib.request

import pytest

from repro.core.online import OnlinePhaseTracker
from repro.core.pipeline import AnalysisConfig, analyze_snapshots
from repro.heartbeat.analysis import phase_assignment, series_from_records
from repro.heartbeat.output import CSVSink, read_csv_records
from repro.service import (
    STAGES,
    BoundedStreamQueue,
    Endpoint,
    MetricsHTTPServer,
    PhaseClient,
    PhaseMonitorServer,
    ServerConfig,
    SyntheticLoadGenerator,
    parse_prometheus,
    publish_samples,
    render_prometheus,
)
from repro.service.selfekg import (
    SELF_RANK,
    SELF_RECORD_RING,
    SELF_STAGE_LABELS,
    SelfInstrument,
)
from repro.service.tracing import TraceStore, new_trace_id
from repro.util.errors import ValidationError
from repro.util.jsonlog import JsonLogger, NullLogger


#: The spans of a completed trace on a daemon without an archive.
STORELESS_SPANS = set(STAGES) - {"archive"}


def can_bind_loopback() -> bool:
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
        return True
    except OSError:
        return False


# ----------------------------------------------------------------------
# structured logging
# ----------------------------------------------------------------------
def test_jsonlog_emits_one_json_object_per_line():
    stream = io.StringIO()
    log = JsonLogger("test", level="info", stream=stream,
                     clock=lambda: 42.0)
    log.info("server-started", endpoint="127.0.0.1:1", workers=2)
    log.warning("slow-op", total_seconds=1.5)
    lines = stream.getvalue().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["event"] == "server-started"
    assert first["level"] == "info"
    assert first["logger"] == "test"
    assert first["workers"] == 2
    assert first["ts"] == 42.0
    assert json.loads(lines[1])["level"] == "warning"


def test_jsonlog_level_threshold_filters():
    stream = io.StringIO()
    log = JsonLogger("test", level="warning", stream=stream)
    log.debug("noise")
    log.info("noise")
    log.error("boom", code=7)
    lines = stream.getvalue().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["event"] == "boom"
    assert log.emitted == 1


def test_jsonlog_bind_carries_context():
    stream = io.StringIO()
    log = JsonLogger("root", level="info", stream=stream).bind(stream_id="s1")
    log.info("hello")
    assert json.loads(stream.getvalue())["stream_id"] == "s1"


def test_null_logger_discards_everything():
    log = NullLogger()
    log.error("boom")
    assert log.emitted == 0


# ----------------------------------------------------------------------
# trace store
# ----------------------------------------------------------------------
def test_trace_lifecycle_records_all_spans():
    store = TraceStore(capacity=8)
    tid = new_trace_id()
    store.begin(tid, "s1", 3)
    store.add_span(tid, "enqueue", 0.25)
    [record] = store.finish_batch([(tid, [(stage, 0.25)
                                          for stage in STAGES[1:]])])
    assert record is not None and record.completed
    row = store.get(tid)
    assert row["stream_id"] == "s1" and row["seq"] == 3
    assert set(row["spans"]) == set(STAGES)
    assert row["total_seconds"] == pytest.approx(0.25 * len(STAGES))
    assert store.stats() == {"stored": 1, "started": 1, "finished": 1,
                             "evicted": 0}


def test_trace_unknown_stage_rejected():
    store = TraceStore()
    store.begin("t", "s", 0)
    with pytest.raises(ValidationError):
        store.add_span("t", "teleport", 0.1)


def test_trace_ring_evicts_oldest():
    store = TraceStore(capacity=2)
    for i in range(4):
        store.begin(f"t{i}", "s", i)
    assert len(store) == 2
    assert store.get("t0") is None and store.get("t3") is not None
    assert store.stats()["evicted"] == 2
    # Spans for evicted traces are ignored, not an error (the worker may
    # still hold an evicted id under sustained load).
    store.add_span("t0", "classify", 0.1)


def test_trace_rows_filter_and_order():
    store = TraceStore()
    for i in range(3):
        store.begin(f"t{i}", "a" if i < 2 else "b", i)
    store.finish_batch([("t0", [])])
    rows = store.rows(stream_id="a")
    assert [r["trace_id"] for r in rows] == ["t1", "t0"]  # recent first
    assert [r["trace_id"] for r in store.rows(completed_only=True)] == ["t0"]
    assert len(store.rows(limit=1)) == 1


def test_trace_export_restore_round_trip():
    store = TraceStore()
    store.begin("t1", "s", 0)
    store.add_span("t1", "enqueue", 0.5)
    store.finish_batch([("t1", [])])
    clone = TraceStore()
    assert clone.restore_rows(store.export_rows()) == 1
    assert clone.get("t1")["spans"] == {"enqueue": 0.5}
    assert clone.get("t1")["completed"]
    # Malformed rows are skipped, never fatal (old checkpoints).
    assert clone.restore_rows([{"nope": 1}, "junk"]) == 0


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
def test_render_prometheus_counters_gauges_and_labels():
    stats = {
        "processed": 7, "ingested": 9, "streams": 2,
        "queue_depths": {"a": 3, "b": 0},
        "stages": {"classify": {"calls": 2, "items": 8, "seconds": 0.5}},
        "classify_latency": {"p50": 0.01, "p99.9": 0.2},
        "traces": {"started": 9, "finished": 7, "evicted": 0},
    }
    text = render_prometheus(stats)
    parsed = parse_prometheus(text)
    assert parsed["incprofd_processed_total"] == 7.0
    assert parsed["incprofd_streams"] == 2.0
    assert parsed['incprofd_queue_depth{stream="a"}'] == 3.0
    assert parsed['incprofd_stage_seconds_total{stage="classify"}'] == 0.5
    assert parsed['incprofd_classify_latency_seconds{quantile="0.999"}'] == 0.2
    assert parsed["incprofd_traces_finished_total"] == 7.0
    # Text format contract: HELP/TYPE headers and a trailing newline.
    assert "# TYPE incprofd_processed_total counter" in text
    assert text.endswith("\n")


def test_parse_prometheus_rejects_garbage():
    with pytest.raises(ValidationError):
        parse_prometheus("not metrics at all\n")


def test_render_prometheus_non_finite_values_round_trip():
    # Regression: _fmt crashed the whole scrape on NaN/inf (int(nan)
    # raises), so one poisoned stat took down every metric.  The text
    # format has spellings for all three — use them.
    stats = {
        "processed": 3,
        "ingest_rate": float("nan"),
        "queue_depths": {"a": float("inf"), "b": float("-inf")},
    }
    text = render_prometheus(stats)
    assert "NaN" in text and "+Inf" in text and "-Inf" in text
    parsed = parse_prometheus(text)
    assert parsed["incprofd_processed_total"] == 3.0
    assert math.isnan(parsed["incprofd_ingest_rate"])
    assert parsed['incprofd_queue_depth{stream="a"}'] == float("inf")
    assert parsed['incprofd_queue_depth{stream="b"}'] == float("-inf")


@pytest.mark.socket
def test_metrics_http_scrape_survives_nan_stat():
    # End-to-end form of the acceptance criterion: a NaN gauge must not
    # turn /metrics into a 500.
    stats = {"processed": 1, "ingest_rate": float("nan")}
    with MetricsHTTPServer(lambda: render_prometheus(stats),
                           host="127.0.0.1", port=0) as srv:
        with urllib.request.urlopen(srv.url, timeout=10) as resp:
            assert resp.status == 200
            body = resp.read().decode()
    assert math.isnan(parse_prometheus(body)["incprofd_ingest_rate"])


def test_render_prometheus_analytics_gauges():
    stats = {
        "processed": 1,
        "analytics": {
            "streams": 6, "cohorts": 2, "anomalies": 1,
            "drift_events": 0, "cohort_sizes": {"0": 4, "1": 2},
        },
    }
    parsed = parse_prometheus(render_prometheus(stats))
    assert parsed["incprofd_analytics_streams"] == 6.0
    assert parsed["incprofd_analytics_cohorts"] == 2.0
    assert parsed["incprofd_analytics_anomalies"] == 1.0
    assert parsed["incprofd_analytics_drift_events"] == 0.0
    assert parsed['incprofd_analytics_cohort_size{cohort="0"}'] == 4.0
    assert parsed['incprofd_analytics_cohort_size{cohort="1"}'] == 2.0


# ----------------------------------------------------------------------
# self-instrumentation
# ----------------------------------------------------------------------
def test_selfekg_flushes_stage_records_with_self_rank():
    fake = [0.0]
    inst = SelfInstrument(interval=1.0, clock=lambda: fake[0])
    inst.record({"enqueue": 0.2, "classify": 0.1})
    fake[0] = 2.5
    inst.tick()
    records = inst.records
    assert records, "tick must flush completed intervals"
    assert all(r.rank == SELF_RANK for r in records)
    assert {r.hb_id for r in records} <= {i + 1
                                          for i in range(len(STAGES))}


def test_selfekg_concurrent_records_never_violate_ordering():
    """Worker threads record stages concurrently; the accumulator's
    non-decreasing end-time contract must hold (no exception)."""
    inst = SelfInstrument(interval=0.01)

    def hammer(stage):
        for _ in range(200):
            inst.record({stage: 0.0001})

    threads = [threading.Thread(target=hammer, args=(s,))
               for s in STAGES]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    inst.tick()
    assert inst.events == 200 * len(STAGES)


def test_selfekg_keeps_a_bounded_ring_of_records():
    """Five stages beating each second for 10,000 simulated seconds: the
    instrument keeps only the newest SELF_RECORD_RING records, and the
    daemon's stats() carries the event count, no per-record history."""
    fake = [0.0]
    inst = SelfInstrument(interval=1.0, clock=lambda: fake[0])
    laps = {stage: 0.001 for stage in STAGES[:5]}
    for second in range(10_000):
        fake[0] = second + 0.5
        inst.record(laps)
    fake[0] = 10_001.0
    inst.tick()
    records = inst.records
    assert len(records) == SELF_RECORD_RING < 5 * 10_000
    assert records[-1].interval_index == 9_999
    assert inst.events == 5 * 10_000
    server = PhaseMonitorServer(None, ServerConfig(log_level="error"))
    server.selfekg = inst
    assert server.stats()["self_heartbeats"] == {"events": 5 * 10_000}


# ----------------------------------------------------------------------
# phase assignment over heartbeat series
# ----------------------------------------------------------------------
def _series_two_phases():
    from repro.heartbeat.accumulator import HeartbeatRecord

    records = []
    for i in range(12):
        busy = i < 6
        records.append(HeartbeatRecord(
            rank=0, hb_id=1, interval_index=i, time=float(i + 1),
            count=20.0 if busy else 2.0,
            avg_duration=0.01 if busy else 0.3,
            min_duration=None, max_duration=0.4))
    return series_from_records(records, interval=1.0)


def test_phase_assignment_labels_every_interval():
    series = _series_two_phases()
    assignment = phase_assignment(series, kmax=4, seed=0)
    assert len(assignment.phase_sequence()) == series.n_intervals
    assert assignment.k == 2
    # The two behavioural halves land in different phases.
    labels = assignment.phase_sequence()
    assert len(set(labels[:6])) == 1 and len(set(labels[6:])) == 1
    assert labels[0] != labels[-1]


def test_phase_assignment_rejects_empty_series():
    empty = series_from_records([], n_intervals=0)
    with pytest.raises(ValidationError):
        phase_assignment(empty)


# ----------------------------------------------------------------------
# end-to-end over real sockets
# ----------------------------------------------------------------------
@pytest.mark.socket
def test_metrics_http_server_serves_text():
    if not can_bind_loopback():
        pytest.skip("cannot bind loopback sockets here")
    with MetricsHTTPServer(lambda: render_prometheus({"processed": 5}),
                           port=0) as http:
        body = urllib.request.urlopen(http.url, timeout=5).read().decode()
        assert parse_prometheus(body)["incprofd_processed_total"] == 5.0
        health = urllib.request.urlopen(
            http.url.replace("/metrics", "/healthz"), timeout=5)
        assert health.status == 200


@pytest.mark.socket
def test_observability_end_to_end(tmp_path):
    """The acceptance chaos run: N traced streams, mid-run scrapes,
    and the daemon's own heartbeats analysed by its own pipeline."""
    if not can_bind_loopback():
        pytest.skip("cannot bind loopback sockets here")
    generator = SyntheticLoadGenerator()
    analysis = analyze_snapshots(
        generator.stream(0, 24),
        AnalysisConfig(kmax=4, drop_short_final=False))
    template = OnlinePhaseTracker.from_analysis(analysis)
    config = ServerConfig(
        endpoint=Endpoint.tcp("127.0.0.1", 0),
        housekeeping_interval=0.05, self_heartbeat_interval=0.05,
        metrics_port=0, log_level="error")
    n_streams, n_intervals = 3, 10
    reports = {}
    with PhaseMonitorServer(template, config) as server:
        url = server.metrics_http.url

        def publish(i):
            reports[i] = publish_samples(
                server.endpoint, f"obs-{i}",
                generator.stream(i, n_intervals), app="obs", rank=i,
                delay=0.005)

        threads = [threading.Thread(target=publish, args=(i,))
                   for i in range(n_streams)]
        for thread in threads:
            thread.start()
        # Mid-run scrapes: both exposition paths must serve while the
        # daemon is under load.
        mid_http = urllib.request.urlopen(url, timeout=5).read().decode()
        assert "incprofd_ingested_total" in mid_http
        parse_prometheus(mid_http)  # must parse mid-run too
        with PhaseClient(server.endpoint) as client:
            parse_prometheus(client.metrics())
        for thread in threads:
            thread.join()

        with PhaseClient(server.endpoint) as client:
            # (a) every submitted interval's trace id has a span for each
            # stage (no archive on this daemon).
            for i, report in reports.items():
                assert report.error == ""
                assert set(report.trace_ids) == set(range(n_intervals))
                for seq, trace_id in report.trace_ids.items():
                    reply = client.trace(trace_id=trace_id)
                    row = reply.data["traces"][0]
                    assert row["stream_id"] == f"obs-{i}"
                    assert row["seq"] == seq
                    assert row["completed"]
                    assert set(row["spans"]) == STORELESS_SPANS
                    assert row["total_seconds"] >= 0.0
                # Stream-scoped query sees this stream's traces too.
                scoped = client.trace(stream_id=f"obs-{i}",
                                      limit=n_intervals).data["traces"]
                assert len(scoped) == n_intervals

            # (b) Prometheus output parses and agrees with wire stats
            # (quiescent: all streams drained before the scrape).
            stats = client.stats().data
            parsed = parse_prometheus(client.metrics())
            assert parsed["incprofd_processed_total"] == float(
                stats["processed"])
            parsed_http = parse_prometheus(
                urllib.request.urlopen(url, timeout=5).read().decode())
            assert parsed_http["incprofd_processed_total"] == float(
                stats["processed"])
            assert stats["traces"]["finished"] >= n_streams * n_intervals
            assert stats["self_heartbeats"]["events"] > 0

        # (c) the daemon's self-heartbeat records round-trip through CSV
        # into a non-empty phase assignment of incprofd itself.
        records = server.selfekg.records
        assert records, "housekeeping should have flushed self-heartbeats"
    csv_path = tmp_path / "incprofd-self.csv"
    with CSVSink(csv_path) as sink:
        for record in records:
            sink(record)
    loaded = read_csv_records(csv_path)
    assert loaded and all(r.rank == SELF_RANK for r in loaded)
    series = series_from_records(loaded, rank=SELF_RANK,
                                 labels=SELF_STAGE_LABELS)
    assignment = phase_assignment(series, kmax=3, seed=0)
    assert assignment.k >= 1
    assert len(assignment.phase_sequence()) == series.n_intervals
    assert series.n_intervals > 0


@pytest.mark.socket
def test_trace_survives_checkpoint_restart(tmp_path):
    if not can_bind_loopback():
        pytest.skip("cannot bind loopback sockets here")
    generator = SyntheticLoadGenerator()
    config = ServerConfig(endpoint=Endpoint.tcp("127.0.0.1", 0),
                          checkpoint_dir=str(tmp_path / "ckpt"),
                          self_heartbeat_interval=None, log_level="error")
    with PhaseMonitorServer(None, config) as server:
        report = publish_samples(server.endpoint, "s1",
                                 generator.stream(0, 4), app="x", rank=0)
        assert report.error == ""
        trace_ids = dict(report.trace_ids)
    # stop() wrote a final checkpoint; a fresh daemon restores the traces.
    with PhaseMonitorServer(None, config) as revived:
        with PhaseClient(revived.endpoint) as client:
            for seq, trace_id in trace_ids.items():
                row = client.trace(trace_id=trace_id).data["traces"][0]
                assert row["seq"] == seq
                assert set(row["spans"]) == STORELESS_SPANS


def wait_for_traces(server, count, timeout=10.0):
    """Block until ``count`` traces are complete.  A trace closes after
    its stream commits, so ``bye`` can answer just before the last tick
    has fed its sinks."""
    deadline = time.monotonic() + timeout
    while (server.traces.stats()["finished"] < count
           and time.monotonic() < deadline):
        time.sleep(0.01)
    return server.traces.rows(completed_only=True)


@pytest.mark.socket
def test_every_sink_reports_the_same_stage_seconds(tmp_path):
    """One lap clock feeds the stage ledger, the self-heartbeats and the
    traces, so all three report the same seconds for every stage."""
    if not can_bind_loopback():
        pytest.skip("cannot bind loopback sockets here")
    generator = SyntheticLoadGenerator()
    analysis = analyze_snapshots(
        generator.stream(0, 24),
        AnalysisConfig(kmax=4, drop_short_final=False))
    template = OnlinePhaseTracker.from_analysis(analysis)
    config = ServerConfig(
        endpoint=Endpoint.tcp("127.0.0.1", 0),
        store_dir=str(tmp_path / "store"), housekeeping_interval=0.05,
        self_heartbeat_interval=0.05, log_level="error")
    n_streams, n_intervals = 3, 30
    reports = {}
    with PhaseMonitorServer(template, config) as server:

        def publish(i):
            reports[i] = publish_samples(
                server.endpoint, f"sink-{i}",
                generator.stream(i, n_intervals), app="sink", rank=i)

        threads = [threading.Thread(target=publish, args=(i,))
                   for i in range(n_streams)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        traces = wait_for_traces(server, n_streams * n_intervals)
        # Quiet: let a whole self-heartbeat interval pass with no beat,
        # then flush it.
        time.sleep(0.2)
        server.selfekg.tick()
        ledger = server.stats()["stages"]
        records = server.selfekg.records
    assert all(report.error == "" for report in reports.values())
    assert len(traces) == n_streams * n_intervals
    for row in traces:
        assert set(row["spans"]) == set(STAGES)
    assert set(ledger) == set(STAGES)
    for stage in STAGES:
        seconds = ledger[stage]["seconds"]
        beats = sum(r.count * r.avg_duration for r in records
                    if SELF_STAGE_LABELS[r.hb_id] == stage)
        spans = sum(row["spans"][stage] for row in traces)
        assert seconds > 0.0
        assert beats == pytest.approx(seconds, rel=1e-6), stage
        assert spans == pytest.approx(seconds, rel=1e-6), stage
        assert 0.0 < ledger[stage]["min"] <= ledger[stage]["max"] <= seconds


@pytest.mark.socket
def test_block_wait_counts_once_in_a_trace(monkeypatch):
    """A put that waits before admission shows the wait in ``enqueue``
    alone: ``dequeue`` runs from admission to the classify tick."""
    if not can_bind_loopback():
        pytest.skip("cannot bind loopback sockets here")
    admit = BoundedStreamQueue.put

    def slow_put(self, item, timeout=None):
        time.sleep(0.2)
        return admit(self, item, timeout=timeout)

    monkeypatch.setattr(BoundedStreamQueue, "put", slow_put)
    generator = SyntheticLoadGenerator()
    config = ServerConfig(endpoint=Endpoint.tcp("127.0.0.1", 0),
                          self_heartbeat_interval=None, log_level="error")
    with PhaseMonitorServer(None, config) as server:
        report = publish_samples(server.endpoint, "slow",
                                 generator.stream(0, 4), app="x")
        traces = wait_for_traces(server, 4)
    assert report.error == ""
    assert len(traces) == 4
    for row in traces:
        assert row["spans"]["enqueue"] >= 0.2
        assert row["spans"]["dequeue"] < 0.1


@pytest.mark.socket
def test_untraced_snapshot_gets_server_minted_trace():
    if not can_bind_loopback():
        pytest.skip("cannot bind loopback sockets here")
    generator = SyntheticLoadGenerator()
    config = ServerConfig(endpoint=Endpoint.tcp("127.0.0.1", 0),
                          self_heartbeat_interval=None, log_level="error")
    with PhaseMonitorServer(None, config) as server:
        with PhaseClient(server.endpoint) as client:
            client.hello("bare", app="x")
            reply = client.snapshot("bare", 0, generator.stream(0, 1)[0])
            minted = reply.data["trace"]
            assert minted  # server minted an id for the untraced publisher
            client.bye("bare")
            row = client.trace(trace_id=minted).data["traces"][0]
            assert row["completed"]


@pytest.mark.socket
def test_cli_metrics_and_top_verbs(capsys):
    if not can_bind_loopback():
        pytest.skip("cannot bind loopback sockets here")
    from repro.cli import main as cli_main

    config = ServerConfig(endpoint=Endpoint.tcp("127.0.0.1", 0),
                          self_heartbeat_interval=None, log_level="error")
    with PhaseMonitorServer(None, config) as server:
        to = f"{server.endpoint.host}:{server.endpoint.port}"
        assert cli_main(["metrics", "--to", to]) == 0
        out = capsys.readouterr().out
        assert parse_prometheus(out)["incprofd_processed_total"] == 0.0
        assert cli_main(["top", "--to", to, "--iterations", "2",
                         "--refresh", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "incprofd @" in out and "rate" in out
    assert cli_main(["metrics", "--to", to]) == 1  # daemon gone: error path
