"""``incprofd`` end to end: ingestion, classification, backpressure.

Everything here binds real sockets (loopback TCP or unix); the whole
module carries the ``socket`` marker so restricted environments can
deselect it with ``-m "not socket"``.
"""

import io
import json
import socket
import sys
import threading
import time

import pytest

from repro.apps import get_app
from repro.apps.synthetic import PhaseSpec, Synthetic
from repro.cli import main as cli_main
from repro.core.online import NOVEL, OnlinePhaseTracker
from repro.core.pipeline import AnalysisConfig, analyze_snapshots
from repro.incprof.session import Session, SessionConfig
from repro.service import (
    Endpoint,
    PhaseClient,
    PhaseMonitorServer,
    ServerConfig,
    SyntheticLoadGenerator,
    publish_samples,
    publish_session,
)
from repro.service.exposition import parse_prometheus, render_prometheus
from repro.service.protocol import Control, Hello, read_message, write_message
from repro.util.errors import StreamConflictError, UnknownStreamError
from repro.util.jsonlog import JsonLogger

pytestmark = pytest.mark.socket


def can_bind_loopback() -> bool:
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
        return True
    except OSError:
        return False


if not can_bind_loopback():  # pragma: no cover - restricted environments
    pytest.skip("cannot bind loopback sockets here", allow_module_level=True)


def make_config(**overrides) -> ServerConfig:
    defaults = dict(endpoint=Endpoint.tcp("127.0.0.1", 0),
                    queue_capacity=64, policy="block", block_timeout=10.0,
                    idle_timeout=30.0, housekeeping_interval=0.05)
    defaults.update(overrides)
    return ServerConfig(**defaults)


# ----------------------------------------------------------------------
# offline training + simulated fleet (module-scoped: several tests share)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trained_template():
    """Tracker template trained on one offline synthetic run."""
    train = Session(get_app("synthetic"), SessionConfig(ranks=1, seed=111)).run()
    analysis = analyze_snapshots(train.samples(0))
    return analysis, OnlinePhaseTracker.from_analysis(analysis)


@pytest.fixture(scope="module")
def fleet_run():
    """A 4-rank deployment run of the same workload (new seed)."""
    return Session(get_app("synthetic"), SessionConfig(ranks=4, seed=777)).run()


# ----------------------------------------------------------------------
# the acceptance demo: train offline, stream a fleet, verify
# ----------------------------------------------------------------------
def test_fleet_demo_end_to_end(trained_template, fleet_run):
    """4 concurrent ranks through the daemon: per-stream phase sequences
    match the offline tracker, throughput is measured, nothing dropped."""
    _analysis, template = trained_template

    # What each stream *should* classify to, computed offline.
    expected = {}
    for rank_result in fleet_run.per_rank:
        local = template.spawn(zero_start=True)
        for snap in rank_result.samples:
            local.observe_snapshot(snap)
        expected[rank_result.rank] = local.phase_sequence()

    with PhaseMonitorServer(template, make_config()) as server:
        reports = publish_session(server.endpoint, fleet_run,
                                  stream_prefix="fleet")
        stats = server.stats()
        status = server.fleet_status()

    assert len(reports) == 4
    total_sent = 0
    for rank_result in fleet_run.per_rank:
        report = reports[f"fleet-r{rank_result.rank}"]
        assert report.error == ""
        assert report.drained
        assert report.sent == len(rank_result.samples)
        assert report.processed == report.sent
        # The server-side classification equals the offline one, exactly.
        assert report.phase_sequence == expected[rank_result.rank]
        total_sent += report.sent

    # Same workload, same model: the fleet tracks the trained phases.
    novel_total = sum(r.novel for r in reports.values())
    assert novel_total / total_sent < 0.15

    # Service self-metrics: measured throughput, zero drops under the
    # default blocking policy, everything ingested got classified.
    assert stats["processed"] == total_sent
    assert stats["ingested"] == total_sent
    assert stats["drops"] == 0
    assert stats["ingest_rate"] > 0
    assert stats["classify_latency"]["p99"] >= 0
    # Streams said bye, so the live registry is empty but the fleet view
    # retains their final stats.
    assert status["n_streams"] == 0
    assert len(status["finished"]) == 4


def test_anomalous_stream_flagged_novel(trained_template):
    """A run with an unseen phase produces novel intervals server-side."""
    _analysis, template = trained_template
    app = Synthetic()
    rogue_script = list(app.ground_truth_phases())
    rogue_script.insert(
        2, PhaseSpec("rogue", 15.0, (("garbage_collect", 0.7, 3.0),))
    )
    rogue_run = Session(Synthetic(rogue_script),
                        SessionConfig(ranks=1, seed=555)).run()

    with PhaseMonitorServer(template, make_config()) as server:
        report = publish_samples(server.endpoint, "rogue-r0",
                                 rogue_run.samples(0), app="synthetic")
        status = server.fleet_status()

    assert report.drained and report.processed == report.sent
    assert report.novel > 0
    assert NOVEL in report.phase_sequence
    assert status["service"]["novel"] == report.novel


# ----------------------------------------------------------------------
# protocol/server behaviour over real connections
# ----------------------------------------------------------------------
def test_ping_stats_and_unknown_stream():
    with PhaseMonitorServer(None, make_config()) as server:
        with PhaseClient(server.endpoint) as client:
            assert client.ping().ok
            stats = client.stats()
            assert stats.ok and stats.data["streams"] == 0
            # snapshot before hello is a typed error, not a hang/crash
            sample = SyntheticLoadGenerator().stream(0, 1)[0]
            with pytest.raises(UnknownStreamError, match="ghost"):
                client.snapshot("ghost", 0, sample)
            # check=False keeps the raw-reply escape hatch working
            reply = client.snapshot("ghost", 0, sample, check=False)
            assert not reply.ok and "ghost" in reply.error
            assert reply.data["code"] == "unknown-stream"


def test_duplicate_hello_rejected():
    with PhaseMonitorServer(None, make_config()) as server:
        with PhaseClient(server.endpoint) as client:
            assert client.hello("twin").ok
            with pytest.raises(StreamConflictError, match="already registered"):
                client.hello("twin")
            # resume=True makes the handshake idempotent instead
            reply = client.hello("twin", resume=True)
            assert reply.ok and reply.data["resumed"] is True


def test_unix_socket_endpoint(tmp_path):
    endpoint = Endpoint.unix(str(tmp_path / "incprofd.sock"))
    with PhaseMonitorServer(None, make_config(endpoint=endpoint)) as server:
        assert server.endpoint.kind == "unix"
        with PhaseClient(server.endpoint) as client:
            assert client.ping().ok


def test_malformed_frame_gets_error_reply_and_connection_survives():
    with PhaseMonitorServer(None, make_config()) as server:
        sock = server.endpoint.connect()
        fh = sock.makefile("rwb")
        # A well-framed but undecodable payload: error reply, then the
        # same connection keeps working.
        payload = b"{broken json"
        fh.write(len(payload).to_bytes(4, "big") + payload)
        fh.flush()
        reply = read_message(fh)
        assert not reply.ok and "JSON" in reply.error
        write_message(fh, Control(command="ping"))
        assert read_message(fh).ok
        fh.close()
        sock.close()
        deadline = time.monotonic() + 2.0
        while server.metrics.protocol_errors < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.metrics.protocol_errors == 1


def test_json_snapshot_gets_error_reply_and_connection_survives():
    """A snapshot sent as JSON is refused, not admitted: the daemon
    answers ``ok: false`` naming binary frames and the connection keeps
    serving."""
    import base64

    from repro.gprof.gmon import GmonData, dumps_gmon

    with PhaseMonitorServer(None, make_config()) as server:
        sock = server.endpoint.connect()
        fh = sock.makefile("rwb")
        write_message(fh, Hello(stream_id="s"))
        assert read_message(fh).ok
        gmon = base64.b64encode(dumps_gmon(GmonData(hist={"a": 1}))).decode()
        payload = json.dumps({"v": 1, "type": "snapshot", "stream_id": "s",
                              "seq": 0, "gmon": gmon}).encode()
        fh.write(len(payload).to_bytes(4, "big") + payload)
        fh.flush()
        reply = read_message(fh)
        assert not reply.ok and "binary frame" in reply.error
        write_message(fh, Control(command="ping"))
        assert read_message(fh).ok
        fh.close()
        sock.close()
        assert server.registry.get("s").enqueued == 0


def test_shutdown_via_control():
    server = PhaseMonitorServer(None, make_config())
    server.start()
    with PhaseClient(server.endpoint) as client:
        assert client.shutdown().ok
    assert server.wait(timeout=5.0)


# ----------------------------------------------------------------------
# backpressure policies under a deliberately slow classify thread
# ----------------------------------------------------------------------
def slow_server(policy: str) -> PhaseMonitorServer:
    server = PhaseMonitorServer(None, make_config(
        policy=policy, queue_capacity=2, block_timeout=10.0))
    original = server._classify_batch

    def dawdling(state, batch):
        time.sleep(0.05 * len(batch))
        original(state, batch)

    server._classify_batch = dawdling
    return server


def test_reject_policy_pushes_back_on_publisher():
    generator = SyntheticLoadGenerator()
    with slow_server("reject") as server:
        report = publish_samples(server.endpoint, "hot",
                                 generator.stream(0, 12))
        stats = server.stats()
    assert report.rejected > 0
    assert report.accepted + report.rejected == report.sent
    assert stats["rejected"] == report.rejected
    assert stats["processed"] == report.accepted


def test_drop_oldest_policy_sheds_load():
    generator = SyntheticLoadGenerator()
    with slow_server("drop-oldest") as server:
        report = publish_samples(server.endpoint, "hot",
                                 generator.stream(0, 12))
        stats = server.stats()
    assert report.dropped_oldest > 0
    assert stats["dropped_oldest"] == report.dropped_oldest
    assert stats["processed"] == report.sent - report.dropped_oldest
    assert report.processed == report.sent - report.dropped_oldest


def test_block_policy_is_lossless_under_load():
    generator = SyntheticLoadGenerator()
    with slow_server("block") as server:
        report = publish_samples(server.endpoint, "hot",
                                 generator.stream(0, 12))
        stats = server.stats()
    assert report.rejected == 0 and report.dropped_oldest == 0
    assert report.processed == report.sent
    assert stats["drops"] == 0


# ----------------------------------------------------------------------
# the classify thread: a failing tick, and a concurrency stress
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def synthetic_template():
    generator = SyntheticLoadGenerator()
    analysis = analyze_snapshots(generator.stream(0, 24),
                                 AnalysisConfig(kmax=4, drop_short_final=False))
    return generator, OnlinePhaseTracker.from_analysis(analysis)


def test_failed_classify_tick_is_survived(synthetic_template):
    generator, template = synthetic_template
    log = io.StringIO()
    server = PhaseMonitorServer(
        template, make_config(),
        logger=JsonLogger("incprofd", level="info", stream=log))
    n = 12
    with server:
        with PhaseClient(server.endpoint) as client:
            client.hello("bad")
            tracker = server.registry.get("bad").tracker
            real = tracker.delta_vector
            injected = threading.Event()

            def fails_once(snapshot):
                if not injected.is_set():
                    injected.set()
                    raise RuntimeError("injected classify failure")
                return real(snapshot)
            tracker.delta_vector = fails_once
            bad = generator.stream(9, n)
            client.snapshot("bad", 0, bad[0])
            deadline = time.monotonic() + 5.0
            while (server.stats()["classify_failures"] < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert server.stats()["classify_failures"] == 1
            # The other streams publish while "bad" goes on.
            load = {}
            others = threading.Thread(target=lambda: load.update(
                run=generator.run(server.endpoint, n_streams=4,
                                  n_intervals=n)))
            others.start()
            for seq in range(1, n):
                client.snapshot("bad", seq, bad[seq])
            t0 = time.monotonic()
            bye = client.bye("bad")
            bye_seconds = time.monotonic() - t0
            others.join(timeout=30.0)
            assert not others.is_alive()
        stats = server.stats()
    assert bye.data["drained"] is True
    assert bye_seconds < 2.0  # the block timeout is 10 s
    assert bye.data["processed"] == n
    assert len(bye.data["phase_sequence"]) == n - 1
    run = load["run"]
    assert run.sent == 4 * n and run.processed == run.sent
    for report in run.streams.values():
        assert report.drained and len(report.phase_sequence) == n
    assert stats["ingest_errors"] == 1
    assert stats["processed"] == run.sent + n - 1
    exported = parse_prometheus(render_prometheus(stats))
    assert exported["incprofd_classify_failures_total"] == 1.0
    records = [json.loads(line) for line in log.getvalue().splitlines()]
    failed = [r for r in records if r["event"] == "classify-tick-failed"]
    assert len(failed) == 1
    assert failed[0]["lost_intervals"] == {"bad": 1}
    assert "Traceback" in failed[0]["traceback"]
    assert "injected classify failure" in failed[0]["traceback"]


def test_classify_thread_stress_matches_in_process_trackers(
        synthetic_template, tmp_path):
    """8 connections x 4 streams against one classify thread while the
    checkpointer takes every stream's work_lock, with thread switches
    forced as often as the interpreter allows."""
    generator, template = synthetic_template
    config = make_config(checkpoint_dir=str(tmp_path / "ckpt"),
                         checkpoint_interval=0.005,
                         housekeeping_interval=0.005, refit_interval=0.0)
    n_conns, per_conn, n = 8, 4, 48
    streams = {f"c{c}-s{k}": generator.stream(c * per_conn + k, n)
               for c in range(n_conns) for k in range(per_conn)}
    byes = {}
    errors = []

    def publish(conn: int) -> None:
        ids = [f"c{conn}-s{k}" for k in range(per_conn)]
        try:
            with PhaseClient(server.endpoint) as client:
                for sid in ids:
                    client.hello(sid)
                for seq in range(n):
                    for sid in ids:
                        client.snapshot(sid, seq, streams[sid][seq])
                for sid in ids:
                    byes[sid] = client.bye(sid).data
        except Exception as exc:  # surfaced by the assertion below
            errors.append(repr(exc))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with PhaseMonitorServer(template, config) as server:
            threads = [threading.Thread(target=publish, args=(c,))
                       for c in range(n_conns)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            stats = server.stats()
            checkpoints = server.checkpoints.writes
    finally:
        sys.setswitchinterval(previous)
    assert errors == []
    assert checkpoints > 1
    assert stats["processed"] == len(streams) * n
    assert stats["classify_failures"] == 0
    for sid, series in streams.items():
        reference = template.spawn(zero_start=True,
                                   adaptive=config.adaptive_config())
        for snap in series:
            reference.observe_snapshot(snap)
        assert byes[sid]["drained"] is True
        assert byes[sid]["processed"] == n
        assert byes[sid]["phase_sequence"] == reference.phase_sequence()


# ----------------------------------------------------------------------
# stream lifecycle + heartbeat transport
# ----------------------------------------------------------------------
@pytest.mark.parametrize("period", [0.01, float("nan"), float("inf")])
def test_non_finite_period_does_not_poison_the_stream(period):
    """A v2 snapshot whose header carries a NaN or infinite sample
    period counts as one ingest error and leaves the stream as if it
    had never arrived: the adaptive centroids stay finite, and the
    later intervals get the labels of a stream that never saw it."""
    import struct

    import numpy as np

    from repro.gprof.gmon import GmonBlob, GmonData, dumps_gmon

    template = OnlinePhaseTracker(functions=["a", "b", "c"],
                                  centroids=np.eye(3), gates=np.full(3, 0.5))
    first = bytearray(dumps_gmon(GmonData(hist={"a": 100}, timestamp=1.0)))
    first[7:15] = struct.pack("<d", period)  # after magic and version
    later = [GmonData(hist={"a": 100, "b": 100 * i}, timestamp=float(i + 1))
             for i in range(1, 6)]
    config = make_config(refit_interval=0.0)
    with PhaseMonitorServer(template, config) as server:
        with PhaseClient(server.endpoint) as client:
            client.hello("s")
            tracker = server.registry.get("s").tracker
            client.snapshot("s", 0, GmonBlob(bytes(first)))
            for seq, snap in enumerate(later, start=1):
                client.snapshot("s", seq, GmonBlob(dumps_gmon(snap)))
            bye = client.bye("s")
        stats = server.stats()
    assert bye.data["drained"] is True
    labels = bye.data["phase_sequence"]
    assert np.isfinite(tracker.centroids).all()
    if period == 0.01:
        assert labels == [0, 1, 1, 1, 1, 1]
        assert stats["ingest_errors"] == 0
        return
    assert stats["ingest_errors"] == 1
    fresh = template.spawn(zero_start=True, adaptive=config.adaptive_config())
    for snap in later:
        fresh.observe_snapshot(snap)
    assert labels == fresh.phase_sequence()


def test_idle_stream_expires():
    generator = SyntheticLoadGenerator()
    with PhaseMonitorServer(None, make_config(idle_timeout=0.15)) as server:
        with PhaseClient(server.endpoint) as client:
            client.hello("sleepy")
            client.snapshot("sleepy", 0, generator.stream(0, 1)[0])
            deadline = time.monotonic() + 5.0
            while len(server.registry) and time.monotonic() < deadline:
                time.sleep(0.02)
            status = server.fleet_status()
    assert status["n_streams"] == 0
    assert status["expired_total"] == 1
    assert any(r["stream_id"] == "sleepy" for r in status["finished"])


def test_heartbeats_flow_through_ldms_sampler():
    """Heartbeat rows reach LDMS subscribers via the housekeeping sampler."""
    hb_run = Session(
        get_app("synthetic"),
        SessionConfig(ranks=1, seed=111, collect_profiles=False,
                      heartbeat_sites=_synthetic_bindings()),
    ).run()
    records = hb_run.heartbeat_records(0)
    assert records
    delivered = []
    with PhaseMonitorServer(None, make_config()) as server:
        server.transport.subscribe(lambda batch: delivered.extend(batch))
        with PhaseClient(server.endpoint) as client:
            client.hello("hb-stream")
            reply = client.heartbeats("hb-stream", records)
            assert reply.ok and reply.data["accepted"] == len(records)
            deadline = time.monotonic() + 5.0
            while len(delivered) < len(records) and time.monotonic() < deadline:
                time.sleep(0.02)
    assert len(delivered) == len(records)
    assert server.metrics.heartbeats == len(records)


def _synthetic_bindings():
    from repro.heartbeat.instrument import bindings_from_sites

    return bindings_from_sites(get_app("synthetic").manual_sites)


# ----------------------------------------------------------------------
# load generator + CLI selftest
# ----------------------------------------------------------------------
def test_synthetic_load_many_streams():
    generator = SyntheticLoadGenerator()
    with PhaseMonitorServer(None, make_config()) as server:
        load = generator.run(server.endpoint, n_streams=8, n_intervals=10)
        stats = server.stats()
    assert load.sent == 80
    assert load.processed == 80
    assert load.rejected == 0
    assert load.throughput > 0
    assert stats["connections"] == 8


def test_cli_serve_selftest(capsys):
    assert cli_main(["serve", "--selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest PASS" in out
    assert "intervals/s" in out
