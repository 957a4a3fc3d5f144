"""Chaos suite: fault injection, crash recovery, and the no-loss /
no-duplicate guarantees.

Every scenario here asserts the same two invariants the resilient
client + checkpointing design exists for:

1. **No state loss** — every interval the publisher produced ends up
   classified exactly once, even across dropped replies, killed
   connections, corrupt frames, and a ``kill -9``'d daemon.
2. **No duplicate classification** — the resume handshake
   (``hello(resume=True)`` → ``resume_from``) replays only what the
   server never consumed, so the phase timeline of a faulty run is
   *identical* to an uninterrupted one.

The headline acceptance test SIGKILLs a real ``incprof serve``
subprocess mid-stream, restarts it against the same ``--checkpoint-dir``,
and compares fleet phase counts with an uninterrupted baseline.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import (
    AnalysisConfig,
    ConnectionLostError,
    OnlinePhaseTracker,
    RetryExhaustedError,
    analyze_snapshots,
    save_model,
)
from repro.service import (
    Endpoint,
    FaultInjector,
    FlakyEndpoint,
    PhaseClient,
    PhaseMonitorServer,
    RetryPolicy,
    ServerConfig,
    SyntheticLoadGenerator,
    publish_samples,
)

pytestmark = pytest.mark.socket

FAST_RETRY = RetryPolicy(base_delay=0.01, max_delay=0.1, request_timeout=5.0)


def make_config(**overrides) -> ServerConfig:
    defaults = dict(endpoint=Endpoint.tcp("127.0.0.1", 0),
                    queue_capacity=64, policy="block", block_timeout=10.0,
                    idle_timeout=30.0, housekeeping_interval=0.05)
    defaults.update(overrides)
    return ServerConfig(**defaults)


@pytest.fixture(scope="module")
def trained():
    gen = SyntheticLoadGenerator()
    analysis = analyze_snapshots(gen.stream(0, 24), AnalysisConfig(kmax=4))
    return gen, OnlinePhaseTracker.from_analysis(analysis)


def clean_phase_sequence(template, samples):
    """The ground-truth classification of ``samples``, no service at all."""
    tracker = template.spawn(zero_start=True)
    return [t.phase_id for t in
            (tracker.observe_snapshot(s) for s in samples) if t is not None]


# ----------------------------------------------------------------------
# connection-level faults, in-process daemon
# ----------------------------------------------------------------------
@pytest.mark.parametrize("inject", [
    lambda f: f.close_every(7),            # connection killed before reply
    lambda f: f.corrupt_every(9),          # undecodable reply frame
    lambda f: f.close_every(6, limit=2).corrupt_every(11, limit=2),
])
def test_faulty_run_classifies_identically(trained, inject):
    gen, template = trained
    samples = gen.stream(5, 40)
    expected = clean_phase_sequence(template, samples)

    faults = inject(FaultInjector())
    with PhaseMonitorServer(template, make_config(), faults=faults) as server:
        report = publish_samples(server.endpoint, "chaos", samples,
                                 retry=FAST_RETRY)
    assert faults.injected > 0, "scenario injected nothing"
    assert report.error == "" and report.drained
    assert report.reconnects >= 1
    # no loss, no duplicates: the timeline matches the clean run exactly
    assert report.processed == len(samples)
    assert report.phase_sequence == expected


def test_dropped_reply_is_not_reclassified(trained):
    """A DROP fault swallows the reply *after* the server processed the
    snapshot.  The client's deadline expires, it reconnects, and the
    resume handshake fast-forwards past the already-consumed interval
    instead of resending it."""
    gen, template = trained
    samples = gen.stream(6, 20)
    expected = clean_phase_sequence(template, samples)

    faults = FaultInjector().drop_every(8, limit=2)
    retry = RetryPolicy(base_delay=0.01, max_delay=0.1, request_timeout=0.5)
    with PhaseMonitorServer(template, make_config(), faults=faults) as server:
        report = publish_samples(server.endpoint, "drop", samples, retry=retry)
    assert faults.injected == 2
    assert report.reconnects >= 2
    assert report.processed == len(samples)
    assert report.phase_sequence == expected  # each interval exactly once


def test_delay_fault_rides_on_deadline(trained):
    gen, template = trained
    samples = gen.stream(7, 12)
    faults = FaultInjector().delay_every(5, delay=0.05)
    with PhaseMonitorServer(template, make_config(), faults=faults) as server:
        report = publish_samples(server.endpoint, "slowpoke", samples,
                                 retry=FAST_RETRY)
    assert report.drained and report.processed == len(samples)


def test_flaky_connect_backoff_then_success(trained):
    _, template = trained
    with PhaseMonitorServer(template, make_config()) as server:
        flaky = FlakyEndpoint(server.endpoint, fail_connects=3)
        client = PhaseClient(flaky, retry=FAST_RETRY)
        assert client.ping().ok
        assert client.connect_retries == 3
        client.close()


def test_retry_budget_exhaustion_is_typed():
    # nothing listens on this port
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    policy = RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.02,
                         connect_timeout=0.2)
    with pytest.raises(RetryExhaustedError) as info:
        PhaseClient(Endpoint.tcp("127.0.0.1", dead_port), retry=policy)
    assert info.value.attempts == 2


def test_non_idempotent_request_raises_instead_of_resending(trained):
    """Snapshot sends must never be blindly retried — the tool refuses
    and surfaces ConnectionLostError so the publisher resumes properly."""
    _, template = trained
    faults = FaultInjector().close_every(1, limit=1)
    with PhaseMonitorServer(template, make_config(), faults=faults) as server:
        client = PhaseClient(server.endpoint, retry=FAST_RETRY)
        client.hello("one")
        sample = SyntheticLoadGenerator().stream(0, 1)[0]
        with pytest.raises(ConnectionLostError):
            client.snapshot("one", 0, sample)
        client.close()


# ----------------------------------------------------------------------
# in-process restart: checkpoint restore + client resume
# ----------------------------------------------------------------------
def test_restart_resume_loses_nothing(trained, tmp_path):
    gen, template = trained
    samples = gen.stream(8, 30)
    expected = clean_phase_sequence(template, samples)

    config = make_config(checkpoint_dir=str(tmp_path), checkpoint_interval=0.1)
    server = PhaseMonitorServer(template, config)
    server.start()
    endpoint = server.endpoint
    client = PhaseClient(endpoint, retry=FAST_RETRY)
    client.hello("s", resume=True)
    for i in range(17):
        client.snapshot("s", i, samples[i])
    client.close()
    time.sleep(0.3)  # let a periodic checkpoint capture the consumed work
    server.stop()    # final checkpoint on shutdown

    restarted = PhaseMonitorServer(
        template, make_config(endpoint=endpoint, checkpoint_dir=str(tmp_path),
                              checkpoint_interval=0.1))
    restarted.start()
    assert restarted.restored_streams == ["s"]
    client = PhaseClient(restarted.endpoint, retry=FAST_RETRY)
    reply = client.hello("s", resume=True)
    assert reply.data["resumed"] is True
    for i in range(int(reply.data["resume_from"]), len(samples)):
        client.snapshot("s", i, samples[i])
    bye = client.bye("s")
    client.close()
    restarted.stop()

    assert bye.data["processed"] == len(samples)
    assert [int(p) for p in bye.data["phase_sequence"]] == expected


# ----------------------------------------------------------------------
# the acceptance test: kill -9 a real daemon mid-stream
# ----------------------------------------------------------------------
def free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def spawn_daemon(model: Path, ckpt: Path, port: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    # The daemon's log goes to a file next to its checkpoints: an unread
    # pipe would leak and could fill up and block the daemon's writes.
    with open(ckpt.parent / "daemon.log", "ab") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--model", str(model),
             "--port", str(port), "--checkpoint-dir", str(ckpt),
             "--checkpoint-interval", "0.1"],
            env=env, stdout=log, stderr=subprocess.STDOUT)
    endpoint = Endpoint.tcp("127.0.0.1", port)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        try:
            with PhaseClient(endpoint,
                             retry=RetryPolicy(max_attempts=1,
                                               connect_timeout=0.5)) as probe:
                if probe.ping().ok:
                    return proc
        except Exception:
            time.sleep(0.1)
    proc.kill()
    proc.wait(timeout=10)
    raise RuntimeError("daemon did not come up")


@pytest.mark.slow
def test_sigkill_mid_stream_recovers_with_identical_fleet_counts(
        trained, tmp_path):
    """SIGKILL the daemon mid-stream; restart against the same
    --checkpoint-dir; the client's retry/resume finishes the run and the
    fleet phase counts equal an uninterrupted run's."""
    gen, template = trained
    samples = gen.stream(9, 40)
    expected = clean_phase_sequence(template, samples)

    model = tmp_path / "chaos.ipm"
    save_model(template, model)
    ckpt = tmp_path / "ckpt"
    port = free_port()
    endpoint = Endpoint.tcp("127.0.0.1", port)

    proc = spawn_daemon(model, ckpt, port)
    try:
        client = PhaseClient(endpoint, retry=FAST_RETRY)
        client.hello("victim", resume=True)
        for i in range(20):
            client.snapshot("victim", i, samples[i])
        # Checkpoints ride the daemon's housekeeping tick (0.5 s default in
        # the CLI); wait a couple of ticks so one captures the consumed work.
        time.sleep(1.2)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)

        restarted = spawn_daemon(model, ckpt, port)
        try:
            # the old connection is dead; reconnect + resume handshake
            with pytest.raises(ConnectionLostError):
                client.snapshot("victim", 20, samples[20])
            client.reconnect()
            reply = client.hello("victim", resume=True)
            assert reply.data["resumed"] is True
            start = int(reply.data["resume_from"])
            # kill -9 loses at most one checkpoint interval, never admits
            # work it didn't durably consume
            assert 0 < start <= 20
            for i in range(start, len(samples)):
                client.snapshot("victim", i, samples[i])
            bye = client.bye("victim")
            client.close()

            assert bye.data["processed"] == len(samples)
            got = [int(p) for p in bye.data["phase_sequence"]]
            assert got == expected

            # fleet view agrees: occupancy equals the uninterrupted run's
            with PhaseClient(endpoint) as viewer:
                status = viewer.fleet_status().data
            occupancy = {int(k): v["intervals"]
                         for k, v in status["phase_occupancy"].items()}
            clean_counts = {}
            for p in expected:
                clean_counts[p] = clean_counts.get(p, 0) + 1
            assert occupancy == clean_counts
        finally:
            restarted.kill()
            restarted.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


# ----------------------------------------------------------------------
# fleet chaos: SIGKILL one worker of a sharded fleet under live traffic
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_fleet_sigkill_rebalances_and_resumes_on_survivors(trained, tmp_path):
    """The fleet acceptance test: two real worker subprocesses behind a
    proxy router; one is SIGKILLed mid-stream.  The supervisor evicts it
    (``max_restarts=0``), rebalances the ring, and migrates its
    checkpointed streams; every publisher resumes on a survivor through
    the normal routing replies and finishes with a drained stream, a
    monotone model-version sequence, and at most one checkpoint interval
    re-sent (never lost)."""
    from repro.fleet import FleetConfig, FleetRouter, RouterConfig, WorkerSupervisor

    gen, template = trained
    model = tmp_path / "fleet.ipm"
    save_model(template, model)
    n_streams, n_intervals = 4, 30
    fleet_config = FleetConfig(
        root=str(tmp_path / "fleet"), n_workers=2, model_path=str(model),
        checkpoint_interval=0.2, ping_interval=0.2,
        max_restarts=0, log_level="error")
    retry = RetryPolicy(max_attempts=8, base_delay=0.1, max_delay=1.0,
                        request_timeout=10.0)
    with WorkerSupervisor(fleet_config) as supervisor:
        supervisor.start_monitor()
        victim = supervisor.ring.lookup("load-0")
        with FleetRouter(supervisor,
                         RouterConfig(endpoint=Endpoint.tcp("127.0.0.1", 0),
                                      log_level="error")) as router:
            box = {}
            thread = threading.Thread(
                target=lambda: box.update(load=gen.run(
                    router.endpoint, n_streams, n_intervals,
                    delay=0.05, retry=retry)))
            thread.start()
            time.sleep(0.8)  # streams live, a checkpoint cadence elapsed
            supervisor.kill_worker(victim)
            thread.join(timeout=120.0)
            assert not thread.is_alive(), "load generator hung"
            status = supervisor.status()
            with PhaseClient(router.endpoint, retry=FAST_RETRY) as viewer:
                fleet_view = viewer.fleet_status().data

    load = box["load"]
    for stream_id, report in sorted(load.streams.items()):
        assert report.error == "", f"{stream_id}: {report.error}"
        assert report.drained, f"{stream_id} did not drain"
        # versions only ever step forward, even across the migration
        assert report.model_versions == sorted(report.model_versions)
    # nothing lost; failover may re-send at most one checkpoint interval
    assert load.sent >= n_streams * n_intervals

    # the dead worker was evicted, the ring rebalanced, orphans moved
    assert status["evictions_total"] == 1
    assert status["members"] == [w for w in ("w0", "w1") if w != victim]
    assert status["workers"][victim]["evicted"] is True

    # the merged fleet view agrees: every finished stream sits on a
    # survivor, none claims the evicted worker
    finished_owners = {row["stream_id"]: row["worker_id"]
                       for row in fleet_view["finished"]}
    assert set(finished_owners) == {f"load-{i}" for i in range(n_streams)}
    assert victim not in finished_owners.values()
    source = fleet_view["service"]["classify_latency_source"]
    assert source["kind"] in ("merged-window", "exact")


@pytest.mark.slow
def test_fleet_restart_keeps_ring_position(trained, tmp_path):
    """Below the restart budget a dead worker revives under the same
    identity: the generation may not regress, no eviction happens, and
    the revived worker answers pings again."""
    from repro.fleet import FleetConfig, WorkerSupervisor

    _, template = trained
    model = tmp_path / "fleet.ipm"
    save_model(template, model)
    fleet_config = FleetConfig(
        root=str(tmp_path / "fleet"), n_workers=2, model_path=str(model),
        checkpoint_interval=0.2, ping_interval=0.2,
        max_restarts=1, log_level="error")
    with WorkerSupervisor(fleet_config) as supervisor:
        generation = supervisor.ring.generation
        supervisor.kill_worker("w0")
        deadline = time.monotonic() + 30.0
        outcome = None
        while time.monotonic() < deadline:
            events = supervisor.check_once()
            if events:
                outcome = events[0]
                break
            time.sleep(0.1)
        assert outcome == "restarted:w0"
        assert supervisor.status()["evictions_total"] == 0
        assert sorted(supervisor.ring.members()) == ["w0", "w1"]
        assert supervisor.ring.generation >= generation
        with PhaseClient(supervisor.endpoint_of("w0"),
                         retry=FAST_RETRY) as probe:
            reply = probe.ping()
            assert reply.ok and reply.data["worker_id"] == "w0"


# ----------------------------------------------------------------------
# live model refits: hot swap under traffic
# ----------------------------------------------------------------------
PHASE_A = {"kernel": 85, "reduce": 10}
PHASE_B = {"sort": 60, "reduce": 35}
PHASE_C = {"alien": 90, "reduce": 5}  # never seen in training


def cumulative_stream(interval_ticks):
    """A cumulative gmon series from per-interval tick profiles."""
    from repro.gprof.gmon import GmonData

    cum = GmonData()
    out = []
    for i, ticks in enumerate(interval_ticks):
        for func, n in ticks.items():
            cum.add_ticks(func, n)
        snap = cum.copy()
        snap.timestamp = float(i + 1)
        out.append(snap)
    return out


def test_refit_hot_swap_under_live_traffic(tmp_path):
    """The headline hot-swap scenario: a stream drifts mid-run, the
    daemon refits and swaps the model under live traffic, and the client
    observes (1) no loss or misordering, (2) a monotonically increasing
    model version, and (3) stable-phase labels unchanged across the
    swap — only the genuinely new behavior gets a fresh id."""
    train = cumulative_stream([PHASE_A, PHASE_B] * 12)
    analysis = analyze_snapshots(train,
                                 AnalysisConfig(kmax=4, drop_short_final=False))
    template = OnlinePhaseTracker.from_analysis(analysis)
    known = set(template.phase_sequence()) | {int(lab)
                                             for lab in template.phase_labels}

    # steady A/B traffic, then B is replaced by never-trained C while A
    # keeps occurring — A is the stable phase the swap must not relabel
    flip = 60
    live = cumulative_stream([PHASE_A, PHASE_B] * (flip // 2)
                             + [PHASE_A, PHASE_C] * (flip // 2))
    config = make_config(refit_interval=0.0, refit_drift_threshold=0.3,
                         checkpoint_dir=tmp_path, checkpoint_interval=0.1)
    with PhaseMonitorServer(template, config) as server:
        report = publish_samples(server.endpoint, "drift", live,
                                 retry=FAST_RETRY)
        refits_metric = server.metrics.snapshot()["refits"]

    assert report.error == "" and report.drained
    assert report.processed == len(live)
    assert len(report.phase_sequence) == len(live)

    # (2) version visibility: at least one refit happened, and every
    # version series the client can observe is monotone non-decreasing
    assert refits_metric >= 1
    assert report.model_version >= 1
    for versions in (report.model_versions, report.classified_versions):
        assert versions == sorted(versions)
    assert len(set(report.classified_versions)) >= 2
    assert len(report.classified_versions) == len(live)

    # (3) label stability: the A intervals run through the entire stream
    # (even indexes); across the hot swap they keep one label
    seq = report.phase_sequence
    a_labels = {seq[i] for i in range(0, len(seq), 2)}
    assert len(a_labels) == 1, f"stable phase relabeled: {a_labels}"
    assert a_labels < known

    # the drifted behavior converges on a fresh id outside the trained
    # alphabet (early C intervals may gate out as novel first)
    c_labels = {seq[i] for i in range(flip + 1, len(seq), 2)}
    fresh = c_labels - known - {-1}
    assert fresh, f"no fresh phase id for drifted behavior: {c_labels}"
    assert seq[-1] in fresh  # settled by the end of the run

    # each refit's versioned model artifact was persisted durably
    artifacts = sorted(p.name for p in tmp_path.glob("model-drift-v*.ipm"))
    assert artifacts, "refit produced no model artifact"
    from repro.core.model_io import load_model, model_meta

    swapped = load_model(tmp_path / artifacts[-1])
    meta = model_meta(tmp_path / artifacts[-1])
    assert swapped.model_version == int(meta["model_version"]) >= 1
    assert meta["source"] == "live-refit"
