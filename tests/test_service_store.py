"""``incprofd --store-dir``: the daemon archives what it classifies.

Binds real loopback sockets; the whole module carries the ``socket``
marker so restricted environments can deselect it with ``-m "not
socket"``.
"""

import socket
import time

import pytest

from repro.apps import get_app
from repro.core.online import OnlinePhaseTracker
from repro.core.pipeline import analyze_snapshots
from repro.gprof.gmon import dumps_gmon, loads_gmon
from repro.incprof.session import Session, SessionConfig
from repro.service import (
    Endpoint,
    PhaseMonitorServer,
    ServerConfig,
    parse_prometheus,
    publish_samples,
    render_prometheus,
)
from repro.service.selfekg import SELF_STAGE_IDS
from repro.store.segments import SegmentStore

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


@pytest.fixture(scope="module")
def template_and_samples():
    train = Session(get_app("synthetic"),
                    SessionConfig(ranks=1, seed=111)).run()
    analysis = analyze_snapshots(train.samples(0))
    deploy = Session(get_app("synthetic"),
                     SessionConfig(ranks=1, seed=777)).run()
    return OnlinePhaseTracker.from_analysis(analysis), deploy.samples(0)


def test_server_archives_streams_into_segment_store(tmp_path,
                                                    template_and_samples):
    """Every classified snapshot lands in the tiered store, bit-identical
    and replayable after the daemon is gone."""
    template, samples = template_and_samples
    store_dir = tmp_path / "store"

    with PhaseMonitorServer(
            template, make_config(store_dir=str(store_dir))) as server:
        report = publish_samples(server.endpoint, "archived-r0", samples,
                                 app="synthetic")
        stats = server.stats()

    assert report.error == ""
    assert report.processed == len(samples)

    # The store section rides along in the self-metrics snapshot.
    assert stats["store"]["appends"] == len(samples)
    assert stats["store"]["streams"] == 1

    # Post-mortem: reopen the archive cold and read it back.
    store = SegmentStore(store_dir, create=False)
    got = list(store.scan("archived-r0"))
    assert [i for i, _snap in got] == list(range(len(samples)))
    for (_i, archived), sent in zip(got, samples):
        assert dumps_gmon(archived) == dumps_gmon(loads_gmon(
            dumps_gmon(sent)))

    # The archive is a first-class replay source.
    result = store.replay("archived-r0", warmup=4)
    assert result.n_intervals == len(samples)
    assert len(result.updates) == len(samples)

    # Shutdown flushed everything: no pending tail, no tmp residue.
    assert store.describe()["pending_intervals"] == 0
    assert not [p for p in store_dir.rglob("*") if ".tmp" in p.name]


def test_v2_ingest_builds_no_gmon_data(tmp_path, monkeypatch,
                                     template_and_samples):
    """Binary snapshots are differenced and archived from their bytes:
    no ``GmonBlob.load`` during the run, the labels equal an in-process
    tracker's, and the archive scans back the same snapshots."""
    from repro.gprof.gmon import GmonBlob

    template, samples = template_and_samples
    loads = []
    real_load = GmonBlob.load
    monkeypatch.setattr(GmonBlob, "load",
                        lambda blob: loads.append(1) or real_load(blob))
    store_dir = tmp_path / "store"
    with PhaseMonitorServer(
            template, make_config(store_dir=str(store_dir))) as server:
        report = publish_samples(server.endpoint, "v2-r0", samples)
    assert report.error == "" and report.processed == len(samples)
    assert loads == []

    reference = template.spawn(zero_start=True)
    for snap in samples:
        reference.observe_snapshot(snap)
    assert report.phase_sequence == reference.phase_sequence()

    got = list(SegmentStore(store_dir, create=False).scan("v2-r0"))
    assert [i for i, _snap in got] == list(range(len(samples)))
    for (_i, archived), sent in zip(got, samples):
        assert dumps_gmon(archived) == dumps_gmon(loads_gmon(dumps_gmon(sent)))


def test_server_archives_only_what_it_differenced(tmp_path):
    """A snapshot whose differencing failed counts as an ingest error and
    stays out of the archive, so the archived stream replays end to end
    (an archived mismatched-period snapshot used to stop the replay)."""
    import numpy as np

    from repro.gprof.gmon import GmonBlob, GmonData
    from repro.service import PhaseClient
    from repro.store.segments import open_store

    template = OnlinePhaseTracker(functions=["a", "b", "c"],
                                  centroids=np.eye(3), gates=np.full(3, 0.5))
    store_dir = tmp_path / "store"
    with PhaseMonitorServer(
            template, make_config(store_dir=str(store_dir))) as server:
        with PhaseClient(server.endpoint) as client:
            client.hello("s")
            for seq in range(10):
                snap = GmonData(sample_period=0.02 if seq == 4 else 0.01,
                                hist={"a": 100 * (seq + 1), "b": 50 * seq},
                                timestamp=float(seq + 1))
                client.snapshot("s", seq, GmonBlob(dumps_gmon(snap)))
            bye = client.bye("s")
        stats = server.stats()
    assert stats["ingest_errors"] == 1
    assert len(bye.data["phase_sequence"]) == 9

    store = open_store(store_dir)
    assert [i for i, _snap in store.scan("s")] == [0, 1, 2, 3, 5, 6, 7, 8, 9]
    result = store.replay("s")
    assert result.indices == [0, 1, 2, 3, 5, 6, 7, 8, 9]
    assert len(result.updates) == 9


def test_server_archive_skips_resume_overlap(tmp_path, template_and_samples):
    """Replaying an already-archived prefix (client retry after restart)
    must not duplicate intervals: the monotone index check makes the
    archive append idempotent."""
    template, samples = template_and_samples
    store_dir = tmp_path / "store"

    with PhaseMonitorServer(
            template, make_config(store_dir=str(store_dir))) as server:
        first = publish_samples(server.endpoint, "dup-r0", samples,
                                app="synthetic")
        assert first.error == ""

    # Same stream, same sequence numbers, fresh server over the same dir.
    with PhaseMonitorServer(
            template, make_config(store_dir=str(store_dir))) as server:
        second = publish_samples(server.endpoint, "dup-r0", samples,
                                 app="synthetic")
        assert second.error == ""

    store = SegmentStore(store_dir, create=False)
    assert len(list(store.scan("dup-r0"))) == len(samples)


def test_server_background_compactor_migrates_tiers(tmp_path,
                                                    template_and_samples):
    """With an aggressive schedule the daemon's own compactor thread
    moves cold segments to the vector tier while the server runs."""
    template, samples = template_and_samples
    store_dir = tmp_path / "store"
    config = make_config(store_dir=str(store_dir),
                         store_compact_interval=0.1)

    with PhaseMonitorServer(template, config) as server:
        server.store.segment_intervals = 8  # small segments, many of them
        publish_samples(server.endpoint, "cold-r0", samples,
                        app="synthetic")
        server.store.flush()
        server.store.compact("cold-r0", raw_keep=0)
        stats = server.stats()

    tiers = stats["store"]["tiers"]
    assert tiers.get("1", {}).get("segments", 0) >= 1
    # Compaction never loses an interval.
    store = SegmentStore(store_dir, create=False)
    assert len(list(store.scan("cold-r0"))) == len(samples)


def test_server_times_archive_stage_and_counts_commits(tmp_path,
                                                       template_and_samples):
    """The archive append is a stage of its own (stage metrics and
    self-heartbeats), and the store exports its flush and commit counts:
    one commit per flush that wrote segments, full-buffer rolls included."""
    template, samples = template_and_samples
    config = make_config(store_dir=str(tmp_path / "store"),
                         self_heartbeat_interval=0.05)
    with PhaseMonitorServer(template, config) as server:
        server.store.segment_intervals = 8  # appends roll full buffers too
        for r in range(2):
            report = publish_samples(server.endpoint, f"staged-r{r}", samples,
                                     app="synthetic")
            assert report.error == ""
            server.store.flush()
        server.store.flush()  # nothing pending: neither flush nor commit
        deadline = time.monotonic() + 10.0
        archive_beats = []
        while not archive_beats and time.monotonic() < deadline:
            time.sleep(0.05)
            archive_beats = [r for r in server.selfekg.records
                             if r.hb_id == SELF_STAGE_IDS["archive"]]
        stats = server.stats()

    store = stats["store"]
    assert store["appends"] == 2 * len(samples)
    assert stats["stages"]["archive"]["items"] == store["appends"]
    assert store["flushes"] > len(samples) // 8
    assert store["commits"] == store["flushes"]
    assert store["flush_seconds"] > 0.0
    assert sum(r.count for r in archive_beats) > 0
    parsed = parse_prometheus(render_prometheus(stats))
    for key in ("appends", "flushes", "commits", "flush_seconds",
                "compactor_failures"):
        assert parsed[f"incprofd_store_{key}_total"] == pytest.approx(
            float(store[key]))
