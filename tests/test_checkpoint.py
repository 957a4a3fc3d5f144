"""Crash-safe daemon state: checkpoint snapshot/restore and quarantine.

These tests exercise the checkpoint layer *without* sockets: registry
state round-trips through the artifact envelope, restored trackers pick
up classification exactly where the original left off, and corrupt or
version-mismatched checkpoint files are quarantined — never silently
used, never deleted.
"""

import base64
import struct

import numpy as np
import pytest

from repro.api import AnalysisConfig, CheckpointError, analyze_snapshots
from repro.core.online import OnlinePhaseTracker
from repro.gprof.gmon import GmonBlob, dumps_gmon, loads_gmon
from repro.service import SyntheticLoadGenerator
from repro.service.checkpoint import (
    CHECKPOINT_FILENAME,
    CheckpointManager,
    restore_registry,
    snapshot_registry,
)
from repro.service.registry import StreamRegistry, StreamState


@pytest.fixture(scope="module")
def template():
    gen = SyntheticLoadGenerator()
    analysis = analyze_snapshots(gen.stream(0, 24), AnalysisConfig(kmax=4))
    return OnlinePhaseTracker.from_analysis(analysis)


def feed_stream(registry: StreamRegistry, template, stream_id: str,
                seed: int, n: int) -> StreamState:
    """Register a stream and classify ``n`` intervals into its tracker."""
    state = registry.register(stream_id, app="t", rank=seed)
    state.tracker = template.spawn(zero_start=True)
    for i, snap in enumerate(SyntheticLoadGenerator().stream(seed, n)):
        state.tracker.observe_snapshot(snap)
        state.last_seq = i
        state.processed_seq = i
        state.enqueued += 1
        state.processed += 1
    return state


# ----------------------------------------------------------------------
# snapshot/restore round-trip
# ----------------------------------------------------------------------
def test_registry_round_trip(template):
    registry = StreamRegistry()
    feed_stream(registry, template, "a", seed=1, n=10)
    feed_stream(registry, template, "b", seed=2, n=7)
    payload = snapshot_registry(registry)

    fresh = StreamRegistry()
    restored = restore_registry(fresh, payload, template)
    assert sorted(s.stream_id for s in restored) == ["a", "b"]
    a = fresh.get("a")
    assert a.processed == 10 and a.processed_seq == 9
    assert len(a.tracker.history) == 10


def test_restored_tracker_continues_identically(template):
    """The restored differencer + history classify exactly like the
    original would have — the crash is invisible to the phase timeline."""
    gen = SyntheticLoadGenerator()
    series = gen.stream(3, 20)

    registry = StreamRegistry()
    state = registry.register("s", app="t", rank=0)
    state.tracker = template.spawn(zero_start=True)
    for snap in series[:12]:
        state.tracker.observe_snapshot(snap)
    payload = snapshot_registry(registry)

    fresh = StreamRegistry()
    restore_registry(fresh, payload, template)
    restored = fresh.get("s").tracker
    for snap in series[12:]:
        state.tracker.observe_snapshot(snap)
        restored.observe_snapshot(snap)
    assert restored.phase_sequence() == state.tracker.phase_sequence()
    assert [t.distance for t in restored.history] == \
           [t.distance for t in state.tracker.history]


def _feed_blobs(tracker, blobs):
    """Difference and classify gmon bytes as the daemon's tick does."""
    for raw in blobs:
        profile = tracker.delta_vector(GmonBlob(raw))
        if profile is not None:
            tracker.classify_batch([profile])


def test_u64_count_past_int64_checkpoints_and_restores(template):
    """A v2 snapshot may carry any u64 count.  With one past int64 on a
    model function the stream still checkpoints (its last snapshot is
    stored as a valid gmon, count intact), restores, and continues
    exactly like the original — and like a stream without the offset,
    since every interval after the first differences it away."""
    big = 2**63 + 5
    func = template.functions[0]
    plain = [dumps_gmon(s) for s in SyntheticLoadGenerator().stream(3, 16)]
    offset = []
    for raw in plain:
        snap = loads_gmon(raw)
        snap.hist[func] = snap.hist.get(func, 0) + big
        offset.append(dumps_gmon(snap))

    registry = StreamRegistry()
    state = registry.register("s", app="t", rank=0)
    state.tracker = template.spawn(zero_start=True)
    _feed_blobs(state.tracker, offset[:8])
    payload = snapshot_registry(registry)
    previous = base64.b64decode(payload["streams"][0]["tracker"]["previous"])
    assert loads_gmon(previous).hist[func] == loads_gmon(offset[7]).hist[func]

    fresh = StreamRegistry()
    restore_registry(fresh, payload, template)
    restored = fresh.get("s").tracker
    _feed_blobs(state.tracker, offset[8:])
    _feed_blobs(restored, offset[8:])
    assert restored.phase_sequence() == state.tracker.phase_sequence()
    assert [t.distance for t in restored.history] == \
           [t.distance for t in state.tracker.history]

    reference = template.spawn(zero_start=True)
    _feed_blobs(reference, plain)
    assert [(t.phase_id, t.distance) for t in state.tracker.history[1:]] == \
           [(t.phase_id, t.distance) for t in reference.history[1:]]


def test_restore_rejects_a_non_finite_previous_period(template):
    """A checkpoint whose stored snapshot has a NaN sample period (one an
    older daemon accepted) is a bad stream record, not a crash."""
    registry = StreamRegistry()
    feed_stream(registry, template, "a", seed=1, n=4)
    payload = snapshot_registry(registry)
    tracker_state = payload["streams"][0]["tracker"]
    raw = bytearray(base64.b64decode(tracker_state["previous"]))
    raw[7:15] = struct.pack("<d", float("nan"))  # the header's period
    tracker_state["previous"] = base64.b64encode(bytes(raw)).decode("ascii")
    with pytest.raises(CheckpointError, match="runtime state"):
        restore_registry(StreamRegistry(), payload, template)


def test_finished_ring_and_counters_round_trip(template):
    registry = StreamRegistry()
    state = feed_stream(registry, template, "done", seed=4, n=5)
    registry.close(state.stream_id)
    payload = snapshot_registry(registry)

    fresh = StreamRegistry()
    restore_registry(fresh, payload, template)
    rows = fresh.finished_rows()
    assert len(rows) == 1 and rows[0]["stream_id"] == "done"
    assert fresh.registered == registry.registered


def test_restore_rejects_wrong_kind(template):
    with pytest.raises(CheckpointError, match="kind"):
        restore_registry(StreamRegistry(), {"kind": "phase-model"}, template)


def test_restore_rejects_garbage_stream_record(template):
    payload = {"kind": "incprofd-checkpoint",
               "streams": [{"stream_id": "x", "rank": "not-an-int"}]}
    with pytest.raises(CheckpointError, match="bad stream record"):
        restore_registry(StreamRegistry(), payload, template)


# ----------------------------------------------------------------------
# the on-disk manager
# ----------------------------------------------------------------------
def test_manager_write_load_round_trip(tmp_path, template):
    registry = StreamRegistry()
    feed_stream(registry, template, "a", seed=1, n=6)
    manager = CheckpointManager(tmp_path, interval=0.1)
    manager.write(snapshot_registry(registry))
    assert manager.writes == 1

    reread = CheckpointManager(tmp_path, interval=0.1)
    payload, quarantined = reread.load_or_quarantine()
    assert quarantined is None
    fresh = StreamRegistry()
    restore_registry(fresh, payload, template)
    assert fresh.get("a").processed == 6


def test_manager_missing_checkpoint_is_fresh_start(tmp_path):
    payload, quarantined = CheckpointManager(tmp_path).load_or_quarantine()
    assert payload is None and quarantined is None


def test_atomic_write_leaves_no_temp_files(tmp_path):
    manager = CheckpointManager(tmp_path)
    manager.write({"kind": "incprofd-checkpoint", "streams": []})
    assert sorted(p.name for p in tmp_path.iterdir()) == [CHECKPOINT_FILENAME]


def test_due_respects_interval():
    manager = CheckpointManager.__new__(CheckpointManager)
    manager.interval = 2.0
    manager._last_write = 100.0
    assert not manager.due(now=101.0)
    assert manager.due(now=102.5)


@pytest.mark.parametrize("corruption", [
    lambda raw: raw[: len(raw) // 2],                      # truncated
    lambda raw: b"IPMDL" + raw[5:],                        # wrong magic
    lambda raw: raw[:5] + (99).to_bytes(2, "little") + raw[7:],  # future schema
    lambda raw: raw[:-3] + bytes([raw[-3] ^ 0xFF]) + raw[-2:],   # bit flip
    lambda raw: b"",                                       # empty file
])
def test_corrupt_checkpoint_is_quarantined_not_used(tmp_path, corruption):
    manager = CheckpointManager(tmp_path)
    manager.write({"kind": "incprofd-checkpoint", "streams": []})
    raw = manager.path.read_bytes()
    manager.path.write_bytes(corruption(raw))

    payload, quarantined = manager.load_or_quarantine()
    assert payload is None
    assert quarantined is not None and quarantined.exists()
    assert not manager.path.exists()  # moved aside, daemon starts fresh
    assert quarantined.name.startswith(CHECKPOINT_FILENAME + ".quarantined")


def test_quarantine_never_overwrites_older_evidence(tmp_path):
    manager = CheckpointManager(tmp_path)
    for _ in range(3):
        manager.path.write_bytes(b"garbage")
        payload, quarantined = manager.load_or_quarantine()
        assert payload is None and quarantined is not None
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [f"{CHECKPOINT_FILENAME}.quarantined-{i}" for i in range(3)]
