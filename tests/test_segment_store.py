"""The tiered segment store: round trips, compaction, crash safety."""

import hashlib
import io
import random
import struct
import threading
import time
import tracemalloc
import types
import zipfile

import numpy as np
import pytest

from repro.gprof.gmon import GmonBlob, GmonData, dumps_gmon, loads_gmon
from repro.store import layout
from repro.store.loose import LooseStore
from repro.store.segments import (
    TIER_RAW,
    TIER_SKETCH,
    TIER_VECTOR,
    SegmentStore,
    open_store,
)
from repro.util.errors import (
    CollectorError,
    FormatError,
    SampleFileError,
    SegmentManifestError,
)


def make_series(n, funcs=24, rank=0, seed=7, with_arcs=False):
    """Cumulative snapshots with a rotating 3-phase tick pattern.

    Mimics a phased workload: each phase drives a fixed third of the
    functions at per-function rates (small noise on top), and arcs —
    when requested — accumulate along a fixed synthetic call graph,
    like the real tool's gmon dumps.
    """
    rng = random.Random(seed)
    names = [f"pkg.module_{j // 8}.func_{j:03d}" for j in range(funcs)]
    rates = [[rng.randint(8, 60) if j % 3 == p else 0
              for j in range(funcs)] for p in range(3)]
    cum = [0] * funcs
    arcs = {}
    out = []
    for i in range(n):
        phase = (i // 25) % 3
        for j in range(funcs):
            rate = rates[phase][j]
            if rate:
                cum[j] += max(0, rate + rng.randint(-2, 2))
                if with_arcs:
                    key = (names[(j + 7) % funcs], names[j])
                    arcs[key] = arcs.get(key, 0) + rate
        snap = GmonData(rank=rank, timestamp=float(i + 1))
        for j, name in enumerate(names):
            if cum[j]:
                snap.add_ticks(name, cum[j])
        for (caller, callee), count in arcs.items():
            snap.add_arc(caller, callee, count)
        out.append(snap)
    return out


def canonical(snap):
    """The parsed form of a snapshot (sorted hist, exactly as stored)."""
    return loads_gmon(dumps_gmon(snap))


def assert_same_snapshot(got, want):
    want = canonical(want)
    assert got.hist == want.hist
    assert got.timestamp == want.timestamp
    assert got.sample_period == want.sample_period
    assert got.rank == want.rank


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------
def test_append_scan_round_trip_across_reopen(tmp_path):
    series = make_series(40)
    with SegmentStore(tmp_path, segment_intervals=16) as store:
        for i, snap in enumerate(series):
            store.append("0", i, snap)
    store = SegmentStore(tmp_path)
    assert store.streams() == ["0"]
    got = list(store.scan("0"))
    assert [i for i, _ in got] == list(range(40))
    for (_i, snap), want in zip(got, series):
        assert_same_snapshot(snap, want)


def test_scan_since_watermark(tmp_path):
    with SegmentStore(tmp_path, segment_intervals=8) as store:
        for i, snap in enumerate(make_series(20)):
            store.append("0", i, snap)
        assert [i for i, _ in store.scan("0", since=14)] == [15, 16, 17, 18, 19]


def test_appends_must_be_monotone(tmp_path):
    store = SegmentStore(tmp_path)
    series = make_series(3)
    store.append("0", 0, series[0])
    store.append("0", 5, series[1])  # gaps are fine
    with pytest.raises(CollectorError):
        store.append("0", 5, series[2])
    with pytest.raises(CollectorError):
        store.append("0", 2, series[2])


def test_window_selects_by_timestamp(tmp_path):
    with SegmentStore(tmp_path, segment_intervals=8) as store:
        for i, snap in enumerate(make_series(30)):
            store.append("0", i, snap)
        got = [snap.timestamp for _i, snap in store.window("0", 10.0, 20.0)]
    assert got == [float(t) for t in range(10, 20)]


# ----------------------------------------------------------------------
# tiers + compaction
# ----------------------------------------------------------------------
def test_blob_appends_buffer_around_one_shared_table(tmp_path):
    """Binary-protocol appends buffer a snapshot's header and records
    around the decoder's shared string table, not a copy of all of its
    bytes: a stream's pending intervals hold its table once, scan and
    window read them back unchanged, and the segments a flush writes are
    those of a store that buffers full copies, checksum for checksum."""
    blobs = [dumps_gmon(s) for s in make_series(70, with_arcs=True)]
    shared = SegmentStore(tmp_path / "shared", segment_intervals=32)
    copies = SegmentStore(tmp_path / "copies", segment_intervals=32)
    for i, raw in enumerate(blobs):
        for sid in ("a", "b"):
            blob = GmonBlob(memoryview(bytearray(raw)))  # as a frame's view
            shared.append(sid, i, blob)
            copies.append(sid, i, blob.load(), raw=bytes(blob.raw))

    pending = [t for sid in ("a", "b") for t in shared._pending[sid].parts[1::3]]
    assert len(pending) == 12 and all(t is pending[0] for t in pending)
    for sid in ("a", "b"):  # both reads end in the 6 pending intervals
        for read, indices in ((lambda st: st.scan(sid, since=20), range(21, 70)),
                              (lambda st: st.window(sid, 30.0, 69.0), range(29, 68))):
            got = [(i, s.hist, s.arcs, s.timestamp) for i, s in read(shared)]
            assert [i for i, *_ in got] == list(indices)
            assert got == [(i, s.hist, s.arcs, s.timestamp)
                           for i, s in read(copies)]

    shared.close()
    copies.close()
    for sid in ("a", "b"):
        segs = [(m.name, m.count, m.sha256) for m in
                SegmentStore(tmp_path / "shared")._streams[sid]]
        assert segs == [(m.name, m.count, m.sha256) for m in
                        SegmentStore(tmp_path / "copies")._streams[sid]]
        assert [count for _, count, _ in segs] == [32, 32, 6]


def test_segment_and_manifest_bytes_do_not_depend_on_the_clock(
        tmp_path, monkeypatch):
    """Two stores given the same appends under two different clocks
    write byte-identical segments and manifests, raw and compacted, and
    ``np.load`` reads every segment."""
    series = make_series(70, with_arcs=True)
    files = []
    for name, clock in (("early", 1.7e9), ("late", 1.9e9)):
        monkeypatch.setattr(zipfile, "time", types.SimpleNamespace(
            time=lambda clock=clock: clock, localtime=time.localtime))
        store = SegmentStore(tmp_path / name, segment_intervals=16)
        for i, snap in enumerate(series):
            store.append("0", i, snap)
        store.flush()
        store.compact("0", raw_keep=1)
        store.close()
        root = tmp_path / name
        files.append({str(p.relative_to(root)): p.read_bytes()
                      for p in sorted(root.rglob("*")) if p.is_file()})
    assert files[0] == files[1]
    segments = [n for n in files[0] if n.endswith(".npz")]
    assert {"-t0.npz", "-t1.npz"} <= {n[-7:] for n in segments}
    for name in segments:
        with zipfile.ZipFile(io.BytesIO(files[0][name])) as zf:
            assert all(info.date_time == (1980, 1, 1, 0, 0, 0)
                       for info in zf.infolist())
        with np.load(io.BytesIO(files[0][name])) as npz:
            assert all(npz[key].size >= 0 for key in npz.files)


def test_vector_tier_preserves_classification_fields(tmp_path):
    series = make_series(64)
    store = SegmentStore(tmp_path, segment_intervals=16)
    for i, snap in enumerate(series):
        store.append("0", i, snap)
    store.flush()
    report = store.compact("0", raw_keep=0)
    assert report["segments_compacted"] >= 3
    tiers = store.describe()["tiers"]
    assert tiers[str(TIER_VECTOR)]["segments"] >= 3
    # hist/period/timestamps survive downsampling exactly (arcs are the
    # only thing the vector tier drops, and classification never reads
    # them) — so the phase timeline is untouched.
    for (_i, snap), want in zip(store.scan("0"), series):
        assert_same_snapshot(snap, want)


def _dict_walk_vector_arrays(indices, snapshots):
    """The vector tier's conversion as a walk over each parsed snapshot's
    dicts: the reference the conversion from raw bytes must match."""
    cols, funcs = {}, []
    for snap in snapshots:
        for func in snap.hist:
            if func not in cols:
                cols[func] = len(funcs)
                funcs.append(func)
    ticks = np.zeros((len(snapshots), len(funcs)), dtype=np.int64)
    for i, snap in enumerate(snapshots):
        for func, count in snap.hist.items():
            ticks[i, cols[func]] = count
    return {
        "kind": np.array("vector"),
        "indices": np.asarray(indices, dtype=np.int64),
        "timestamps": np.asarray([s.timestamp for s in snapshots],
                                 dtype=np.float64),
        "periods": np.asarray([s.sample_period for s in snapshots],
                              dtype=np.float64),
        "ranks": np.asarray([s.rank for s in snapshots], dtype=np.int64),
        "funcs": np.asarray(funcs),
        "ticks_delta": np.diff(ticks, axis=0, prepend=np.zeros(
            (1, ticks.shape[1]), dtype=np.int64)),
    }


def test_vector_conversion_matches_dict_walk_reference(tmp_path):
    """Converting a raw segment from its bytes gives exactly the arrays
    the dict walk gives — including a period change (the archive keeps
    what the stream sent), a counter that falls and a function that
    vanishes."""
    series = make_series(60, with_arcs=True)
    series[10].sample_period = 0.02
    series[20].hist.pop(next(iter(series[20].hist)))
    name = next(iter(series[30].hist))
    series[30].hist[name] -= 5
    store = SegmentStore(tmp_path, segment_intervals=64)
    for i, snap in enumerate(series):
        store.append("0", 3 * i, snap)
    store.flush()
    raw = store._read_segment(store._streams["0"][0])
    pairs = list(store._iter_raw(raw))
    want = _dict_walk_vector_arrays([i for i, _ in pairs],
                                    [snap for _, snap in pairs])
    got = store._vector_arrays(raw)
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key].dtype == value.dtype, key
        assert np.array_equal(got[key], value), key


def test_compaction_reduces_disk_bytes_3x_on_10k_intervals(tmp_path):
    """The acceptance criterion: raw -> vector compaction wins >= 3x.

    The win comes from two designed-in properties: arcs (which phase
    classification never reads) are dropped, and the cumulative tick
    matrix is row-delta encoded before deflate.
    """
    store = SegmentStore(tmp_path, segment_intervals=512)
    for i, snap in enumerate(make_series(10_000, funcs=64, with_arcs=True)):
        store.append("0", i, snap)
    store.flush()
    report = store.compact("0", raw_keep=0)
    assert report["segments_compacted"] >= 19
    assert report["bytes_before"] >= 3 * report["bytes_after"]
    # Every interval is still scannable after the migration.
    count = sum(1 for _ in store.scan("0"))
    assert count == 10_000


def test_sketch_tier_is_summary_only(tmp_path):
    series = make_series(60)
    store = SegmentStore(tmp_path, segment_intervals=16)
    for i, snap in enumerate(series):
        store.append("0", i, snap)
    store.flush()
    store.compact("0", raw_keep=0)           # raw -> vector
    store.compact("0", raw_keep=0, vector_keep=0)  # vector -> sketch
    tiers = store.describe()["tiers"]
    assert tiers[str(TIER_SKETCH)]["segments"] >= 1
    # Sketch-covered history cannot be re-driven interval by interval:
    # scanning it is an honest error, not silently empty output.
    with pytest.raises(CollectorError):
        list(store.scan("0"))
    sketches = store.sketches("0")
    assert sketches and all(s["centroids"].shape[0] >= 1 for s in sketches)
    # The newest (still-replayable) region is advertised.
    after = store.replayable_after("0")
    assert after is not None and after > series[0].timestamp


def test_one_interval_mid_stream_segment_sketches(tmp_path):
    """A mid-stream vector segment of one interval has no delta of its
    own; its sketch is one zero centroid."""
    store = SegmentStore(tmp_path, segment_intervals=1)
    for i, snap in enumerate(make_series(3)):
        store.append("0", i, snap)
    store.flush()
    store.compact("0", raw_keep=0)
    store.compact("0", raw_keep=0, vector_keep=0)
    sketches = store.sketches("0")
    assert len(sketches) == 2
    assert not sketches[-1]["centroids"].any()


def test_window_replay_works_past_sketch_history(tmp_path):
    series = make_series(80)
    store = SegmentStore(tmp_path, segment_intervals=16)
    for i, snap in enumerate(series):
        store.append("0", i, snap)
    store.flush()
    store.compact("0", raw_keep=0)
    store.compact("0", raw_keep=0, vector_keep=30)
    after = store.replayable_after("0")
    got = [snap.timestamp for _i, snap in store.window("0", after, None)]
    assert got and got[0] == after


# ----------------------------------------------------------------------
# crash safety
# ----------------------------------------------------------------------
def test_crash_before_manifest_commit_keeps_old_segments(tmp_path):
    """A compaction that dies after writing the new segment but before
    the manifest commit leaves the *old* set authoritative; the orphan
    new file is reaped on the next open and nothing is torn."""
    series = make_series(48)
    store = SegmentStore(tmp_path, segment_intervals=16)
    for i, snap in enumerate(series):
        store.append("0", i, snap)
    store.flush()

    real = store._write_manifest
    def exploding_manifest():
        raise OSError("simulated crash before manifest commit")
    store._write_manifest = exploding_manifest
    with pytest.raises(OSError):
        store.compact("0", raw_keep=0)
    store._write_manifest = real

    reopened = SegmentStore(tmp_path)
    tiers = reopened.describe()["tiers"]
    assert tiers[str(TIER_RAW)]["intervals"] == 48  # old set won
    got = list(reopened.scan("0"))
    assert len(got) == 48
    for (_i, snap), want in zip(got, series):
        assert_same_snapshot(snap, want)
    # No stray files beyond what the manifest references.
    on_disk = {f"{d.name}/{p.name}"
               for d in reopened.segments_dir.iterdir() if d.is_dir()
               for p in d.iterdir()}
    referenced = {seg.name for segs in reopened._streams.values()
                  for seg in segs}
    assert on_disk == referenced


def test_crash_after_manifest_commit_keeps_new_segments(tmp_path):
    """The mirror crash — manifest committed, old file never unlinked —
    resolves the other way: the new set is authoritative and the stale
    old file is reaped on open."""
    series = make_series(48)
    store = SegmentStore(tmp_path, segment_intervals=16)
    for i, snap in enumerate(series):
        store.append("0", i, snap)
    store.flush()
    old_files = {p: p.read_bytes()
                 for d in store.segments_dir.iterdir() if d.is_dir()
                 for p in d.iterdir()}
    store.compact("0", raw_keep=0)
    # Resurrect the unlinked raw segments: exactly the post-crash state.
    for path, blob in old_files.items():
        if not path.exists():
            path.write_bytes(blob)

    reopened = SegmentStore(tmp_path)
    tiers = reopened.describe()["tiers"]
    assert tiers[str(TIER_VECTOR)]["intervals"] >= 32  # new set won
    got = list(reopened.scan("0"))
    assert len(got) == 48
    for (_i, snap), want in zip(got, series):
        assert_same_snapshot(snap, want)
    stale = [p for p in old_files if p.exists()
             and layout.parse_segment(p.name)
             and f"{p.parent.name}/{p.name}" not in
             {s.name for segs in reopened._streams.values() for s in segs}]
    assert stale == []  # orphans reaped


def count_commits(store):
    """Wrap ``store._write_manifest``; the returned list grows per call."""
    calls = []
    real = store._write_manifest

    def counting():
        calls.append(1)
        real()
    store._write_manifest = counting
    return calls


def referenced_and_on_disk(store):
    on_disk = {f"{d.name}/{p.name}"
               for d in store.segments_dir.iterdir() if d.is_dir()
               for p in d.iterdir()}
    referenced = {seg.name for segs in store._streams.values()
                  for seg in segs}
    return referenced, on_disk


def test_flush_commits_manifest_once_over_many_streams(tmp_path):
    store = SegmentStore(tmp_path, segment_intervals=64)
    series = make_series(5)
    for s in range(32):
        for i, snap in enumerate(series):
            store.append(f"s{s:02d}", i, snap)
    calls = count_commits(store)
    store.flush()
    assert len(calls) == 1
    assert store.describe()["tiers"][str(TIER_RAW)]["segments"] == 32
    assert store.describe()["flushes"] == 1
    store.flush()  # nothing pending: no commit, not counted as a flush
    assert len(calls) == 1
    assert store.describe()["flushes"] == 1
    reopened = SegmentStore(tmp_path)
    assert len(reopened.streams()) == 32
    for (_i, snap), want in zip(reopened.scan("s31"), series):
        assert_same_snapshot(snap, want)


def test_compaction_pass_commits_manifest_once(tmp_path):
    store = SegmentStore(tmp_path, segment_intervals=8)
    series = make_series(40)
    for i, snap in enumerate(series):
        store.append("0", i, snap)
    store.flush()
    calls = count_commits(store)
    report = store.compact("0", raw_keep=0)
    assert report["segments_compacted"] >= 3
    assert len(calls) == 1
    referenced, on_disk = referenced_and_on_disk(store)
    assert on_disk == referenced  # replaced raw files unlinked
    for (_i, snap), want in zip(SegmentStore(tmp_path).scan("0"), series):
        assert_same_snapshot(snap, want)


def test_flush_whose_commit_fails_loses_only_that_flush(tmp_path):
    """A crash inside a flush's one commit leaves the previous flush's
    segment set: every earlier interval, none of the failed flush's, and
    its segment files reaped as orphans on the next open."""
    series = make_series(12)
    store = SegmentStore(tmp_path, segment_intervals=64)
    for s in range(4):
        for i, snap in enumerate(series[:6]):
            store.append(f"s{s}", i, snap)
    store.flush()
    for s in range(4):
        for i, snap in enumerate(series[6:], start=6):
            store.append(f"s{s}", i, snap)

    def exploding_manifest():
        raise OSError("simulated crash at the flush commit")
    store._write_manifest = exploding_manifest
    with pytest.raises(OSError):
        store.flush()

    reopened = SegmentStore(tmp_path)
    assert reopened.streams() == ["s0", "s1", "s2", "s3"]
    for s in range(4):
        got = list(reopened.scan(f"s{s}"))
        assert [i for i, _ in got] == list(range(6))
        for (_i, snap), want in zip(got, series):
            assert_same_snapshot(snap, want)
    referenced, on_disk = referenced_and_on_disk(reopened)
    assert on_disk == referenced


def test_failed_segment_write_still_commits_the_ones_before(tmp_path):
    store = SegmentStore(tmp_path, segment_intervals=64)
    series = make_series(4)
    for sid in ("a", "b"):
        for i, snap in enumerate(series):
            store.append(sid, i, snap)
    real = store._write_segment

    def disk_full_for_b(stream_id, *args, **kwargs):
        if stream_id == "b":
            raise OSError("simulated disk full")
        return real(stream_id, *args, **kwargs)
    store._write_segment = disk_full_for_b
    with pytest.raises(OSError):
        store.flush()
    assert store.describe()["pending_intervals"] == 4  # b's buffer kept
    assert [i for i, _ in SegmentStore(tmp_path).scan("a")] == [0, 1, 2, 3]


def test_compactor_survives_a_failed_commit(tmp_path):
    store = SegmentStore(tmp_path)
    series = make_series(24)
    real = store._write_manifest
    failed = threading.Event()

    def disk_full_once():
        if not failed.is_set():
            failed.set()
            raise OSError("simulated disk full")
        real()
    store._write_manifest = disk_full_once
    for i, snap in enumerate(series[:4]):
        store.append("s", i, snap)
    store.start_compactor(interval=0.05)
    try:
        assert failed.wait(timeout=5.0)
        for i, snap in enumerate(series[4:], start=4):
            store.append("s", i, snap)
        deadline = time.monotonic() + 5.0
        while (store.describe()["pending_intervals"]
               and time.monotonic() < deadline):
            time.sleep(0.02)
        info = store.describe()
        assert info["pending_intervals"] == 0
        assert info["flushes"] >= 1
        assert info["compactor_failures"] == 1
        assert "simulated disk full" in info["compactor_traceback"]
    finally:
        store.close()
    got = [i for i, _ in SegmentStore(tmp_path).scan("s")]
    assert got == list(range(24))


def test_compaction_commits_conversions_before_a_corrupt_segment(tmp_path):
    store = SegmentStore(tmp_path, segment_intervals=8)
    for i, snap in enumerate(make_series(32)):
        store.append("0", i, snap)
    bad = store._streams["0"][1]
    path = store._segment_path(bad.name)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    report = store.compact("0", raw_keep=0)
    assert report["segments_compacted"] == 2
    assert report["segments_failed"] == 1
    # The newest segment holds the newest interval, so raw_keep=0 keeps it.
    tiers = [seg.tier for seg in SegmentStore(tmp_path)._streams["0"]]
    assert tiers == [TIER_VECTOR, TIER_RAW, TIER_VECTOR, TIER_RAW]
    assert store.describe()["conversion_failures"] == 1
    assert store.describe()["conversion_error"].startswith(bad.name)


def test_archived_non_finite_period_is_a_format_error(tmp_path):
    """Snapshot bytes with a NaN sample period, which an older daemon
    archived as it received them, fail the one decoder's period check
    wherever they are read: scanning raises FormatError, and compaction
    treats their segment like any corrupt one (it stays raw, and the
    pass converts every other segment, of this stream and the next)."""
    store = SegmentStore(tmp_path, segment_intervals=8)
    for i, snap in enumerate(make_series(32)):
        raw = bytearray(dumps_gmon(snap))
        if i == 10:
            raw[7:15] = struct.pack("<d", float("nan"))  # the header's period
        store.append("0", i, snap, raw=bytes(raw))
        store.append("1", i, snap)
    store.flush()
    with pytest.raises(FormatError, match="sample_period"):
        list(store.scan("0"))
    for _ in range(2):  # a later pass meets the same segment and goes on
        report = store.compact(raw_keep=0)
        assert report["segments_failed"] == 1
    assert report["segments_compacted"] == 0
    # The newest segment holds the newest interval, so raw_keep=0 keeps it.
    reopened = SegmentStore(tmp_path)._streams
    assert [seg.tier for seg in reopened["0"]] == [TIER_VECTOR, TIER_RAW,
                                                   TIER_VECTOR, TIER_RAW]
    assert [seg.tier for seg in reopened["1"]] == [TIER_VECTOR] * 3 + [TIER_RAW]
    assert "sample_period" in store.describe()["conversion_error"]


def test_raw_segment_written_by_savez_compressed_still_scans(tmp_path):
    """Segments written before the raw tier's level changed — plain
    ``np.savez_compressed`` — read back bit-identically."""
    series = make_series(10, with_arcs=True)
    store = SegmentStore(tmp_path, segment_intervals=64)
    for i, snap in enumerate(series):
        store.append("0", i, snap)
    store.flush()
    seg = store._streams["0"][0]
    arrays = store._read_segment(seg)
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    blob = buf.getvalue()
    store._segment_path(seg.name).write_bytes(blob)
    seg.bytes = len(blob)
    seg.sha256 = hashlib.sha256(blob).hexdigest()
    store._write_manifest()

    got = list(SegmentStore(tmp_path).scan("0"))
    assert [i for i, _ in got] == list(range(10))
    for (_i, snap), want in zip(got, series):
        assert dumps_gmon(snap) == dumps_gmon(canonical(want))


def test_torn_manifest_raises_typed_error(tmp_path):
    store = SegmentStore(tmp_path, segment_intervals=4)
    for i, snap in enumerate(make_series(8)):
        store.append("0", i, snap)
    store.flush()
    blob = store.manifest_path.read_bytes()
    store.manifest_path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(SegmentManifestError):
        SegmentStore(tmp_path)


def test_corrupt_segment_fails_checksum(tmp_path):
    store = SegmentStore(tmp_path, segment_intervals=4)
    for i, snap in enumerate(make_series(8)):
        store.append("0", i, snap)
    store.flush()
    seg = store._streams["0"][0]
    path = store._segment_path(seg.name)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(SampleFileError):
        list(SegmentStore(tmp_path).scan("0"))


def test_interrupted_append_flush_leaves_no_tmp_residue(tmp_path):
    store = SegmentStore(tmp_path, segment_intervals=4)
    for i, snap in enumerate(make_series(10)):
        store.append("0", i, snap)
    store.close()
    stray = [p for p in tmp_path.rglob("*") if layout.is_tmp_name(p.name)]
    assert stray == []


# ----------------------------------------------------------------------
# backend auto-detection + legacy interop
# ----------------------------------------------------------------------
def test_open_store_detects_each_layout(tmp_path):
    loose_dir = tmp_path / "loose"
    seg_dir = tmp_path / "segments"
    LooseStore(loose_dir).append("0", 0, make_series(1)[0])
    with SegmentStore(seg_dir) as seg:
        seg.append("0", 0, make_series(1)[0])
    assert isinstance(open_store(loose_dir), LooseStore)
    assert isinstance(open_store(seg_dir), SegmentStore)
    fresh = open_store(tmp_path / "new", create=True)
    assert isinstance(fresh, SegmentStore)
    with pytest.raises(CollectorError):
        open_store(tmp_path / "missing")


def test_legacy_loose_store_reads_through_unified_scan(tmp_path):
    """Old on-disk sample dirs (one gmon file per interval) open as a
    loose store and load through the unified scan."""
    series = make_series(6)
    legacy = LooseStore(tmp_path)
    for i, snap in enumerate(series):
        legacy.append(str(snap.rank), i, snap)
    assert sorted(p.name for p in tmp_path.iterdir())[0] == \
        "gmon-r000-i00000.gmon"
    store = open_store(tmp_path)
    assert isinstance(store, LooseStore)
    assert store.streams() == ["0"]
    scanned = list(store.scan("0"))
    assert [i for i, _snap in scanned] == list(range(6))
    for (_i, snap), want in zip(scanned, series):
        assert_same_snapshot(snap, want)


# ----------------------------------------------------------------------
# lazy scan memory regression
# ----------------------------------------------------------------------
def test_load_all_is_lazy_and_caps_peak_memory(tmp_path):
    """A loose store's scan must stream: consuming it one snapshot at a
    time must peak far below materializing the whole stream."""
    store = LooseStore(tmp_path)
    series = make_series(300, funcs=80)
    for i, snap in enumerate(series):
        store.append("0", i, snap)

    lazy = store.scan("0")
    assert not isinstance(lazy, list)  # an iterator, not a load

    tracemalloc.start()
    count = 0
    for _i, snap in lazy:
        count += 1  # consume and drop — no refs kept
    _size, lazy_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert count == 300

    tracemalloc.start()
    eager = list(store.scan("0"))
    _size, eager_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(eager) == 300

    assert lazy_peak < eager_peak / 3
