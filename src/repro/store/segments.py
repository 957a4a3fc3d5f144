"""The tiered, compacting segment store.

Millions of streams dumping one snapshot per second cannot live as
loose per-interval files: metadata alone (one inode, one rename, one
directory entry per interval) dwarfs the data.  A :class:`SegmentStore`
instead buffers appends per stream and writes *segments* — one ``.npz``
file covering hundreds of intervals — under a checksummed manifest.
A flush or a compaction pass writes all of its segment files first and
then rewrites the manifest once, atomically (temp file + rename), so a
crash at any instant leaves either the old or the new segment set,
never a torn one.

Retention is tiered; compaction migrates cold segments downward:

- **tier 0 (raw)** — the exact gmon bytes, concatenated with an offset
  table.  Replay is bit-identical to live ingest; most expensive.
- **tier 1 (vectors)** — the downsampled columnar form: the function
  vocabulary once, cumulative tick counts as one integer matrix,
  timestamps and periods as flat arrays.  Call arcs are dropped — phase
  classification never reads them — so replay through the streaming
  engine still produces a bit-identical phase timeline at a fraction of
  the bytes.
- **tier 2 (sketch)** — per-window centroid sketches (k-means centroids
  + occupancy over the window's interval vectors).  Not replayable;
  keeps the shape of ancient behaviour for fleet analytics.

The store also owns an ``artifacts/`` directory whose versioned
``.ipm`` / ``.ipckp`` artifacts are garbage-collected by :meth:`gc`
(newest K per family survive — see :func:`repro.store.layout.gc_versioned`).
"""

from __future__ import annotations

import hashlib
import io
import threading
import time
import traceback
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.core.intervals import Differencer, clamped_diff
from repro.core.model_io import pack_artifact, read_artifact_payload
from repro.gprof.gmon import GmonBlob, GmonData, dumps_gmon, loads_gmon
from repro.store import layout
from repro.store.interface import IntervalStore
from repro.util.atomicio import atomic_write_bytes
from repro.util.errors import (
    CollectorError,
    ReproError,
    SampleFileError,
    SegmentManifestError,
    ValidationError,
)

MANIFEST_MAGIC = b"ISEGM"
MANIFEST_SCHEMA = 1

#: Retention tiers, coldest last.
TIER_RAW, TIER_VECTOR, TIER_SKETCH = 0, 1, 2

#: zlib level per tier.  Raw segments take every interval the daemon
#: ingests, under the store lock: on its frames (100-interval segments)
#: levels 1, 3 and 6 cost about 25, 29 and 77 us per interval for 401,
#: 323 and 294 bytes, so level 3 keeps most of level 6's size at under
#: half its time.  Vector and sketch segments are written once per
#: compaction and kept long: level 6, as ``np.savez_compressed`` uses.
DEFLATE_LEVEL = {TIER_RAW: 3, TIER_VECTOR: 6, TIER_SKETCH: 6}


@dataclass
class SegmentMeta:
    """One segment as the manifest records it."""

    name: str
    tier: int
    first: int
    last: int
    t0: float
    t1: float
    count: int
    bytes: int
    sha256: str

    def to_obj(self) -> Dict[str, Any]:
        return {"name": self.name, "tier": self.tier, "first": self.first,
                "last": self.last, "t0": self.t0, "t1": self.t1,
                "count": self.count, "bytes": self.bytes,
                "sha256": self.sha256}

    @classmethod
    def from_obj(cls, obj: Dict[str, Any]) -> "SegmentMeta":
        try:
            return cls(name=str(obj["name"]), tier=int(obj["tier"]),
                       first=int(obj["first"]), last=int(obj["last"]),
                       t0=float(obj["t0"]), t1=float(obj["t1"]),
                       count=int(obj["count"]), bytes=int(obj["bytes"]),
                       sha256=str(obj["sha256"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SegmentManifestError(
                f"bad segment record in manifest: {exc!r}") from exc


@dataclass(frozen=True)
class CompactionPolicy:
    """When does a segment migrate to a colder tier?

    Measured in intervals behind the stream's newest recorded index:
    raw segments whose last interval is more than ``raw_keep`` behind
    become vector segments; vector segments more than ``vector_keep``
    behind become sketches.  ``sketch_k`` caps the centroids per sketch.
    """

    raw_keep: int = 1024
    vector_keep: int = 65536
    sketch_k: int = 4

    def __post_init__(self) -> None:
        if self.raw_keep < 0 or self.vector_keep < 0:
            raise ValidationError("retention horizons must be non-negative")
        if self.vector_keep < self.raw_keep:
            raise ValidationError("vector_keep must be >= raw_keep")
        if self.sketch_k < 1:
            raise ValidationError("sketch_k must be positive")


@dataclass
class _Pending:
    """One stream's buffered (not yet segment-written) appends.

    ``parts`` holds three byte strings per interval that join into its
    gmon bytes: for a :class:`GmonBlob`, its :meth:`~GmonBlob.split`
    (whose string table is one object, shared by every interval that
    repeats the table), else the whole bytes and two empty strings.
    """

    indices: List[int] = field(default_factory=list)
    timestamps: List[float] = field(default_factory=list)
    parts: List[bytes] = field(default_factory=list)

    def blob(self, i: int) -> bytes:
        return b"".join(self.parts[3 * i:3 * i + 3])


class SegmentStore(IntervalStore):
    """Append-only columnar segment store with tiered retention.

    Thread-safe: one lock covers the pending buffers and the manifest
    (appends buffer in memory and are O(1); segment writes happen at
    flush granularity).  Appends must arrive in increasing interval
    order per stream — the service's sequence numbering guarantees it,
    and the manifest's seekable index ranges depend on it.

    Segment writes and the manifest commit stay under the lock.  On one
    CPU, a prototype whose flush ran beside appends interleaved with the
    daemon's classification and slowed every operation instead of
    stalling a few, so a flush is made cheap (one commit, a fast
    raw-tier level) rather than concurrent.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        segment_intervals: int = 256,
        policy: CompactionPolicy = CompactionPolicy(),
        create: bool = True,
    ) -> None:
        if segment_intervals < 1:
            raise ValidationError("segment_intervals must be positive")
        self.root = Path(root)
        self.segment_intervals = segment_intervals
        self.policy = policy
        self._lock = threading.RLock()
        self._pending: Dict[str, _Pending] = {}
        self.appends = 0
        self.segment_writes = 0
        #: Flushes that wrote at least one segment, the wall seconds they
        #: took, and manifest commits (flushes and compaction passes).
        self.flushes = 0
        self.flush_seconds = 0.0
        self.commits = 0
        #: Background maintenance passes that raised, and the traceback
        #: of the last one (the compactor retries on its next tick).
        self.compactor_failures = 0
        self.compactor_traceback: Optional[str] = None
        #: Segment conversions that raised (the segment stays at its
        #: tier and the pass goes on), and the last one's error.
        self.conversion_failures = 0
        self.conversion_error: Optional[str] = None
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise CollectorError(f"segment store {self.root} does not exist")
        self.segments_dir = self.root / layout.SEGMENTS_DIRNAME
        self.artifacts_dir = self.root / layout.ARTIFACTS_DIRNAME
        self.segments_dir.mkdir(parents=True, exist_ok=True)
        self.artifacts_dir.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.root / layout.MANIFEST_NAME
        self._next_serial = 0
        self._streams: Dict[str, List[SegmentMeta]] = {}
        self._load_manifest()
        self._reap_orphans()
        self._compactor: Optional[threading.Thread] = None
        self._compactor_stop = threading.Event()

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    def _load_manifest(self) -> None:
        try:
            blob = self.manifest_path.read_bytes()
        except FileNotFoundError:
            return
        except OSError as exc:
            raise SegmentManifestError(
                f"cannot read manifest {self.manifest_path}: {exc}") from exc
        payload = read_artifact_payload(blob, MANIFEST_MAGIC, MANIFEST_SCHEMA,
                                        "segment manifest",
                                        exc_type=SegmentManifestError)
        if payload.get("kind") != "incprof-segment-manifest":
            raise SegmentManifestError(
                f"{self.manifest_path} is not a segment manifest")
        self._next_serial = int(payload.get("next_serial", 0))
        self._streams = {
            str(sid): [SegmentMeta.from_obj(o) for o in segs]
            for sid, segs in payload.get("streams", {}).items()
        }

    def _write_manifest(self) -> None:
        """Commit the in-memory segment set: the one durability point."""
        payload = {
            "kind": "incprof-segment-manifest",
            "next_serial": self._next_serial,
            "streams": {sid: [s.to_obj() for s in segs]
                        for sid, segs in self._streams.items() if segs},
        }
        atomic_write_bytes(self.manifest_path,
                           pack_artifact(payload, MANIFEST_MAGIC,
                                         MANIFEST_SCHEMA))
        self.commits += 1

    def _reap_orphans(self) -> None:
        """Delete segment files the manifest does not reference.

        A crash between writing a new segment and committing the
        manifest (or between committing and unlinking the old file)
        leaves exactly one orphan; reaping on open restores the
        invariant that the manifest *is* the store.
        """
        referenced = {seg.name for segs in self._streams.values()
                      for seg in segs}
        for stream_dir in self.segments_dir.iterdir():
            if not stream_dir.is_dir():
                continue
            for path in stream_dir.iterdir():
                name = f"{stream_dir.name}/{path.name}"
                if layout.is_tmp_name(path.name):
                    path.unlink(missing_ok=True)
                elif (layout.parse_segment(path.name) is not None
                        and name not in referenced):
                    path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # segment files
    # ------------------------------------------------------------------
    def _segment_path(self, name: str) -> Path:
        return self.segments_dir / name

    def _write_segment(self, stream_id: str, tier: int,
                       arrays: Dict[str, np.ndarray],
                       first: int, last: int, t0: float, t1: float,
                       count: int) -> SegmentMeta:
        """Serialize one segment to disk; return its manifest record.

        The caller commits the record into the manifest; until that
        commit the file is an orphan a crash recovery would reap.
        """
        serial = self._next_serial
        self._next_serial += 1
        name = (f"{layout.sanitize_stream(stream_id)}/"
                f"{layout.segment_name(serial, tier)}")
        # The container np.savez_compressed writes, at the tier's level.
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w", compression=zipfile.ZIP_DEFLATED,
                             compresslevel=DEFLATE_LEVEL[tier]) as zf:
            for key, value in arrays.items():
                with zf.open(f"{key}.npy", "w", force_zip64=True) as fid:
                    np.lib.format.write_array(fid, np.asanyarray(value),
                                              allow_pickle=False)
        blob = buf.getvalue()
        path = self._segment_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, blob)
        self.segment_writes += 1
        return SegmentMeta(name=name, tier=tier, first=first, last=last,
                           t0=t0, t1=t1, count=count, bytes=len(blob),
                           sha256=hashlib.sha256(blob).hexdigest())

    def _read_segment(self, seg: SegmentMeta) -> Dict[str, np.ndarray]:
        path = self._segment_path(seg.name)
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise SampleFileError(path, exc) from exc
        if hashlib.sha256(blob).hexdigest() != seg.sha256:
            raise SampleFileError(
                path, SegmentManifestError("segment checksum mismatch"))
        try:
            with np.load(io.BytesIO(blob), allow_pickle=False) as npz:
                return {key: npz[key] for key in npz.files}
        except (OSError, ValueError) as exc:
            raise SampleFileError(path, exc) from exc

    # ------------------------------------------------------------------
    # snapshot <-> array codecs per tier
    # ------------------------------------------------------------------
    @staticmethod
    def _raw_arrays(pending: _Pending) -> Dict[str, np.ndarray]:
        offsets = np.zeros(len(pending.indices) + 1, dtype=np.int64)
        offsets[1:] = np.cumsum(list(map(len, pending.parts)))[2::3]
        return {
            "kind": np.array("raw"),
            "indices": np.asarray(pending.indices, dtype=np.int64),
            "timestamps": np.asarray(pending.timestamps, dtype=np.float64),
            "offsets": offsets,
            "blob": np.frombuffer(b"".join(pending.parts), dtype=np.uint8),
        }

    @staticmethod
    def _iter_raw(arrays: Dict[str, np.ndarray]) -> Iterator[Tuple[int, GmonData]]:
        blob = arrays["blob"].tobytes()
        offsets = arrays["offsets"]
        for i, index in enumerate(arrays["indices"].tolist()):
            yield index, loads_gmon(blob[offsets[i]:offsets[i + 1]])

    @staticmethod
    def _vector_arrays(raw: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """The downsampled columnar form of a raw segment.

        The segment's gmon bytes go through a growing
        :class:`~repro.core.intervals.Differencer`, whose function
        columns follow first-seen, histogram-record order — the exact
        order the streaming engine assigns feature columns — so a replay
        from this tier grows an identical vocabulary and produces
        bit-identical features.  No sample-period check: the archive
        keeps whatever the stream sent.  Call arcs are dropped: phase
        classification derives features from histogram ticks only.
        """
        diff = Differencer()
        blob = raw["blob"].tobytes()
        offsets = raw["offsets"].tolist()
        for i in range(len(raw["indices"])):
            diff.push(blob[offsets[i]:offsets[i + 1]], check=False)
        ticks = diff.ticks.view()
        # Row-delta encoding: cumulative tick counts barely move between
        # adjacent intervals, so deltas are near-zero and zlib eats them.
        # Exact int64 arithmetic either way — cumsum on read restores the
        # matrix bit-for-bit.
        deltas = np.diff(ticks, axis=0,
                         prepend=np.zeros((1, ticks.shape[1]), dtype=np.int64))
        return {
            "kind": np.array("vector"),
            "indices": raw["indices"].astype(np.int64),
            "timestamps": np.asarray(diff.timestamps, dtype=np.float64),
            "periods": np.asarray(diff.periods, dtype=np.float64),
            "ranks": np.asarray(diff.ranks, dtype=np.int64),
            "funcs": np.asarray(diff.functions),
            "ticks_delta": deltas,
        }

    @staticmethod
    def _vector_ticks(arrays: Dict[str, np.ndarray]) -> np.ndarray:
        """Cumulative tick matrix restored from the row-delta encoding."""
        return np.cumsum(arrays["ticks_delta"], axis=0, dtype=np.int64)

    @classmethod
    def _iter_vector(cls, arrays: Dict[str, np.ndarray]) -> Iterator[Tuple[int, GmonData]]:
        funcs = [str(f) for f in arrays["funcs"].tolist()]
        ticks = cls._vector_ticks(arrays).view(np.uint64)  # u64 counters
        timestamps = arrays["timestamps"].tolist()
        periods = arrays["periods"].tolist()
        ranks = arrays["ranks"].tolist()
        for i, index in enumerate(arrays["indices"].tolist()):
            row = ticks[i]
            nz = np.nonzero(row)[0]
            snap = GmonData(sample_period=periods[i],
                            timestamp=timestamps[i], rank=int(ranks[i]))
            snap.hist = {funcs[j]: int(row[j]) for j in nz.tolist()}
            yield index, snap

    def _sketch_arrays(self, vec: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Centroid sketch of one vector segment's interval deltas.

        Differencing is within-segment (the first row of a mid-stream
        segment has no predecessor here, so its delta is skipped unless
        the segment starts the stream); the sketch is a lossy summary by
        design.
        """
        from repro.core.kmeans import kmeans

        deltas = clamped_diff(self._vector_ticks(vec)) * vec["periods"][:, None]
        if int(vec["indices"][0]) != 0:
            deltas = deltas[1:]
        if deltas.shape[0] == 0:
            deltas = np.zeros((1, deltas.shape[1]))
        k = min(self.policy.sketch_k, deltas.shape[0])
        fit = kmeans(deltas, k, seed=0)
        counts = np.bincount(fit.labels, minlength=k).astype(np.int64)
        return {
            "kind": np.array("sketch"),
            "first": vec["indices"][:1].astype(np.int64),
            "last": vec["indices"][-1:].astype(np.int64),
            "timestamps": vec["timestamps"][[0, -1]],
            "funcs": vec["funcs"],
            "centroids": fit.centroids.astype(np.float64),
            "counts": counts,
            "inertia": np.asarray([fit.inertia], dtype=np.float64),
        }

    # ------------------------------------------------------------------
    # IntervalStore: writing
    # ------------------------------------------------------------------
    def append(self, stream_id: str, index: int,
               snapshot: Union[GmonData, GmonBlob],
               *, raw: Optional[bytes] = None) -> None:
        """Buffer one snapshot; a full buffer rolls into a raw segment.

        ``raw`` short-circuits serialization when the caller already
        holds the snapshot's gmon bytes.  A :class:`GmonBlob` (a
        binary-protocol submission, which arrives pre-serialized) is
        archived as its bytes, under the timestamp in their header; its
        cached decode validates them, so a corrupt blob raises
        :class:`~repro.util.errors.FormatError` and is not archived.
        Until the flush it is buffered around its decoded string table
        (:class:`_Pending`), not as a copy of all of its bytes.
        """
        if isinstance(snapshot, GmonBlob):
            parts, timestamp = snapshot.split(), snapshot.columns().timestamp
        else:
            blob = bytes(raw) if raw is not None else dumps_gmon(snapshot)
            parts, timestamp = (blob, b"", b""), snapshot.timestamp
        with self._lock:
            pending = self._pending.setdefault(stream_id, _Pending())
            last = (pending.indices[-1] if pending.indices
                    else self._last_index(stream_id))
            if last is not None and index <= last:
                raise CollectorError(
                    f"segment store appends must be in interval order: "
                    f"stream {stream_id!r} got index {index} after {last}")
            pending.indices.append(index)
            pending.timestamps.append(timestamp)
            pending.parts += parts
            self.appends += 1
            if len(pending.indices) >= self.segment_intervals:
                self._flush_locked([stream_id])

    def _last_index(self, stream_id: str) -> Optional[int]:
        segs = self._streams.get(stream_id)
        return segs[-1].last if segs else None

    def _flush_locked(self, stream_ids: List[str]) -> None:
        """Write each stream's pending buffer as a raw segment, then
        commit the manifest once.

        A crash before the commit loses only this flush's intervals; its
        segment files are orphans the next open reaps.
        """
        start = time.perf_counter()
        written = 0
        try:
            for stream_id in stream_ids:
                pending = self._pending.get(stream_id)
                if not pending or not pending.indices:
                    continue
                meta = self._write_segment(
                    stream_id, TIER_RAW, self._raw_arrays(pending),
                    first=pending.indices[0], last=pending.indices[-1],
                    t0=pending.timestamps[0], t1=pending.timestamps[-1],
                    count=len(pending.indices))
                self._streams.setdefault(stream_id, []).append(meta)
                del self._pending[stream_id]
                written += 1
        finally:
            # A failed segment write still commits the ones before it.
            if written:
                self._write_manifest()
                self.flushes += 1
                self.flush_seconds += time.perf_counter() - start

    def flush(self) -> None:
        """Roll every stream's pending buffer into (partial) segments."""
        with self._lock:
            self._flush_locked(list(self._pending))

    # ------------------------------------------------------------------
    # IntervalStore: reading
    # ------------------------------------------------------------------
    def streams(self) -> List[str]:
        with self._lock:
            ids = set(self._streams) | {s for s, p in self._pending.items()
                                        if p.indices}
        return sorted(ids)

    def _plan(self, stream_id: str) -> Tuple[List[SegmentMeta], _Pending]:
        with self._lock:
            segs = list(self._streams.get(stream_id, []))
            pending = self._pending.get(stream_id, _Pending())
            snapshot = _Pending(list(pending.indices),
                                list(pending.timestamps),
                                list(pending.parts))
        return segs, snapshot

    def _iter_segment(self, seg: SegmentMeta) -> Iterator[Tuple[int, GmonData]]:
        arrays = self._read_segment(seg)
        if seg.tier == TIER_RAW:
            return self._iter_raw(arrays)
        if seg.tier == TIER_VECTOR:
            return self._iter_vector(arrays)
        raise CollectorError(
            f"segment {seg.name} is a tier-{seg.tier} sketch: intervals "
            f"[{seg.first}, {seg.last}] are no longer replayable "
            "(narrow the window past the sketch tier)")

    def scan(self, stream_id: str,
             since: int = -1) -> Iterator[Tuple[int, GmonData]]:
        segs, pending = self._plan(stream_id)
        for seg in segs:
            if seg.last <= since:
                continue  # sketches included: below the watermark, unread
            for index, snapshot in self._iter_segment(seg):
                if index > since:
                    yield index, snapshot
        for i, index in enumerate(pending.indices):
            if index > since:
                yield index, loads_gmon(pending.blob(i))

    def window(self, stream_id: str, t0: Optional[float] = None,
               t1: Optional[float] = None) -> Iterator[Tuple[int, GmonData]]:
        """Timestamp-windowed scan that seeks using segment metadata.

        Whole segments outside ``[t0, t1)`` are skipped without being
        read — including sketch segments, so replays of recent windows
        work regardless of how cold the stream's history is.
        """
        segs, pending = self._plan(stream_id)
        for seg in segs:
            if t0 is not None and seg.t1 < t0:
                continue
            if t1 is not None and seg.t0 >= t1:
                break
            for index, snapshot in self._iter_segment(seg):
                if t0 is not None and snapshot.timestamp < t0:
                    continue
                if t1 is not None and snapshot.timestamp >= t1:
                    return
                yield index, snapshot
        for i, index in enumerate(pending.indices):
            ts = pending.timestamps[i]
            if t0 is not None and ts < t0:
                continue
            if t1 is not None and ts >= t1:
                return
            yield index, loads_gmon(pending.blob(i))

    def replayable_after(self, stream_id: str) -> Optional[float]:
        """Earliest timestamp still held at a replayable tier."""
        segs, pending = self._plan(stream_id)
        for seg in segs:
            if seg.tier != TIER_SKETCH:
                return seg.t0
        return pending.timestamps[0] if pending.timestamps else None

    # ------------------------------------------------------------------
    # compaction + GC
    # ------------------------------------------------------------------
    def compact(self, stream_id: Optional[str] = None,
                raw_keep: Optional[int] = None,
                vector_keep: Optional[int] = None) -> Dict[str, int]:
        """Migrate cold segments to colder tiers; returns a report.

        A pass is crash-safe as a whole: every new segment file lands
        first, then the manifest commits once (atomic rename), then the
        replaced files are unlinked — at every instant the manifest
        references exactly one complete copy of every interval.  A
        segment that cannot be read or converted stays at its tier and
        counts in ``segments_failed``; the pass goes on past it.
        """
        raw_keep = self.policy.raw_keep if raw_keep is None else raw_keep
        vector_keep = (self.policy.vector_keep if vector_keep is None
                       else max(vector_keep, raw_keep))
        report = {"segments_compacted": 0, "segments_failed": 0,
                  "bytes_before": 0, "bytes_after": 0}
        replaced: List[SegmentMeta] = []
        with self._lock:
            targets = ([stream_id] if stream_id is not None
                       else list(self._streams))
            try:
                for sid in targets:
                    segs = self._streams.get(sid, [])
                    if not segs:
                        continue
                    newest = segs[-1].last
                    pending = self._pending.get(sid)
                    if pending and pending.indices:
                        newest = pending.indices[-1]
                    for pos, seg in enumerate(segs):
                        if (seg.tier == TIER_RAW
                                and newest - seg.last > raw_keep):
                            to_tier = TIER_VECTOR
                        elif (seg.tier == TIER_VECTOR
                              and newest - seg.last > vector_keep):
                            to_tier = TIER_SKETCH
                        else:
                            continue
                        try:
                            segs[pos] = self._convert(sid, seg, to_tier)
                        except ReproError as exc:
                            # Retrying it first on every pass would hold
                            # back every segment after it for good.
                            report["segments_failed"] += 1
                            self.conversion_failures += 1
                            self.conversion_error = f"{seg.name}: {exc}"
                            continue
                        replaced.append(seg)
                        report["bytes_before"] += seg.bytes
                        report["bytes_after"] += segs[pos].bytes
            finally:
                # A pass that raised still commits the conversions before it.
                if replaced:
                    self._write_manifest()
                    for seg in replaced:
                        self._segment_path(seg.name).unlink(missing_ok=True)
        report["segments_compacted"] = len(replaced)
        return report

    def _convert(self, stream_id: str, seg: SegmentMeta,
                 to_tier: int) -> SegmentMeta:
        """Write ``seg``'s intervals as a ``to_tier`` segment (uncommitted)."""
        arrays = self._read_segment(seg)
        if to_tier == TIER_VECTOR:
            new_arrays = self._vector_arrays(arrays)
        elif to_tier == TIER_SKETCH:
            new_arrays = self._sketch_arrays(arrays)
        else:
            raise ValidationError(f"cannot compact to tier {to_tier}")
        return self._write_segment(
            stream_id, to_tier, new_arrays, first=seg.first, last=seg.last,
            t0=seg.t0, t1=seg.t1, count=seg.count)

    def gc(self, keep_versions: int = 2) -> List[str]:
        """Prune versioned ``.ipm``/``.ipckp`` artifacts under the store."""
        return [p.name for p in layout.gc_versioned(self.artifacts_dir,
                                                    keep=keep_versions)]

    # ------------------------------------------------------------------
    # background compaction
    # ------------------------------------------------------------------
    def start_compactor(self, interval: float = 30.0) -> None:
        """Run flush+compact+gc on a cadence in a daemon thread.

        A pass that raises (say, a full disk at the manifest commit) is
        counted in ``compactor_failures``, its traceback kept in
        ``compactor_traceback`` (both in :meth:`describe`), and the next
        tick tries again: segments a failed commit left out go into the
        next commit.
        """
        if interval <= 0:
            raise ValidationError("compactor interval must be positive")
        if self._compactor is not None:
            return
        self._compactor_stop.clear()

        def loop() -> None:
            while not self._compactor_stop.wait(interval):
                try:
                    self.flush()
                    self.compact()
                    self.gc()
                except Exception:
                    # A dead compactor would leave every later append
                    # pending until close().
                    with self._lock:
                        self.compactor_failures += 1
                        self.compactor_traceback = traceback.format_exc()

        self._compactor = threading.Thread(target=loop,
                                           name="segment-compactor",
                                           daemon=True)
        self._compactor.start()

    def stop_compactor(self) -> None:
        if self._compactor is None:
            return
        self._compactor_stop.set()
        self._compactor.join(timeout=5.0)
        self._compactor = None

    def close(self) -> None:
        self.stop_compactor()
        self.flush()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """Totals per tier plus pending buffers (for stats/CLI)."""
        with self._lock:
            tiers: Dict[int, Dict[str, int]] = {
                t: {"segments": 0, "bytes": 0, "intervals": 0}
                for t in (TIER_RAW, TIER_VECTOR, TIER_SKETCH)}
            for segs in self._streams.values():
                for seg in segs:
                    tiers[seg.tier]["segments"] += 1
                    tiers[seg.tier]["bytes"] += seg.bytes
                    tiers[seg.tier]["intervals"] += seg.count
            return {
                "root": str(self.root),
                "streams": len(self.streams()),
                "appends": self.appends,
                "segment_writes": self.segment_writes,
                "flushes": self.flushes,
                "commits": self.commits,
                "flush_seconds": self.flush_seconds,
                "compactor_failures": self.compactor_failures,
                "compactor_traceback": self.compactor_traceback,
                "conversion_failures": self.conversion_failures,
                "conversion_error": self.conversion_error,
                "pending_intervals": sum(len(p.indices)
                                         for p in self._pending.values()),
                "tiers": {str(t): info for t, info in tiers.items()},
                "total_bytes": sum(info["bytes"] for info in tiers.values()),
            }

    def sketches(self, stream_id: str) -> List[Dict[str, Any]]:
        """Decoded sketch-tier summaries for ``stream_id`` (coldest data)."""
        out = []
        segs, _pending = self._plan(stream_id)
        for seg in segs:
            if seg.tier != TIER_SKETCH:
                continue
            arrays = self._read_segment(seg)
            out.append({
                "first": int(arrays["first"][0]),
                "last": int(arrays["last"][0]),
                "t0": float(arrays["timestamps"][0]),
                "t1": float(arrays["timestamps"][1]),
                "funcs": [str(f) for f in arrays["funcs"].tolist()],
                "centroids": arrays["centroids"],
                "counts": arrays["counts"].tolist(),
                "inertia": float(arrays["inertia"][0]),
            })
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SegmentStore({str(self.root)!r}, "
                f"streams={len(self._streams)})")


def open_store(path: Union[str, Path], create: bool = False) -> IntervalStore:
    """Open whichever backend lives at ``path``.

    A directory containing (or asked to create) a segment manifest opens
    as a :class:`SegmentStore`; anything else opens as the legacy
    loose-file :class:`~repro.store.loose.LooseStore` — so every CLI
    verb accepts both layouts with one flag-free argument.
    """
    from repro.store.loose import LooseStore

    root = Path(path)
    if (root / layout.MANIFEST_NAME).exists():
        return SegmentStore(root, create=False)
    if create and not any(root.glob("gmon-r*.gmon")) and (
            not root.exists() or not any(root.iterdir())):
        return SegmentStore(root)
    return LooseStore(root, create=create)


__all__ = [
    "CompactionPolicy",
    "SegmentMeta",
    "SegmentStore",
    "TIER_RAW",
    "TIER_SKETCH",
    "TIER_VECTOR",
    "open_store",
    "MANIFEST_MAGIC",
    "MANIFEST_SCHEMA",
]
