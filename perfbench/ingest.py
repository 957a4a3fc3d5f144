"""ingest-drift-archive: publish drifting streams to ``incprofd``.

Closed loop over one connection, from one thread.  The benchmark
process encodes a window of 8 snapshot frames (the publisher's default
pipeline depth), flushes them in one write and reads their 8 acks
before it sends the next window.  The frames interleave many concurrent
streams.  An op publishes one interval of every stream (``STREAMS / 8``
windows), timed from its first encode to its last ack.  ``incprofd``
runs in its own process (``daemon.py``), refits each stream on a count
and archives every interval.

Streams are generated from the seed with fixed sizes (functions,
phases, streams, intervals), so the work per run does not depend on the
seed.  Each round replays the same stream contents under fresh stream
ids: hello, every interval of every stream, then a ``bye`` per stream,
whose reply carries the daemon's labels for the correctness oracles.
"""

from __future__ import annotations

import os
import re
import selectors
import signal
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from common import (MIN_OPS, HostSpeed, Ledger, Outcome, latency_metrics,
                    median, percentile, proc_cpu_seconds, proc_peak_rss_mb,
                    timed_setup)
import oracles

from repro.core.incremental import bounded_resweep
from repro.core.model_io import load_model, save_model
from repro.core.online import OnlinePhaseTracker, classify_across
from repro.core.pipeline import analyze_snapshots
from repro.gprof.gmon import GmonData
from repro.service import Endpoint, PhaseClient, ServerConfig
from repro.service.protocol import SnapshotMsg, decode_payload, encode_message
from repro.store.segments import SegmentStore, open_store

#: Frames per pipelined window (``publish_samples``' default on v2).
WINDOW = 8
#: Stream shape: a narrow function universe, phase types the model is
#: trained on (with disjoint dominant kernels), concurrent streams, and
#: intervals per stream.  Around half-way every stream moves to a
#: dominant mix the model never saw, over the same functions.
FUNCTIONS = 40
PHASES = 3
DOMINANTS = 6
STREAMS = 32
INTERVALS = 100
TRAIN_INTERVALS = 120
#: Stream ``s`` moves at ``DRIFT_FIRST + s * DRIFT_SPREAD // STREAMS``.
#: Spread over a quarter of the round, the streams' refits add a few ms
#: to each of about 25 ops; moved together, they piled onto 4 ops (4%
#: of all ops, about 40 ms each), so p90 sat on the edge of that spike
#: and jumped between 15 and 28 ms from run to run.
DRIFT_FIRST = 40
DRIFT_SPREAD = 25
#: Ticks per 1-second interval at 100 Hz and the dominant kernels' share.
BUSY_TICKS = 200
DOMINANT_SHARE = 0.7
#: The daemon's defaults that shape its batching (``ServerConfig``).
DAEMON_DEFAULTS = ServerConfig()
#: Timed rounds per daemon.  Every round archives 32 new streams, and
#: the daemon rewrites the archive's whole manifest on each segment
#: flush, so in one long-lived daemon its CPU per round grew from 1.4 to
#: 2.4 s over 13 rounds, and a run on a fast host (more rounds) did more
#: work per interval than one on a slow host.  A fresh daemon and archive
#: every few rounds keeps the work per round the same in every run.
EPOCH_ROUNDS = 5


# ----------------------------------------------------------------------
# input generation
# ----------------------------------------------------------------------
@dataclass
class Content:
    snapshots: List[GmonData]
    #: Reference labels from the tracker itself, one per interval.
    reference: List[int] = field(default_factory=list)
    #: Reference refit points (first interval each new model classified).
    refit_points: List[int] = field(default_factory=list)
    #: The interval profiles the daemon classifies (``delta_vector``).
    profiles: List[np.ndarray] = field(default_factory=list)
    #: Daemon outputs (labels, versions, refit points) already checked
    #: against the batch splits, and whether one reproduced them.
    explained: Dict[tuple, bool] = field(default_factory=dict)


def _names(n: int) -> List[str]:
    return [f"kernel_{j:03d}_step" for j in range(n)]


def _phase_rates(rng: np.random.Generator) -> np.ndarray:
    """Tick rates per phase type: the trained ones, then the unseen one."""
    order = rng.permutation(FUNCTIONS)
    rates = np.empty((PHASES + 1, FUNCTIONS))
    background = BUSY_TICKS * (1.0 - DOMINANT_SHARE)
    for p in range(PHASES + 1):
        # Every function keeps a background share, so all of them are
        # in the trained model's universe — the unseen type's dominants
        # included.
        lam = background * (0.5 / FUNCTIONS
                            + 0.5 * rng.dirichlet(np.ones(FUNCTIONS)))
        dom = order[p * DOMINANTS:(p + 1) * DOMINANTS]
        lam[dom] += BUSY_TICKS * DOMINANT_SHARE * rng.dirichlet(np.ones(DOMINANTS))
        rates[p] = lam
    return rates


def _segments(rng: np.random.Generator, n: int, types: Sequence[int],
              lo: int, hi: int) -> List[int]:
    """Phase segments of ``lo..hi`` intervals, visiting every one of
    ``types`` in each round (a fresh random order per round)."""
    out: List[int] = []
    while len(out) < n:
        for t in rng.permutation(types):
            out.extend([int(t)] * int(rng.integers(lo, hi + 1)))
    return out[:n]


def _timeline(rng: np.random.Generator, drift_at: int) -> List[int]:
    trained = list(range(PHASES))
    # Every trained phase recurs before the move, so the refit window
    # (the last 128 intervals) holds all of them: one refit then covers
    # old and new behaviour, and the stream refits once, on a count.
    head = _segments(rng, drift_at, trained, 6, 12)
    # The move: a long first stretch of the unseen mix (drift fires
    # inside it), then the unseen mix keeps recurring among old ones.
    tail = [PHASES] * 24
    tail += _segments(rng, INTERVALS - drift_at - 24, trained + [PHASES], 6, 12)
    return head + tail


def _snapshots(rng: np.random.Generator, names: List[str], rates: np.ndarray,
               calls_per_tick: np.ndarray, timeline: Sequence[int]
               ) -> List[GmonData]:
    lam = rates[np.asarray(timeline)]
    ticks = np.cumsum(rng.poisson(lam), axis=0)
    calls = np.cumsum(rng.poisson(lam * calls_per_tick), axis=0)
    arc_keys = [("main", name) for name in names]
    out = []
    for i in range(len(timeline)):
        nz = np.nonzero(ticks[i])[0]
        nc = np.nonzero(calls[i])[0]
        out.append(GmonData(
            sample_period=0.01,
            hist=dict(zip([names[j] for j in nz], ticks[i, nz].tolist())),
            arcs=dict(zip([arc_keys[j] for j in nc], calls[i, nc].tolist())),
            timestamp=float(i + 1)))
    return out


def adaptive_config():
    """The per-stream refit policy the daemon runs with ``refit_interval=0``."""
    return ServerConfig(refit_interval=0.0).adaptive_config()


def _reference(template: OnlinePhaseTracker, content: Content) -> None:
    """Per-interval reference labels from a tracker spawned in-process,
    and the interval profiles the daemon's differencing yields."""
    tracker = template.spawn(zero_start=True, adaptive=adaptive_config())
    for snap in content.snapshots:
        tracker.observe_snapshot(snap)
    content.reference = tracker.phase_sequence()
    content.refit_points = [e.interval_index for e in tracker.refit_events]
    differ = template.spawn(zero_start=True)
    content.profiles = [differ.delta_vector(snap) for snap in content.snapshots]


def explained(template: OnlinePhaseTracker, content: Content,
              bye: Bye) -> bool:
    """Whether some drained-batch split reproduces ``bye`` (memoised)."""
    key = (tuple(bye.labels), tuple(bye.versions), tuple(bye.refit_points))
    if key not in content.explained:
        content.explained[key] = oracles.batching_explains(
            template.spawn(zero_start=True, adaptive=adaptive_config()),
            content.profiles, bye.labels, bye.versions, bye.refit_points,
            DAEMON_DEFAULTS.batch_size)
    return content.explained[key]


# ----------------------------------------------------------------------
# the daemon process
# ----------------------------------------------------------------------
class Daemon:
    """``incprofd`` in a child process; ready once it prints its line."""

    def __init__(self, root: Path, work: Path, tag: str, model: Path,
                 store_dir: Path) -> None:
        cmd = [sys.executable, str(root / "perfbench" / "daemon.py"),
               "--root", str(root), "--model", str(model),
               str(store_dir)]
        self.log_path = work / f"daemon-{tag}.log"
        self._log = open(self.log_path, "wb")
        # The daemon exits when its stdin closes, so it cannot outlive
        # this process even if this one is killed.
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log, cwd=str(root))
        line = self._first_line(timeout=120.0)
        match = re.match(r"incprofd listening on (\S+)", line)
        if match is None:
            self.close()
            raise RuntimeError(f"daemon did not start: {line!r}; see "
                               f"{self.log_path.read_text()[-2000:]}")
        self.endpoint = Endpoint.parse(match.group(1))

    def _first_line(self, timeout: float) -> str:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                return ""
        return self.proc.stdout.readline().decode("utf-8", "replace")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                with PhaseClient(self.endpoint, check=False,
                                 timeout=30.0) as client:
                    client.shutdown()
            except Exception:  # already gone or wedged: fall through to kill
                pass
            try:
                self.proc.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self._log.close()


@dataclass
class Setup:
    contents: List[Content]
    model: Path
    daemon: Daemon
    store_dir: Path

    def close(self) -> None:
        self.daemon.close()


def pin_to_one_cpu() -> int:
    """Pin this process, and so the daemon it starts, to one CPU.

    With both CPUs busy the shared host took back more CPU time as steal,
    and every publisher/daemon handoff across CPUs waited on it; on one
    CPU the two alternate without cross-CPU wakeups.  Pinned runs kept
    p50 the same and lowered p90 and raised throughput (see README.md).
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def build(seed: int, root: Path, work: Path, tag: str) -> Setup:
    rng = np.random.default_rng([0x1B, seed])
    names = _names(FUNCTIONS)
    rates = _phase_rates(rng)
    calls_per_tick = 10.0 ** rng.uniform(0.0, 1.5, size=FUNCTIONS)
    train_rng = np.random.default_rng([0x1B, seed, 1])
    train = _snapshots(train_rng, names, rates[:PHASES], calls_per_tick,
                       _segments(train_rng, TRAIN_INTERVALS,
                                 list(range(PHASES)), 6, 16))
    model = work / f"model-{tag}.ipm"
    save_model(analyze_snapshots(train), model)
    contents = []
    for s in range(STREAMS):
        srng = np.random.default_rng([0x1B, seed, 2, s])
        drift_at = DRIFT_FIRST + s * DRIFT_SPREAD // STREAMS
        contents.append(Content(_snapshots(
            srng, names, rates, calls_per_tick, _timeline(srng, drift_at))))
    store_dir = work / f"store-{tag}"
    daemon = Daemon(root, work, tag, model, store_dir)
    return Setup(contents, model, daemon, store_dir)


# ----------------------------------------------------------------------
# one round: hello, every interval of every stream, bye
# ----------------------------------------------------------------------
@dataclass
class Bye:
    ok: bool
    drained: bool
    processed: int
    labels: List[int]
    versions: List[int]
    #: Interval index of each refit the daemon reports.
    refit_points: List[int]


@dataclass
class Round:
    ids: List[str]
    #: Wall start and seconds of each op.
    starts: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    #: Ops (interval indices) with an error reply or a bad ack.
    bad_ops: Set[int] = field(default_factory=set)
    #: Model version on each snapshot ack, per stream, in send order.
    ack_versions: Dict[int, List[int]] = field(default_factory=lambda: defaultdict(list))
    byes: List[Bye] = field(default_factory=list)
    frame_bytes: int = 0
    frames: int = 0


def drive_round(client: PhaseClient, setup: Setup, prefix: str,
                ledger: Optional[Ledger] = None, op_base: int = 0) -> Round:
    """One round; op ``t`` publishes interval ``t`` of every stream.

    The op's :data:`STREAMS` frames go out in pipelined windows of
    :data:`WINDOW`: encode, one flush, then the window's acks.
    """
    ids = [f"{prefix}-s{s:02d}" for s in range(STREAMS)]
    rnd = Round(ids=ids)
    for sid in ids:
        reply = client.hello(sid)
        if not reply.ok:
            raise RuntimeError(f"hello {sid} refused: {reply.error}")
    clock = time.perf_counter
    for t in range(INTERVALS):
        op = op_base + t
        t0 = clock()
        for first in range(0, STREAMS, WINDOW):
            chunk = range(first, min(first + WINDOW, STREAMS))
            for s in chunk:
                e0 = clock()
                frame = client.encode_snapshot(ids[s], t,
                                               setup.contents[s].snapshots[t])
                if ledger is not None:
                    ledger.add(op, "service.client.encode", e0, clock())
                rnd.frame_bytes += len(frame)
                client.send_frame(frame, flush=False)
            flushed = clock()
            client.flush_frames()
            for s in chunk:
                reply = client.read_reply()
                if ledger is not None:
                    ledger.add(op, "service.client.ack", flushed, clock())
                data = reply.data
                if (not reply.ok or data.get("outcome") != "accepted"
                        or data.get("seq") != t):
                    rnd.bad_ops.add(t)
                version = data.get("model_version")
                if version is not None:
                    rnd.ack_versions[s].append(int(version))
            rnd.frames += len(chunk)
        t1 = clock()
        if ledger is not None:
            ledger.add(op, "op", t0, t1, parent="")
        rnd.starts.append(t0)
        rnd.latencies.append(t1 - t0)
    for sid in ids:
        b0 = clock()
        reply = client.bye(sid)
        if ledger is not None:
            ledger.add(op_base, "service.client.drain", b0, clock(),
                       parent="round")
        data = reply.data
        rnd.byes.append(Bye(
            ok=reply.ok, drained=bool(data.get("drained", False)),
            processed=int(data.get("processed", -1)),
            labels=[int(x) for x in data.get("phase_sequence", [])],
            versions=[int(x) for x in data.get("model_versions", [])],
            refit_points=[int(e["interval_index"])
                          for e in data.get("refits", [])]))
    return rnd


# ----------------------------------------------------------------------
# oracles over one round
# ----------------------------------------------------------------------
def check_round(rnd: Round, setup: Setup, template: OnlinePhaseTracker,
                out: Outcome) -> Tuple[Set[int], int]:
    """Ops whose output is wrong, and the round's refit-skew count.

    Op ``t`` carries interval ``t`` of every stream, so a stream-level
    fault fails every op, and a refit the reference does not make (or
    makes and the daemon does not) fails the ops from it on.  The daemon
    drains each stream's queue in batches whose sizes depend on timing,
    so its labels may differ from the per-interval reference (each
    difference counts as skew); they must equal, exactly, what the
    in-process tracker gives under some split into batches of at most
    ``batch_size``.
    """
    bad = set(rnd.bad_ops)
    skew_total = 0
    for s, bye in enumerate(rnd.byes):
        content = setup.contents[s]
        every_op = set(range(INTERVALS))
        if not (bye.ok and bye.drained
                and oracles.exactly_once(bye.processed, bye.labels, INTERVALS)):
            bad |= every_op
            out.problem(f"{rnd.ids[s]}: not classified exactly once "
                        f"(processed={bye.processed}, "
                        f"labels={len(bye.labels)})")
            continue
        if not (oracles.monotone(bye.versions)
                and oracles.monotone(rnd.ack_versions[s])):
            bad |= every_op
            out.problem(f"{rnd.ids[s]}: model versions not monotone")
        unmatched = oracles.unmatched_refit(bye.refit_points,
                                            content.refit_points)
        if unmatched is not None:
            bad |= set(range(unmatched, INTERVALS))
            out.problem(f"{rnd.ids[s]}: refits at {bye.refit_points}, "
                        f"reference at {content.refit_points}")
        if not explained(template, content, bye):
            bad |= every_op
            out.problem(f"{rnd.ids[s]}: no split into batches of at most "
                        f"{DAEMON_DEFAULTS.batch_size} reproduces its labels "
                        f"(refits at {bye.refit_points})")
        skew_total += sum(a != b for a, b in zip(bye.labels, content.reference))
    return bad, skew_total


# ----------------------------------------------------------------------
# in-process replay of the recorded frames (traced runs)
# ----------------------------------------------------------------------
def replay_ledger(setup: Setup, work: Path, metrics: Dict[str, float]) -> None:
    """Time decode, differencing, classify and archive append in-process.

    Drives the same public calls the daemon's worker makes, on one
    round's frames, batched the way the daemon drains queues
    (``batch_size`` per stream, ``coalesce_streams`` streams per tick).
    The same profiles also go through ``classify_across`` on frozen
    trackers — the pooled path a daemon without refits takes.
    """
    cfg = DAEMON_DEFAULTS
    template = load_model(setup.model)
    ad = adaptive_config()
    trackers = [template.spawn(zero_start=True, adaptive=ad)
                for _ in range(STREAMS)]
    frozen = [template.spawn(zero_start=True) for _ in range(STREAMS)]
    store = SegmentStore(work / "replay-store")
    clock = time.perf_counter
    #: Every profile each tracker was fed: a refit trains on its tail.
    fed: List[List[np.ndarray]] = [[] for _ in range(STREAMS)]
    decode = delta = pooled = adaptive = append = 0.0
    n = adaptive_n = 0
    refit_times: List[float] = []
    for start in range(0, INTERVALS, cfg.batch_size):
        stop = min(start + cfg.batch_size, INTERVALS)
        for group in range(0, STREAMS, cfg.coalesce_streams):
            batches = []
            for s in range(group, min(group + cfg.coalesce_streams, STREAMS)):
                sid = f"replay-s{s:02d}"
                profiles = []
                for t in range(start, stop):
                    frame = encode_message(SnapshotMsg(
                        stream_id=sid, seq=t,
                        gmon=setup.contents[s].snapshots[t]), version=2)
                    t0 = clock()
                    msg = decode_payload(frame[4:], lazy_gmon=True)
                    gmon = msg.gmon.load()
                    t1 = clock()
                    profiles.append(trackers[s].delta_vector(gmon))
                    t2 = clock()
                    store.append(sid, t, gmon, raw=msg.gmon.raw)
                    t3 = clock()
                    decode += t1 - t0
                    delta += t2 - t1
                    append += t3 - t2
                    n += 1
                fed[s].extend(profiles)
                batches.append((s, profiles))
            t0 = clock()
            classify_across([(frozen[s], p) for s, p in batches])
            pooled += clock() - t0
            for s, profiles in batches:
                tracker = trackers[s]
                before = len(tracker.refit_events)
                k_before = tracker.centroids.shape[0]
                version = tracker.model_version
                t0 = clock()
                tracker.classify_batch(profiles)
                spent = clock() - t0
                if len(tracker.refit_events) == before:
                    adaptive += spent
                    adaptive_n += len(profiles)
                    continue
                # Re-run the refit's k-means resweep on the same window,
                # timed on its own, and check it reproduces the refit.
                event = tracker.refit_events[-1]
                seen = event.interval_index
                window = np.vstack(fed[s][max(0, seen - ad.window):seen])
                t0 = clock()
                fit = bounded_resweep(
                    window, k_before, kmax=ad.kmax,
                    seed=np.random.SeedSequence([ad.seed & 0xFFFFFFFF,
                                                 version + 1]),
                    n_init=ad.n_init)
                refit_times.append(clock() - t0)
                if fit.k != event.new_k:
                    raise RuntimeError("replayed refit disagrees with the "
                                       "tracker's own")
    store.close()
    us = 1e6
    metrics["service.protocol.decode_us"] = decode / n * us
    metrics["core.online.delta_us"] = delta / n * us
    metrics["core.online.classify_us"] = pooled / n * us
    metrics["core.online.classify_adaptive_us"] = adaptive / adaptive_n * us
    metrics["core.incremental.refit_ms"] = median(refit_times) * 1e3
    metrics["store.segments.append_us"] = append / n * us


def _archive_bytes(store_dir: Path) -> int:
    return sum(p.stat().st_size for p in store_dir.rglob("*") if p.is_file())


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool, root: Path, work: Path,
        out_dir: Path) -> Outcome:
    out = Outcome()
    out.info.update(loop="closed", connections=1, threads=1,
                    window=WINDOW, streams=STREAMS,
                    intervals_per_stream=INTERVALS, functions=FUNCTIONS,
                    rounds_per_daemon=EPOCH_ROUNDS,
                    daemon="own process, ServerConfig defaults, "
                           "refit_interval=0, archive compaction cadence "
                           "set in daemon.py")
    out.info["cpu"] = pin_to_one_cpu()
    speed = HostSpeed()
    setup, setup_s, setup_wall = timed_setup(
        lambda i: build(seed, root, work, f"{i}"), speed)
    out.metrics["setup_s"] = setup_s
    daemon = setup.daemon
    ledger = Ledger() if trace else None
    #: Each op's (wall start, seconds), split by whether its round was traced.
    lat: Dict[bool, List[tuple]] = {False: [], True: []}
    #: ``rounds`` holds each timed round's wall start, wall seconds and
    #: daemon CPU seconds.
    stats = dict(processed=0, skew=0, streams=0, refits=0, frames=0,
                 frame_bytes=0, own_cpu=0.0, rounds=[], rss_mb=0.0,
                 archive_bytes=0)
    acked: Dict[str, int] = {}
    scanned: Dict[str, List[int]] = {}
    warm_rounds: List[Round] = []
    timed_rounds: List[Round] = []

    def sample_paused() -> None:
        """Host-speed reference samples with the daemon stopped.

        The daemon shares this CPU, and its work after each ``bye``
        (stream close, archive compaction) slowed samples taken beside
        it; stopped for the few milliseconds the samples take, it cannot.
        """
        os.kill(daemon.pid, signal.SIGSTOP)
        try:
            speed.sample(HostSpeed.NEAREST // 2)
        finally:
            os.kill(daemon.pid, signal.SIGCONT)

    def drive_epoch(epoch: int) -> None:
        """A warm-up round, then :data:`EPOCH_ROUNDS` timed rounds.

        The timed rounds run back to back, with only reference samples
        between them, and are checked once the window is over: work the
        daemon does on its own clock (archive flushes) then lands inside
        timed rounds, not in pauses that the metrics leave out.  With a
        ledger, every other timed round is traced.
        """
        with PhaseClient(daemon.endpoint, check=False, timeout=60.0) as client:
            # Untimed: fills the new daemon's caches and pools.
            warm = drive_round(client, setup, f"e{epoch}-warm")
            bad, _skew = check_round(warm, setup, template, out)
            if bad:
                out.problem(f"warm-up round: {len(bad)} bad ops")
            warm_rounds.append(warm)
            acked.update({sid: b.processed for sid, b in zip(warm.ids, warm.byes)
                          if b.ok})
            sample_paused()
            for r in range(EPOCH_ROUNDS):
                spans = ledger if (ledger is not None and r % 2) else None
                d0 = proc_cpu_seconds(daemon.pid)
                r0, c0 = time.perf_counter(), time.process_time()
                rnd = drive_round(client, setup, f"e{epoch}-r{r}", spans,
                                  op_base=out.attempted)
                stats["rounds"].append((r0, time.perf_counter() - r0,
                                        proc_cpu_seconds(daemon.pid) - d0))
                stats["own_cpu"] += time.process_time() - c0
                sample_paused()
                out.attempted += len(rnd.latencies)
                lat[spans is not None].extend(zip(rnd.starts, rnd.latencies))
                if spans is not None:
                    stats["frames"] += rnd.frames
                    stats["frame_bytes"] += rnd.frame_bytes
                timed_rounds.append(rnd)

    try:
        template = load_model(setup.model)
        for content in setup.contents:
            _reference(template, content)
        out.info["reference_refits_per_stream"] = median(
            len(c.refit_points) for c in setup.contents)
        until = time.perf_counter() + seconds
        epoch = 0
        store_dirs = [setup.store_dir]
        while (time.perf_counter() < until or len(lat[False]) < MIN_OPS
               or (ledger is not None and not lat[True])):
            if epoch:
                store_dirs.append(work / f"store-e{epoch}")
                daemon = Daemon(root, work, f"e{epoch}", setup.model,
                                store_dirs[-1])
            drive_epoch(epoch)
            stats["rss_mb"] = max(stats["rss_mb"], proc_peak_rss_mb(daemon.pid))
            daemon.close()
            epoch += 1
    finally:
        daemon.close()
    out.info["daemons"] = len(store_dirs)
    for rnd in timed_rounds:
        bad, skew = check_round(rnd, setup, template, out)
        out.failed += len(bad)
        stats["processed"] += sum(max(0, b.processed) for b in rnd.byes)
        stats["skew"] += skew
        stats["streams"] += len(rnd.byes)
        stats["refits"] += sum(len(b.refit_points) for b in rnd.byes)
        acked.update({sid: b.processed for sid, b in zip(rnd.ids, rnd.byes)
                      if b.ok})
    for store_dir in store_dirs:
        store = open_store(store_dir)
        for sid in store.streams():
            scanned[sid] = [index for index, _snap in store.scan(sid)]
        stats["archive_bytes"] += _archive_bytes(store_dir)
    for text in oracles.archive_problems(
            {sid: scanned.get(sid, []) for sid in acked}, acked):
        out.failed += 1
        out.problem(text)

    rounds = stats["rounds"]
    busy = sum(wall for _r0, wall, _cpu in rounds)
    daemon_cpu = sum(cpu for _r0, _wall, cpu in rounds)
    m = out.metrics
    out.info["rounds"] = len(rounds)
    out.info["daemon_cpu_share"] = daemon_cpu / busy
    if not trace:
        latency_metrics(out, [speed.scaled(t0, d) for t0, d in lat[False]])
        m["throughput_per_s"] = stats["processed"] / sum(
            speed.scaled(r0, wall) for r0, wall, _cpu in rounds)
        # Daemon CPU seconds per second of monitored stream time (every
        # interval covers one second of the application).
        m["overhead_x"] = sum(
            cpu / speed.slowdown(r0 + wall / 2.0)
            for r0, wall, cpu in rounds) / stats["processed"]
        m["peak_rss_mb"] = stats["rss_mb"]
        walls = [d * 1e3 for _t0, d in lat[False]]
        out.info["wall"] = {
            "setup_s": setup_wall,
            "latency_p50_ms": percentile(walls, 50),
            "latency_p90_ms": percentile(walls, 90),
            "throughput_per_s": stats["processed"] / busy}
    else:
        m["service.client.encode_us"] = (
            ledger.mean("service.client.encode") * 1e6)
        m["service.client.ack_us"] = ledger.mean("service.client.ack") * 1e6
        m["service.client.drain_ms"] = ledger.mean("service.client.drain") * 1e3
        m["service.protocol.frame_bytes"] = stats["frame_bytes"] / stats["frames"]
        m["daemon.cpu_us_per_interval"] = daemon_cpu / stats["processed"] * 1e6
        m["loadgen.cpu_us_per_interval"] = (
            stats["own_cpu"] / stats["processed"] * 1e6)
        m["bench.tracing_overhead"] = (median(d for _t0, d in lat[True])
                                       / median(d for _t0, d in lat[False]))
        m["service.refit_skew_intervals"] = stats["skew"] / stats["streams"]
        m["core.incremental.refits"] = stats["refits"] / stats["streams"]
        m["store.segments.bytes_per_interval"] = (
            stats["archive_bytes"] / sum(acked.values()))
        ledger.dump(out_dir / f"spans-ingest-drift-archive-seed{seed}.jsonl")
        replay_ledger(setup, work, m)

    # Oracle self-test on this run's own outputs.
    sample = warm_rounds[0]
    content = setup.contents[0]
    bye = sample.byes[0]
    oracles.selftest_ingest(
        template.spawn(zero_start=True, adaptive=adaptive_config()),
        content.profiles, bye.labels, bye.versions, bye.refit_points,
        content.refit_points, scanned, {sample.ids[0]: bye.processed},
        DAEMON_DEFAULTS.batch_size)
    out.info["host_slowdown"] = speed.median_slowdown()
    return out
