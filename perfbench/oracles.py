"""Correctness oracles for the perfbench workloads, and their self-tests.

Every oracle is a plain function over program outputs that the
workloads call on each op's output; it returns ``True``, an empty
problem list or ``None`` when the output is right.  After the timed
window each workload feeds the same functions deliberately wrong copies
of its own outputs through :func:`expect_rejected` — a permuted label
sequence, a refit moved a batch late, a truncated archive, a report
with one byte changed, a corrupted twin result — so an oracle that
stopped looking fails the run instead of passing it.
"""

from __future__ import annotations

import copy
import hashlib
import threading
from dataclasses import replace
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.gprof.gmon import GmonData, dumps_gmon, loads_gmon
from repro.util.errors import ReproError


class OracleSelfTestError(AssertionError):
    """An oracle accepted an output that was made wrong on purpose."""


def expect_rejected(name: str, accepted: bool) -> None:
    if accepted:
        raise OracleSelfTestError(f"oracle {name!r} accepted a corrupted output")


# ----------------------------------------------------------------------
# offline-corpus
# ----------------------------------------------------------------------
def analysis_digest(labels: Sequence[int], n_phases: int,
                    sites: Sequence[object]) -> str:
    """Digest of what an analysis decided: labels, k, and selected sites."""
    h = hashlib.sha256()
    h.update(np.asarray(labels, dtype=np.int64).tobytes())
    h.update(str(int(n_phases)).encode())
    for s in sites:
        h.update(repr((s.phase_id, s.hb_id, str(s.site), round(s.phase_pct, 9),
                       round(s.app_pct, 9))).encode())
    return h.hexdigest()


def report_matches(report: str, golden: str) -> bool:
    """``render_full_report`` output equals the golden fixture, byte for byte."""
    return report.encode("utf-8") == golden.encode("utf-8")


def tier_floor_problems(agreements: Mapping[str, Sequence[float]],
                        floors: Mapping[str, float]) -> List[str]:
    """Tiers whose median label agreement with generator truth is too low."""
    problems = []
    for tier, floor in floors.items():
        values = sorted(agreements.get(tier, ()))
        if not values:
            problems.append(f"tier {tier}: no scored scenarios")
            continue
        med = float(np.median(values))
        if med < floor:
            problems.append(f"tier {tier}: median agreement {med:.3f} < {floor}")
    return problems


def repeat_ok(result, digest: str) -> bool:
    """An ``AnalysisResult`` decides what the item's first analysis decided."""
    return analysis_digest(result.phase_model.labels, result.n_phases,
                           result.sites()) == digest


def selftest_offline(report: str, golden: str, result, digest: str,
                     shuffled: Mapping[str, Sequence[float]],
                     floors: Mapping[str, float]) -> None:
    """Change one byte of a report, one label, one phase and one site of
    a result; shuffle every label.

    ``result`` is an item's analysis and ``digest`` its recorded digest.
    ``shuffled`` holds, per tier, the agreement of each scenario's
    predicted labels after a random permutation — a tier made of such
    outputs must fail its floor.
    """
    flipped = report[:-1] + chr((ord(report[-1]) + 1) % 0x110000)
    expect_rejected("golden-report", report_matches(flipped, golden))
    model = result.phase_model
    labels = np.array(model.labels, copy=True)
    labels[0] += 1
    selection = result.selection
    for what, bad in (
            ("label", replace(result, phase_model=replace(model, labels=labels))),
            ("phase", replace(result, phase_model=replace(
                model, phases=model.phases[:-1]))),
            ("site", replace(result, selection=replace(
                selection, per_phase=selection.per_phase[:-1])))):
        expect_rejected(f"repeat-digest-{what}", repeat_ok(bad, digest))
    flagged = tier_floor_problems(shuffled, floors)
    for tier in floors:
        expect_rejected(f"tier-floor-{tier}",
                        not any(p.startswith(f"tier {tier}:") for p in flagged))


# ----------------------------------------------------------------------
# ingest-drift-archive
# ----------------------------------------------------------------------
def exactly_once(processed: int, labels: Sequence[int], n: int) -> bool:
    """Every acked interval classified once: counts and label count agree."""
    return processed == n and len(labels) == n


def monotone(versions: Sequence[int]) -> bool:
    return all(b >= a for a, b in zip(versions, versions[1:]))


def unmatched_refit(got: Sequence[int],
                    reference: Sequence[int]) -> Optional[int]:
    """Where the daemon's refits stop pairing with the reference's.

    ``None`` when the daemon refit a stream as often as the per-interval
    reference; otherwise the first refit point one side has and the
    other lacks — from there on the two classify with different models.
    """
    if len(got) == len(reference):
        return None
    longer = got if len(got) > len(reference) else reference
    return longer[min(len(got), len(reference))]


def _clone(tracker):
    """An independent copy of a tracker's live state (with a lock of its own)."""
    memo = {id(tracker._lock): threading.RLock(),
            id(tracker.history): list(tracker.history)}
    return copy.deepcopy(tracker, memo)


def batching_explains(tracker, profiles: Sequence[np.ndarray],
                      labels: Sequence[int], versions: Sequence[int],
                      refit_points: Sequence[int], batch: int) -> bool:
    """Some split into drained batches reproduces the daemon's stream exactly.

    The daemon classifies a stream in batches of 1 to ``batch`` profiles
    (``pop_batch`` takes whatever is queued), compares a whole batch
    with the centroids as they were at its start, and checks for a refit
    once per batch; so its labels, model versions and refit points
    depend on how the queue happened to drain.  This searches the
    splits, running the program's own ``classify_batch`` on copies of
    ``tracker`` (a fresh tracker for the stream), and returns whether
    one split gives all three exactly.

    Once a prefix's labels match, the live model after it is the same
    on every split (updates follow the labels; only the drift window's
    distances, read by the inertia trigger, can differ), so a batch
    start from which no split succeeds is not searched again.
    """
    n = len(profiles)
    if len(labels) != n or len(versions) != n:
        return False
    points = list(refit_points)
    dead = set()

    def sizes(start: int) -> List[int]:
        """Batch sizes to try from ``start``: land on the next refit
        point as early as possible, otherwise take the longest batch."""
        reach = min(batch, n - start)
        ahead = next((p - start for p in points if p > start), None)
        if ahead is not None and ahead <= reach:
            first = ahead
        elif ahead is not None and ahead - batch <= reach:
            first = max(1, ahead - batch)
        else:
            first = reach
        return [first] + [k for k in range(reach, 0, -1) if k != first]

    def search(trk, start: int) -> bool:
        if start == n:
            return [e.interval_index for e in trk.refit_events] == points
        if start in dead:
            return False
        limit = batch + 1
        for size in sizes(start):
            if size >= limit:
                continue  # would fail where a shorter batch already did
            twin = _clone(trk)
            got = twin.classify_batch(profiles[start:start + size])
            wrong = next((i for i, t in enumerate(got)
                          if t.phase_id != labels[start + i]
                          or t.model_version != versions[start + i]), None)
            if wrong is not None:
                # A batch from the same start sees the same centroids,
                # so any batch reaching this interval fails on it too.
                limit = min(limit, wrong + 1)
                continue
            done = [e.interval_index for e in twin.refit_events]
            if done == points[:len(done)] and search(twin, start + size):
                return True
        dead.add(start)
        return False

    return search(tracker, 0)


def archive_problems(scanned: Mapping[str, Sequence[int]],
                     acked: Mapping[str, int]) -> List[str]:
    """Each acked stream's archive holds indices 0..n-1, each exactly once."""
    problems = []
    for stream, n in acked.items():
        got = list(scanned.get(stream, ()))
        if got != list(range(n)):
            problems.append(f"archive of {stream}: {len(got)} intervals, "
                            f"expected 0..{n - 1} once each")
    return problems


def selftest_ingest(tracker, profiles: Sequence[np.ndarray],
                    labels: Sequence[int], versions: Sequence[int],
                    refit_points: Sequence[int],
                    reference_refits: Sequence[int],
                    scanned: Mapping[str, Sequence[int]],
                    acked: Mapping[str, int], batch: int) -> None:
    """Permute labels, drop one, reverse versions, move a refit a batch
    late, add a refit, truncate the archive.

    ``tracker`` is a fresh tracker for the stream whose daemon outputs
    (``labels``, ``versions``, ``refit_points``) are given.
    """
    labels = list(labels)

    def explained(labels=labels, versions=versions, points=refit_points):
        return batching_explains(tracker, profiles, labels, versions,
                                 points, batch)

    expect_rejected("labels", explained(labels=labels[1:] + labels[:1]))
    expect_rejected("exactly-once",
                    exactly_once(len(labels), labels[:-1], len(labels)))
    expect_rejected("monotone-versions", monotone(list(reversed(versions))))
    expect_rejected("refit-points",
                    explained(points=[r + batch for r in refit_points]))
    expect_rejected("refit-count", unmatched_refit(
        list(refit_points) + [len(labels)], reference_refits) is None)
    stream = next(iter(acked))
    truncated = dict(scanned)
    truncated[stream] = list(scanned[stream])[:-1]
    expect_rejected("archive-scan", not archive_problems(truncated, acked))


# ----------------------------------------------------------------------
# collect-live
# ----------------------------------------------------------------------
def result_digest(value: object) -> str:
    """Stable digest of a kernel's return value (arrays, tuples, scalars)."""
    h = hashlib.sha256()

    def feed(v: object) -> None:
        if isinstance(v, np.ndarray):
            h.update(str(v.dtype).encode() + str(v.shape).encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, (list, tuple)):
            h.update(b"[")
            for item in v:
                feed(item)
            h.update(b"]")
        elif isinstance(v, dict):
            for key in sorted(v):
                feed(key)
                feed(v[key])
        else:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()


def corrupted(value: object) -> object:
    """``value`` with its first scalar changed: a deliberately wrong result."""
    if isinstance(value, np.ndarray):
        bad = value.copy()
        bad.flat[0] += 1
        return bad
    if isinstance(value, (list, tuple)):
        return type(value)([corrupted(value[0]), *value[1:]])
    if isinstance(value, bool):
        return not value
    return value + 1


def gmon_equal(a: GmonData, b: GmonData) -> bool:
    """Two GmonData carry the same profile (ticks, arcs, header fields)."""
    return (a.hist == b.hist and a.arcs == b.arcs
            and a.sample_period == b.sample_period
            and a.timestamp == b.timestamp and a.rank == b.rank)


def roundtrip_ok(snapshot: GmonData, blob: bytes) -> bool:
    """``blob`` decodes back to ``snapshot``; a corrupt blob fails, not raises."""
    try:
        return gmon_equal(loads_gmon(blob), snapshot)
    except ReproError:  # FormatError and friends: a wrong dump
        return False


def collect_op_ok(plain_result: object, profiled_result: object,
                  snapshot: GmonData, blob: bytes, digest: str,
                  arcs: int) -> bool:
    """A profiled op is right: both twins return the kernel's reference
    result, the call arcs add up to the kernel's exact count, and the
    dump decodes back to the snapshot."""
    return (result_digest(plain_result) == digest
            and result_digest(profiled_result) == digest
            and sum(snapshot.arcs.values()) == arcs
            and roundtrip_ok(snapshot, blob))


def selftest_collect(result: object, snapshot: GmonData, blob: bytes,
                     digest: str, arcs: int) -> None:
    """Corrupt each twin's result, move one arc count by one, change and
    truncate the dump."""
    expect_rejected("twin-result-plain", collect_op_ok(
        corrupted(result), result, snapshot, blob, digest, arcs))
    expect_rejected("twin-result-profiled", collect_op_ok(
        result, corrupted(result), snapshot, blob, digest, arcs))
    arc = next(iter(snapshot.arcs))
    moved = replace(snapshot, arcs={**snapshot.arcs,
                                    arc: snapshot.arcs[arc] + 1})
    expect_rejected("arc-count", collect_op_ok(
        result, result, moved, dumps_gmon(moved), digest, arcs))
    corrupt = bytearray(blob)
    corrupt[-1] ^= 0xFF
    expect_rejected("gmon-roundtrip", collect_op_ok(
        result, result, snapshot, bytes(corrupt), digest, arcs))
    expect_rejected("gmon-roundtrip-truncated", collect_op_ok(
        result, result, snapshot, blob[: len(blob) // 2], digest, arcs))
