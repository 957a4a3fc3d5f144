"""Publishers for ``incprofd``.

:class:`PhaseClient` is the low-level request/reply connection; on top of
it sit the replay helpers (stream a snapshot series or a
:class:`~repro.incprof.session.Session` run through the service, one
stream per rank) and :class:`SyntheticLoadGenerator`, which
manufactures deterministic snapshot streams for throughput and
backpressure testing without running a workload at all.

Failure handling is first-class:

- Error replies raise typed exceptions (:class:`RequestError` subclasses
  carrying the full reply payload) unless the client is built with — or
  the call passes — ``check=False``.
- Connection losses surface as :class:`ConnectionLostError`; the client
  reconnects with exponential backoff + jitter (:class:`RetryPolicy`),
  and every request runs under a per-request deadline.
- Publishers resume rather than blindly resend: after a reconnect they
  re-``hello`` with ``resume=True`` and continue from the sequence
  number the server reports, so a daemon restart (or a dropped reply)
  never produces duplicate classification.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.gprof.gmon import GmonData
from repro.heartbeat.accumulator import HeartbeatRecord
from repro.service.protocol import (
    ROUTE_UNAVAILABLE,
    ROUTING_CODES,
    Bye,
    Control,
    Endpoint,
    Hello,
    HeartbeatMsg,
    Message,
    Reply,
    SnapshotMsg,
    encode_message,
    frame_bytes,
    read_message,
)
from repro.service.tracing import new_trace_id
from repro.util.errors import (
    ConnectionLostError,
    ProtocolError,
    ReproError,
    RetryExhaustedError,
    UnknownStreamError,
    ValidationError,
    request_error_from_reply,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff and deadline knobs for one client connection.

    ``delay_for(attempt)`` grows ``base_delay * multiplier**attempt`` up
    to ``max_delay``, with symmetric ``jitter`` (a fraction of the raw
    delay) so a restarted daemon is not hit by a thundering herd of
    publishers retrying in lockstep.
    """

    max_attempts: int = 6
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.25
    #: Per-request deadline (seconds of silence before the request is
    #: declared lost); None waits forever.
    request_timeout: Optional[float] = 30.0
    connect_timeout: Optional[float] = 10.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError("need at least one attempt")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValidationError("need 0 <= base_delay <= max_delay")
        if self.multiplier < 1:
            raise ValidationError("backoff multiplier must be >= 1")
        if not 0 <= self.jitter <= 1:
            raise ValidationError("jitter must be a fraction in [0, 1]")

    def delay_for(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        raw = min(self.max_delay, self.base_delay * self.multiplier ** attempt)
        if self.jitter:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, raw)


#: Retries disabled: one attempt, fail fast (the pre-retry behaviour).
NO_RETRY = RetryPolicy(max_attempts=1, base_delay=0.0, max_delay=0.0,
                       jitter=0.0)

#: Resend budget per request: more routing replies in a row than this
#: means the fleet's view is churning; surface the routing reply instead
#: of looping.
MAX_ROUTE_HOPS = 4

#: In-flight window of pipelined submission.  Deep enough to hide one
#: round trip behind the next encode, shallow enough that a resume
#: rewind stays cheap.
PIPELINE_WINDOW = 8


class PhaseClient:
    """One connection to the daemon; strict request/reply, thread-safe.

    ``check=True`` (the default) raises a typed
    :class:`~repro.util.errors.RequestError` subclass on error replies;
    pass ``check=False`` (per client or per call) to get the raw
    :class:`Reply` back instead.  Connection losses raise
    :class:`~repro.util.errors.ConnectionLostError`; :meth:`reconnect`
    re-dials with the policy's backoff, and idempotent requests
    (``ping``/``stats``/``hello``...) retry through it transparently.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        *,
        retry: Optional[RetryPolicy] = None,
        check: bool = True,
        timeout: Optional[float] = None,
        seed: Optional[int] = None,
        follow_routing: bool = True,
    ) -> None:
        self.endpoint = endpoint
        self.retry = retry if retry is not None else RetryPolicy()
        if timeout is not None:
            self.retry = replace(self.retry, request_timeout=timeout)
        self.check = check
        #: Resend on fleet routing replies transparently.  A router's
        #: own worker links set this False: the router *is* the
        #: resolver, so a routing reply must surface to it, not be
        #: chased.
        self.follow_routing = follow_routing
        self.connect_retries = 0
        self.reconnects = 0
        self.request_retries = 0
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._sock = None
        self._fh = None
        with self._lock:
            self._connect_locked()

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def _connect_locked(self) -> None:
        """Dial with backoff; caller holds the lock."""
        policy = self.retry
        last: Optional[Exception] = None
        for attempt in range(policy.max_attempts):
            if attempt:
                self.connect_retries += 1
                time.sleep(policy.delay_for(attempt - 1, self._rng))
            try:
                sock = self.endpoint.connect(timeout=policy.connect_timeout)
                sock.settimeout(policy.request_timeout)
                self._sock = sock
                # Buffer comfortably above one pipeline window of frames
                # so a burst flush is one syscall, not several.
                self._fh = sock.makefile("rwb", buffering=65536)
                return
            except OSError as exc:
                last = exc
        raise RetryExhaustedError(
            f"cannot connect to {self.endpoint} after "
            f"{policy.max_attempts} attempts: {last}",
            attempts=policy.max_attempts, cause=last)

    def _teardown_locked(self) -> None:
        for closer in (self._fh, self._sock):
            if closer is None:
                continue
            try:
                closer.close()
            except (OSError, ValueError):
                pass
        self._fh = None
        self._sock = None

    def reconnect(self) -> None:
        """Tear down the dead connection and re-dial with backoff."""
        with self._lock:
            self._teardown_locked()
            self.reconnects += 1
            self._connect_locked()

    def close(self) -> None:
        with self._lock:
            self._teardown_locked()

    def __enter__(self) -> "PhaseClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # request/reply
    # ------------------------------------------------------------------
    def request(self, msg: Message, *, check: Optional[bool] = None,
                idempotent: bool = False) -> Reply:
        """Send one message and wait for the server's reply.

        Transport failures (dead socket, deadline expiry, corrupt reply
        frame) raise :class:`ConnectionLostError` — unless the request is
        ``idempotent``, in which case the client transparently reconnects
        and resends up to the policy's attempt budget.  Requests with
        server-side effects (snapshots, byes) must NOT be blindly resent:
        resume via ``hello(resume=True)`` instead.

        The message is encoded exactly once, up front — every retry and
        resend reuses the same frame bytes.  An oversized message
        therefore also fails here, locally, before any round trip.
        """
        frame = encode_message(msg)
        if not idempotent:
            return self._routed(frame, check)
        last: Optional[Exception] = None
        for attempt in range(self.retry.max_attempts):
            if attempt:
                self.request_retries += 1
                try:
                    self.reconnect()
                except RetryExhaustedError as exc:
                    last = exc
                    break
            try:
                return self._routed(frame, check)
            except ConnectionLostError as exc:
                last = exc
        raise RetryExhaustedError(
            f"request failed after {self.retry.max_attempts} attempts: {last}",
            attempts=self.retry.max_attempts, cause=last)

    def request_raw(self, payload: bytes, *, check: Optional[bool] = None) -> Reply:
        """Send one already-encoded payload verbatim and await the reply.

        The router's forward path: a validated frame payload goes to the
        owning worker byte for byte, with no decode/re-encode in between
        (binary snapshots keep their zero-copy gmon bytes).
        """
        return self._routed(frame_bytes(payload), check)

    def _routed(self, frame: bytes, check: Optional[bool]) -> Reply:
        """One request, resent while the fleet answers with routing replies.

        Routing replies (``wrong-worker``/``worker-unavailable``) mean
        "not processed, safe to resend" by protocol contract, so
        resending here is safe even for snapshots.  The resend goes to
        the same router on the same connection, and the router resolves
        the stream's owner again; an unavailable worker backs off first
        — the supervisor is likely mid-restart.  The hop budget keeps a
        churning fleet from looping this client forever.
        """
        reply = self._transact(frame, check=False)
        hops = 0
        while (self.follow_routing and not reply.ok
               and reply.data.get("code") in ROUTING_CODES
               and hops < MAX_ROUTE_HOPS):
            if reply.data["code"] == ROUTE_UNAVAILABLE:
                time.sleep(self.retry.delay_for(hops, self._rng))
            hops += 1
            reply = self._transact(frame, check=False)
        effective = self.check if check is None else check
        if effective and not reply.ok:
            raise request_error_from_reply(reply)
        return reply

    def _transact(self, frame: bytes, check: Optional[bool]) -> Reply:
        with self._lock:
            self._write_frame_locked(frame)
            reply = self._read_reply_locked()
        if not isinstance(reply, Reply):
            raise ProtocolError(f"expected a reply, got {type(reply).__name__}")
        effective = self.check if check is None else check
        if effective and not reply.ok:
            raise request_error_from_reply(reply)
        return reply

    def _write_frame_locked(self, frame: bytes, flush: bool = True) -> None:
        if self._fh is None:
            raise ConnectionLostError("client is disconnected "
                                      "(reconnect first)")
        try:
            self._fh.write(frame)
            if flush:
                self._fh.flush()
        except (OSError, ValueError) as exc:
            self._teardown_locked()
            raise ConnectionLostError(
                f"connection to {self.endpoint} died mid-request: {exc}",
                cause=exc) from exc

    def _read_reply_locked(self) -> Message:
        if self._fh is None:
            raise ConnectionLostError("client is disconnected "
                                      "(reconnect first)")
        try:
            reply = read_message(self._fh)
        except (OSError, ValueError) as exc:
            self._teardown_locked()
            raise ConnectionLostError(
                f"connection to {self.endpoint} died mid-request: {exc}",
                cause=exc) from exc
        except ProtocolError as exc:
            # A corrupt reply frame means the byte stream lost sync;
            # nothing further on this connection can be trusted.
            self._teardown_locked()
            raise ConnectionLostError(
                f"reply stream corrupt: {exc}", cause=exc) from exc
        if reply is None:
            self._teardown_locked()
            raise ConnectionLostError(
                "server closed the connection mid-request")
        return reply

    # ------------------------------------------------------------------
    # pipelined submission primitives
    # ------------------------------------------------------------------
    def send_frame(self, frame: bytes, *, flush: bool = True) -> None:
        """Write one already-encoded frame without waiting for its reply.

        The pipelining half-step: a publisher keeps up to N of these in
        flight and drains the replies with :meth:`read_reply` in send
        order (the server handles each connection's frames sequentially,
        so replies always come back in order).  ``flush=False`` only
        buffers the frame — :meth:`flush_frames` then puts the whole
        burst on the wire at once, one syscall for a full pipeline
        window instead of one per frame (and the server, seeing the
        burst arrive together, corks its replies the same way).
        """
        with self._lock:
            self._write_frame_locked(frame, flush=flush)

    def flush_frames(self) -> None:
        """Flush frames buffered by ``send_frame(flush=False)``."""
        with self._lock:
            if self._fh is None:
                raise ConnectionLostError("client is disconnected "
                                          "(reconnect first)")
            try:
                self._fh.flush()
            except (OSError, ValueError) as exc:
                self._teardown_locked()
                raise ConnectionLostError(
                    f"connection to {self.endpoint} died mid-flush: {exc}",
                    cause=exc) from exc

    def read_reply(self) -> Reply:
        """Read the next in-order reply for a pipelined send."""
        with self._lock:
            reply = self._read_reply_locked()
        if not isinstance(reply, Reply):
            raise ProtocolError(f"expected a reply, got {type(reply).__name__}")
        return reply

    # ------------------------------------------------------------------
    # typed requests
    # ------------------------------------------------------------------
    def hello(self, stream_id: str, app: str = "", rank: int = 0,
              resume: bool = False, *, check: Optional[bool] = None) -> Reply:
        """Register (or resume) a stream."""
        return self.request(
            Hello(stream_id=stream_id, app=app, rank=rank, resume=resume),
            check=check, idempotent=resume)

    def encode_snapshot(self, stream_id: str, seq: int, gmon: GmonData,
                        trace_id: str = "") -> bytes:
        """Encode one snapshot to a reusable binary frame."""
        return encode_message(
            SnapshotMsg(stream_id=stream_id, seq=seq, gmon=gmon,
                        trace_id=trace_id))

    def snapshot(self, stream_id: str, seq: int, gmon: GmonData,
                 *, trace_id: str = "",
                 check: Optional[bool] = None) -> Reply:
        """Submit one snapshot; ``trace_id`` propagates end to end.

        An empty trace id makes the server mint one; either way the reply
        data carries the effective id under ``"trace"``.
        """
        return self.request(SnapshotMsg(stream_id=stream_id, seq=seq,
                                        gmon=gmon, trace_id=trace_id),
                            check=check)

    def heartbeats(self, stream_id: str, records: Sequence[HeartbeatRecord],
                   *, check: Optional[bool] = None) -> Reply:
        return self.request(HeartbeatMsg(stream_id=stream_id,
                                         records=list(records)), check=check)

    def bye(self, stream_id: str, *, check: Optional[bool] = None) -> Reply:
        return self.request(Bye(stream_id=stream_id), check=check)

    def control(self, command: str, *, check: Optional[bool] = None,
                **args) -> Reply:
        return self.request(Control(command=command, args=args),
                            check=check, idempotent=command != "shutdown")

    def ping(self) -> Reply:
        return self.control("ping")

    def stats(self) -> Reply:
        return self.control("stats")

    def fleet_status(self) -> Reply:
        return self.control("fleet-status")

    def fleet_analytics(self, *, kmax: Optional[int] = None,
                        drift_window: Optional[int] = None) -> Reply:
        """Cross-stream cohort/anomaly/drift report (daemon or router)."""
        args: Dict[str, object] = {}
        if kmax is not None:
            args["kmax"] = kmax
        if drift_window is not None:
            args["drift_window"] = drift_window
        return self.control("fleet_analytics", **args)

    def metrics(self) -> str:
        """Prometheus text exposition of the daemon's self-metrics."""
        return str(self.control("metrics").data.get("text", ""))

    def trace(self, trace_id: Optional[str] = None,
              stream_id: Optional[str] = None, limit: int = 50,
              completed_only: bool = False) -> Reply:
        """Query the daemon's trace ring (by id, stream, or most recent)."""
        args: Dict[str, object] = {"limit": limit,
                                   "completed_only": completed_only}
        if trace_id is not None:
            args["trace_id"] = trace_id
        if stream_id is not None:
            args["stream_id"] = stream_id
        return self.control("trace", **args)

    def shutdown(self) -> Reply:
        return self.control("shutdown")


@dataclass
class PublishReport:
    """What one stream's replay achieved."""

    stream_id: str
    sent: int = 0
    accepted: int = 0
    dropped_oldest: int = 0
    rejected: int = 0
    novel: int = 0
    processed: int = 0
    drained: bool = False
    phase_sequence: List[int] = field(default_factory=list)
    heartbeats_sent: int = 0
    error: str = ""
    #: Resilience counters: how many reconnect-and-resume handshakes the
    #: replay needed, how many extra connection dials the backoff made,
    #: and how many snapshot sends were repeats after a resume rewind.
    reconnects: int = 0
    retries: int = 0
    resent: int = 0
    #: Pipelined intervals whose admission ack died with a connection
    #: but whose durability the resume point confirmed; they count in
    #: ``sent``/``accepted`` because the server holds them.
    acks_lost: int = 0
    #: seq -> effective trace id of that submission (client-minted, or
    #: what the server's reply reported for it).
    trace_ids: Dict[int, str] = field(default_factory=dict)
    #: Stream model version observed on each snapshot reply, in send
    #: order — a live refit on the server shows up as a monotone step.
    model_versions: List[int] = field(default_factory=list)
    #: Final model version (from the bye reply), and which version
    #: classified each interval (parallel to ``phase_sequence``).
    model_version: int = 0
    classified_versions: List[int] = field(default_factory=list)


def publish_samples(
    endpoint: Endpoint,
    stream_id: str,
    samples: Sequence[GmonData],
    app: str = "",
    rank: int = 0,
    heartbeat_records: Sequence[HeartbeatRecord] = (),
    delay: float = 0.0,
    retry: Optional[RetryPolicy] = None,
    trace: bool = True,
) -> PublishReport:
    """Replay one rank's cumulative snapshot series through the service.

    This is the stream a deployed IncProf runtime would produce: ``hello``,
    one ``snapshot`` per collection interval (plus any AppEKG rows), and an
    orderly ``bye`` whose reply carries the server-side classification.

    Submission is *pipelined*: each snapshot is encoded once, as a
    binary frame, and up to :data:`PIPELINE_WINDOW` frames ride the wire
    before the first reply is drained, so round-trip latency is paid
    once per window instead of once per interval.  Windows move in
    *bursts* — the frames of a window are buffered and flushed in one
    write, and the window's replies drain together — so syscall and
    wakeup costs are paid per window too.  The replies come back in
    send order, each echoing its sequence number, and any misalignment
    (a swallowed reply) resyncs through the resume handshake rather
    than guessing.

    The replay rides through connection losses and daemon restarts: on
    failure it reconnects (exponential backoff + jitter), re-``hello``\\ s
    with ``resume=True``, and continues from the sequence number the
    server asks for — rewinding after a restart, fast-forwarding past
    snapshots whose replies were lost after admission.  Rewound intervals
    resend their cached frames verbatim — no re-serialization.  The
    report's ``reconnects``/``retries``/``resent`` counters say how bumpy
    the ride was.

    With ``trace=True`` (the default) every submission carries a fresh
    trace id; the effective ids land in ``report.trace_ids`` so callers
    can query per-stage span timings back out of the daemon.
    """
    report = PublishReport(stream_id=stream_id)
    samples = list(samples)

    def resume(client: PhaseClient) -> int:
        """Reconnect + resume handshake; returns the next seq to send."""
        client.reconnect()
        report.reconnects += 1
        reply = client.hello(stream_id, app=app, rank=rank, resume=True)
        if not reply.ok:
            raise RetryExhaustedError(
                f"resume hello refused: {reply.error}",
                attempts=client.retry.max_attempts)
        return int(reply.data.get("resume_from", 0))

    try:
        with PhaseClient(endpoint, retry=retry, check=False) as client:
            reply = client.hello(stream_id, app=app, rank=rank, resume=True)
            if not reply.ok:
                report.error = reply.error
                return report

            #: seq -> (encoded frame, trace id).  Encoded exactly once;
            #: a resume rewind resends these bytes verbatim.  Entries are
            #: evicted when their reply is processed.
            frames: Dict[int, Tuple[bytes, str]] = {}
            in_flight: Deque[int] = deque()
            next_seq = int(reply.data.get("resume_from", 0))
            max_sent = -1
            stalls = 0

            def frame_for(s: int) -> bytes:
                cached = frames.get(s)
                if cached is None:
                    tid = new_trace_id() if trace else ""
                    cached = (client.encode_snapshot(stream_id, s,
                                                     samples[s], tid), tid)
                    frames[s] = cached
                return cached[0]

            def rewind() -> None:
                """Resume handshake + reconcile in-flight state.

                In-flight intervals below the resume point were durably
                admitted server-side but their acks died with the
                connection; the resume point is the server's word for
                that, so credit them here — otherwise a crash that eats
                a window of replies would leave intervals the fleet
                holds uncounted in the ledger.
                """
                nonlocal next_seq, max_sent
                head = in_flight[0] if in_flight else next_seq
                next_seq = resume(client)
                for s in range(head, next_seq):
                    report.sent += 1
                    report.accepted += 1
                    report.acks_lost += 1
                    if s <= max_sent:
                        report.resent += 1
                    max_sent = max(max_sent, s)
                    tid = frames.pop(s, (b"", ""))[1]
                    if tid:
                        report.trace_ids.setdefault(s, tid)
                in_flight.clear()
                # Any other frames at or past the resume point stay
                # cached for verbatim resend; stale ones below it go.
                for s in [s for s in frames if s < next_seq]:
                    del frames[s]

            #: Replies already read off the wire for this burst but not
            #: yet reconciled against ``in_flight``.
            pending: Deque[Reply] = deque()

            while next_seq < len(samples) or in_flight or pending:
                if not pending:
                    try:
                        # One burst: fill the window with buffered
                        # writes, flush once, then drain the window's
                        # replies together (the server corks them into
                        # one flush too) — syscalls per interval drop
                        # from two round-trips' worth to ~2/window.
                        while (next_seq < len(samples)
                               and len(in_flight) < PIPELINE_WINDOW):
                            client.send_frame(frame_for(next_seq),
                                              flush=False)
                            in_flight.append(next_seq)
                            next_seq += 1
                        client.flush_frames()
                        for _ in range(len(in_flight)):
                            pending.append(client.read_reply())
                    except ConnectionLostError:
                        pending.clear()
                        rewind()
                        continue
                reply = pending.popleft()
                seq = in_flight.popleft()
                echoed = reply.data.get("seq")
                if echoed is not None and int(echoed) != seq:
                    # The reply stream no longer lines up with the sends
                    # (a swallowed reply); resync through the resume
                    # handshake rather than guessing which ack this is.
                    # The popped seq goes back in flight first so the
                    # rewind can reconcile it like the rest; the burst's
                    # remaining replies are stale now and are dropped.
                    in_flight.appendleft(seq)
                    pending.clear()
                    rewind()
                    continue
                code = str(reply.data.get("code", ""))
                if (not reply.ok
                        and (code in ROUTING_CODES
                             or code == UnknownStreamError.code)):
                    # A routing refusal that survived the client's resend
                    # budget means "not processed" — the fleet is mid-
                    # rebalance.  ``unknown-stream`` mid-replay means the
                    # same thing from the other side: the stream's new
                    # owner saw this snapshot before its adoption (or an
                    # idle expiry) landed.  Either way, re-resolve and
                    # resend this interval instead of counting it
                    # rejected (which would lose it); give up only after
                    # repeated stalls.
                    stalls += 1
                    if stalls > client.retry.max_attempts:
                        report.error = reply.error
                        return report
                    in_flight.appendleft(seq)
                    pending.clear()
                    rewind()
                    continue
                stalls = 0
                report.sent += 1
                trace_id = frames.pop(seq, (b"", ""))[1]
                effective = str(reply.data.get("trace", trace_id) or "")
                if effective:
                    report.trace_ids[seq] = effective
                version = reply.data.get("model_version")
                if version is not None:
                    report.model_versions.append(int(version))
                if seq <= max_sent:
                    report.resent += 1
                max_sent = max(max_sent, seq)
                outcome = reply.data.get("outcome", "")
                if reply.ok and outcome == "accepted":
                    report.accepted += 1
                elif reply.ok and outcome == "dropped-oldest":
                    report.accepted += 1
                    report.dropped_oldest += 1
                elif reply.ok and outcome == "duplicate":
                    # Already durably classified (a resend raced an
                    # adoption); counted in ``resent``, not a rejection.
                    report.accepted += 1
                else:
                    report.rejected += 1
                if delay > 0:
                    time.sleep(delay)
            if heartbeat_records:
                try:
                    hb = client.heartbeats(stream_id, heartbeat_records)
                except ConnectionLostError:
                    resume(client)
                    hb = client.heartbeats(stream_id, heartbeat_records)
                if hb.ok:
                    report.heartbeats_sent = int(hb.data.get("accepted", 0))
            try:
                reply = client.bye(stream_id)
            except ConnectionLostError:
                resume(client)
                reply = client.bye(stream_id)
            if reply.ok:
                report.drained = bool(reply.data.get("drained", False))
                report.processed = int(reply.data.get("processed", 0))
                report.novel = int(reply.data.get("novel", 0))
                report.phase_sequence = [int(p) for p in
                                         reply.data.get("phase_sequence", [])]
                report.model_version = int(reply.data.get("model_version", 0))
                report.classified_versions = [
                    int(v) for v in reply.data.get("model_versions", [])]
            else:
                report.error = reply.error
            report.retries = client.connect_retries + client.request_retries
    except RetryExhaustedError as exc:
        report.error = str(exc)
    return report


def publish_session(
    endpoint: Endpoint,
    result,
    stream_prefix: str = "",
    include_heartbeats: bool = True,
    delay: float = 0.0,
    retry: Optional[RetryPolicy] = None,
) -> Dict[str, PublishReport]:
    """Stream every rank of a :class:`~repro.incprof.session.SessionResult`
    through the service concurrently (one connection + thread per rank)."""
    prefix = stream_prefix or f"{result.app_name}"
    reports: Dict[str, PublishReport] = {}
    reports_lock = threading.Lock()

    def one_rank(rank_result) -> None:
        stream_id = f"{prefix}-r{rank_result.rank}"
        try:
            report = publish_samples(
                endpoint,
                stream_id,
                rank_result.samples,
                app=result.app_name,
                rank=rank_result.rank,
                heartbeat_records=(rank_result.heartbeat_records
                                   if include_heartbeats else ()),
                delay=delay,
                retry=retry,
            )
        except (ReproError, OSError) as exc:
            # A publisher thread must not die silently: surface the
            # failure (unreachable daemon, dropped connection) in its
            # report instead.
            report = PublishReport(stream_id=stream_id, error=str(exc))
        with reports_lock:
            reports[stream_id] = report

    threads = [threading.Thread(target=one_rank, args=(rr,),
                                name=f"publish-{prefix}-r{rr.rank}")
               for rr in result.per_rank]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return reports


@dataclass
class LoadResult:
    """Aggregate outcome of one synthetic load run."""

    streams: Dict[str, PublishReport]
    elapsed: float
    sent: int
    processed: int
    rejected: int
    dropped_oldest: int

    @property
    def throughput(self) -> float:
        """Client-side intervals/second across all streams."""
        return self.sent / self.elapsed if self.elapsed > 0 else 0.0


class SyntheticLoadGenerator:
    """Deterministic snapshot streams for stress and throughput tests.

    Each stream is a cumulative gmon series over a small function set —
    enough structure for the tracker to classify, cheap enough that the
    generator, not the service, is never the bottleneck in tests.
    """

    def __init__(
        self,
        functions: Sequence[str] = ("kernel", "reduce", "exchange"),
        sample_period: float = 0.01,
        ticks_per_interval: int = 100,
    ) -> None:
        if not functions:
            raise ValidationError("need at least one function")
        self.functions = list(functions)
        self.sample_period = sample_period
        self.ticks_per_interval = ticks_per_interval

    def stream(self, stream_seed: int, n_intervals: int,
               pattern: Optional[Callable[[int], int]] = None,
               ) -> List[GmonData]:
        """One stream's cumulative snapshots (deterministic in the seed).

        ``pattern`` overrides the dominant-function schedule: called
        with the interval index, it returns the dominant function's
        index (taken modulo the function count).  Lets tests and the
        analytics selftest drive *distinct workload shapes* — steady,
        alternating, bursty — over one shared function universe, so
        they classify against one model yet separate into cohorts.
        """
        cumulative = GmonData(sample_period=self.sample_period, rank=stream_seed)
        snapshots: List[GmonData] = []
        n_funcs = len(self.functions)
        for i in range(n_intervals):
            # Rotate the dominant function so streams show phase structure.
            dominant = (pattern(i) % n_funcs if pattern is not None
                        else (stream_seed + i // 4) % n_funcs)
            for j, func in enumerate(self.functions):
                share = 0.7 if j == dominant else 0.3 / max(1, n_funcs - 1)
                cumulative.add_ticks(func, int(self.ticks_per_interval * share))
            snap = cumulative.copy()
            snap.timestamp = float(i + 1)
            snapshots.append(snap)
        return snapshots

    def run(
        self,
        endpoint: Endpoint,
        n_streams: int,
        n_intervals: int,
        stream_prefix: str = "load",
        delay: float = 0.0,
        retry: Optional[RetryPolicy] = None,
    ) -> LoadResult:
        """Publish ``n_streams`` concurrent synthetic streams; aggregate."""
        reports: Dict[str, PublishReport] = {}
        lock = threading.Lock()

        def one(i: int) -> None:
            stream_id = f"{stream_prefix}-{i}"
            try:
                report = publish_samples(endpoint, stream_id,
                                         self.stream(i, n_intervals),
                                         app="synthetic-load", rank=i,
                                         delay=delay, retry=retry)
            except (ReproError, OSError) as exc:
                report = PublishReport(stream_id=stream_id, error=str(exc))
            with lock:
                reports[stream_id] = report

        start = time.monotonic()
        threads = [threading.Thread(target=one, args=(i,), name=f"load-{i}")
                   for i in range(n_streams)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.monotonic() - start
        return LoadResult(
            streams=reports,
            elapsed=elapsed,
            sent=sum(r.sent for r in reports.values()),
            processed=sum(r.processed for r in reports.values()),
            rejected=sum(r.rejected for r in reports.values()),
            dropped_oldest=sum(r.dropped_oldest for r in reports.values()),
        )


class ScenarioLoadGenerator:
    """Generated heterogeneous fleet traffic from scenario specs.

    Where :class:`SyntheticLoadGenerator` rotates dominants over one
    shared function universe, this generator draws each stream's
    snapshots from a *generated scenario's* ground-truth phase timeline
    (:func:`repro.apps.generator.scenario_snapshots`) — distinct kernel
    universes, phase durations, and Markov phase sequences per shape —
    so fleet tests see the mixed-phase heterogeneity real deployments
    produce.  Streams are assigned shapes explicitly, keeping worker
    placement and shape coverage under the caller's control.
    """

    def __init__(self, specs: Sequence[object], interval: float = 1.0,
                 sample_period: float = 0.01,
                 ticks_per_interval: int = 200) -> None:
        if not specs:
            raise ValidationError("need at least one scenario spec")
        self.specs = list(specs)
        self.interval = interval
        self.sample_period = sample_period
        self.ticks_per_interval = ticks_per_interval

    def stream(self, shape: int, n_intervals: int,
               rank: int = 0) -> List[GmonData]:
        """One stream's cumulative snapshots for the given shape index."""
        from repro.apps.generator import scenario_snapshots

        spec = self.specs[shape % len(self.specs)]
        return scenario_snapshots(
            spec, n_intervals, interval=self.interval,
            ticks_per_interval=self.ticks_per_interval,
            sample_period=self.sample_period, rank=rank)

    def run(
        self,
        endpoint: Endpoint,
        streams: Sequence[Tuple[str, int]],
        n_intervals: int,
        delay: float = 0.0,
        retry: Optional[RetryPolicy] = None,
    ) -> LoadResult:
        """Publish ``(stream_id, shape_index)`` streams concurrently."""
        reports: Dict[str, PublishReport] = {}
        lock = threading.Lock()

        def one(index: int, stream_id: str, shape: int) -> None:
            spec = self.specs[shape % len(self.specs)]
            try:
                report = publish_samples(
                    endpoint, stream_id,
                    self.stream(shape, n_intervals, rank=index),
                    app=getattr(spec, "name", "scenario-load"), rank=index,
                    delay=delay, retry=retry)
            except (ReproError, OSError) as exc:
                report = PublishReport(stream_id=stream_id, error=str(exc))
            with lock:
                reports[stream_id] = report

        start = time.monotonic()
        threads = [
            threading.Thread(target=one, args=(i, stream_id, shape),
                             name=f"scenario-load-{i}")
            for i, (stream_id, shape) in enumerate(streams)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.monotonic() - start
        return LoadResult(
            streams=reports,
            elapsed=elapsed,
            sent=sum(r.sent for r in reports.values()),
            processed=sum(r.processed for r in reports.values()),
            rejected=sum(r.rejected for r in reports.values()),
            dropped_oldest=sum(r.dropped_oldest for r in reports.values()),
        )
