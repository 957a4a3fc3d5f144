"""The ``incprofd`` wire protocol.

Every message is one *frame*: a 4-byte big-endian payload length followed
by a payload.  Each message kind has exactly one encoding, and this
module is the only place that chooses it:

- A **snapshot** is a binary frame: a struct-packed header plus the
  *raw* gmon serialization (no base64, no JSON re-encode); the receiver
  carves the gmon bytes out of the frame zero-copy with ``memoryview``.
  A snapshot **ack** is packed the same way whenever the packed layout
  carries it exactly.
- **Every other kind** (hello, heartbeat, control, reply, bye) is a
  UTF-8 JSON object carrying ``"v": 1`` and ``"type"`` (message kind);
  the remaining keys are the typed message's fields.

A binary payload starts with a NUL byte — never a valid JSON start — so
a receiver dispatches per frame without any out-of-band state.  A JSON
``snapshot`` payload is not a snapshot encoding and is rejected.

Message kinds
-------------
``hello``      stream registration (stream id, app name, rank)
``snapshot``   one cumulative gmon dump with a per-stream sequence number
               and an optional publisher-minted trace id
``heartbeat``  a batch of AppEKG heartbeat rows
``control``    service commands (``ping``, ``stats``, ``metrics``,
               ``trace``, ``fleet-status``, ``shutdown``)
``reply``      server response: ok/error plus a data payload
``bye``        orderly stream shutdown

Anything malformed — short frame, oversized frame, broken JSON, unknown
type, missing field, undecodable snapshot, a snapshot sent as JSON —
raises :class:`~repro.util.errors.ProtocolError`; a clean EOF between
frames returns ``None`` from :func:`read_message`.
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import asdict, dataclass, field
from typing import Any, BinaryIO, Dict, List, Optional, Tuple, Union

from repro.gprof.gmon import GmonBlob, GmonData, dumps_gmon, loads_gmon
from repro.heartbeat.accumulator import HeartbeatRecord
from repro.util.errors import FormatError, ProtocolError

#: The ``"v"`` of every JSON payload.
PROTOCOL_VERSION = 1
#: The version byte of every binary frame.
BINARY_PROTOCOL_VERSION = 2

#: Hard cap on one frame's JSON payload; anything larger is rejected
#: before allocation (a malicious or corrupt length prefix must not make
#: the server try to buffer gigabytes).
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct(">I")


# ----------------------------------------------------------------------
# typed messages
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Hello:
    """Register a stream (one per rank/node) with the service.

    With ``resume`` the hello is *idempotent*: if the stream already
    exists (live, or restored from a checkpoint) the server re-attaches
    to it instead of rejecting a duplicate, and the reply's
    ``resume_from`` tells the publisher the next sequence number the
    server wants — the reconnect handshake after a connection loss or a
    daemon restart.
    """

    stream_id: str
    app: str = ""
    rank: int = 0
    resume: bool = False

    TYPE = "hello"


@dataclass(frozen=True)
class SnapshotMsg:
    """One cumulative gmon dump from a stream.

    ``seq`` is the publisher's interval index; the server uses it to
    detect gaps and report per-stream lag.  ``trace_id`` (optional)
    follows the submission through the service pipeline — queue, worker
    pool, aggregation — and its per-stage span timings are queryable via
    the ``trace`` control request.  An empty trace id means "untraced";
    the server mints one on admission so every interval is traceable.

    ``gmon`` is normally a parsed :class:`GmonData`; it may instead be a
    :class:`GmonBlob` — already-serialized bytes that the binary frame
    carries verbatim and a lazy decode hands back unparsed.
    """

    stream_id: str
    seq: int
    gmon: Union[GmonData, GmonBlob]
    trace_id: str = ""

    TYPE = "snapshot"


@dataclass(frozen=True)
class HeartbeatMsg:
    """A batch of AppEKG heartbeat rows from one stream."""

    stream_id: str
    records: List[HeartbeatRecord] = field(default_factory=list)

    TYPE = "heartbeat"


@dataclass(frozen=True)
class Control:
    """A service command (``ping``/``stats``/``fleet-status``/``shutdown``)."""

    command: str
    args: Dict[str, Any] = field(default_factory=dict)

    TYPE = "control"


@dataclass(frozen=True)
class Reply:
    """Server response to any request."""

    ok: bool
    error: str = ""
    data: Dict[str, Any] = field(default_factory=dict)

    TYPE = "reply"


@dataclass(frozen=True)
class Bye:
    """Orderly end-of-stream."""

    stream_id: str = ""

    TYPE = "bye"


Message = Any  # union of the dataclasses above


# ----------------------------------------------------------------------
# wire <-> message
# ----------------------------------------------------------------------
def _record_to_wire(record: HeartbeatRecord) -> Dict[str, Any]:
    return asdict(record)

_RECORD_FIELDS = ("rank", "hb_id", "interval_index", "time", "count", "avg_duration")


def _record_from_wire(obj: Any) -> HeartbeatRecord:
    if not isinstance(obj, dict):
        raise ProtocolError("heartbeat record must be an object")
    try:
        # A missing/null minimum stays None ("not observed"), never 0.0:
        # a 0.0 default would survive any downstream min-merge as if a
        # genuine 0-second beat had been measured.
        raw_min = obj.get("min_duration")
        return HeartbeatRecord(
            rank=int(obj["rank"]),
            hb_id=int(obj["hb_id"]),
            interval_index=int(obj["interval_index"]),
            time=float(obj["time"]),
            count=float(obj["count"]),
            avg_duration=float(obj["avg_duration"]),
            min_duration=None if raw_min is None else float(raw_min),
            max_duration=float(obj.get("max_duration", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad heartbeat record: {exc!r}") from exc


def message_to_obj(msg: Message) -> Dict[str, Any]:
    """Lower a typed message to its wire JSON object (snapshots have none)."""
    obj: Dict[str, Any] = {"v": PROTOCOL_VERSION, "type": msg.TYPE}
    if isinstance(msg, Hello):
        obj.update(stream_id=msg.stream_id, app=msg.app, rank=msg.rank,
                   resume=msg.resume)
    elif isinstance(msg, HeartbeatMsg):
        obj.update(stream_id=msg.stream_id,
                   records=[_record_to_wire(r) for r in msg.records])
    elif isinstance(msg, Control):
        obj.update(command=msg.command, args=dict(msg.args))
    elif isinstance(msg, Reply):
        obj.update(ok=msg.ok, error=msg.error, data=dict(msg.data))
    elif isinstance(msg, Bye):
        obj.update(stream_id=msg.stream_id)
    else:
        raise ProtocolError(f"cannot encode {type(msg).__name__} as JSON")
    return obj


def _require(obj: Dict[str, Any], key: str, kind: type) -> Any:
    if key not in obj:
        raise ProtocolError(f"message missing field {key!r}")
    value = obj[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ProtocolError(f"field {key!r} must be {kind.__name__}")
    return value


def message_from_obj(obj: Any) -> Message:
    """Raise a typed message from a decoded wire JSON object."""
    if not isinstance(obj, dict):
        raise ProtocolError("frame payload must be a JSON object")
    version = _require(obj, "v", int)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    kind = _require(obj, "type", str)
    if kind == Hello.TYPE:
        return Hello(stream_id=_require(obj, "stream_id", str),
                     app=str(obj.get("app", "")), rank=int(obj.get("rank", 0)),
                     resume=bool(obj.get("resume", False)))
    if kind == SnapshotMsg.TYPE:
        raise ProtocolError("a snapshot travels only as a binary frame, "
                            "never as JSON")
    if kind == HeartbeatMsg.TYPE:
        records = _require(obj, "records", list)
        return HeartbeatMsg(stream_id=_require(obj, "stream_id", str),
                            records=[_record_from_wire(r) for r in records])
    if kind == Control.TYPE:
        return Control(command=_require(obj, "command", str),
                       args=dict(obj.get("args") or {}))
    if kind == Reply.TYPE:
        return Reply(ok=_require(obj, "ok", bool), error=str(obj.get("error", "")),
                     data=dict(obj.get("data") or {}))
    if kind == Bye.TYPE:
        return Bye(stream_id=str(obj.get("stream_id", "")))
    raise ProtocolError(f"unknown message type {kind!r}")


# ----------------------------------------------------------------------
# binary frames
# ----------------------------------------------------------------------
#: First payload bytes of every binary frame.  A JSON payload can never
#: start with NUL, so one receiver dispatches both encodings per frame
#: with no out-of-band state.
BINARY_MAGIC = b"\x00IPB"
_BIN_PREFIX = struct.Struct(">4sBB")    # magic, codec version, kind code
_BIN_SNAPSHOT = struct.Struct(">QIHH")  # seq, gmon_len, stream_id_len, trace_id_len
_BIN_ACK = struct.Struct(">BBQIHHB")    # flags, outcome, seq, model_version,
                                        # trace_len, error_len, code_len
KIND_SNAPSHOT = 1
KIND_ACK = 2

_ACK_FLAG_OK = 1
_ACK_FLAG_MODEL = 2
#: Snapshot ack outcomes with a packed representation.  The codes are
#: wire constants — append, never renumber.
_ACK_OUTCOMES = {1: "accepted", 2: "dropped-oldest", 3: "rejected",
                 4: "duplicate"}
_ACK_CODES = {name: code for code, name in _ACK_OUTCOMES.items()}
_ACK_KEYS = frozenset(("outcome", "seq", "trace", "model_version", "code"))


@dataclass(frozen=True)
class BinaryEnvelope:
    """A peeked binary snapshot: routing fields without the gmon decoded.

    Lets a proxy (the fleet router) pick the owning worker and forward
    the original payload verbatim — no deserialize/re-serialize of the
    dominant part of the frame.
    """

    kind: int
    type: str
    stream_id: str
    seq: int
    trace_id: str = ""


def _binary_kind(view: memoryview) -> int:
    """Validate a binary payload's prefix and return its kind code."""
    if view.nbytes < _BIN_PREFIX.size:
        raise ProtocolError("binary frame shorter than its prefix")
    magic, version, kind = _BIN_PREFIX.unpack_from(view, 0)
    if magic != BINARY_MAGIC:
        raise ProtocolError(f"bad binary frame magic {bytes(magic)!r}")
    if version != BINARY_PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported binary protocol version {version}")
    return kind


def _is_snapshot_ack(msg: Message) -> bool:
    """Whether ``msg`` is a snapshot ack the packed layout can carry.

    Deliberately strict: any reply with extra keys, an unknown outcome,
    or a field that does not fit its fixed-width slot is *not* an ack
    for encoding purposes and rides JSON instead — fallback, never
    failure.
    """
    if not isinstance(msg, Reply):
        return False
    data = msg.data
    if not isinstance(data, dict) or not _ACK_KEYS.issuperset(data):
        return False
    if data.get("outcome") not in _ACK_CODES:
        return False
    seq = data.get("seq")
    if type(seq) is not int or not 0 <= seq <= 0xFFFFFFFFFFFFFFFF:
        return False
    trace = data.get("trace")
    if not isinstance(trace, str) or len(trace.encode("utf-8")) > 0xFFFF:
        return False
    if "model_version" in data:
        mv = data["model_version"]
        if type(mv) is not int or not 0 <= mv <= 0xFFFFFFFF:
            return False
    if "code" in data:
        code = data["code"]
        if not isinstance(code, str) or not code or len(code.encode("utf-8")) > 0xFF:
            return False
    return len(msg.error.encode("utf-8")) <= 0xFFFF


def _encode_ack(msg: Reply) -> bytes:
    """Pack a snapshot ack (:func:`_is_snapshot_ack` must hold)."""
    data = msg.data
    trace = data["trace"].encode("utf-8")
    error = msg.error.encode("utf-8")
    code = data.get("code", "").encode("utf-8")
    mv = data.get("model_version")
    flags = ((_ACK_FLAG_OK if msg.ok else 0)
             | (_ACK_FLAG_MODEL if mv is not None else 0))
    return b"".join((
        _BIN_PREFIX.pack(BINARY_MAGIC, BINARY_PROTOCOL_VERSION, KIND_ACK),
        _BIN_ACK.pack(flags, _ACK_CODES[data["outcome"]], data["seq"],
                      mv or 0, len(trace), len(error), len(code)),
        trace, error, code))


def _parse_binary_ack(view: memoryview) -> Reply:
    """Inverse of :func:`_encode_ack` (prefix already validated)."""
    off = _BIN_PREFIX.size
    if view.nbytes < off + _BIN_ACK.size:
        raise ProtocolError("binary ack frame truncated in its header")
    flags, outcome_code, seq, mv, t_len, e_len, c_len = \
        _BIN_ACK.unpack_from(view, off)
    off += _BIN_ACK.size
    end = off + t_len + e_len + c_len
    if end != view.nbytes:
        raise ProtocolError(f"binary ack frame length mismatch: header "
                            f"implies {end} bytes, frame has {view.nbytes}")
    outcome = _ACK_OUTCOMES.get(outcome_code)
    if outcome is None:
        raise ProtocolError(f"unknown binary ack outcome {outcome_code}")
    try:
        trace = bytes(view[off:off + t_len]).decode("utf-8")
        error = bytes(view[off + t_len:off + t_len + e_len]).decode("utf-8")
        code = bytes(view[off + t_len + e_len:end]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"binary ack fields are not UTF-8: {exc}") from exc
    data: Dict[str, Any] = {"outcome": outcome, "seq": seq, "trace": trace}
    if flags & _ACK_FLAG_MODEL:
        data["model_version"] = mv
    if code:
        data["code"] = code
    return Reply(ok=bool(flags & _ACK_FLAG_OK), error=error, data=data)


def _parse_binary_snapshot(view: memoryview) -> Tuple[int, str, str, memoryview]:
    """Validate a binary snapshot; return (seq, stream_id, trace_id, gmon bytes).

    The gmon bytes come back as a ``memoryview`` slice of the input —
    zero-copy — so callers that only need the envelope never touch them.
    """
    if _binary_kind(view) != KIND_SNAPSHOT:
        raise ProtocolError(
            f"unknown binary frame kind {_binary_kind(view)}")
    off = _BIN_PREFIX.size
    if view.nbytes < off + _BIN_SNAPSHOT.size:
        raise ProtocolError("binary snapshot frame truncated in its header")
    seq, gmon_len, sid_len, tid_len = _BIN_SNAPSHOT.unpack_from(view, off)
    off += _BIN_SNAPSHOT.size
    end = off + sid_len + tid_len + gmon_len
    if end != view.nbytes:
        raise ProtocolError(f"binary snapshot frame length mismatch: header "
                            f"implies {end} bytes, frame has {view.nbytes}")
    try:
        stream_id = bytes(view[off:off + sid_len]).decode("utf-8")
        trace_id = bytes(view[off + sid_len:off + sid_len + tid_len]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"binary frame id fields are not UTF-8: {exc}") from exc
    if not stream_id:
        raise ProtocolError("binary snapshot frame has an empty stream id")
    return seq, stream_id, trace_id, view[off + sid_len + tid_len:end]


class JsonCodec:
    """UTF-8 JSON payloads: every message kind except snapshots."""

    def encode(self, msg: Message) -> bytes:
        return json.dumps(message_to_obj(msg), separators=(",", ":")).encode("utf-8")

    def decode(self, payload: Union[bytes, memoryview]) -> Message:
        try:
            obj = json.loads(bytes(payload).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"frame payload is not valid JSON: {exc}") from exc
        return message_from_obj(obj)


class BinaryCodec:
    """Struct-packed snapshot payloads carrying raw gmon bytes.

    Snapshot layout (big-endian)::

        magic  b"\\x00IPB"             4 bytes
        codec version (2)              u8
        kind code (1 = snapshot)       u8
        seq                            u64
        gmon_len                       u32
        stream_id_len                  u16
        trace_id_len                   u16
        stream_id                      UTF-8, stream_id_len bytes
        trace_id                       UTF-8, trace_id_len bytes
        gmon                           raw IGMON serialization, gmon_len bytes

    Its :meth:`encode` is where each message kind's one encoding is
    chosen: snapshots — the hot path — and the snapshot acks a packed
    frame carries exactly go binary; every other message goes to the
    JSON codec, which the receiver tells apart per frame.
    """

    def encode(self, msg: Message) -> bytes:
        if not isinstance(msg, SnapshotMsg):
            if _is_snapshot_ack(msg):
                return _encode_ack(msg)
            return JSON_CODEC.encode(msg)
        sid = msg.stream_id.encode("utf-8")
        tid = msg.trace_id.encode("utf-8")
        if len(sid) > 0xFFFF or len(tid) > 0xFFFF:
            raise ProtocolError("stream/trace id too long for a binary frame")
        if not 0 <= msg.seq <= 0xFFFFFFFFFFFFFFFF:
            raise ProtocolError(f"sequence number {msg.seq} does not fit u64")
        gmon = (bytes(msg.gmon.raw) if isinstance(msg.gmon, GmonBlob)
                else dumps_gmon(msg.gmon))
        size = _BIN_PREFIX.size + _BIN_SNAPSHOT.size + len(sid) + len(tid) + len(gmon)
        if size > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {size} bytes exceeds the "
                                f"{MAX_FRAME_BYTES}-byte limit")
        return b"".join((
            _BIN_PREFIX.pack(BINARY_MAGIC, BINARY_PROTOCOL_VERSION,
                             KIND_SNAPSHOT),
            _BIN_SNAPSHOT.pack(msg.seq, len(gmon), len(sid), len(tid)),
            sid, tid, gmon))

    def decode(self, payload: Union[bytes, memoryview],
               lazy_gmon: bool = False) -> Message:
        """Decode a binary payload; ``lazy_gmon`` defers the gmon parse.

        With ``lazy_gmon`` the returned snapshot carries a
        :class:`GmonBlob` view into the payload instead of a parsed
        :class:`GmonData` — the daemon's reader thread admits the frame
        after header validation only, and the classify worker pays the
        parse off the connection's critical path (a corrupt blob then
        surfaces as a per-interval ingest error, not a reply error).
        """
        view = memoryview(payload)
        if _binary_kind(view) == KIND_ACK:
            return _parse_binary_ack(view)
        seq, stream_id, trace_id, gmon_view = _parse_binary_snapshot(view)
        if lazy_gmon:
            return SnapshotMsg(stream_id=stream_id, seq=seq,
                               gmon=GmonBlob(gmon_view), trace_id=trace_id)
        try:
            gmon = loads_gmon(gmon_view)
        except FormatError as exc:
            raise ProtocolError(f"snapshot payload is not a valid gmon: {exc}") from exc
        return SnapshotMsg(stream_id=stream_id, seq=seq, gmon=gmon,
                           trace_id=trace_id)


JSON_CODEC = JsonCodec()
BINARY_CODEC = BinaryCodec()


def binary_envelope(payload: Union[bytes, memoryview]) -> Optional[BinaryEnvelope]:
    """Peek a payload's routing fields if it is a binary frame.

    Returns ``None`` for JSON payloads (route those by decoding as
    usual).  Malformed binary payloads raise :class:`ProtocolError`.
    """
    view = memoryview(payload)
    if view.nbytes == 0 or view[0] != 0:
        return None
    seq, stream_id, trace_id, _gmon = _parse_binary_snapshot(view)
    return BinaryEnvelope(kind=KIND_SNAPSHOT, type=SnapshotMsg.TYPE,
                          stream_id=stream_id, seq=seq, trace_id=trace_id)


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_message(msg: Message,
                   version: int = BINARY_PROTOCOL_VERSION) -> bytes:
    """Serialize one message to a length-prefixed frame.

    The message's kind picks its encoding (see :class:`BinaryCodec`).
    ``version`` names the binary frame version for callers that spell
    it out; 2 is the only one this build writes, and any other value is
    a :class:`ProtocolError`.

    Oversized messages fail here — on the encoding side, before any
    bytes hit the wire — with the same :class:`ProtocolError` the
    receiver would raise, so a publisher with a pathological snapshot
    learns locally instead of after a round trip.
    """
    if version != BINARY_PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    payload = BINARY_CODEC.encode(msg)
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds the "
                            f"{MAX_FRAME_BYTES}-byte limit")
    return _LEN.pack(len(payload)) + payload


def decode_message(frame: bytes) -> Message:
    """Inverse of :func:`encode_message` (whole frame, prefix included)."""
    if len(frame) < _LEN.size:
        raise ProtocolError("frame shorter than its length prefix")
    (length,) = _LEN.unpack(frame[:_LEN.size])
    payload = frame[_LEN.size:]
    if len(payload) != length:
        raise ProtocolError(f"frame length prefix says {length} bytes, "
                            f"got {len(payload)}")
    return decode_payload(payload)


def read_frame(stream: BinaryIO) -> Optional[bytes]:
    """Read one frame's payload bytes; ``None`` on clean EOF between frames.

    Framing errors (short prefix, mid-frame EOF, oversized length) raise
    :class:`ProtocolError` and mean the byte stream has lost sync — the
    connection cannot be recovered.  Payload-level errors (bad JSON, bad
    snapshot) are recoverable: the next frame is still readable.
    """
    prefix = stream.read(_LEN.size)
    if not prefix:
        return None
    if len(prefix) < _LEN.size:
        raise ProtocolError("connection closed mid-frame (short length prefix)")
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the "
                            f"{MAX_FRAME_BYTES}-byte limit")
    payload = b""
    while len(payload) < length:
        chunk = stream.read(length - len(payload))
        if not chunk:
            raise ProtocolError(f"connection closed mid-frame "
                                f"({len(payload)}/{length} payload bytes)")
        payload += chunk
    return payload


class FrameReader:
    """Length-prefixed frame reads straight off a socket, with lookahead.

    Serves the daemon's reader loop instead of a ``makefile`` stream:
    :meth:`buffered_frame` says — without a syscall — whether another
    complete frame is already in memory, which is what lets the server
    *cork* its replies under a pipelined submission window (one flush
    per drained burst instead of one per reply).  Framing errors carry
    the same :class:`ProtocolError` semantics as :func:`read_frame`.
    """

    def __init__(self, sock: socket.socket, chunk: int = 65536) -> None:
        self._sock = sock
        self._chunk = chunk
        self._buf = bytearray()

    def _fill(self) -> bool:
        """One ``recv``; False on EOF."""
        data = self._sock.recv(self._chunk)
        if not data:
            return False
        self._buf += data
        return True

    def buffered_frame(self) -> bool:
        """A complete frame (or a framing error) is already buffered."""
        if len(self._buf) < _LEN.size:
            return False
        (length,) = _LEN.unpack_from(self._buf, 0)
        if length > MAX_FRAME_BYTES:
            return True  # read_frame will raise; don't wait for bytes
        return len(self._buf) >= _LEN.size + length

    def read_frame(self) -> Optional[bytes]:
        """Next frame's payload; ``None`` on clean EOF between frames."""
        while len(self._buf) < _LEN.size:
            if not self._fill():
                if not self._buf:
                    return None
                raise ProtocolError(
                    "connection closed mid-frame (short length prefix)")
        (length,) = _LEN.unpack_from(self._buf, 0)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {length} bytes exceeds the "
                                f"{MAX_FRAME_BYTES}-byte limit")
        total = _LEN.size + length
        while len(self._buf) < total:
            if not self._fill():
                raise ProtocolError(
                    f"connection closed mid-frame "
                    f"({len(self._buf) - _LEN.size}/{length} payload bytes)")
        payload = bytes(memoryview(self._buf)[_LEN.size:total])
        del self._buf[:total]
        return payload


def decode_payload(payload: Union[bytes, memoryview],
                   lazy_gmon: bool = False) -> Message:
    """Decode one frame's payload into a typed message.

    ``lazy_gmon`` applies only to binary snapshot payloads (see
    :meth:`BinaryCodec.decode`).
    """
    view = memoryview(payload)
    if view.nbytes and view[0] == 0:
        return BINARY_CODEC.decode(view, lazy_gmon=lazy_gmon)
    return JSON_CODEC.decode(payload)


def read_message(stream: BinaryIO) -> Optional[Message]:
    """Read one framed message; ``None`` on clean EOF between frames."""
    payload = read_frame(stream)
    if payload is None:
        return None
    return decode_payload(payload)


def write_message(stream: BinaryIO, msg: Message) -> None:
    """Frame and write one message."""
    stream.write(encode_message(msg))
    stream.flush()


def frame_bytes(payload: Union[bytes, memoryview]) -> bytes:
    """Length-prefix one already-encoded payload.

    The forwarding path: a proxy that has a validated payload in hand
    frames it verbatim instead of decode/re-encode round-tripping it.
    """
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds the "
                            f"{MAX_FRAME_BYTES}-byte limit")
    return _LEN.pack(len(payload)) + bytes(payload)


def write_frame(stream: BinaryIO, payload: Union[bytes, memoryview]) -> None:
    """Write one already-encoded payload with its length prefix."""
    stream.write(frame_bytes(payload))
    stream.flush()


# ----------------------------------------------------------------------
# fleet routing replies
# ----------------------------------------------------------------------
#: Reply ``data.code`` values that mean "not processed, resend": the
#: request was NOT processed and may safely be sent again to the router,
#: which re-resolves the stream's owner.
ROUTE_WRONG_WORKER = "wrong-worker"
ROUTE_UNAVAILABLE = "worker-unavailable"
ROUTING_CODES = (ROUTE_WRONG_WORKER, ROUTE_UNAVAILABLE)


def wrong_worker_reply(owner: str, worker_id: str,
                       ring_generation: int) -> "Reply":
    """A worker's refusal: the current ring assigns this stream elsewhere."""
    return Reply(ok=False,
                 error=f"worker {worker_id!r} does not own this stream "
                       f"(ring generation {ring_generation} says "
                       f"{owner!r} does)",
                 data={"code": ROUTE_WRONG_WORKER, "worker_id": owner,
                       "ring_generation": ring_generation})


def worker_unavailable_reply(worker_id: str, cause: str) -> "Reply":
    """A router's answer when the owning worker cannot be reached."""
    return Reply(ok=False,
                 error=f"worker {worker_id!r} is unavailable: {cause}",
                 data={"code": ROUTE_UNAVAILABLE, "worker_id": worker_id})


# ----------------------------------------------------------------------
# addressing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Endpoint:
    """Where ``incprofd`` listens: TCP (``host:port``) or a Unix socket."""

    kind: str  # "tcp" | "unix"
    host: str = "127.0.0.1"
    port: int = 0
    path: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("tcp", "unix"):
            raise ProtocolError(f"unknown endpoint kind {self.kind!r}")
        if self.kind == "unix" and not self.path:
            raise ProtocolError("unix endpoint needs a socket path")

    @classmethod
    def tcp(cls, host: str = "127.0.0.1", port: int = 0) -> "Endpoint":
        return cls(kind="tcp", host=host, port=port)

    @classmethod
    def unix(cls, path: str) -> "Endpoint":
        return cls(kind="unix", path=path)

    @classmethod
    def parse(cls, spec: str) -> "Endpoint":
        """``host:port`` or ``unix:/path/to.sock``."""
        if spec.startswith("unix:"):
            return cls.unix(spec[len("unix:"):])
        host, sep, port = spec.rpartition(":")
        if not sep or not port.isdigit():
            raise ProtocolError(f"endpoint spec {spec!r} is not host:port or unix:PATH")
        return cls.tcp(host or "127.0.0.1", int(port))

    def connect(self, timeout: Optional[float] = None) -> socket.socket:
        """Open a client socket to this endpoint."""
        if self.kind == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(timeout)
                sock.connect(self.path)
            except OSError:
                # create_connection closes its socket on failure; do
                # the same, or every failed dial leaks a descriptor.
                sock.close()
                raise
        else:
            sock = socket.create_connection((self.host, self.port), timeout=timeout)
            enable_nodelay(sock)
        sock.settimeout(None)
        return sock

    def __str__(self) -> str:
        return f"unix:{self.path}" if self.kind == "unix" else f"{self.host}:{self.port}"


def enable_nodelay(sock: socket.socket) -> None:
    """Disable Nagle on a TCP socket (harmless no-op elsewhere).

    The protocol is small framed request/reply messages, each flushed
    explicitly — Nagle can never usefully coalesce them, but it can
    stall a pipelined submission window behind a delayed ACK.  Both
    ends of every connection (client dial, daemon accept, router
    accept) go through here.
    """
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except (OSError, ValueError):
        pass  # unix sockets and exotic stacks have no Nagle to disable
