"""The binary frame: golden bytes, fuzz, acks, and the one wire path.

The JSON messages' round-trips and framing errors live in
``test_service_protocol.py``; this module pins the *binary* wire format
(a struct-packed header carrying raw gmon bytes) that every snapshot
and every packable snapshot ack travels as.
"""

import random
import struct

import pytest

from repro.gprof.gmon import GmonBlob, GmonData, dumps_gmon
from repro.service.protocol import (
    BINARY_CODEC,
    BINARY_MAGIC,
    JSON_CODEC,
    MAX_FRAME_BYTES,
    Endpoint,
    FrameReader,
    Hello,
    Reply,
    SnapshotMsg,
    binary_envelope,
    decode_message,
    encode_message,
)
from repro.util.errors import ProtocolError


def gmon(ticks: int = 5) -> GmonData:
    data = GmonData(rank=3, timestamp=2.5)
    data.add_ticks("kernel", ticks)
    data.add_arc("main", "kernel", 2)
    return data


def snapshot_msg(seq: int = 42) -> SnapshotMsg:
    return SnapshotMsg(stream_id="node-7", seq=seq, gmon=gmon(),
                       trace_id="0123456789abcdef")


def v2_payload(msg=None) -> bytes:
    return BINARY_CODEC.encode(msg if msg is not None else snapshot_msg())


# ----------------------------------------------------------------------
# golden frame pin
# ----------------------------------------------------------------------
#: The exact v2 frame (length prefix included) for ``snapshot_msg()``.
#: This is the wire contract: if this test breaks, deployed v2 peers
#: can no longer read this build's frames — bump the codec version
#: instead of editing the hex.
GOLDEN_V2_FRAME = bytes.fromhex(
    "00000081004950420201000000000000002a00000055000600106e6f"
    "64652d373031323334353637383961626364656649474d4f4e01007b"
    "14ae47e17a843f00000000000004400300000002000000060000006b"
    "65726e656c040000006d61696e010000000000000005000000000000"
    "000100000001000000000000000200000000000000"
)


def test_golden_v2_frame_bytes_pinned():
    assert encode_message(snapshot_msg()) == GOLDEN_V2_FRAME


def test_encode_message_writes_only_the_binary_frame_version():
    # ``version`` stays accepted for callers that spell the wire out;
    # 2 is the one version this build writes.
    assert encode_message(snapshot_msg(), version=2) == GOLDEN_V2_FRAME
    for version in (1, 3):
        with pytest.raises(ProtocolError, match=f"version {version}"):
            encode_message(snapshot_msg(), version=version)


def test_golden_v2_frame_decodes_back():
    msg = decode_message(GOLDEN_V2_FRAME)
    assert isinstance(msg, SnapshotMsg)
    assert (msg.stream_id, msg.seq, msg.trace_id) == \
        ("node-7", 42, "0123456789abcdef")
    assert msg.gmon.hist == {"kernel": 5}
    assert msg.gmon.arcs == {("main", "kernel"): 2}


def test_golden_frame_carries_raw_gmon_bytes():
    # Zero-copy contract: the gmon section of the frame IS the IGMON
    # serialization, byte for byte — no base64, no JSON.
    assert dumps_gmon(gmon()) in GOLDEN_V2_FRAME


def test_blob_and_parsed_gmon_encode_identically():
    blob = SnapshotMsg(stream_id="node-7", seq=42,
                       gmon=GmonBlob(dumps_gmon(gmon())),
                       trace_id="0123456789abcdef")
    assert encode_message(blob) == GOLDEN_V2_FRAME


# ----------------------------------------------------------------------
# malformed / truncated / oversized binary payloads
# ----------------------------------------------------------------------
def test_truncated_binary_prefix_rejected():
    with pytest.raises(ProtocolError, match="shorter than its prefix"):
        BINARY_CODEC.decode(v2_payload()[:3])


def test_bad_magic_rejected():
    payload = bytearray(v2_payload())
    payload[1] = ord("X")
    with pytest.raises(ProtocolError, match="magic"):
        BINARY_CODEC.decode(bytes(payload))


def test_unknown_codec_version_byte_rejected():
    payload = bytearray(v2_payload())
    payload[4] = 9
    with pytest.raises(ProtocolError, match="version 9"):
        BINARY_CODEC.decode(bytes(payload))


def test_unknown_kind_code_rejected():
    payload = bytearray(v2_payload())
    payload[5] = 7
    with pytest.raises(ProtocolError, match="kind 7"):
        BINARY_CODEC.decode(bytes(payload))


def test_truncated_snapshot_header_rejected():
    with pytest.raises(ProtocolError, match="truncated in its header"):
        BINARY_CODEC.decode(v2_payload()[:10])


def test_length_mismatch_rejected():
    payload = v2_payload()
    with pytest.raises(ProtocolError, match="length mismatch"):
        BINARY_CODEC.decode(payload[:-1])
    with pytest.raises(ProtocolError, match="length mismatch"):
        BINARY_CODEC.decode(payload + b"\x00")


def test_empty_stream_id_rejected():
    msg = SnapshotMsg(stream_id="x", seq=1, gmon=gmon())
    payload = bytearray(BINARY_CODEC.encode(msg))
    # Rewrite the one-byte stream id to length 0 is a length mismatch;
    # instead patch the id bytes' length field and drop the byte.
    sid_off = len(payload) - len(dumps_gmon(gmon())) - 1
    del payload[sid_off]
    struct.pack_into(">H", payload, 6 + 12, 0)
    with pytest.raises(ProtocolError, match="empty stream id"):
        BINARY_CODEC.decode(bytes(payload))


def test_non_utf8_stream_id_rejected():
    payload = bytearray(v2_payload())
    sid_off = 6 + struct.calcsize(">QIHH")
    payload[sid_off] = 0xFF
    payload[sid_off + 1] = 0xFE
    with pytest.raises(ProtocolError, match="not UTF-8"):
        BINARY_CODEC.decode(bytes(payload))


def test_corrupt_gmon_bytes_fail_eager_but_not_lazy_decode():
    payload = bytearray(v2_payload())
    gmon_start = len(payload) - len(dumps_gmon(gmon()))
    payload[gmon_start:gmon_start + 5] = b"\x00" * 5  # break the IGMON magic
    with pytest.raises(ProtocolError, match="not a valid gmon"):
        BINARY_CODEC.decode(bytes(payload))
    # Lazy decode admits the envelope; the corrupt blob surfaces when
    # (and where) the worker loads it.
    msg = BINARY_CODEC.decode(bytes(payload), lazy_gmon=True)
    assert isinstance(msg.gmon, GmonBlob)
    with pytest.raises(Exception):
        msg.gmon.load()


def test_oversized_snapshot_fails_on_encode():
    msg = SnapshotMsg(stream_id="s", seq=0,
                      gmon=GmonBlob(b"\x00" * (MAX_FRAME_BYTES + 1)))
    with pytest.raises(ProtocolError, match="exceeds"):
        encode_message(msg)


def test_seq_must_fit_u64():
    msg = SnapshotMsg(stream_id="s", seq=2 ** 64, gmon=gmon())
    with pytest.raises(ProtocolError, match="u64"):
        BINARY_CODEC.encode(msg)


# ----------------------------------------------------------------------
# struct-header fuzz
# ----------------------------------------------------------------------
def test_header_fuzz_never_escapes_protocol_error():
    """Arbitrary corruption of the packed header either still decodes
    or raises ProtocolError — never KeyError/IndexError/struct.error."""
    rng = random.Random(7)
    base = v2_payload()
    header_len = 6 + struct.calcsize(">QIHH")
    for _ in range(500):
        payload = bytearray(base)
        for _flip in range(rng.randint(1, 4)):
            payload[rng.randrange(header_len)] = rng.randrange(256)
        try:
            BINARY_CODEC.decode(bytes(payload))
        except ProtocolError:
            pass


def test_random_nul_prefixed_garbage_rejected():
    rng = random.Random(11)
    for _ in range(200):
        blob = b"\x00" + bytes(rng.randrange(256)
                               for _ in range(rng.randrange(64)))
        try:
            BINARY_CODEC.decode(blob)
        except ProtocolError:
            pass


def test_truncation_fuzz_every_prefix_rejected():
    payload = v2_payload()
    for cut in range(len(payload)):
        with pytest.raises(ProtocolError):
            BINARY_CODEC.decode(payload[:cut])


# ----------------------------------------------------------------------
# binary snapshot acks
# ----------------------------------------------------------------------
def ack(**over) -> Reply:
    data = {"outcome": "accepted", "seq": 42,
            "trace": "0123456789abcdef", "model_version": 3}
    data.update(over)
    return Reply(ok=True, data=data)


def test_ack_roundtrip_packs_binary():
    payload = BINARY_CODEC.encode(ack())
    assert payload.startswith(BINARY_MAGIC)
    assert BINARY_CODEC.decode(payload) == ack()


def test_every_outcome_roundtrips():
    for outcome in ("accepted", "dropped-oldest", "rejected", "duplicate"):
        reply = Reply(ok=outcome != "rejected",
                      error="" if outcome != "rejected" else "queue full",
                      data={"outcome": outcome, "seq": 7, "trace": "",
                            "code": "" if outcome != "rejected"
                            else "backpressure"})
        # decode_message dispatches per frame: packed acks and the
        # JSON fallback (an empty ``code`` is inexpressible) both land.
        decoded = decode_message(encode_message(reply))
        # JSON-side normalization drops empty optional fields the same way.
        assert decoded.ok == reply.ok
        assert decoded.error == reply.error
        assert decoded.data["outcome"] == outcome
        assert decoded.data["seq"] == 7


def test_ack_without_model_version_roundtrips():
    reply = ack()
    del reply.data["model_version"]
    decoded = BINARY_CODEC.decode(BINARY_CODEC.encode(reply))
    assert "model_version" not in decoded.data
    assert decoded == reply


def test_inexpressible_replies_fall_back_to_json():
    # Extra keys, oversize fields, or non-ack replies must ride JSON —
    # fallback, never failure (and never a silently lossy pack).
    for reply in (
        Reply(ok=True, data={"outcome": "accepted", "seq": 1, "trace": "",
                             "phase_sequence": [1, 2]}),
        Reply(ok=True, data={"outcome": "weird", "seq": 1, "trace": ""}),
        Reply(ok=True, data={"outcome": "accepted", "seq": -1, "trace": ""}),
        Reply(ok=True, data={"outcome": "accepted", "seq": 2 ** 64,
                             "trace": ""}),
        Reply(ok=True, data={"outcome": "accepted", "seq": True,
                             "trace": ""}),
        Reply(ok=True, data={}),
    ):
        payload = BINARY_CODEC.encode(reply)
        assert not payload.startswith(BINARY_MAGIC)
        assert JSON_CODEC.decode(payload) == reply


def test_ack_fuzz_never_escapes_protocol_error():
    rng = random.Random(13)
    base = BINARY_CODEC.encode(ack())
    for _ in range(300):
        payload = bytearray(base)
        for _flip in range(rng.randint(1, 3)):
            payload[rng.randrange(len(payload))] = rng.randrange(256)
        try:
            BINARY_CODEC.decode(bytes(payload))
        except ProtocolError:
            pass


# ----------------------------------------------------------------------
# envelope peek (router forward path)
# ----------------------------------------------------------------------
def test_binary_envelope_peeks_without_gmon_decode():
    payload = bytearray(v2_payload())
    payload[-20:] = b"\x00" * 20  # corrupt gmon: the peek must not care
    env = binary_envelope(bytes(payload))
    assert (env.stream_id, env.seq, env.trace_id) == \
        ("node-7", 42, "0123456789abcdef")


def test_binary_envelope_ignores_json_payloads():
    assert binary_envelope(JSON_CODEC.encode(Hello(stream_id="node-7"))) is None
    assert binary_envelope(b"") is None


# ----------------------------------------------------------------------
# frame reader
# ----------------------------------------------------------------------
class _FakeSock:
    def __init__(self, chunks):
        self._chunks = list(chunks)

    def recv(self, _n):
        return self._chunks.pop(0) if self._chunks else b""


def test_frame_reader_reads_split_and_coalesced_frames():
    f1 = encode_message(snapshot_msg(1))
    f2 = encode_message(snapshot_msg(2))
    blob = f1 + f2
    reader = FrameReader(_FakeSock([blob[:5], blob[5:]]))
    assert BINARY_CODEC.decode(reader.read_frame()).seq == 1
    # The second frame is already buffered: lookahead sees it without
    # touching the socket, which is what lets the server cork replies.
    assert reader.buffered_frame()
    assert BINARY_CODEC.decode(reader.read_frame()).seq == 2
    assert not reader.buffered_frame()
    assert reader.read_frame() is None  # clean EOF


def test_frame_reader_mid_frame_eof_is_protocol_error():
    frame = encode_message(snapshot_msg())
    reader = FrameReader(_FakeSock([frame[:10]]))
    with pytest.raises(ProtocolError, match="mid-frame"):
        reader.read_frame()


def test_frame_reader_oversized_length_rejected_before_buffering():
    good = encode_message(snapshot_msg())
    evil_prefix = struct.pack(">I", MAX_FRAME_BYTES + 1)
    reader = FrameReader(_FakeSock([good + evil_prefix]))
    assert BINARY_CODEC.decode(reader.read_frame()).seq == 42
    # The oversized follow-up is decidable from its prefix alone: the
    # lookahead reports a frame (read_frame will raise, not block
    # waiting for 16 MiB that may never come)...
    assert reader.buffered_frame()
    with pytest.raises(ProtocolError, match="exceeds"):
        reader.read_frame()


# ----------------------------------------------------------------------
# the one wire path, end to end (live server)
# ----------------------------------------------------------------------
def _server():
    from repro.core.online import OnlinePhaseTracker
    from repro.core.pipeline import AnalysisConfig, analyze_snapshots
    from repro.service.client import SyntheticLoadGenerator
    from repro.service.server import PhaseMonitorServer, ServerConfig

    gen = SyntheticLoadGenerator()
    template = OnlinePhaseTracker.from_analysis(
        analyze_snapshots(gen.stream(0, 16), AnalysisConfig(kmax=3)))
    config = ServerConfig(endpoint=Endpoint.tcp("127.0.0.1", 0),
                          log_level="error")
    return PhaseMonitorServer(template, config), gen


@pytest.mark.socket
def test_duplicate_snapshot_ack_semantics():
    from repro.service.client import PhaseClient

    server, gen = _server()
    snap = gen.stream(1, 1)[0]
    with server:
        with PhaseClient(server.endpoint) as client:
            client.hello("dup")
            first = client.snapshot("dup", 0, snap)
            again = client.snapshot("dup", 0, snap)
            assert first.ok and first.data["outcome"] == "accepted"
            assert again.ok and again.data["outcome"] == "duplicate"
            assert again.data["seq"] == 0


@pytest.mark.socket
def test_burst_pipelined_matches_single_shot():
    from repro.service.client import PhaseClient, publish_samples

    server, gen = _server()
    samples = gen.stream(2, 40)
    with server:
        burst = publish_samples(server.endpoint, "lane-burst", samples)
        with PhaseClient(server.endpoint) as client:
            client.hello("lane-single")
            acks = [client.snapshot("lane-single", seq, snap)
                    for seq, snap in enumerate(samples)]
            bye = client.bye("lane-single")
    assert burst.error == "" and burst.drained
    assert burst.accepted == len(samples) and burst.rejected == 0
    assert all(ack.data["outcome"] == "accepted" for ack in acks)
    assert bye.data["drained"]
    # Equal correctness: submitting a window at a time must not change
    # what the daemon concludes about the stream.
    assert burst.phase_sequence == bye.data["phase_sequence"]
    assert burst.processed == bye.data["processed"] == len(samples)
