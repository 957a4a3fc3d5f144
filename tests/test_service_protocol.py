"""Wire-format round-trips and malformed-input rejection."""

import gc
import io
import json
import struct
import warnings

import pytest

from repro.gprof.gmon import GmonData, dumps_gmon
from repro.heartbeat.accumulator import HeartbeatRecord
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    Bye,
    Control,
    Endpoint,
    Hello,
    HeartbeatMsg,
    Reply,
    SnapshotMsg,
    decode_message,
    encode_message,
    read_message,
    write_message,
)
from repro.util.errors import ProtocolError


def gmon(ticks: int = 5) -> GmonData:
    data = GmonData(rank=3, timestamp=2.5)
    data.add_ticks("kernel", ticks)
    data.add_arc("main", "kernel", 2)
    return data


def roundtrip(msg):
    return decode_message(encode_message(msg))


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------
def test_hello_roundtrip():
    msg = roundtrip(Hello(stream_id="node-7", app="graph500", rank=7))
    assert msg == Hello(stream_id="node-7", app="graph500", rank=7)


def test_snapshot_roundtrip_preserves_gmon():
    msg = roundtrip(SnapshotMsg(stream_id="s", seq=11, gmon=gmon()))
    assert msg.seq == 11
    assert msg.gmon.hist == {"kernel": 5}
    assert msg.gmon.arcs == {("main", "kernel"): 2}
    assert msg.gmon.rank == 3
    assert msg.gmon.timestamp == 2.5


def test_heartbeat_roundtrip():
    record = HeartbeatRecord(rank=1, hb_id=2, interval_index=3, time=4.0,
                             count=5.0, avg_duration=0.25, min_duration=0.1,
                             max_duration=0.4)
    msg = roundtrip(HeartbeatMsg(stream_id="s", records=[record]))
    assert msg.records == [record]


def test_control_and_reply_roundtrip():
    assert roundtrip(Control(command="stats", args={"verbose": True})) == \
        Control(command="stats", args={"verbose": True})
    reply = roundtrip(Reply(ok=False, error="nope", data={"outcome": "rejected"}))
    assert not reply.ok and reply.error == "nope"
    assert reply.data == {"outcome": "rejected"}


def test_bye_roundtrip():
    assert roundtrip(Bye(stream_id="s")) == Bye(stream_id="s")


def test_stream_read_write_multiple_messages():
    buf = io.BytesIO()
    write_message(buf, Hello(stream_id="a"))
    write_message(buf, Bye(stream_id="a"))
    buf.seek(0)
    assert read_message(buf) == Hello(stream_id="a")
    assert read_message(buf) == Bye(stream_id="a")
    assert read_message(buf) is None  # clean EOF


# ----------------------------------------------------------------------
# malformed input
# ----------------------------------------------------------------------
def frame(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


def test_truncated_prefix_rejected():
    with pytest.raises(ProtocolError):
        read_message(io.BytesIO(b"\x00\x00"))


def test_truncated_payload_rejected():
    blob = frame(b'{"v":1,"type":"bye"}')[:-3]
    with pytest.raises(ProtocolError):
        read_message(io.BytesIO(blob))


def test_oversized_frame_rejected_before_read():
    blob = struct.pack(">I", MAX_FRAME_BYTES + 1)
    with pytest.raises(ProtocolError):
        read_message(io.BytesIO(blob + b"x"))


def test_bad_json_rejected():
    with pytest.raises(ProtocolError):
        read_message(io.BytesIO(frame(b"{not json")))


def test_non_object_payload_rejected():
    with pytest.raises(ProtocolError):
        read_message(io.BytesIO(frame(b"[1,2,3]")))


def test_unknown_type_rejected():
    payload = json.dumps({"v": PROTOCOL_VERSION, "type": "teleport"}).encode()
    with pytest.raises(ProtocolError):
        read_message(io.BytesIO(frame(payload)))


def test_wrong_version_rejected():
    payload = json.dumps({"v": 99, "type": "bye"}).encode()
    with pytest.raises(ProtocolError):
        read_message(io.BytesIO(frame(payload)))


def test_missing_field_rejected():
    payload = json.dumps({"v": PROTOCOL_VERSION, "type": "hello"}).encode()
    with pytest.raises(ProtocolError):
        read_message(io.BytesIO(frame(payload)))


def test_json_snapshot_payload_rejected():
    # A snapshot travels only as a binary frame: even a well-formed JSON
    # snapshot carrying a valid base64 gmon is not one.
    import base64
    payload = json.dumps({"v": PROTOCOL_VERSION, "type": "snapshot",
                          "stream_id": "s", "seq": 0,
                          "gmon": base64.b64encode(dumps_gmon(gmon())).decode()
                          }).encode()
    with pytest.raises(ProtocolError, match="binary frame"):
        decode_message(frame(payload))


def test_bool_is_not_an_int_field():
    payload = json.dumps({"v": True, "type": "bye"}).encode()
    with pytest.raises(ProtocolError):
        read_message(io.BytesIO(frame(payload)))


def test_heartbeat_bad_record_rejected():
    payload = json.dumps({"v": PROTOCOL_VERSION, "type": "heartbeat",
                          "stream_id": "s", "records": [{"rank": 0}]}).encode()
    with pytest.raises(ProtocolError):
        read_message(io.BytesIO(frame(payload)))


# ----------------------------------------------------------------------
# endpoints
# ----------------------------------------------------------------------
def test_endpoint_parse_tcp():
    ep = Endpoint.parse("10.0.0.5:9271")
    assert (ep.kind, ep.host, ep.port) == ("tcp", "10.0.0.5", 9271)


def test_endpoint_parse_unix():
    ep = Endpoint.parse("unix:/tmp/incprofd.sock")
    assert (ep.kind, ep.path) == ("unix", "/tmp/incprofd.sock")


def test_endpoint_parse_garbage_rejected():
    with pytest.raises(ProtocolError):
        Endpoint.parse("not-an-endpoint")
    with pytest.raises(ProtocolError):
        Endpoint(kind="carrier-pigeon")


@pytest.mark.socket
def test_failed_unix_dials_leave_no_socket_open(tmp_path):
    """Dial retries and readiness pings against a daemon that is not
    listening yet must not leak one socket per attempt."""
    endpoint = Endpoint.unix(str(tmp_path / "not-listening.sock"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for _ in range(5):
            with pytest.raises(OSError):
                endpoint.connect(timeout=1.0)
        gc.collect()
    assert [str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)] == []
