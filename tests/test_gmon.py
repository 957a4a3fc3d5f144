"""GmonData accounting, subtraction, and binary round-trip."""

import io
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.gprof.gmon import GmonData, dumps_gmon, loads_gmon, read_gmon, write_gmon
from repro.util.errors import FormatError, ValidationError


def sample_gmon():
    data = GmonData(sample_period=0.01, timestamp=3.5, rank=2)
    data.add_ticks("alpha", 120)
    data.add_ticks("beta", 30)
    data.add_arc("main", "alpha", 4)
    data.add_arc("main", "beta", 1)
    data.add_arc("alpha", "beta", 7)
    return data


def test_self_seconds():
    data = sample_gmon()
    assert data.self_seconds("alpha") == pytest.approx(1.2)
    assert data.self_seconds("missing") == 0.0


def test_total_seconds():
    assert sample_gmon().total_seconds() == pytest.approx(1.5)


def test_calls_into():
    data = sample_gmon()
    assert data.calls_into("beta") == 8
    assert data.calls_into("alpha") == 4
    assert data.calls_into("main") == 0


def test_functions_sorted_union():
    assert sample_gmon().functions() == ["alpha", "beta", "main"]


def test_copy_is_deep():
    data = sample_gmon()
    clone = data.copy()
    clone.add_ticks("alpha", 1)
    clone.add_arc("main", "alpha", 1)
    assert data.hist["alpha"] == 120
    assert data.arcs[("main", "alpha")] == 4


def test_negative_counts_rejected():
    data = GmonData()
    with pytest.raises(ValidationError):
        data.add_ticks("f", -1)
    with pytest.raises(ValidationError):
        data.add_arc("a", "b", -1)


def test_zero_counts_not_stored():
    data = GmonData()
    data.add_ticks("f", 0)
    data.add_arc("a", "b", 0)
    assert not data.hist and not data.arcs


def test_invalid_sample_period():
    with pytest.raises(ValidationError):
        GmonData(sample_period=0.0)


@pytest.mark.parametrize("period", [float("nan"), float("inf"),
                                    float("-inf"), 0.0, -0.01])
def test_non_finite_or_non_positive_period_rejected(period):
    """One header check: a NaN or infinite period would poison every
    interval differenced against it, so neither the dataclass nor the
    decoder admits one."""
    with pytest.raises(ValidationError):
        GmonData(sample_period=period)
    blob = bytearray(dumps_gmon(sample_gmon()))
    blob[7:15] = struct.pack("<d", period)  # after magic and version
    with pytest.raises(FormatError):
        loads_gmon(bytes(blob))


def test_subtract_interval_semantics():
    earlier = GmonData()
    earlier.add_ticks("f", 10)
    earlier.add_arc("m", "f", 2)
    later = earlier.copy()
    later.add_ticks("f", 5)
    later.add_ticks("g", 3)
    later.add_arc("m", "f", 1)
    delta = later.subtract(earlier)
    assert delta.hist == {"f": 5, "g": 3}
    assert delta.arcs == {("m", "f"): 1}


def test_subtract_clamps_negative():
    earlier = GmonData()
    earlier.add_ticks("f", 10)
    later = GmonData()
    later.add_ticks("f", 8)  # sampling artifact: fewer ticks than before
    delta = later.subtract(earlier)
    assert "f" not in delta.hist


def test_subtract_mismatched_period():
    with pytest.raises(ValidationError):
        GmonData(sample_period=0.01).subtract(GmonData(sample_period=0.02))


def test_roundtrip_file(tmp_path):
    data = sample_gmon()
    path = tmp_path / "snap.gmon"
    write_gmon(data, path)
    loaded = read_gmon(path)
    assert loaded.hist == data.hist
    assert loaded.arcs == data.arcs
    assert loaded.timestamp == data.timestamp
    assert loaded.rank == data.rank
    assert loaded.sample_period == data.sample_period


def test_bad_magic():
    blob = bytearray(dumps_gmon(sample_gmon()))
    blob[0:5] = b"WRONG"
    with pytest.raises(FormatError):
        loads_gmon(bytes(blob))


def test_truncated_data():
    blob = dumps_gmon(sample_gmon())
    with pytest.raises(FormatError):
        loads_gmon(blob[: len(blob) // 2])


def test_non_utf8_name_is_a_format_error():
    """A corrupt name fails like any other corrupt gmon: the service
    counts one ingest error instead of losing its whole classify tick."""
    blob = bytearray(dumps_gmon(sample_gmon()))
    blob[blob.index(b"alpha")] = 0xFF
    with pytest.raises(FormatError):
        loads_gmon(bytes(blob))


def test_unsupported_version():
    blob = bytearray(dumps_gmon(sample_gmon()))
    blob[5:7] = (99).to_bytes(2, "little")
    with pytest.raises(FormatError):
        loads_gmon(bytes(blob))


names = st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=0x2FF),
                min_size=1, max_size=24)


@settings(max_examples=60, deadline=None)
@given(
    hist=st.dictionaries(names, st.integers(min_value=1, max_value=10**12), max_size=12),
    arcs=st.dictionaries(st.tuples(names, names),
                         st.integers(min_value=1, max_value=10**12), max_size=12),
    timestamp=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    rank=st.integers(min_value=0, max_value=10_000),
)
def test_roundtrip_property(hist, arcs, timestamp, rank):
    """Any gmon state serializes and deserializes exactly."""
    data = GmonData(sample_period=0.01, timestamp=timestamp, rank=rank)
    data.hist = dict(hist)
    data.arcs = dict(arcs)
    loaded = loads_gmon(dumps_gmon(data))
    assert loaded.hist == data.hist
    assert loaded.arcs == data.arcs
    assert loaded.rank == data.rank
    assert loaded.timestamp == pytest.approx(timestamp)


@settings(max_examples=40, deadline=None)
@given(
    base=st.dictionaries(names, st.integers(min_value=0, max_value=1000), max_size=8),
    extra=st.dictionaries(names, st.integers(min_value=0, max_value=1000), max_size=8),
)
def test_subtract_property_nonnegative_and_exact(base, extra):
    """later - earlier recovers exactly the added increments."""
    earlier = GmonData()
    for func, ticks in base.items():
        earlier.add_ticks(func, ticks)
    later = earlier.copy()
    for func, ticks in extra.items():
        later.add_ticks(func, ticks)
    delta = later.subtract(earlier)
    assert all(v > 0 for v in delta.hist.values())
    for func, ticks in extra.items():
        if ticks > 0:
            assert delta.hist[func] == ticks


def _reference_loads(blob):
    """Record-at-a-time IGMON parser: the reference ``decode_gmon``'s
    NumPy views and its cached string tables must reproduce."""
    def take(n):
        nonlocal off
        if off + n > len(blob):
            raise FormatError("truncated")
        off += n
        return blob[off - n:off]

    off = 0
    magic, version, period, timestamp, rank = struct.unpack("<5sHddi", take(27))
    if magic != b"IGMON" or version != 1:
        raise FormatError("bad header")
    try:
        data = GmonData(sample_period=period, timestamp=timestamp, rank=rank)
    except ValidationError as exc:
        raise FormatError(str(exc)) from exc
    try:
        names = [take(struct.unpack("<I", take(4))[0]).decode("utf-8")
                 for _ in range(struct.unpack("<I", take(4))[0])]
    except UnicodeDecodeError as exc:
        raise FormatError(str(exc)) from exc
    for idx, ticks in struct.iter_unpack("<IQ", take(12 * struct.unpack("<I", take(4))[0])):
        if idx >= len(names):
            raise FormatError("histogram name index out of range")
        data.hist[names[idx]] = ticks
    for src, dst, count in struct.iter_unpack("<IIQ", take(16 * struct.unpack("<I", take(4))[0])):
        if max(src, dst) >= len(names):
            raise FormatError("arc name index out of range")
        data.arcs[(names[src], names[dst])] = count
    return data


@settings(max_examples=60, deadline=None)
@given(
    tables=st.lists(st.lists(names, min_size=1, max_size=5, unique=True),
                    min_size=1, max_size=3),
    picks=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2**64 - 1),
                             st.integers(-1, 200), st.integers(0, 255)),
                   min_size=1, max_size=12),
)
def test_decoder_matches_reference_parser(tables, picks):
    """A stream of snapshots that repeat, switch and corrupt their string
    tables decodes as the record-at-a-time reference does, and fails
    exactly where it fails — the cache of decoded tables included."""
    for table_no, count, cut, flip in picks:
        funcs = tables[table_no % len(tables)]
        snap = GmonData(hist={f: count for f in funcs},
                        arcs={(funcs[0], funcs[-1]): count})
        blob = bytearray(dumps_gmon(snap))
        if cut >= 0:  # corrupt one byte, or cut the blob short
            if cut % 2:
                blob = blob[:cut % len(blob)]
            else:
                blob[cut % len(blob)] ^= flip
        blob = bytes(blob)
        try:
            want = _reference_loads(blob)
        except FormatError:
            with pytest.raises(FormatError):
                loads_gmon(blob)
            continue
        got = loads_gmon(blob)
        assert (got.hist, got.arcs, got.rank) == (want.hist, want.arcs, want.rank)
        assert got.timestamp == want.timestamp or (got.timestamp != got.timestamp
                                                   and want.timestamp != want.timestamp)
        assert got.sample_period == want.sample_period


# ----------------------------------------------------------------------
# golden round-trip: the IGMON byte layout is frozen
# ----------------------------------------------------------------------
#: Exact serialization of GOLDEN_DATA, captured before the bulk-packed
#: (de)serializer landed — any byte difference is a format break.
GOLDEN_BLOB = bytes.fromhex(
    "49474d4f4e01007b14ae47e17a843f0000000000002940030000000400000005"
    "000000616c7068610400000062657461040000006d61696e070000006dc3bc6c"
    "6c65720300000000000000070000000000000001000000130000000000000003"
    "00000002000000000000000300000000000000010000000b0000000000000002"
    "00000000000000040000000000000002000000030000000100000000000000"
)


def golden_data() -> GmonData:
    return GmonData(
        sample_period=0.01,
        timestamp=12.5,
        rank=3,
        hist={"alpha": 7, "beta": 19, "müller": 2},
        arcs={("main", "alpha"): 4, ("alpha", "beta"): 11, ("main", "müller"): 1},
    )


def test_golden_blob_bytes_exact():
    assert dumps_gmon(golden_data()) == GOLDEN_BLOB


def test_golden_blob_roundtrip():
    data = loads_gmon(GOLDEN_BLOB)
    expected = golden_data()
    assert data.hist == expected.hist
    assert data.arcs == expected.arcs
    assert data.sample_period == expected.sample_period
    assert data.timestamp == expected.timestamp
    assert data.rank == expected.rank
