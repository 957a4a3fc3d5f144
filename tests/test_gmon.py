"""GmonData accounting, subtraction, and binary round-trip."""

import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gprof import gmon
from repro.gprof.gmon import (GmonData, decode_gmon, dumps_gmon, loads_gmon,
                              read_gmon, write_gmon)
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


def _reference_dumps(data):
    """Record-at-a-time IGMON writer: the reference ``dumps_gmon``'s
    cached encode plans must reproduce, byte for byte and error for
    error (the same ``struct`` codes, one record per call)."""
    names = sorted(set(data.hist) | {n for arc in data.arcs for n in arc})
    index = {name: i for i, name in enumerate(names)}
    parts = [struct.pack("<5sHddi", b"IGMON", 1, data.sample_period,
                         data.timestamp, data.rank),
             struct.pack("<I", len(names))]
    for name in names:
        encoded = name.encode("utf-8")
        parts += [struct.pack("<I", len(encoded)), encoded]
    parts.append(struct.pack("<I", len(data.hist)))
    for name in sorted(data.hist):
        parts.append(struct.pack("<IQ", index[name], data.hist[name]))
    parts.append(struct.pack("<I", len(data.arcs)))
    for caller, callee in sorted(data.arcs):
        parts.append(struct.pack("<IIQ", index[caller], index[callee],
                                 data.arcs[(caller, callee)]))
    return b"".join(parts)


def _set_plan_cache(state, data):
    """Put the encoder's plan cache in ``state`` for ``data``'s keys."""
    gmon._PLANS.clear()
    if state == "warm":
        dumps_gmon(data)
    elif state == "at-cap":  # the next new key set clears it first
        gmon._PLANS.update({("filler", i): None for i in range(gmon._PLANS_MAX)})


PLAN_STATES = ("cold", "warm", "at-cap")
#: Names that sort around each other, non-ASCII included.
any_names = st.text(alphabet="abAB_é中\U0001F600", min_size=0, max_size=6)
counts = st.one_of(st.integers(0, 3), st.integers(2**63, 2**64 - 1),
                   st.integers(0, 2**64 - 1))


@settings(max_examples=80, deadline=None)
@given(hist=st.dictionaries(any_names, counts, max_size=8),
       arcs=st.dictionaries(st.tuples(any_names, any_names), counts, max_size=8),
       timestamp=st.floats(allow_nan=False),
       rank=st.integers(-2**31, 2**31 - 1))
def test_encoder_matches_reference_writer(hist, arcs, timestamp, rank):
    """``dumps_gmon`` writes what a record-at-a-time writer writes: for
    the key set in two insertion orders, arcs naming functions the
    histogram lacks, non-ASCII names, empty sections and counts at 0
    and past 2**63, from a cold, a warm and a just-cleared plan cache."""
    forward = GmonData(hist=hist, arcs=arcs, timestamp=timestamp, rank=rank)
    backward = GmonData(hist=dict(reversed(hist.items())),
                        arcs=dict(reversed(arcs.items())),
                        timestamp=timestamp, rank=rank)
    want = _reference_dumps(forward)
    assert _reference_dumps(backward) == want
    try:
        for state in PLAN_STATES:
            for data in (forward, backward):
                _set_plan_cache(state, data)
                assert dumps_gmon(data) == want
                assert dumps_gmon(data) == want  # and from its own plan
                if state == "at-cap":
                    assert len(gmon._PLANS) == 1
    finally:
        gmon._PLANS.clear()


@pytest.mark.parametrize("state", PLAN_STATES)
@pytest.mark.parametrize("section", ["hist", "arcs"])
@pytest.mark.parametrize("bad", [-1, np.int64(-1), 2**64, 3.0, 3.7,
                                 np.float64(2.0), "3", None])
def test_encoder_rejects_what_the_reference_rejects(state, section, bad):
    """A count ``struct`` cannot pack as ``Q`` raises ``struct.error``,
    as the reference writer does — never truncated to 3 or wrapped to
    2**64 - 1 as a NumPy cast would."""
    data = GmonData(hist={"a": 1, "b": 2}, arcs={("a", "b"): 3, ("b", "a"): 4})
    try:
        _set_plan_cache(state, data)
        if section == "hist":
            data.hist["b"] = bad
        else:
            data.arcs[("b", "a")] = bad
        with pytest.raises(struct.error) as want:
            _reference_dumps(data)
        with pytest.raises(struct.error) as got:
            dumps_gmon(data)
        assert str(got.value) == str(want.value)
    finally:
        gmon._PLANS.clear()


@pytest.mark.parametrize("count", [np.uint64(2**64 - 1), np.int64(5), True])
def test_encoder_packs_integer_like_counts_as_the_reference(count):
    data = GmonData(hist={"a": count}, arcs={("a", "a"): count})
    assert dumps_gmon(data) == _reference_dumps(data)


def _check_decode(blob):
    """``loads_gmon`` agrees with the reference parser, errors included."""
    try:
        want = _reference_loads(blob)
    except FormatError:
        with pytest.raises(FormatError):
            loads_gmon(blob)
        return
    got = loads_gmon(blob)
    assert (got.hist, got.arcs, got.rank) == (want.hist, want.arcs, want.rank)
    assert got.timestamp == want.timestamp or (got.timestamp != got.timestamp
                                               and want.timestamp != want.timestamp)
    assert got.sample_period == want.sample_period


#: Name lists whose string tables are shorter than the decoder's lookup
#: key, far longer, or share their leading bytes with another table.
LONG = "kernel_0123456789_" * 3
table_names = st.one_of(
    st.lists(names, min_size=1, max_size=5, unique=True),
    st.lists(st.sampled_from([LONG + c for c in "abcdefgh"]), min_size=1,
             max_size=8, unique=True),
    st.just([LONG + "a", LONG + "b"]), st.just([LONG + "a", LONG + "c"]))


@settings(max_examples=80, deadline=None)
@given(
    tables=st.lists(table_names, min_size=1, max_size=3),
    picks=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2**64 - 1),
                             st.integers(-1, 400), st.integers(0, 255)),
                   min_size=1, max_size=12),
)
def test_decoder_matches_reference_parser(tables, picks):
    """A stream of snapshots that repeat, switch and corrupt their string
    tables decodes as the record-at-a-time reference does, and fails
    exactly where it fails: each blob from a cold table cache, then from
    a warm one — tables shorter and longer than the lookup key, tables
    sharing their leading bytes, blobs cut inside a cached table and
    record indices out of range after a table hit included."""
    for table_no, count, cut, flip in picks:
        funcs = tables[table_no % len(tables)]
        snap = GmonData(hist={f: count for f in funcs},
                        arcs={(funcs[0], funcs[-1]): count})
        good = dumps_gmon(snap)
        blob = bytearray(good)
        if cut >= 0:  # corrupt one byte, or cut the blob short
            if cut % 2:
                blob = blob[:cut % len(blob)]
            else:
                blob[cut % len(blob)] ^= flip
        gmon._TABLES.clear()
        _check_decode(bytes(blob))
        decode_gmon(good)
        _check_decode(bytes(blob))
        _check_decode(bytes(blob))


def test_decoder_returns_the_cached_table_object():
    """A repeated table, the 4-name golden one included, decodes to the
    cached table and names objects: per-table consumers (the
    differencer's column maps) then hash the bytes once."""
    for funcs in (["alpha", "beta", "main", "müller"],
                  [f"kernel_{j:03d}_step" for j in range(40)]):
        snaps = [GmonData(hist={f: i + 1 for f in funcs}) for i in range(3)]
        first, *rest = [decode_gmon(memoryview(dumps_gmon(s))) for s in snaps]
        for cols in rest:
            assert cols.table is first.table
            assert cols.names is first.names
    assert decode_gmon(GOLDEN_BLOB).table is decode_gmon(bytearray(GOLDEN_BLOB)).table


def test_decoder_hit_skips_the_length_walk(monkeypatch):
    """A cached table at least as long as the lookup key is found from
    the bytes at the table offset alone; only a shorter table (at most
    15 names) walks its length prefixes before its cache hit."""
    funcs = [f"kernel_{j:03d}_step" for j in range(40)]
    first = decode_gmon(dumps_gmon(GmonData(hist={f: 1 for f in funcs})))
    assert len(first.table) > gmon._TABLE_KEY_BYTES

    def walk(*args):
        raise AssertionError("walked the string table")

    monkeypatch.setattr(gmon, "_read_table", walk)
    again = decode_gmon(dumps_gmon(GmonData(hist={f: 2 for f in funcs})))
    assert again.table is first.table and again.hist_ticks.tolist() == [2] * 40


def test_decoder_checks_record_indices_after_a_table_hit():
    blob = bytearray(GOLDEN_BLOB)
    decode_gmon(GOLDEN_BLOB)  # the table is cached
    hist_at = gmon._TABLE_OFFSET + len(decode_gmon(GOLDEN_BLOB).table) + 4
    blob[hist_at:hist_at + 4] = struct.pack("<I", 4)  # 4 names: 0..3
    with pytest.raises(FormatError, match="histogram name index 4"):
        decode_gmon(bytes(blob))


def test_codec_caches_under_concurrent_use(monkeypatch):
    """Threads that encode and decode snapshots of several function
    universes while tiny caps clear both caches over and over read
    exactly what the reference codecs give: a race may cost a miss,
    never a wrong plan or table."""
    monkeypatch.setattr(gmon, "_PLANS_MAX", 2)
    monkeypatch.setattr(gmon, "_TABLES_MAX", 3)
    universes = [[f"{LONG}{j}" for j in range(k, k + 6)] for k in range(5)]
    universes += [["a", "b"], ["a", "c"]]
    errors = []

    def work(seed):
        # Each thread's counts differ from every other's, so a plan or
        # table shared by mistake shows in the bytes.
        snaps = [GmonData(hist={f: 1000 * seed + 7 * k + j
                                for j, f in enumerate(funcs)},
                          arcs={(funcs[0], f): seed + k for f in funcs})
                 for k, funcs in enumerate(universes)]
        want = [_reference_dumps(snap) for snap in snaps]
        try:
            for i in range(300):
                k = (seed * 7 + i) % len(snaps)
                blob = dumps_gmon(snaps[k])
                assert blob == want[k]
                got = loads_gmon(memoryview(blob))
                assert (got.hist, got.arcs) == (snaps[k].hist, snaps[k].arcs)
        except AssertionError as exc:  # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


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
