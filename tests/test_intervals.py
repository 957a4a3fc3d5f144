"""Interval differencing: cumulative snapshots -> interval profiles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.intervals import (
    IntervalData,
    intervals_from_flat_profiles,
    intervals_from_snapshots,
)
from repro.gprof.flatprofile import FlatProfile
from repro.gprof.gmon import GmonData
from repro.util.errors import ProfileDataError


def make_snaps(series):
    """Build cumulative snapshots from per-interval (hist, arcs) specs."""
    snaps = []
    cum = GmonData()
    for i, (hist, arcs) in enumerate(series):
        for func, ticks in hist.items():
            cum.add_ticks(func, ticks)
        for arc, count in arcs.items():
            cum.add_arc(*arc, count)
        snap = cum.copy()
        snap.timestamp = float(i + 1)
        snaps.append(snap)
    return snaps


BASIC = [
    ({"a": 100}, {("m", "a"): 1}),
    ({"a": 50, "b": 50}, {("m", "b"): 2}),
    ({"b": 100}, {}),
]


def test_differencing_recovers_increments():
    data = intervals_from_snapshots(make_snaps(BASIC))
    assert data.functions == ["a", "b"]
    assert data.self_time[0].tolist() == [1.0, 0.0]
    assert data.self_time[1].tolist() == pytest.approx([0.5, 0.5])
    assert data.self_time[2].tolist() == [0.0, 1.0]
    assert data.calls[1].tolist() == [0, 2]


def test_interval_inferred_from_timestamps():
    data = intervals_from_snapshots(make_snaps(BASIC))
    assert data.interval == pytest.approx(1.0)
    assert data.n_intervals == 3


def test_needs_two_snapshots():
    with pytest.raises(ProfileDataError):
        intervals_from_snapshots(make_snaps(BASIC)[:1])


def test_out_of_order_snapshots_rejected():
    snaps = make_snaps(BASIC)
    snaps[1].timestamp = 99.0
    with pytest.raises(ProfileDataError):
        intervals_from_snapshots(snaps)


def test_short_final_interval_dropped():
    snaps = make_snaps(BASIC)
    tail = snaps[-1].copy()
    tail.timestamp = 3.1  # 0.1s partial: below the 50% default
    snaps.append(tail)
    data = intervals_from_snapshots(snaps)
    assert data.n_intervals == 3


def test_short_final_interval_kept_when_disabled():
    snaps = make_snaps(BASIC)
    tail = snaps[-1].copy()
    tail.timestamp = 3.1
    snaps.append(tail)
    data = intervals_from_snapshots(snaps, drop_short_final=False)
    assert data.n_intervals == 4


def test_active_matrix():
    data = intervals_from_snapshots(make_snaps(BASIC))
    assert data.active().tolist() == [[True, False], [True, True], [False, True]]


def test_drop_inactive_functions():
    series = BASIC + [({}, {("m", "ghost"): 5})]  # ghost: calls only
    data = intervals_from_snapshots(make_snaps(series), drop_short_final=False)
    assert "ghost" in data.functions
    trimmed = data.drop_inactive_functions()
    assert "ghost" not in trimmed.functions
    assert trimmed.self_time.shape[1] == 2


def test_spontaneous_excluded():
    series = [({"f": 10}, {("<spontaneous>", "f"): 1})]
    data = intervals_from_snapshots(make_snaps(series + series))
    assert "<spontaneous>" not in data.functions


def test_interval_gmons_kept():
    data = intervals_from_snapshots(make_snaps(BASIC))
    assert data.interval_gmons is not None
    assert len(data.interval_gmons) == 3
    assert data.interval_gmons[0].hist == {"a": 100}


def test_function_total_seconds():
    data = intervals_from_snapshots(make_snaps(BASIC))
    assert data.function_total_seconds().tolist() == pytest.approx([1.5, 1.5])


def test_shape_validation():
    with pytest.raises(ProfileDataError):
        IntervalData(
            functions=["a"],
            self_time=np.zeros((2, 1)),
            calls=np.zeros((3, 1), dtype=np.int64),
            timestamps=np.array([1.0, 2.0]),
            interval=1.0,
        )


# ----------------------------------------------------------------------
# text-report path
# ----------------------------------------------------------------------
def test_intervals_from_flat_profiles_matches_binary_path():
    snaps = make_snaps(BASIC)
    profiles = []
    for snap in snaps:
        profile = FlatProfile.from_gmon(snap)
        profile.timestamp = snap.timestamp
        profiles.append(profile)
    text_data = intervals_from_flat_profiles(profiles, interval=1.0)
    bin_data = intervals_from_snapshots(snaps)
    assert text_data.functions == bin_data.functions
    assert np.allclose(text_data.self_time, bin_data.self_time, atol=0.01)


def test_flat_profiles_requires_two():
    with pytest.raises(ProfileDataError):
        intervals_from_flat_profiles([FlatProfile([], 0.01)])


@settings(max_examples=40, deadline=None)
@given(
    increments=st.lists(
        st.dictionaries(st.sampled_from(["f", "g", "h"]),
                        st.integers(min_value=0, max_value=200), max_size=3),
        min_size=2, max_size=10,
    )
)
def test_differencing_property(increments):
    """Interval matrices are non-negative and sum to the final cumulative."""
    snaps = make_snaps([(inc, {}) for inc in increments])
    data = intervals_from_snapshots(snaps, drop_short_final=False)
    assert (data.self_time >= 0).all()
    final = snaps[-1]
    for j, func in enumerate(data.functions):
        assert data.self_time[:, j].sum() == pytest.approx(final.self_seconds(func))


def _snapshot_pairs(snapshots):
    """Reference differencing: per-pair ``GmonData.subtract`` (the first
    snapshot against an empty one)."""
    deltas = []
    previous = None
    for snap in snapshots:
        if previous is None:
            previous = GmonData(sample_period=snap.sample_period, rank=snap.rank)
        deltas.append(snap.subtract(previous))
        previous = snap
    return deltas


def test_matrix_differencing_matches_pairwise_reference():
    """The single aligned-matrix subtraction reproduces per-pair
    ``GmonData.subtract`` exactly, including the lazy interval gmons."""
    rng = np.random.default_rng(13)
    names = [f"fn{i}" for i in range(12)]
    snapshots = []
    hist = {n: 0 for n in names}
    arcs = {}
    for step in range(6):
        for n in names:
            hist[n] += int(rng.integers(0, 9))
        for _ in range(8):
            a, b = rng.choice(len(names), size=2, replace=False)
            key = (names[a], names[b])
            arcs[key] = arcs.get(key, 0) + int(rng.integers(1, 5))
        snapshots.append(GmonData(
            sample_period=0.01,
            timestamp=float(step + 1),
            hist={n: t for n, t in hist.items() if t},
            arcs=dict(arcs),
        ))

    data = intervals_from_snapshots(snapshots, keep_gmons=True)
    ref_deltas = _snapshot_pairs(snapshots)

    for got, want in zip(data.interval_gmons, ref_deltas):
        assert got.hist == want.hist
        assert got.arcs == want.arcs
        assert got.timestamp == want.timestamp
        assert got.sample_period == want.sample_period
    for i, delta in enumerate(ref_deltas):
        for j, func in enumerate(data.functions):
            assert data.self_time[i, j] == pytest.approx(
                delta.hist.get(func, 0) * delta.sample_period)
            assert data.calls[i, j] == delta.calls_into(func)


# ----------------------------------------------------------------------
# the differencer: cumulative rows over a growing or fixed universe
# ----------------------------------------------------------------------
FUNCS = ["f0", "f1", "f2", "f3", "x0"]
ARCS = [(a, b) for a in FUNCS for b in FUNCS if a != b]
#: A fixed universe: one function that never appears, and "x0"/"f2"
#: left out.  It differences no arcs.
FIXED = ["f3", "f0", "f1", "zz"]

snapshot_counts = st.tuples(
    st.dictionaries(st.sampled_from(FUNCS), st.integers(0, 60), max_size=5),
    st.dictionaries(st.sampled_from(ARCS), st.integers(0, 60), max_size=6))


def _rows_as_dicts(names, rows):
    return [{names[j]: int(v) for j, v in enumerate(row) if v} for row in rows]


def _project(counts, universe):
    return {k: v for k, v in counts.items() if k in universe}


@settings(max_examples=80, deadline=None)
@given(series=st.lists(snapshot_counts, min_size=1, max_size=8))
def test_differencer_rows_equal_pairwise_subtract(series):
    """Counters that fall, functions that appear late, vanish and come
    back, arcs, and names outside a fixed universe: every interval row —
    fed as GmonData (one by one or as a batch) or as bytes, into a
    growing or a fixed universe — is exactly per-pair
    ``GmonData.subtract``, projected onto the universe where it is
    fixed."""
    from repro.core.intervals import Differencer, clamped_diff
    from repro.gprof.gmon import dumps_gmon, loads_gmon

    snaps = [GmonData(timestamp=float(i + 1), hist=dict(h), arcs=dict(a))
             for i, (h, a) in enumerate(series)]
    want = _snapshot_pairs(snaps)
    for universe in (None, FIXED):
        for as_bytes in (False, True):
            diff = Differencer(universe)
            for i, snap in enumerate(snaps):
                diff.push(dumps_gmon(snap) if as_bytes else snap)
                live = dict(zip(diff.functions, diff.interval().tolist()))
                assert {f: v for f, v in live.items() if v} == _project(
                    want[i].hist, diff.functions)
            if not as_bytes:
                # The batch form stores the same rows, in two batches too.
                bulk = Differencer(universe)
                bulk.extend(snaps[:len(snaps) // 2])
                bulk.extend(snaps[len(snaps) // 2:])
                assert (bulk.functions, bulk.arcs) == (diff.functions, diff.arcs)
                assert np.array_equal(bulk.ticks.view(), diff.ticks.view())
                assert np.array_equal(bulk.arc_counts.view(),
                                      diff.arc_counts.view())
            ticks = _rows_as_dicts(diff.functions, clamped_diff(diff.ticks.view()))
            arcs = _rows_as_dicts(diff.arcs, clamped_diff(diff.arc_counts.view()))
            for i, delta in enumerate(want):
                assert ticks[i] == _project(delta.hist, diff.functions)
                assert arcs[i] == _project(delta.arcs, diff.arcs)
            if universe:
                assert (diff.functions, diff.arcs) == (FIXED, [])
                continue
            # A growing universe adds columns in first-seen order of the
            # histogram (and arc) records as they arrive.
            fed = [loads_gmon(dumps_gmon(s)) if as_bytes else s for s in snaps]
            assert diff.functions == list(dict.fromkeys(
                f for s in fed for f in s.hist))
            assert diff.arcs == list(dict.fromkeys(a for s in fed for a in s.arcs))


def _gmon_bytes(names, hist, arcs, period=0.01, magic=b"IGMON", version=1):
    """Hand-packed gmon bytes, so records may name any index."""
    import struct

    out = [struct.pack("<5sHddi", magic, version, period, 2.0, 0),
           struct.pack("<I", len(names))]
    for name in names:
        out += [struct.pack("<I", len(name)), name.encode()]
    out.append(struct.pack("<I", len(hist)))
    out += [struct.pack("<IQ", i, t) for i, t in hist]
    out.append(struct.pack("<I", len(arcs)))
    out += [struct.pack("<IIQ", s, d, c) for s, d, c in arcs]
    return b"".join(out)


def test_byte_path_fails_exactly_where_loads_gmon_does():
    """Valid gmons give the rows differencing ``loads_gmon``'s result
    gives; broken ones — truncated at every offset, bad magic, bad
    version, a non-finite period, name indices out of range — raise
    FormatError on both paths and leave the differencer as it was."""
    from repro.core.intervals import Differencer
    from repro.gprof.gmon import loads_gmon
    from repro.util.errors import FormatError

    names = ["main", "solve", "halo"]
    valid = [_gmon_bytes(names, [(1, 5), (2, 3)], [(0, 1, 2), (1, 2, 4)]),
             _gmon_bytes(names, [(0, 1), (1, 9), (2, 3)], [(0, 1, 3)]),
             _gmon_bytes(names[:2], [(1, 12)], []),
             # u64 counts past int64: both paths store the same bits.
             _gmon_bytes(names, [(1, 2**63 + 5)], [(0, 1, 2**64 - 1)])]
    broken = [valid[0][:cut] for cut in range(len(valid[0]))]
    broken += [
        _gmon_bytes(names, [(1, 5)], [], magic=b"XGMON"),
        _gmon_bytes(names, [(1, 5)], [], version=2),
        _gmon_bytes(names, [(1, 5)], [], period=float("nan")),
        _gmon_bytes(names, [(1, 5)], [], period=float("inf")),
        _gmon_bytes(names, [(1, 5)], [], period=-1.0),
        _gmon_bytes(names, [(3, 5)], []),
        _gmon_bytes(names, [(1, 5)], [(0, 3, 1)]),
        _gmon_bytes(names, [(1, 5)], [(7, 0, 1)]),
    ]
    for universe in (None, ["solve", "halo"]):
        by_bytes, by_dicts = Differencer(universe), Differencer(universe)
        for blob in valid + broken + valid:
            try:
                parsed = loads_gmon(blob)
            except FormatError:
                parsed = None
            before = (len(by_bytes), list(by_bytes.functions), list(by_bytes.arcs))
            if parsed is None:
                with pytest.raises(FormatError):
                    by_bytes.push(blob)
                assert (len(by_bytes), by_bytes.functions, by_bytes.arcs) == before
                continue
            by_bytes.push(blob)
            by_dicts.push(parsed)
            assert by_bytes.functions == by_dicts.functions
            assert by_bytes.arcs == by_dicts.arcs
            assert np.array_equal(by_bytes.ticks.view(), by_dicts.ticks.view())
            assert np.array_equal(by_bytes.arc_counts.view(),
                                  by_dicts.arc_counts.view())
        assert len(by_bytes) == 2 * len(valid)


def test_differencer_rejects_a_period_change_before_storing():
    from repro.core.intervals import Differencer
    from repro.gprof.gmon import dumps_gmon
    from repro.util.errors import ValidationError

    diff = Differencer()
    diff.push(GmonData(sample_period=0.01, hist={"a": 1}))
    for snap in (GmonData(sample_period=0.02, hist={"b": 1}),
                 dumps_gmon(GmonData(sample_period=0.02, hist={"b": 1}))):
        with pytest.raises(ValidationError):
            diff.push(snap)
    assert len(diff) == 1 and diff.functions == ["a"]
    diff.push(GmonData(sample_period=0.02, hist={"b": 1}), check=False)
    assert diff.periods == [0.01, 0.02]
