"""Live sys.setprofile profiler on real Python code."""

import sys
import time

import pytest

from repro.gprof.flatprofile import FlatProfile
from repro.profiler.tracing import TracingProfiler, names_filter
from repro.util.errors import CollectorError


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def hot_function():
    busy(0.05)


def cold_function():
    busy(0.005)


def caller():
    hot_function()
    cold_function()


def test_measures_self_time_and_arcs():
    profiler = TracingProfiler(sample_period=0.001)
    with profiler:
        caller()
    snap = profiler.snapshot()
    # busy() holds the actual loop time, attributed to busy itself.
    assert snap.self_seconds("busy") >= 0.04
    assert snap.calls_into("hot_function") == 1
    assert snap.calls_into("busy") == 2


def test_name_filter_folds_time_into_ancestor():
    profiler = TracingProfiler(
        sample_period=0.001,
        name_filter=names_filter({"hot_function", "cold_function", "caller"}),
    )
    with profiler:
        caller()
    snap = profiler.snapshot()
    # busy's time folds into the unfiltered callers.
    assert "busy" not in snap.hist
    assert snap.self_seconds("hot_function") >= 0.04
    assert snap.self_seconds("hot_function") > snap.self_seconds("cold_function")


def test_snapshot_while_running():
    profiler = TracingProfiler(sample_period=0.001)
    profiler.start()
    busy(0.02)
    mid = profiler.snapshot()
    busy(0.02)
    profiler.stop()
    final = profiler.snapshot()
    assert final.self_seconds("busy") > mid.self_seconds("busy") > 0.0


def test_double_start_rejected():
    profiler = TracingProfiler()
    profiler.start()
    try:
        with pytest.raises(CollectorError):
            profiler.start()
    finally:
        profiler.stop()


def test_reset_clears_state():
    profiler = TracingProfiler(sample_period=0.001)
    with profiler:
        busy(0.01)
    profiler.reset()
    assert profiler.snapshot().hist == {}


def test_elapsed_recorded():
    profiler = TracingProfiler()
    with profiler:
        busy(0.02)
    assert profiler.elapsed >= 0.015


def test_snapshot_feeds_flat_profile():
    profiler = TracingProfiler(sample_period=0.001)
    with profiler:
        caller()
    text = FlatProfile.from_gmon(profiler.snapshot()).render()
    assert "busy" in text


def test_names_filter():
    accept = names_filter(["a", "b"])
    assert accept("a") and not accept("c")


# ----------------------------------------------------------------------
# lifecycle: the profiler never profiles itself or removes another
# tool's hook
# ----------------------------------------------------------------------
def test_restart_begins_at_the_root():
    profiler = TracingProfiler(sample_period=0.001)
    with profiler:
        caller()
    profiler.reset()
    profiler.start()
    busy(0.002)
    profiler.stop()
    assert profiler.snapshot().arcs == {("<spontaneous>", "busy"): 1}


def test_own_frames_stay_out_of_the_profile():
    profiler = TracingProfiler(sample_period=0.001)
    profiler.start()
    busy(0.01)
    mid = profiler.snapshot()
    profiler.reset()
    busy(0.01)
    profiler.stop()
    for snap in (mid, profiler.snapshot()):
        assert set(snap.hist) == {"busy"}
        assert snap.arcs == {("<spontaneous>", "busy"): 1}


@pytest.mark.parametrize("started", [False, True])
def test_stop_leaves_another_tools_hook_in_place(started):
    def other_hook(frame, event, arg):
        pass

    profiler = TracingProfiler()
    if started:
        profiler.start()
    sys.setprofile(other_hook)
    try:
        profiler.stop()
        assert sys.getprofile() is other_hook
    finally:
        sys.setprofile(None)
