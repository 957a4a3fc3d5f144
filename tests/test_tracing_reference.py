"""TracingProfiler against a reference tracer that charges at every event.

``ReferenceTracer`` is the straightforward accounting: at every profile
event, C events included, it charges the time since the previous event
to the nearest unfiltered frame on its shadow stack, found by walking
the stack.  ``TracingProfiler`` does work only on events that can change
which function is charged, so both must agree exactly: on a scripted
call tree driven by a fake clock (self-time and arcs), on the paper
apps' live kernels (arcs), and with collectors snapshotting
concurrently (arcs, and cumulative snapshots that never decrease).
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.apps import get_app
from repro.incprof.collector import LiveCollector
from repro.profiler.tracing import TracingProfiler, names_filter
from repro.simulate.engine import SPONTANEOUS

#: (app, live scale) pairs the ``collect-live`` benchmark workload runs.
LIVE_KERNELS = (("graph500", 0.1), ("minife", 1.0), ("miniamr", 0.5),
                ("lammps", 0.7), ("gadget2", 0.1))


class ReferenceTracer:
    """Charge elapsed time at every event; walk the stack for the target."""

    def __init__(self, clock, name_filter=None, file_filter=None) -> None:
        self.clock = clock
        self.name_filter = name_filter
        self.file_filter = file_filter
        self.self_time = {}
        self.arcs = {}
        self.stack = [(SPONTANEOUS, False)]
        self.last = None

    def _nearest_unfiltered(self):
        for name, passes in reversed(self.stack):
            if passes:
                return name
        return None

    def _charge(self, now) -> None:
        if now > self.last:
            name = self._nearest_unfiltered()
            if name is not None:
                self.self_time[name] = self.self_time.get(name, 0.0) + (now - self.last)
        self.last = now

    def event(self, frame, event, arg) -> None:
        self._charge(self.clock())
        if event == "call":
            code = frame.f_code
            name = getattr(code, "co_qualname", code.co_name)
            passes = self.name_filter is None or self.name_filter(name)
            if passes and self.file_filter is not None:
                passes = self.file_filter(code.co_filename)
            if passes:
                key = (self._nearest_unfiltered() or SPONTANEOUS, name)
                self.arcs[key] = self.arcs.get(key, 0) + 1
            self.stack.append((name, passes))
        elif event == "return" and len(self.stack) > 1:
            self.stack.pop()

    def run(self, fn):
        self.last = self.clock()
        sys.setprofile(self.event)
        try:
            fn()
        finally:
            sys.setprofile(None)
            self._charge(self.clock())


def run_profiler(profiler: TracingProfiler, fn):
    profiler.start()
    try:
        fn()
    finally:
        profiler.stop()
    return profiler.snapshot()


# ----------------------------------------------------------------------
# scripted call tree on a fake clock
# ----------------------------------------------------------------------
class FakeClock:
    """Time moves only where a scripted frame adds to ``now``.

    ``CLOCK.now += n`` is plain bytecode, so advancing the clock raises
    no profile event of its own.
    """

    def __init__(self) -> None:
        self.now = 0

    def __call__(self):
        return self.now


CLOCK = FakeClock()

#: Frames that pass the name filter; every other scripted frame folds
#: into its nearest passing ancestor.
PASSING = {"leaf", "key_fn", "recurse", "pingpong", "raiser", "passthrough",
           "catcher", "countdown", "generated"}

_generated_ns = {"CLOCK": CLOCK}
exec(compile("def generated(f):\n    CLOCK.now += 2\n    return f()\n",
             "<generated>", "exec"), _generated_ns)
#: Passes the name filter but is defined outside this file, so the file
#: filter folds it into its caller.
generated = _generated_ns["generated"]


def not_generated(filename: str) -> bool:
    return filename != "<generated>"


def leaf():
    CLOCK.now += 3
    len([1, 2])  # C call from a passing frame
    CLOCK.now += 1


def key_fn(x):
    CLOCK.now += 1
    return -x


def helper(n):
    CLOCK.now += 2
    # C call from a filtered frame that calls back into a passing one.
    sorted(range(n), key=key_fn)
    leaf()
    CLOCK.now += 1


def recurse(n):
    CLOCK.now += 1
    if n:
        recurse(n - 1)
        CLOCK.now += 1
    else:
        helper(2)


def bounce(n):
    CLOCK.now += 5
    if n:
        pingpong(n - 1)


def pingpong(n):
    CLOCK.now += 1
    bounce(n)
    CLOCK.now += 2


def raiser():
    CLOCK.now += 4
    raise ValueError("unwind")


def unwinder():
    CLOCK.now += 2
    raiser()


def passthrough():
    CLOCK.now += 1
    unwinder()


def catcher():
    CLOCK.now += 1
    try:
        passthrough()
    except ValueError:
        CLOCK.now += 3
    try:
        int("not a number")  # C exception from a passing frame
    except ValueError:
        CLOCK.now += 1


def countdown(n):
    while n:
        CLOCK.now += 1
        yield n
        n -= 1


def drain():
    CLOCK.now += 1
    return list(countdown(3))


def scripted_root():
    CLOCK.now += 7  # a filtered frame at the root: charged to no one
    recurse(3)
    pingpong(3)
    catcher()
    helper(4)
    generated(leaf)
    drain()
    CLOCK.now += 2


def test_reference_accounting_by_hand():
    # A sanity anchor for the reference itself on a small tree:
    # recurse(0) -> helper (filtered) -> sorted -> key_fn x2, leaf.
    CLOCK.now = 0
    ref = ReferenceTracer(CLOCK, name_filter=names_filter(PASSING))
    ref.run(lambda: recurse(0))
    assert ref.self_time == {"recurse": 1 + 2 + 1, "key_fn": 2, "leaf": 4}
    assert ref.arcs == {(SPONTANEOUS, "recurse"): 1, ("recurse", "key_fn"): 2,
                        ("recurse", "leaf"): 1}


@pytest.mark.parametrize("file_filter", [None, not_generated])
def test_scripted_tree_matches_reference_exactly(file_filter):
    CLOCK.now = 0
    ref = ReferenceTracer(CLOCK, name_filter=names_filter(PASSING),
                          file_filter=file_filter)
    ref.run(scripted_root)
    ref_total = CLOCK.now

    CLOCK.now = 0
    profiler = TracingProfiler(sample_period=1.0, name_filter=names_filter(PASSING),
                               file_filter=file_filter, clock=CLOCK)
    snap = run_profiler(profiler, scripted_root)

    assert CLOCK.now == ref_total
    # Whole clock steps and a one-second period: ticks are exact seconds.
    assert snap.hist == {name: int(s) for name, s in ref.self_time.items()}
    assert snap.arcs == ref.arcs
    # Every frame kind the tree exists to exercise actually showed up.
    assert ref.arcs[("recurse", "recurse")] == 3
    assert ref.arcs[("pingpong", "pingpong")] == 3
    assert ref.arcs[("passthrough", "raiser")] == 1
    assert ref.arcs[("recurse", "key_fn")] == 2
    assert ref.arcs[(SPONTANEOUS, "key_fn")] == 4
    assert ref.arcs[("catcher", "passthrough")] == 1
    assert ref.self_time["countdown"] == 3
    assert ref.arcs[(SPONTANEOUS, "countdown")] == 4  # one per resume
    if file_filter is None:
        assert ref.arcs[(SPONTANEOUS, "generated")] == 1
    else:
        assert "generated" not in ref.self_time
        assert ref.arcs[(SPONTANEOUS, "leaf")] == 2


# ----------------------------------------------------------------------
# the paper apps' live kernels on the real clock
# ----------------------------------------------------------------------
@pytest.mark.parametrize("app,scale", LIVE_KERNELS)
def test_live_kernel_arcs_match_reference(app, scale):
    live = get_app(app).live_run()
    keep = names_filter(live.function_names)
    ref = ReferenceTracer(time.perf_counter, name_filter=keep)
    ref.run(lambda: live.main(scale))
    snap = run_profiler(TracingProfiler(sample_period=0.005, name_filter=keep),
                        lambda: live.main(scale))
    assert ref.arcs
    assert snap.arcs == ref.arcs


@pytest.mark.parametrize("app,scale", LIVE_KERNELS)
def test_concurrent_collectors_see_monotone_snapshots(app, scale):
    live = get_app(app).live_run()
    keep = names_filter(live.function_names)
    alone = run_profiler(TracingProfiler(sample_period=0.001, name_filter=keep),
                         lambda: live.main(scale))

    # More snapshotting threads than cores, switching as often as the
    # interpreter allows, so that snapshots land between the hook's
    # unlocked pushes and pops.
    profiler = TracingProfiler(sample_period=0.001, name_filter=keep)
    collectors = [LiveCollector(profiler, interval=0.001) for _ in range(3)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for collector in collectors:
            collector.start()
        with profiler:
            live.main(scale)
        runs = [collector.stop() for collector in collectors]
    finally:
        sys.setswitchinterval(switch)
    assert not [t for t in threading.enumerate() if t.name == "incprof-collector"]

    for samples in runs:
        assert len(samples) >= 3
        for prev, cur in zip(samples, samples[1:]):
            for name, ticks in prev.hist.items():
                assert cur.hist.get(name, 0) >= ticks, (name, prev.hist, cur.hist)
            for arc, count in prev.arcs.items():
                assert cur.arcs.get(arc, 0) >= count, (arc, prev.arcs, cur.arcs)
        assert samples[-1].arcs == alone.arcs
