"""Live profiler for real Python code (``sys.setprofile``-based).

This is the "live mode" counterpart of the simulated sampling profiler:
it measures per-function self-time and call arcs for genuine Python
executions (the apps' real NumPy kernels), then quantizes self-time into
gprof histogram ticks so downstream analysis is byte-for-byte the same
pipeline the simulated runs use.

Design notes
------------
- ``sys.setprofile`` is per-thread; the profiler instruments the thread
  that calls :meth:`start`, and :meth:`stop` belongs on that thread too.
  A live IncProf collector thread may call :meth:`snapshot` concurrently.
- Self-time is the classic tracing scheme: the time between two events
  goes to the function on top of a shadow stack.  The stack holds
  *charge targets*: the nearest unfiltered qualname, or ``None`` at the
  root, whose time goes to no one.  A frame that ``name_filter`` or
  ``file_filter`` rejects pushes its caller's target, so its self-time
  folds into the nearest unfiltered ancestor and no time is lost.
- Each event does work only if it can change the charged function:

  * ``c_call``, ``c_return`` and ``c_exception`` return at once.  C
    functions never move the stack, so their time goes to the calling
    Python function with the time around them (gprof's view of
    statically linked leaf work: NumPy kernels stay charged to the app
    function that invoked them).
  * A filtered frame's ``call``, and a ``return`` that leaves the same
    target on top, are a bare push or pop: no clock read, no lock.
  * An unfiltered frame's ``call``, and a ``return`` that changes the
    target, take the lock, read the clock, charge the time since the
    last such event to the old target, count the call arc, and move the
    stack.

  Merging the intervals between target changes is exact: every event
  skipped in between would have charged the same target.
- Whether a code object passes the filters, and its qualname, are
  decided on its first call and cached, so filters must be pure
  functions of the name or file they are given.
- Locking: a re-entrant lock guards every write to self-time, arcs and
  the last-event time, and every stack move that changes the target.
  The clock is read inside it, so the last-event time never goes
  backwards under a concurrent :meth:`snapshot`.  Bare pushes and pops
  run unlocked, which is safe because only the profiled thread moves the
  stack, one list append or pop is atomic, and neither changes the top
  target that a concurrent snapshot charges its elapsed time to.
- The profiler's own methods run on the profiled thread while the hook
  is installed (``stop``, ``snapshot`` from inside the profiled code).
  Calling one pushes the ``_OWN`` target: the frames beneath it are bare
  pushes, their time goes to no one and they count no arcs, so the
  profiler never reports its own work.
"""

from __future__ import annotations

import sys
import threading
import time
from types import CodeType, FunctionType
from typing import Callable, Dict, List, Optional, Tuple

from repro.gprof.gmon import GmonData
from repro.profiler.sampling import DEFAULT_SAMPLE_PERIOD
from repro.simulate.engine import SPONTANEOUS
from repro.util.errors import CollectorError, ValidationError

NameFilter = Callable[[str], bool]

#: Charge target of the profiler's own frames and everything they call.
_OWN = object()


class TracingProfiler:
    """Measure real Python execution into cumulative gmon state."""

    def __init__(
        self,
        sample_period: float = DEFAULT_SAMPLE_PERIOD,
        rank: int = 0,
        name_filter: Optional[NameFilter] = None,
        file_filter: Optional[NameFilter] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if sample_period <= 0:
            raise ValidationError("sample_period must be positive")
        self.sample_period = sample_period
        self.rank = rank
        self.name_filter = name_filter
        #: Optional predicate on the defining file (``co_filename``) — the
        #: analogue of gprof only seeing the instrumented binary's own
        #: symbols: frames from filtered files fold into their callers.
        self.file_filter = file_filter
        self._clock = clock
        # Re-entrant: a signal handler on the profiled thread may call
        # snapshot() while that thread is inside snapshot() already.
        self._lock = threading.RLock()
        self._self_time: Dict[str, float] = {}
        self._arcs: Dict[Tuple[str, str], int] = {}
        #: Per code object: its qualname if it passes the filters, None
        #: if it folds into its caller, ``_OWN`` for this class's methods.
        self._targets: Dict[CodeType, object] = dict.fromkeys(_OWN_CODE, _OWN)
        #: Shadow stack of charge targets; ``None`` is the root.
        self._stack: List[object] = [None]
        self._last_event_time: Optional[float] = None
        self._active = False
        self._start_time: Optional[float] = None
        self.elapsed: float = 0.0
        self._hook = self._make_hook()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin profiling the current thread, from the root of the stack."""
        if self._active:
            raise CollectorError("profiler already active")
        with self._lock:
            self._stack[:] = [None]
            self._start_time = self._last_event_time = self._clock()
            self._active = True
        sys.setprofile(self._hook)

    def stop(self) -> None:
        """Stop profiling; accumulated state remains queryable.

        Removes the hook only while it is still this profiler's, so a
        hook another tool installed on the thread stays in place.
        """
        if not self._active:
            return
        if sys.getprofile() is self._hook:
            sys.setprofile(None)
        with self._lock:
            now = self._clock()
            self._charge(self._stack[-1], now)
            self.elapsed = now - self._start_time
            self._active = False

    def __enter__(self) -> "TracingProfiler":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # event handling
    # ------------------------------------------------------------------
    def _charge(self, target, now: float) -> None:
        """Charge the time since the last event to ``target``; hold the lock."""
        last = self._last_event_time
        if now > last and target is not None and target is not _OWN:
            self._self_time[target] = self._self_time.get(target, 0.0) + (now - last)
        self._last_event_time = now

    def _target_of(self, code: CodeType) -> Optional[str]:
        """Decide once whether ``code``'s frames are charged to themselves."""
        name = getattr(code, "co_qualname", code.co_name)
        if (self.name_filter is not None and not self.name_filter(name)) or (
                self.file_filter is not None
                and not self.file_filter(code.co_filename)):
            name = None
        self._targets[code] = name
        return name

    def _make_hook(self):
        """The ``sys.setprofile`` hook, with its state bound as locals.

        The hook holds the profiler's containers, so those are only ever
        changed in place.
        """
        stack, targets, arcs = self._stack, self._targets, self._arcs
        lock, clock, charge = self._lock, self._clock, self._charge
        target_of = self._target_of

        def hook(frame, event, arg):
            if event == "call":
                top = stack[-1]
                try:
                    target = targets[frame.f_code]
                except KeyError:
                    target = target_of(frame.f_code)
                if target is None or top is _OWN:
                    stack.append(top)
                    return
                with lock:
                    charge(top, clock())
                    if target is not _OWN:
                        key = (top or SPONTANEOUS, target)
                        arcs[key] = arcs.get(key, 0) + 1
                    stack.append(target)
            elif event == "return" and len(stack) > 1:
                if stack[-1] is stack[-2]:
                    stack.pop()
                else:
                    with lock:
                        charge(stack.pop(), clock())

        return hook

    # ------------------------------------------------------------------
    # snapshotting
    # ------------------------------------------------------------------
    def snapshot(self, timestamp: Optional[float] = None) -> GmonData:
        """Thread-safe copy of the cumulative profile as gmon state.

        Self-time is quantized to histogram ticks (``round(t / period)``),
        mirroring what a 100 Hz sampler would have recorded in expectation.
        """
        with self._lock:
            now = self._clock()
            if self._active:
                self._charge(self._stack[-1], now)
            data = GmonData(sample_period=self.sample_period, rank=self.rank)
            if timestamp is None:
                timestamp = now - (self._start_time or now)
            data.timestamp = timestamp
            for name, seconds in self._self_time.items():
                ticks = int(round(seconds / self.sample_period))
                if ticks:
                    data.hist[name] = ticks
            data.arcs = dict(self._arcs)
        return data

    def reset(self) -> None:
        """Clear accumulated state (keeps filter/period configuration)."""
        with self._lock:
            self._self_time.clear()
            self._arcs.clear()


#: Code of every method above, charged as ``_OWN`` when it runs profiled.
_OWN_CODE = frozenset(f.__code__ for f in vars(TracingProfiler).values()
                      if isinstance(f, FunctionType))


def names_filter(names) -> NameFilter:
    """Build a name filter accepting exactly the given function names."""
    allowed = frozenset(names)
    return lambda name: name in allowed
