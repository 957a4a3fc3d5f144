"""Virtual-time execution engine for workload models.

A *workload model* is a call tree of :class:`SimFunction` bodies that
describe what a real application does at function granularity: attributed
self-time (``ctx.work``), calls to other functions (``ctx.call``), batched
high-frequency calls (``ctx.call_batch``), loop-iteration marks
(``ctx.loop_tick``), and unattributed waits such as communication
(``ctx.idle``).

The engine advances a :class:`~repro.simulate.clock.VirtualClock` while
notifying observers of exactly the events a gprof-instrumented binary
exposes: call arcs, entry/exit, and the passage of self-time.  Scheduled
triggers (the IncProf snapshot wake-up) fire at precise virtual times in
the middle of work segments, so dumps see a consistent cumulative profile.

Instrumentation overhead is modeled as *unattributed* time — like the real
mcount/gmon machinery it lives outside the program's sampled address range
but inflates wall-clock time — so measured overhead percentages emerge
from call density and event rates rather than being hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.gprof.gmon import SPONTANEOUS
from repro.simulate.clock import TIME_EPS, VirtualClock
from repro.simulate.overhead import CostModel
from repro.util.errors import ValidationError


@dataclass(frozen=True)
class SimFunction:
    """A named function in a workload model.

    ``body(ctx, *args, **kwargs)`` describes the function's behaviour using
    the :class:`ExecutionContext` API.  Leaf functions whose entire cost is
    self-time may omit the body.
    """

    name: str
    body: Optional[Callable[..., Any]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("SimFunction requires a non-empty name")


class EngineObserver:
    """Event interface for profilers and instrumentation.

    ``on_work`` is called while the engine is mid-segment and must not
    advance the clock; the entry/exit/tick hooks may add overhead via
    :meth:`Engine.overhead`.
    """

    def on_enter(self, func: str, t: float) -> None:
        """Function ``func`` begins executing at time ``t``."""

    def on_exit(self, func: str, t: float) -> None:
        """Function ``func`` returns at time ``t``."""

    def on_call(self, caller: str, callee: str, t: float, count: int = 1) -> None:
        """``caller`` invokes ``callee`` ``count`` times starting at ``t``."""

    def on_work(self, func: str, t0: float, t1: float) -> None:
        """``func`` executed its own code for the segment ``[t0, t1)``."""

    def on_batch_calls(self, caller: str, callee: str, n: int, t0: float, t1: float) -> None:
        """``n`` rapid calls of ``callee`` spanned ``[t0, t1)`` in aggregate."""

    def on_loop_tick(self, func: str, t: float) -> None:
        """A loop iteration boundary inside ``func`` at time ``t``."""


class ExecutionContext:
    """The API surface workload bodies program against."""

    def __init__(self, engine: "Engine") -> None:
        self._engine = engine

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._engine.clock.now

    @property
    def rank(self) -> int:
        """MPI rank of the simulated process."""
        return self._engine.rank

    @property
    def rng(self) -> np.random.Generator:
        """Per-rank noise stream for duration jitter."""
        return self._engine.rng

    @property
    def params(self) -> Dict[str, Any]:
        """Free-form workload parameters supplied by the app spec."""
        return self._engine.params

    def work(self, seconds: float) -> None:
        """Execute ``seconds`` of self-time in the current function."""
        self._engine._work(seconds)

    def call(self, func: SimFunction, *args: Any, **kwargs: Any) -> Any:
        """Call ``func`` as a child of the current function."""
        return self._engine._call(func, args, kwargs)

    def call_batch(self, func: SimFunction, n: int, total_self_seconds: float) -> None:
        """Model ``n`` rapid calls of leaf ``func`` totalling the given self-time.

        This is how high-frequency tiny functions (e.g. Graph500's
        ``make_one_edge``) are expressed without ``n`` Python-level calls:
        the call-graph arc gains ``n`` counts and ``func`` is charged the
        aggregate self-time across the span.
        """
        self._engine._call_batch(func, n, total_self_seconds)

    def loop_tick(self) -> None:
        """Mark a loop-iteration boundary inside the current function."""
        self._engine._loop_tick()

    def idle(self, seconds: float) -> None:
        """Advance time without attributing it (blocked communication, I/O)."""
        self._engine._advance(seconds, None)


class Engine:
    """Runs one simulated process (one MPI rank) of a workload model."""

    def __init__(
        self,
        clock: Optional[VirtualClock] = None,
        cost_model: Optional[CostModel] = None,
        rank: int = 0,
        rng: Optional[np.random.Generator] = None,
        params: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self.cost_model = cost_model if cost_model is not None else CostModel.disabled()
        self.rank = rank
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.params = dict(params or {})
        self.observers: List[EngineObserver] = []
        self._stack: List[str] = [SPONTANEOUS]
        self._ctx = ExecutionContext(self)
        # Run statistics, useful for overhead accounting and tests.
        self.total_calls = 0
        self.total_attributed = 0.0
        self.total_overhead = 0.0
        self._in_overhead = False

    # ------------------------------------------------------------------
    # observer management
    # ------------------------------------------------------------------
    def add_observer(self, observer: EngineObserver) -> None:
        self.observers.append(observer)

    def remove_observer(self, observer: EngineObserver) -> None:
        self.observers.remove(observer)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    @property
    def current_function(self) -> str:
        """Name of the function on top of the call stack."""
        return self._stack[-1]

    def run(self, root: SimFunction, *args: Any, **kwargs: Any) -> Any:
        """Execute ``root`` to completion; returns the body's return value."""
        return self._call(root, args, kwargs)

    def overhead(self, seconds: float) -> None:
        """Add unattributed instrumentation overhead to the timeline.

        Safe to call from entry/exit/tick observers and trigger callbacks;
        no-op when the active :class:`CostModel` is disabled or ``seconds``
        is non-positive.
        """
        if seconds <= 0.0 or not self.cost_model.enabled:
            return
        # Guard against observers reacting to overhead-induced events by
        # adding further overhead recursively.
        if self._in_overhead:
            return
        self._in_overhead = True
        try:
            self.total_overhead += seconds
            self._advance(seconds, None)
        finally:
            self._in_overhead = False

    # ------------------------------------------------------------------
    # internals used by ExecutionContext
    # ------------------------------------------------------------------
    def _call(self, func: SimFunction, args: Sequence[Any], kwargs: Dict[str, Any]) -> Any:
        caller = self._stack[-1]
        self.total_calls += 1
        self.overhead(self.cost_model.per_call)
        t = self.clock.now
        for obs in self.observers:
            obs.on_call(caller, func.name, t, 1)
        self._stack.append(func.name)
        t_enter = self.clock.now
        for obs in self.observers:
            obs.on_enter(func.name, t_enter)
        try:
            result = func.body(self._ctx, *args, **kwargs) if func.body else None
        finally:
            t_exit = self.clock.now
            for obs in self.observers:
                obs.on_exit(func.name, t_exit)
            self._stack.pop()
        return result

    #: Batch arc/work interleaving granularity: calls are credited in
    #: slices of at most this much self-time, so a profile snapshot taken
    #: mid-batch sees call counts proportional to elapsed time — exactly
    #: what a real mcount-instrumented run of n tiny calls produces.
    BATCH_SLICE_SECONDS = 0.05

    def _call_batch(self, func: SimFunction, n: int, total_self_seconds: float) -> None:
        if n <= 0:
            raise ValidationError("call_batch requires n >= 1")
        if total_self_seconds < 0:
            raise ValidationError("call_batch requires non-negative self time")
        caller = self._stack[-1]
        self.total_calls += n
        self.overhead(self.cost_model.per_call * n)
        t0 = self.clock.now
        slices = max(1, int(total_self_seconds / self.BATCH_SLICE_SECONDS))
        self._stack.append(func.name)
        try:
            credited = 0
            for i in range(slices):
                count = (n * (i + 1)) // slices - credited
                credited += count
                if count:
                    t = self.clock.now
                    for obs in self.observers:
                        obs.on_call(caller, func.name, t, count)
                self._work(total_self_seconds / slices)
        finally:
            t1 = self.clock.now
            self._stack.pop()
        for obs in self.observers:
            obs.on_batch_calls(caller, func.name, n, t0, t1)

    def _loop_tick(self) -> None:
        func = self._stack[-1]
        t = self.clock.now
        for obs in self.observers:
            obs.on_loop_tick(func, t)

    def _work(self, seconds: float) -> None:
        if seconds < 0:
            raise ValidationError("work duration must be non-negative")
        func = self._stack[-1]
        if func == SPONTANEOUS:
            raise ValidationError("work() outside of any function")
        self.total_attributed += seconds
        self._advance(seconds, func)
        # Sampling-signal handling cost scales with attributed time.
        frac = self.cost_model.sampling_fraction
        if frac > 0.0 and self.cost_model.enabled:
            self.overhead(seconds * frac)

    def _advance(self, duration: float, func: Optional[str]) -> None:
        """Advance virtual time, splitting at trigger boundaries.

        Trigger callbacks may re-enter the engine through :meth:`overhead`
        (e.g. a snapshot dump); ``remaining`` is duration-based so the
        current work simply resumes after such a pause.
        """
        remaining = float(duration)
        while remaining > TIME_EPS:
            t0 = self.clock.now
            boundary = self.clock.next_trigger_time()
            seg_end = min(t0 + remaining, boundary)
            seg = seg_end - t0
            if seg > TIME_EPS:
                if func is not None:
                    for obs in self.observers:
                        obs.on_work(func, t0, seg_end)
                self.clock.set_time(seg_end)
                remaining -= seg
            if self.clock.next_trigger_time() <= self.clock.now + TIME_EPS:
                self.clock.fire_due()
