"""Discrete-event execution substrate.

The paper profiles compiled MPI applications on a cluster; this package
provides the equivalent substrate for reproduction: a virtual clock, an
execution engine that runs *workload models* (call trees with modeled
self-time), an overhead/cost model for the instrumentation being studied,
and a simulated set of symmetric MPI ranks.

The engine emits the same observable events a gprof-instrumented binary
produces — function entry/exit, call arcs, and the passage of attributed
self-time — which the profiler layer turns into gmon histograms.
"""

from repro.simulate.clock import VirtualClock
from repro.simulate.engine import Engine, EngineObserver, ExecutionContext, SimFunction
from repro.simulate.overhead import CostModel
from repro.simulate.noise import NoiseModel
from repro.simulate.mpi import SimComm, RankResult

__all__ = [
    "VirtualClock",
    "Engine",
    "EngineObserver",
    "ExecutionContext",
    "SimFunction",
    "CostModel",
    "NoiseModel",
    "SimComm",
    "RankResult",
]
