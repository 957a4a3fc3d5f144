"""A from-scratch gprof substrate.

The original IncProf leans on gprof's runtime (mcount call arcs + 100 Hz
PC-sampling histogram) and on the ``gprof`` command-line tool to turn
binary ``gmon.out`` dumps into flat-profile text.  This package provides
the equivalent pieces:

- :mod:`repro.gprof.gmon` — the in-memory profile snapshot
  (:class:`GmonData`) and a versioned binary file format for it;
- :mod:`repro.gprof.flatprofile` — the flat per-function profile, with
  gprof-style text rendering *and* parsing (the paper's pipeline parses
  gprof text reports);
- :mod:`repro.gprof.callgraph` — the parent/child call-graph profile with
  gprof's time-propagation semantics;
- :mod:`repro.gprof.reports` — whole-report rendering and parsing.
"""

from repro._lazy import lazy_attributes

# Names resolve on first use: ``gcov`` imports the simulation engine,
# which imports ``gmon`` for the root caller's name, so an eager package
# would import ``gcov`` half-way through loading the engine.
__getattr__, __dir__, __all__ = lazy_attributes(__name__, {
    "gmon": ("GmonData", "read_gmon", "write_gmon", "dumps_gmon", "loads_gmon"),
    "flatprofile": ("FlatProfile", "FlatProfileEntry"),
    "callgraph": ("CallGraphProfile", "CallGraphEntry"),
    "reports": ("render_gprof_report", "parse_flat_profile"),
    "gcov": ("CoverageData", "CoverageProfiler", "intervals_from_coverage"),
    "merge": ("merge_gmons", "merge_sample_series"),
})
