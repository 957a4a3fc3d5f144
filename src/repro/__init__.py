"""IncProf reproduction: source-oriented phase identification.

A from-scratch Python implementation of the system described in
*"IncProf: Efficient Source-Oriented Phase Identification for Application
Behavior Understanding"* (CLUSTER 2022): the incremental gprof-snapshot
collector, the k-means/elbow phase-detection pipeline, Algorithm 1's
instrumentation-site selection, and the AppEKG heartbeat framework —
plus simulated workload models of the paper's five evaluation
applications and the harness regenerating every table and figure.

Quickstart::

    from repro import apps, incprof, core

    app = apps.get_app("graph500")
    session = incprof.Session(app, incprof.SessionConfig(ranks=1, scale=0.25))
    result = session.run()
    analysis = core.analyze_snapshots(result.samples(rank=0))
    for selected in analysis.sites():
        print(selected.phase_id, selected.function, selected.inst_type.value)
"""

from repro._lazy import lazy_attributes

__version__ = "2.0.0"

# Subpackages and re-exported names load on first use, so a process pays
# only for the layers it runs (the daemon never imports ``repro.apps``;
# offline analysis never imports ``repro.service``).
__getattr__, __dir__, _names = lazy_attributes(
    __name__,
    {"core.pipeline": ("AnalysisConfig", "AnalysisResult", "analyze_snapshots"),
     "incprof.session": ("Session", "SessionConfig")},
    submodules=("api", "apps", "core", "gprof", "heartbeat", "incprof",
                "profiler", "simulate", "util"))

__all__ = [*_names, "__version__"]
