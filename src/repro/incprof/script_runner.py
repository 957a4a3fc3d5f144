"""Profiling arbitrary Python scripts (the preload-library analogue).

The original IncProf is an ``LD_PRELOAD`` shared library: no source
changes, attach to any ``-pg`` binary, dump every second.  This module
is the Python equivalent: run *any* script under the live tracing
profiler with a background snapshot thread, persist the per-interval
gmon files, and (optionally) analyze them on the spot.

Used by ``incprof live-script my_program.py`` and programmatically via
:func:`profile_script` / :func:`profile_callable`.
"""

from __future__ import annotations

import runpy
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

from repro.gprof.gmon import GmonData
from repro.incprof.collector import LiveCollector
from repro.store.loose import LooseStore
from repro.profiler.tracing import NameFilter, TracingProfiler
from repro.util.errors import CollectorError


@dataclass
class ScriptProfile:
    """Outcome of a profiled script/callable run."""

    samples: List[GmonData]
    elapsed: float
    result: object = None

    @property
    def final(self) -> GmonData:
        return self.samples[-1]


def profile_callable(
    target: Callable[[], object],
    interval: float = 1.0,
    sample_period: float = 0.005,
    name_filter: Optional[NameFilter] = None,
    file_filter: Optional[NameFilter] = None,
    store_dir: Optional[Union[str, Path]] = None,
) -> ScriptProfile:
    """Run ``target()`` under the live profiler + snapshot thread."""
    store = LooseStore(store_dir) if store_dir is not None else None
    profiler = TracingProfiler(sample_period=sample_period,
                               name_filter=name_filter,
                               file_filter=file_filter)
    collector = LiveCollector(profiler, interval=interval, store=store)
    collector.start()
    try:
        with profiler:
            result = target()
    finally:
        samples = collector.stop()
    return ScriptProfile(samples=samples, elapsed=profiler.elapsed, result=result)


def profile_script(
    script_path: Union[str, Path],
    argv: Sequence[str] = (),
    interval: float = 1.0,
    sample_period: float = 0.005,
    exclude_stdlib: bool = True,
    store_dir: Optional[Union[str, Path]] = None,
) -> ScriptProfile:
    """Execute a Python script file under IncProf collection.

    The script runs as ``__main__`` (like ``python script.py``) with
    ``sys.argv`` temporarily replaced.  With ``exclude_stdlib`` the
    snapshots keep only functions defined outside the interpreter's
    installation (the analogue of gprof only seeing the ``-pg`` binary's
    own symbols, not libc's).
    """
    script_path = Path(script_path)
    if not script_path.is_file():
        raise CollectorError(f"no such script: {script_path}")

    def run():
        return runpy.run_path(str(script_path), run_name="__main__")

    file_filter = None
    name_filter: Optional[NameFilter] = None
    if exclude_stdlib:
        # The analogue of gprof seeing only the -pg binary's own symbols:
        # frames defined inside the interpreter installation (stdlib,
        # site-packages, frozen importlib) fold into their callers.
        prefix = sys.prefix
        base_prefix = sys.base_prefix

        def file_filter(filename: str) -> bool:
            return not (
                filename.startswith(prefix)
                or filename.startswith(base_prefix)
                or filename.startswith("<")
            )

        # The runner's own closure is named the way the tracer names
        # frames (its qualname where the interpreter records one).
        code = run.__code__
        machinery = {"<module>", "_run_code", "_run_module_code", "run_path",
                     getattr(code, "co_qualname", code.co_name)}
        name_filter = lambda name: name not in machinery  # noqa: E731

    saved_argv = sys.argv
    sys.argv = [str(script_path), *argv]
    try:
        return profile_callable(
            run,
            interval=interval,
            sample_period=sample_period,
            name_filter=name_filter,
            file_filter=file_filter,
            store_dir=store_dir,
        )
    finally:
        sys.argv = saved_argv
