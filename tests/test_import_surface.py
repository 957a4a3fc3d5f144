"""What each entry point imports: NumPy only, and only the layers it runs.

Every check runs in a fresh interpreter, because a module one test
imported would hide what another entry point loads.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(imports: str) -> set:
    out = run_fresh(f"""
        import sys
        {imports}
        print("\\n".join(sorted(sys.modules)))
    """)
    return set(out.split())


def test_every_module_imports_without_networkx():
    out = run_fresh("""
        import pkgutil, sys
        sys.modules["networkx"] = None  # any import of it now fails
        import repro
        names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
                 if not m.name.endswith("__main__")]  # __main__ runs the CLI
        for name in names:
            __import__(name)

        from repro.gprof.gmon import SPONTANEOUS, GmonData
        from repro.gprof.reports import render_gprof_report
        data = GmonData(hist={"main": 10, "ping": 20, "pong": 30})
        data.add_arc(SPONTANEOUS, "main", 1)
        data.add_arc("main", "ping", 2)
        data.add_arc("ping", "pong", 5)
        data.add_arc("pong", "ping", 4)
        print(len(names))
        print(render_gprof_report(data))
    """)
    assert int(out.split("\n", 1)[0]) > 90
    assert "Call graph" in out and "ping [" in out and "pong [" in out


def test_offline_analysis_loads_no_service_fleet_or_http():
    loaded = loaded_after("import repro.core.pipeline")
    assert "repro.core.pipeline" in loaded
    assert not {m for m in loaded
                if m.split(".")[:2] in (["repro", "service"], ["repro", "fleet"])}
    assert "networkx" not in loaded
    assert "http.server" not in loaded


def test_daemon_loads_no_networkx_or_http_server():
    # What perfbench/daemon.py imports to launch incprofd.
    loaded = loaded_after("""
        from repro.core.model_io import load_model
        from repro.service import Endpoint, ServerConfig
        from repro.service.server import serve
    """)
    assert "repro.service.server" in loaded
    assert "networkx" not in loaded
    assert "http.server" not in loaded
    assert "repro.service.webserver" not in loaded


def repro_modules(loaded: set) -> set:
    return {m for m in loaded if m == "repro" or m.startswith("repro.")}


def test_worker_serve_loads_only_the_daemon(tmp_path):
    """A fleet worker runs ``python -m repro serve``: the CLI must load
    the daemon's modules and nothing else of ``repro``.  A corrupt model
    makes serve return 1 before it binds a socket."""
    model = tmp_path / "corrupt.ipm"
    model.write_bytes(b"not a phase model")
    loaded = repro_modules(loaded_after(f"""
        import contextlib, io
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["serve", "--model", {str(model)!r}]) == 1
    """))
    daemon = repro_modules(loaded_after(
        "import repro.core.model_io, repro.service.server"))
    assert not {m for m in loaded if m.split(".")[1:2] in
                (["eval"], ["apps"], ["incprof"], ["profiler"])}
    assert loaded - daemon == {"repro.cli"}
    parsing = repro_modules(loaded_after(
        "import repro.cli; repro.cli.build_parser().parse_args(['serve'])"))
    assert parsing == {"repro", "repro._lazy", "repro.cli"}


def test_cli_analyze_loads_no_service_or_fleet(tmp_path):
    loaded = repro_modules(loaded_after(f"""
        import contextlib, io
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            # An empty directory holds no interval: one error line.
            assert main(["analyze", {str(tmp_path)!r}]) == 1
    """))
    assert "repro.core.pipeline" in loaded
    assert not {m for m in loaded if m.split(".")[1:2] in (["service"], ["fleet"])}


def test_star_import_and_every_lazy_name_resolve():
    out = run_fresh("""
        import importlib
        from repro import *  # noqa: F403
        import repro
        for package in ("repro", "repro.fleet", "repro.gprof", "repro.service",
                        "repro.store", "repro.util"):
            module = importlib.import_module(package)
            for name in module.__all__:
                assert getattr(module, name) is not None, (package, name)
            assert set(module.__all__) <= set(dir(module)), package
        print(repro.core.analyze_snapshots is repro.analyze_snapshots)
        print(repro.service.MetricsHTTPServer.__module__)
    """)
    assert out.split() == ["True", "repro.service.webserver"]
