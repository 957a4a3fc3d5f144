"""Profiling arbitrary scripts/callables (the preload analogue)."""

import textwrap
import time

import pytest

from repro.gprof.flatprofile import FlatProfile
from repro.incprof.script_runner import profile_callable, profile_script
from repro.store.loose import LooseStore
from repro.util.errors import CollectorError


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def two_stage():
    busy(0.12)
    busy(0.06)
    return "ok"


def test_profile_callable_collects_and_returns():
    profile = profile_callable(two_stage, interval=0.05)
    assert profile.result == "ok"
    assert len(profile.samples) >= 2
    assert profile.final.self_seconds("busy") >= 0.15


def test_profile_callable_persists(tmp_path):
    profile_callable(two_stage, interval=0.05, store_dir=tmp_path)
    assert list(LooseStore(tmp_path).scan("0"))


DEMO = textwrap.dedent('''
    import sys, time

    def hot(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    def cold(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    if __name__ == "__main__":
        hot(float(sys.argv[1]))
        cold(float(sys.argv[2]))
''')


@pytest.fixture()
def demo_script(tmp_path):
    path = tmp_path / "demo.py"
    path.write_text(DEMO)
    return path


def test_profile_script_measures_user_functions(demo_script):
    profile = profile_script(demo_script, argv=["0.2", "0.05"], interval=0.05)
    final = profile.final
    assert final.self_seconds("hot") > final.self_seconds("cold") > 0.0
    assert final.calls_into("hot") == 1


def test_profile_script_excludes_stdlib(demo_script):
    profile = profile_script(demo_script, argv=["0.05", "0.05"], interval=0.05)
    names = set(profile.final.functions())
    # No import machinery in the profile.
    assert not any("Importer" in n or "Finder" in n or "importlib" in n
                   for n in names)


def test_profile_script_include_stdlib_option(demo_script):
    profile = profile_script(demo_script, argv=["0.05", "0.02"],
                             interval=0.1, exclude_stdlib=False)
    names = set(profile.final.functions())
    assert "hot" in names
    assert len(names) > 4  # machinery present


def test_profile_script_argv_restored(demo_script):
    import sys

    before = list(sys.argv)
    profile_script(demo_script, argv=["0.02", "0.02"], interval=0.1)
    assert sys.argv == before


def test_missing_script_rejected(tmp_path):
    with pytest.raises(CollectorError):
        profile_script(tmp_path / "ghost.py")


def test_snapshots_feed_flat_profile(demo_script):
    profile = profile_script(demo_script, argv=["0.1", "0.05"], interval=0.05)
    text = FlatProfile.from_gmon(profile.final).render()
    assert "hot" in text and "cold" in text


CALL_CHAIN = textwrap.dedent('''
    import time

    def work(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    def main():
        work(0.05)

    if __name__ == "__main__":
        main()
''')


def test_profile_script_hides_its_own_runner(tmp_path):
    """The runner closure that executes the script is machinery: the
    script's entry point is a root call, exactly as under ``python``."""
    path = tmp_path / "chain.py"
    path.write_text(CALL_CHAIN)
    profile = profile_script(path, interval=0.05)
    assert set(profile.final.arcs) == {("<spontaneous>", "main"),
                                       ("main", "work")}
