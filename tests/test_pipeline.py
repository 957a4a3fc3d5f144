"""End-to-end analysis pipeline on collected runs."""

import importlib
import pickle

import numpy as np
import pytest

from repro.core.kselect import wcss_curve
from repro.core.model import InstType
from repro.core.pipeline import AnalysisConfig, analyze_intervals, analyze_snapshots
from repro.core.report import kcurve_table, phases_summary_table, render_full_report, sites_table
from repro.apps import get_app
from repro.eval.experiments import run_experiments
from repro.incprof.session import Session, SessionConfig

kselect_module = importlib.import_module("repro.core.kselect")


def test_analyze_snapshots_end_to_end(graph500_samples):
    analysis = analyze_snapshots(graph500_samples)
    assert analysis.n_phases == 4
    assert analysis.sites()
    # Every selected function is a real attribute dimension.
    for selected in analysis.sites():
        assert selected.function in analysis.interval_data.functions


def test_site_labels(graph500_samples):
    analysis = analyze_snapshots(graph500_samples)
    labels = analysis.site_labels()
    assert set(labels) == {s.hb_id for s in analysis.sites()}


def test_phase_fractions_sum_to_one(graph500_samples):
    analysis = analyze_snapshots(graph500_samples)
    total = sum(analysis.phase_fraction(p) for p in range(analysis.n_phases))
    assert total == pytest.approx(1.0)


def test_via_text_reports_path_agrees(graph500_samples):
    binary = analyze_snapshots(graph500_samples)
    text = analyze_snapshots(graph500_samples, AnalysisConfig(via_text_reports=True))
    assert text.n_phases == binary.n_phases
    assert {s.site for s in text.sites()} == {s.site for s in binary.sites()}


def test_deterministic_given_seed(graph500_samples):
    a = analyze_snapshots(graph500_samples)
    b = analyze_snapshots(graph500_samples)
    assert np.array_equal(a.phase_model.labels, b.phase_model.labels)
    assert [s.site for s in a.sites()] == [s.site for s in b.sites()]


def test_coverage_threshold_flows_through(graph500_samples):
    strict = analyze_snapshots(graph500_samples, AnalysisConfig(coverage_threshold=1.0))
    default = analyze_snapshots(graph500_samples)
    assert len(strict.sites()) >= len(default.sites())


def test_kmax_limits_phase_count(graph500_samples):
    analysis = analyze_snapshots(graph500_samples, AnalysisConfig(kmax=2))
    assert analysis.n_phases <= 2


def test_analyze_intervals_direct(graph500_samples):
    from repro.core.intervals import intervals_from_snapshots

    data = intervals_from_snapshots(graph500_samples)
    analysis = analyze_intervals(data)
    assert analysis.n_phases == 4


# ----------------------------------------------------------------------
# report rendering
# ----------------------------------------------------------------------
def test_sites_table_contains_all_rows(graph500_samples):
    analysis = analyze_snapshots(graph500_samples)
    app = get_app("graph500")
    text = sites_table(analysis, manual_sites=app.manual_sites).render()
    for selected in analysis.sites():
        assert selected.function in text
    assert "Manual Instrumentation Sites" in text
    assert "generate_kronecker_range" in text


def test_phase_summary_table(graph500_samples):
    analysis = analyze_snapshots(graph500_samples)
    text = phases_summary_table(analysis).render()
    assert text.count("\n") >= analysis.n_phases


def test_kcurve_table_marks_chosen(graph500_samples):
    analysis = analyze_snapshots(graph500_samples)
    text = kcurve_table(analysis).render()
    assert "<--" in text


def test_full_report(graph500_samples):
    analysis = analyze_snapshots(graph500_samples)
    text = render_full_report(analysis, "graph500")
    assert "GRAPH500" in text
    assert "k-means sweep" in text


def test_inst_types_valid(graph500_samples):
    analysis = analyze_snapshots(graph500_samples)
    for selected in analysis.sites():
        assert selected.inst_type in (InstType.BODY, InstType.LOOP)


def test_parallel_sweep_identical_to_serial(graph500_samples):
    """Acceptance: for a fixed AnalysisConfig, parallel and serial sweeps
    yield identical chosen k, labels, and selected sites."""
    config = AnalysisConfig()
    serial = analyze_snapshots(graph500_samples, config)
    parallel = analyze_snapshots(graph500_samples, config, workers=2)
    assert (serial.phase_model.kselection.chosen_k
            == parallel.phase_model.kselection.chosen_k)
    assert np.array_equal(serial.phase_model.labels, parallel.phase_model.labels)
    assert ([(s.function, s.hb_id) for s in serial.sites()]
            == [(s.function, s.hb_id) for s in parallel.sites()])
    serial_wcss = {k: r.inertia for k, r in serial.phase_model.kselection.results.items()}
    parallel_wcss = {k: r.inertia for k, r in parallel.phase_model.kselection.results.items()}
    assert serial_wcss == parallel_wcss


def _same_fit(a, b):
    return (a.k == b.k and np.array_equal(a.labels, b.labels)
            and np.array_equal(a.centroids, b.centroids)
            and a.inertia == b.inertia and a.n_iter == b.n_iter)


@pytest.fixture(scope="module")
def miniamr_samples():
    """A run whose elbow stops inside the sweep's first block (k = 2)."""
    return Session(get_app("miniamr"), SessionConfig(ranks=1, scale=0.3)).run().samples(0)


@pytest.fixture
def sweep_calls(monkeypatch):
    """The k's of each ``kmeans_sweep`` call the k sweep makes."""
    calls = []
    sweep = kselect_module.kmeans_sweep

    def counting(points, seeds_by_k, n_init):
        calls.append(sorted(seeds_by_k))
        return sweep(points, seeds_by_k, n_init=n_init)

    monkeypatch.setattr(kselect_module, "kmeans_sweep", counting)
    return calls


def test_kcurve_fits_the_rest_of_the_sweep_in_one_call(miniamr_samples,
                                                       sweep_calls):
    """The analysis fits only the elbow's block; the report's k-curve
    then fits k = 5..8 in one more call and reads the eager sweep."""
    analysis = analyze_snapshots(miniamr_samples)
    assert analysis.n_phases == 2
    assert sweep_calls == [[1, 2, 3, 4]]
    text = kcurve_table(analysis).render()
    assert sweep_calls == [[1, 2, 3, 4], [5, 6, 7, 8]]
    eager = wcss_curve(analysis.features, kmax=8, seed=0)
    for k in range(1, 9):
        assert _same_fit(analysis.phase_model.kselection.results[k], eager[k])
        assert f"{eager[k].inertia:.4g}" in text


def test_analysis_pickles_with_every_k(miniamr_samples, sweep_calls):
    analysis = analyze_snapshots(miniamr_samples)
    assert sweep_calls == [[1, 2, 3, 4]]
    loaded = pickle.loads(pickle.dumps(analysis))
    assert sweep_calls == [[1, 2, 3, 4], [5, 6, 7, 8]]  # pickling filled it
    eager = wcss_curve(analysis.features, kmax=8, seed=0)
    del sweep_calls[:]
    results = loaded.phase_model.kselection.results
    for k in range(1, 9):
        assert _same_fit(results[k], eager[k])
    assert sweep_calls == []  # every k came through the pickle
    assert np.array_equal(loaded.phase_model.labels, analysis.phase_model.labels)
    assert render_full_report(loaded, "miniamr") == render_full_report(
        analysis, "miniamr")


def test_run_experiments_pool_equals_serial():
    """Experiments fitted in worker processes come back pickled — lazy
    sweeps included — and equal the serial run, full k-curve and all."""
    apps = ["graph500", "minife"]
    serial = run_experiments(apps, scale=0.3, use_cache=False)
    pooled = run_experiments(apps, scale=0.3, use_cache=False, workers=2)
    assert list(pooled) == apps
    for app in apps:
        a, b = serial[app].analysis, pooled[app].analysis
        assert a.n_phases == b.n_phases
        assert np.array_equal(a.phase_model.labels, b.phase_model.labels)
        assert [s.site for s in a.sites()] == [s.site for s in b.sites()]
        ra, rb = a.phase_model.kselection.results, b.phase_model.kselection.results
        assert list(ra) == list(rb) == list(range(1, 9))
        for k in ra:
            assert _same_fit(ra[k], rb[k])
        assert kcurve_table(a).render() == kcurve_table(b).render()
