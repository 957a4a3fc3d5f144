"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_run_then_analyze(tmp_path, capsys):
    out_dir = str(tmp_path / "samples")
    assert main(["run", "--app", "graph500", "--out", out_dir, "--scale", "0.2"]) == 0
    assert main(["analyze", out_dir]) == 0
    out = capsys.readouterr().out
    assert "Phase ID" in out
    assert "k-means sweep" in out


def test_analyze_kselect_option(tmp_path, capsys):
    out_dir = str(tmp_path / "samples")
    main(["run", "--app", "miniamr", "--out", out_dir, "--scale", "0.15"])
    assert main(["analyze", out_dir, "--kselect", "chord"]) == 0


def test_report_command(capsys):
    assert main(["report", "--app", "graph500", "--scale", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "INSTRUMENTED FUNCTIONS" in out
    assert "discovered-site agreement" in out


def test_figure_command(capsys):
    assert main(["figure", "--app", "graph500", "--scale", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "Fig." in out
    assert "legend" in out


def test_unknown_app_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--app", "doom", "--out", "/tmp/x"])


def test_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for cmd in ("list-apps", "run", "analyze", "report", "figure", "table1",
                "serve", "submit", "fleet-status"):
        assert cmd in text


def test_paper_app_verbs_reject_other_apps(capsys):
    """report, figure and live take only the paper's five apps; the
    check runs when --app is parsed, not when the parser is built."""
    for verb in ("report", "figure", "live"):
        assert build_parser().parse_args([verb, "--app", "gadget2"]).app == "gadget2"
        with pytest.raises(SystemExit):
            build_parser().parse_args([verb, "--app", "synthetic"])
        assert "invalid choice: 'synthetic'" in capsys.readouterr().err


def test_seed_default_is_the_session_default():
    from repro.incprof.session import DEFAULT_SEED

    assert build_parser().parse_args(["serve"]).seed == DEFAULT_SEED
    assert build_parser().parse_args(["live", "--app", "minife"]).seed == DEFAULT_SEED


def test_server_settings_nothing_set_are_fixed():
    """The refit policy and classify batching that ServerConfig no
    longer lets a caller set keep the values they had as fields."""
    import dataclasses

    from repro.service import ServerConfig

    policy = ServerConfig(refit_interval=0.0).adaptive_config()
    assert dataclasses.asdict(policy) == {
        "window": 128, "min_refit_window": 16,
        "drift": {"window": 32, "min_samples": 16, "novel_rate": 0.3,
                  "inertia_factor": 2.5},
        "cooldown_s": 0.0, "cooldown_intervals": 16, "kmax": 8,
        "n_init": 4, "quantile": 0.95, "slack": 1.5, "seed": 0}
    assert ServerConfig(refit_interval=0.0, refit_drift_threshold=0.2
                        ).adaptive_config().drift.novel_rate == 0.2
    assert ServerConfig().adaptive_config() is None
    assert ServerConfig().batch_size == 8
    assert ServerConfig().coalesce_streams == 4
    for name in ("batch_size", "coalesce_streams", "refit_window",
                 "trace_capacity", "artifact_keep"):
        with pytest.raises(TypeError):
            ServerConfig(**{name: 1})


def test_serve_parser_defaults():
    args = build_parser().parse_args(["serve"])
    assert args.policy == "block"
    assert not hasattr(args, "workers")  # one classify thread, no knob
    assert not args.selftest
    args = build_parser().parse_args(
        ["serve", "--policy", "drop-oldest", "--queue", "8", "--selftest"])
    assert args.policy == "drop-oldest" and args.queue == 8 and args.selftest


def test_report_with_lift_and_merge(capsys):
    assert main(["report", "--app", "minife", "--scale", "0.3",
                 "--lift", "--merge"]) == 0
    out = capsys.readouterr().out
    assert "call-graph lift suggestions" in out
    assert "site-equivalence merging" in out


def test_live_command(capsys):
    assert main(["live", "--app", "miniamr", "--scale", "0.8"]) == 0
    out = capsys.readouterr().out
    assert "live snapshots" in out
    assert "Flat profile:" in out


def test_live_says_why_it_skips_the_report(capsys):
    """A run shorter than one interval gives the one exit dump: the verb
    names the count and the remedy instead of dropping the report."""
    assert main(["live", "--app", "minife", "--interval", "1000"]) == 0
    out = capsys.readouterr().out
    assert "1 live snapshots" in out
    assert ("no phase report: 1 live snapshot(s), the report needs at "
            "least 4; raise --scale or lower --interval") in out
    assert "Phase ID" not in out


def test_live_script_command(tmp_path, capsys):
    script = tmp_path / "two_loops.py"
    script.write_text(
        "import sys, time\n"
        "def spin(seconds):\n"
        "    end = time.perf_counter() + seconds\n"
        "    while time.perf_counter() < end:\n"
        "        pass\n"
        "def hot(seconds):\n"
        "    spin(seconds)\n"
        "def cold(seconds):\n"
        "    spin(seconds)\n"
        "hot(float(sys.argv[1]))\n"
        "cold(float(sys.argv[2]))\n")
    assert main(["live-script", str(script), "0.3", "0.3",
                 "--interval", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "snapshots over" in out and "Flat profile:" in out
    assert "Phase ID" in out


def test_merge_command(tmp_path, capsys):
    from repro.gprof.gmon import GmonData, read_gmon, write_gmon

    paths = []
    for i in range(3):
        data = GmonData()
        data.add_ticks("f", 10 * (i + 1))
        path = tmp_path / f"g{i}.gmon"
        write_gmon(data, path)
        paths.append(str(path))
    out = tmp_path / "merged.gmon"
    assert main(["merge", *paths, "--out", str(out)]) == 0
    merged = read_gmon(out)
    assert merged.hist["f"] == 60


def test_analyze_merge_ranks(tmp_path, capsys):
    out_dir = str(tmp_path / "mr")
    main(["run", "--app", "miniamr", "--out", out_dir,
          "--scale", "0.2", "--ranks", "2"])
    assert main(["analyze", out_dir, "--merge-ranks"]) == 0
    out = capsys.readouterr().out
    assert "merged 2 ranks" in out


def test_analyze_follow_tails_a_growing_directory(tmp_path, capsys):
    """--follow with a poll budget: live per-interval lines, then the
    final batch report once polling stops."""
    out_dir = str(tmp_path / "follow")
    main(["run", "--app", "graph500", "--out", out_dir, "--scale", "0.2"])
    assert main(["analyze", out_dir, "--follow", "--poll", "0.01",
                 "--max-polls", "2"]) == 0
    out = capsys.readouterr().out
    assert "following" in out
    assert "phase" in out
    assert "[    0]" in out  # live line for the first interval
    assert "Phase summary" in out or "phase" in out.lower()


def test_analyze_follow_rejects_merge_ranks(tmp_path, capsys):
    out_dir = str(tmp_path / "fm")
    main(["run", "--app", "graph500", "--out", out_dir, "--scale", "0.2"])
    assert main(["analyze", out_dir, "--follow", "--merge-ranks",
                 "--max-polls", "1"]) == 2


def test_analyze_follow_saves_model(tmp_path, capsys):
    out_dir = str(tmp_path / "fs")
    model = tmp_path / "followed.ipm"
    main(["run", "--app", "miniamr", "--out", out_dir, "--scale", "0.15"])
    assert main(["analyze", out_dir, "--follow", "--max-polls", "1",
                 "--save-model", str(model)]) == 0
    assert model.exists()


def test_analyze_follow_needs_two_intervals(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["analyze", str(tmp_path / "empty"), "--follow",
                 "--poll", "0.01", "--max-polls", "2"]) == 1
    assert "need at least 2" in capsys.readouterr().out


def test_analyze_empty_directory_is_one_error_line(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["analyze", str(tmp_path / "empty")]) == 1
    out = capsys.readouterr().out
    assert out == "error: need at least two snapshots to form an interval\n"


def test_analyze_missing_directory_is_one_error_line(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main(["analyze", str(missing)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("error: ") and str(missing) in out
    assert out.count("\n") == 1


def test_serve_refit_parser_flags():
    args = build_parser().parse_args(["serve"])
    assert args.refit_interval is None  # frozen model by default
    assert args.refit_drift_threshold == 0.3
    args = build_parser().parse_args(
        ["serve", "--refit-interval", "5", "--refit-drift-threshold", "0.2"])
    assert args.refit_interval == 5.0
    assert args.refit_drift_threshold == 0.2


def test_list_apps_command(capsys):
    assert main(["list-apps"]) == 0
    out = capsys.readouterr().out
    assert "graph500" in out and "gadget2" in out and "paper" in out
    assert "synthetic" in out
    assert "scenario:" in out and "generated" in out


def test_list_apps_kind_filter_and_json(capsys):
    assert main(["list-apps", "--kind", "generated", "--json"]) == 0
    import json

    rows = json.loads(capsys.readouterr().out)
    assert rows and all(r["kind"] == "generated" for r in rows)


def test_generate_command(capsys):
    assert main(["generate", "--n", "3", "--tier", "easy", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert out.count("scenario:") == 3
    assert "tier=easy" in out


def test_generate_writes_spec_files(tmp_path, capsys):
    out_dir = tmp_path / "specs"
    assert main(["generate", "--n", "2", "--out", str(out_dir)]) == 0
    import json

    files = sorted(out_dir.glob("*.json"))
    assert len(files) == 2
    spec = json.loads(files[0].read_text())
    assert {"kernels", "phases", "timeline"} <= set(spec)


def test_run_accepts_scenario_address(tmp_path, capsys):
    out_dir = str(tmp_path / "scn")
    assert main(["run", "--app", "scenario:seed=3,tier=easy",
                 "--out", out_dir]) == 0
    assert main(["analyze", out_dir]) == 0
    out = capsys.readouterr().out
    assert "Phase ID" in out


def test_run_rejects_bad_scenario_address():
    with pytest.raises(SystemExit):
        main(["run", "--app", "scenario:tier=easy", "--out", "/tmp/x"])


def test_sweep_scenarios_command(tmp_path, capsys):
    bench = tmp_path / "bench.json"
    assert main(["sweep-scenarios", "--n", "6", "--tiers", "easy",
                 "--min-median", "easy=0.5",
                 "--bench-out", str(bench)]) == 0
    out = capsys.readouterr().out
    assert "scenario sweep" in out
    import json

    record = json.loads(bench.read_text())
    assert record["scenarios"]["n_scenarios"] == 6
    assert "easy" in record["scenarios"]["tiers"]


def test_sweep_scenarios_enforces_floor(capsys):
    assert main(["sweep-scenarios", "--n", "2", "--tiers", "easy",
                 "--min-median", "easy=1.1"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_compact_reports_unreadable_segments(tmp_path, capsys):
    """A segment compaction cannot read stays raw, the rest compact, and
    the command names it and exits 1."""
    import struct

    from repro.gprof.gmon import GmonData, dumps_gmon
    from repro.store.segments import TIER_RAW, TIER_VECTOR, SegmentStore

    with SegmentStore(tmp_path, segment_intervals=4) as store:
        for i in range(12):
            snap = GmonData(hist={"a": 10 * (i + 1)}, timestamp=float(i + 1))
            raw = bytearray(dumps_gmon(snap))
            if i == 1:
                raw[7:15] = struct.pack("<d", float("nan"))  # the header's period
            store.append("s", i, snap, raw=bytes(raw))
    assert main(["compact", str(tmp_path), "--raw-keep", "0"]) == 1
    out = capsys.readouterr().out
    assert "compacted 1 segment(s)" in out
    assert "error: 1 unreadable segment(s)" in out and "sample_period" in out
    tiers = [seg.tier for seg in SegmentStore(tmp_path)._streams["s"]]
    assert tiers == [TIER_RAW, TIER_VECTOR, TIER_RAW]
