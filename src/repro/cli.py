"""Command-line interface: ``incprof`` (or ``python -m repro``).

Subcommands mirror the tool's workflow:

- ``incprof run --app graph500 --out samples/`` — run a workload under
  the collector and write per-interval gmon sample files;
- ``incprof analyze samples/`` — detect phases and select sites from a
  sample directory;
- ``incprof report --app minife`` — run the full experiment in memory and
  print the paper-style table;
- ``incprof figure --app miniamr`` — print the heartbeat figure;
- ``incprof table1`` — regenerate Table I across all apps;
- ``incprof list-apps`` — list workloads;
- ``incprof compact samples/`` — run retention compaction + artifact GC
  on an interval store;
- ``incprof replay samples/ --t0 10 --t1 60`` — time-travel: re-drive a
  recorded window through the streaming engine (``--sweep`` backtests
  refit thresholds against it);
- ``incprof serve`` — run the ``incprofd`` phase-monitoring daemon;
- ``incprof submit --app graph500 --to HOST:PORT`` — stream a collection
  run's ranks through a running daemon;
- ``incprof fleet-status --to HOST:PORT`` — query a daemon's fleet view;
- ``incprof metrics --to HOST:PORT`` — scrape Prometheus text metrics;
- ``incprof top --to HOST:PORT`` — live terminal view of daemon health.

Parsing loads nothing of ``repro``: each verb imports the layers it
drives when it runs, so a fleet worker (``python -m repro serve``) loads
only the daemon and ``incprof analyze`` loads no service code.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

#: ``repro.incprof.session.DEFAULT_SEED``, repeated so that parsing
#: imports no session code (tests/test_cli.py pins the two equal).
_DEFAULT_SEED = 111


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale (1.0 = paper-sized run)")
    parser.add_argument("--seed", type=int, default=_DEFAULT_SEED, help="experiment seed")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="IncProf collection interval in seconds")


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=None,
                        help="analysis process-pool size (results are "
                             "identical to a serial run; default serial)")


def _app_arg(value: str) -> str:
    """argparse type: any resolvable app, concrete or factory-addressed.

    Unlike a static ``choices=`` list this accepts parameterized
    addresses like ``scenario:seed=42,tier=hard``.
    """
    from repro.apps import get_app, is_known_app

    if not is_known_app(value):
        raise argparse.ArgumentTypeError(
            f"unknown app {value!r} (see 'incprof list-apps')")
    if ":" in value:
        from repro.util.errors import AppError

        try:  # factory addresses carry arguments; validate them now
            get_app(value)
        except AppError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _paper_app(value: str) -> str:
    """argparse type: one of the paper's five evaluation apps."""
    from repro.apps import paper_app_names

    names = paper_app_names()
    if value not in names:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {value!r} (choose from {', '.join(names)})")
    return value


def _add_paper_app(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--app", required=True, type=_paper_app, metavar="APP",
                        help="one of the paper's five apps "
                             "(see 'incprof list-apps --kind paper')")


def _cmd_list_apps(args: argparse.Namespace) -> int:
    """The full registry: concrete apps and factory families."""
    from repro.apps import describe_apps

    rows = describe_apps()
    if args.kind:
        rows = [r for r in rows if r["kind"] == args.kind]
    if args.json:
        import json as _json

        print(_json.dumps(rows, indent=1))
        return 0
    width = max((len(r["name"]) for r in rows), default=4)
    for row in rows:
        print(f"{row['name']:<{width}s}  {row['kind']:<9s}  "
              f"{row['description']}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    """Materialize generated scenarios: print (or dump) their specs."""
    from repro.apps.generator import TIER_NAMES, ScenarioGenerator

    tiers = TIER_NAMES if args.tier == "all" else (args.tier,)
    generator = ScenarioGenerator(args.seed, tiers)
    specs = generator.specs(args.n)
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for spec in specs:
            safe = spec.name.replace(":", "_").replace(",", "_")
            (out / f"{safe}.json").write_text(spec.to_json() + "\n")
        print(f"wrote {len(specs)} scenario spec(s) to {out}")
        return 0
    if args.json:
        import json as _json

        print(_json.dumps([spec.to_obj() for spec in specs], indent=1))
        return 0
    for spec in specs:
        dominants = ", ".join(spec.dominant_functions()[:3])
        print(f"{spec.name:<36s} phases={spec.n_true_phases} "
              f"segments={len(spec.timeline)} "
              f"kernels={len(spec.kernels)} "
              f"duration={spec.total_duration:7.1f}s  dominants: {dominants}")
    return 0


def _cmd_sweep_scenarios(args: argparse.Namespace) -> int:
    """Score phase recovery across a generated scenario population."""
    import json as _json
    import sys as _sys

    from repro.apps.generator import TIER_NAMES
    from repro.eval.scenarios import sweep_scenarios, sweep_table

    tiers = TIER_NAMES if args.tiers == "all" else tuple(
        t.strip() for t in args.tiers.split(",") if t.strip())

    def progress(done: int, total: int) -> None:
        if done % 10 == 0 or done == total:
            print(f"\r  scored {done}/{total}", end="", flush=True,
                  file=_sys.stderr)

    report = sweep_scenarios(n=args.n, seed=args.seed, tiers=tiers,
                             interval=args.interval, workers=args.workers,
                             progress=progress if not args.json else None)
    if not args.json:
        print(file=_sys.stderr)
    scores = report.pop("scores")
    if args.json:
        print(_json.dumps(report, indent=1, sort_keys=True))
    else:
        print(sweep_table(report).render())
    if args.bench_out:
        from pathlib import Path

        path = Path(args.bench_out)
        record = (_json.loads(path.read_text()) if path.exists() else {})
        record["scenarios"] = report
        path.write_text(_json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"recorded scenario distribution in {path}")
    failures = []
    for floor in args.min_median or ():
        tier, _, value = floor.partition("=")
        try:
            threshold = float(value)
        except ValueError:
            print(f"error: bad --min-median {floor!r} "
                  "(expected tier=value)")
            return 2
        got = report["tiers"].get(tier, {}).get("median_agreement")
        if got is None:
            failures.append(f"{tier}: no scenarios swept")
        elif got < threshold:
            failures.append(f"{tier}: median agreement {got} < {threshold}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    del scores
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.apps import get_app
    from repro.incprof.session import Session, SessionConfig

    app = get_app(args.app)
    config = SessionConfig(
        interval=args.interval,
        ranks=args.ranks,
        seed=args.seed,
        scale=args.scale,
        store_dir=args.out,
        store_format=args.store_format,
    )
    result = Session(app, config).run()
    print(f"{args.app}: {len(result.per_rank)} rank(s), "
          f"runtime {result.runtime:.1f}s, "
          f"{len(result.samples(0))} samples/rank -> {args.out}")
    return 0


def _analyze_follow(args: argparse.Namespace) -> int:
    """Tail a growing sample directory: live assignments, then full report.

    Each poll loads only the dumps past the watermark and feeds them to
    the streaming engine one at a time, so a run that is still being
    collected gets per-interval phase assignments (and refit events) with
    O(functions) work per new snapshot.  When polling stops the engine
    finalizes through the batch pipeline and prints the usual report.
    """
    from repro.core.incremental import IncrementalAnalyzer
    from repro.core.pipeline import AnalysisConfig
    from repro.core.report import render_full_report
    from repro.store.segments import open_store

    store = open_store(args.samples)
    config = AnalysisConfig(kselect_method=args.kselect,
                            coverage_threshold=args.coverage)
    engine = IncrementalAnalyzer(config)
    watermark = -1
    polls = 0
    print(f"following {args.samples} (rank {args.rank}, "
          f"poll every {args.poll:g}s; Ctrl-C to stop and finalize)")
    try:
        while True:
            for index, snapshot in store.scan(str(args.rank), since=watermark):
                watermark = index
                update = engine.observe(snapshot)
                if update.phase_id is None:
                    label = "warmup"
                elif update.novel:
                    label = "novel"
                else:
                    label = f"phase {update.phase_id}"
                line = (f"[{update.index:5d}] t={update.timestamp:9.2f}  "
                        f"{label:<9s} v{update.model_version}")
                if update.refit is not None:
                    event = update.refit
                    line += (f"  << refit v{event.version}: "
                             f"k {event.old_k}->{event.new_k} ({event.reason})")
                print(line, flush=True)
            polls += 1
            if args.max_polls > 0 and polls >= args.max_polls:
                break
            import time as _time

            _time.sleep(args.poll)
    except KeyboardInterrupt:
        print("\nstopping follow; finalizing")
    if engine.n_intervals < 2:
        print(f"only {engine.n_intervals} interval(s) collected; "
              "need at least 2 for a final analysis")
        return 1
    analysis = engine.finalize(workers=args.workers)
    print()
    print(render_full_report(analysis, app_name=f"{args.samples} (followed)"))
    if args.save_model:
        from repro.core.model_io import save_model

        path = save_model(analysis, args.save_model,
                          meta={"trained_on": f"{args.samples} (followed)"})
        print(f"\nphase model -> {path} ({path.stat().st_size} bytes)")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.follow:
        if args.merge_ranks:
            print("error: --follow tails a single rank; drop --merge-ranks")
            return 2
        return _analyze_follow(args)
    from repro.core.pipeline import AnalysisConfig, analyze_snapshots
    from repro.core.report import render_full_report
    from repro.store.segments import open_store

    store = open_store(args.samples)
    if args.merge_ranks:
        from repro.gprof.merge import merge_sample_series

        per_rank = [[snap for _i, snap in store.scan(stream)]
                    for stream in store.streams()]
        snapshots = merge_sample_series(per_rank)
        label = f"{args.samples} (merged {len(per_rank)} ranks)"
    else:
        snapshots = [snap for _i, snap in store.scan(str(args.rank))]
        label = args.samples
    config = AnalysisConfig(kselect_method=args.kselect,
                            coverage_threshold=args.coverage)
    analysis = analyze_snapshots(snapshots, config, workers=args.workers)
    print(render_full_report(analysis, app_name=label))
    if args.save_model:
        from repro.core.model_io import save_model

        path = save_model(analysis, args.save_model,
                          meta={"trained_on": label})
        print(f"\nphase model -> {path} ({path.stat().st_size} bytes)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.eval.experiments import run_experiment
    from repro.eval.tables import app_sites_table, comparison_table

    result = run_experiment(args.app, scale=args.scale, seed=args.seed,
                            interval=args.interval, workers=args.workers)
    print(app_sites_table(result).render())
    print()
    from repro.core.timeline import render_timeline

    print(render_timeline(result.analysis, width=90))
    print()
    print(comparison_table(result).render())
    if args.lift:
        from repro.core.callgraph_lift import suggest_lifts

        suggestions = suggest_lifts(result.analysis)
        print()
        if suggestions:
            print("call-graph lift suggestions:")
            for suggestion in suggestions:
                print(f"  {suggestion}")
        else:
            print("call-graph lift suggestions: none")
    if args.merge:
        from repro.core.postprocess import merge_equivalent_phases

        merged = merge_equivalent_phases(result.analysis)
        print()
        print(f"site-equivalence merging: {merged.n_original} phases -> "
              f"{merged.n_phases}")
        for group in merged.merged:
            mark = " (merged)" if group.was_merged else ""
            print(f"  merged phase {group.merged_id}{mark}: "
                  f"phases {list(group.phase_ids)}, "
                  f"{group.app_pct:.1f}% of run, "
                  f"sites {sorted(group.functions)}")
    return 0


def _cmd_live(args: argparse.Namespace) -> int:
    """Profile an app's *real* NumPy kernels with the live tracer."""
    from repro.apps import get_app
    from repro.core.pipeline import AnalysisConfig, analyze_snapshots
    from repro.core.report import render_full_report
    from repro.gprof.flatprofile import FlatProfile
    from repro.incprof.collector import LiveCollector
    from repro.profiler.tracing import TracingProfiler, names_filter

    app = get_app(args.app)
    live = app.live_run()
    if live is None:
        print(f"{args.app} has no live mode")
        return 1
    profiler = TracingProfiler(sample_period=0.005,
                               name_filter=names_filter(live.function_names))
    collector = LiveCollector(profiler, interval=args.interval)
    collector.start()
    with profiler:
        live.main(args.scale)
    samples = collector.stop()
    print(f"{len(samples)} live snapshots over {profiler.elapsed:.2f}s")
    print()
    print(FlatProfile.from_gmon(samples[-1]).render())
    if len(samples) >= 4:
        analysis = analyze_snapshots(
            samples, AnalysisConfig(kmax=4, drop_short_final=False)
        )
        print(render_full_report(analysis, app_name=f"{args.app} (live)"))
    return 0


def _cmd_live_script(args: argparse.Namespace) -> int:
    """Profile an arbitrary Python script (the preload-library analogue)."""
    from repro.core.pipeline import AnalysisConfig, analyze_snapshots
    from repro.core.report import render_full_report
    from repro.gprof.flatprofile import FlatProfile
    from repro.incprof.script_runner import profile_script

    profile = profile_script(
        args.script,
        argv=args.args,
        interval=args.interval,
        store_dir=args.out,
    )
    print(f"{len(profile.samples)} snapshots over {profile.elapsed:.2f}s"
          + (f" -> {args.out}" if args.out else ""))
    print()
    print(FlatProfile.from_gmon(profile.final).render())
    if len(profile.samples) >= 4:
        analysis = analyze_snapshots(
            profile.samples, AnalysisConfig(kmax=4, drop_short_final=False)
        )
        print(render_full_report(analysis, app_name=args.script))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.eval.experiments import run_experiment
    from repro.eval.figures import heartbeat_figure

    result = run_experiment(args.app, scale=args.scale, seed=args.seed,
                            interval=args.interval)
    print(heartbeat_figure(result).render())
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    """Sum gmon sample files (gprof -s / gmon.sum semantics)."""
    from repro.gprof.gmon import read_gmon, write_gmon
    from repro.gprof.merge import merge_gmons

    snapshots = [read_gmon(path) for path in args.inputs]
    merged = merge_gmons(snapshots)
    write_gmon(merged, args.out)
    print(f"merged {len(snapshots)} profiles "
          f"({merged.total_seconds():.2f}s sampled, "
          f"{len(merged.functions())} functions) -> {args.out}")
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    """Run retention compaction (and artifact GC) on an interval store."""
    from repro.store.segments import SegmentStore, open_store
    from repro.util.errors import ReproError

    try:
        store = open_store(args.store)
    except ReproError as exc:
        print(f"error: {exc}")
        return 1
    with store:
        if isinstance(store, SegmentStore):
            report = store.compact(stream_id=args.stream,
                                   raw_keep=args.raw_keep,
                                   vector_keep=args.vector_keep)
        else:
            report = store.compact(args.stream)
        removed = store.gc(keep_versions=args.gc_keep)
    saved = report["bytes_before"] - report["bytes_after"]
    ratio = (report["bytes_before"] / report["bytes_after"]
             if report["bytes_after"] else 0.0)
    print(f"compacted {report['segments_compacted']} segment(s): "
          f"{report['bytes_before']} -> {report['bytes_after']} bytes"
          + (f" ({ratio:.1f}x smaller, {saved} saved)" if saved > 0 else ""))
    if report.get("segments_failed"):
        print(f"error: {report['segments_failed']} unreadable segment(s) "
              f"stay at their tier; last: {store.describe()['conversion_error']}")
    if removed:
        print(f"gc removed {len(removed)} versioned artifact(s)")
    describe = getattr(store, "describe", None)
    if describe is not None:
        info = describe()
        tiers = info["tiers"]
        print(f"store {info['root']}: {info['streams']} stream(s), "
              f"{info['total_bytes']} bytes "
              f"(raw {tiers['0']['segments']}, "
              f"vector {tiers['1']['segments']}, "
              f"sketch {tiers['2']['segments']} segments)")
    return 1 if report.get("segments_failed") else 0


def _cmd_replay(args: argparse.Namespace) -> int:
    """Time-travel: re-drive a recorded window through the live engine."""
    from repro.core.incremental import DriftConfig
    from repro.store.segments import open_store
    from repro.util.errors import ReproError

    try:
        store = open_store(args.store)
    except ReproError as exc:
        print(f"error: {exc}")
        return 1
    streams = store.streams()
    stream = args.stream
    if stream is None:
        if len(streams) != 1:
            print("error: store has "
                  f"{len(streams)} streams ({', '.join(streams) or 'none'}); "
                  "pick one with --stream")
            return 2
        stream = streams[0]
    if args.sweep:
        from repro.eval.convergence import sweep_refit_thresholds

        thresholds = [float(x) for x in args.sweep.split(",") if x.strip()]
        results = sweep_refit_thresholds(
            store, stream, thresholds, t0=args.t0, t1=args.t1,
            warmup=args.warmup, refit_cooldown=args.refit_cooldown)
        print(f"refit-drift-threshold sweep over {stream!r} "
              f"({results[0].replay.n_intervals} intervals):")
        print(f"{'threshold':>10s} {'refits':>7s} {'phases':>7s} "
              f"{'novel':>6s} {'agreement':>10s} {'iv/s':>9s}")
        for row in results:
            print(f"{row.threshold:10.2f} {row.n_refits:7d} "
                  f"{row.n_phases:7d} {row.n_novel:6d} "
                  f"{row.agreement:10.3f} "
                  f"{row.replay.intervals_per_second:9.0f}")
        return 0
    drift = None
    if args.drift_threshold is not None:
        drift = DriftConfig(novel_rate=args.drift_threshold)
    try:
        result = store.replay(stream, args.t0, args.t1, drift=drift,
                              warmup=args.warmup,
                              refit_cooldown=args.refit_cooldown)
    except ReproError as exc:
        print(f"error: {exc}")
        return 1
    timeline = result.phase_timeline()
    phases = sorted({p for p in timeline if p is not None})
    print(f"replayed {result.n_intervals} interval(s) of {stream!r} in "
          f"{result.elapsed:.3f}s ({result.intervals_per_second:.0f} "
          f"intervals/s)")
    print(f"  phases seen: {phases or 'none (all warmup)'}; "
          f"refits: {len(result.refits)}")
    for event in result.refits:
        print(f"  refit v{event.version} at interval "
              f"{event.interval_index}: k {event.old_k}->{event.new_k} "
              f"({event.reason})")
    if args.timeline:
        from repro.core.timeline import render_timeline

        analysis = result.engine.finalize(workers=None)
        print()
        print(render_timeline(analysis, width=90))
    return 0


def _train_template(args: argparse.Namespace):
    """Train the serving tracker: from a sample directory or a fresh run."""
    from repro.core.online import OnlinePhaseTracker
    from repro.core.pipeline import analyze_snapshots

    if args.samples:
        from repro.store.segments import open_store

        store = open_store(args.samples)
        snapshots = [snap for _i, snap in store.scan(str(args.rank))]
        label = f"samples {args.samples} (rank {args.rank})"
    else:
        from repro.apps import get_app
        from repro.incprof.session import Session, SessionConfig

        app = get_app(args.app)
        config = SessionConfig(interval=args.interval, ranks=1, seed=args.seed,
                               scale=args.scale)
        snapshots = Session(app, config).run().samples(0)
        label = f"app {args.app}"
    analysis = analyze_snapshots(snapshots)
    tracker = OnlinePhaseTracker.from_analysis(analysis)
    print(f"trained on {label}: {analysis.n_phases} phases, "
          f"{analysis.interval_data.n_intervals} intervals")
    return tracker


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import Endpoint, PhaseMonitorServer, ServerConfig

    if args.selftest:
        return _serve_selftest(args)
    template = None
    if args.model:
        from repro.core.model_io import load_model, model_meta
        from repro.util.errors import ModelFormatError

        try:
            template = load_model(args.model)
            meta = model_meta(args.model)
        except ModelFormatError as exc:
            print(f"error: cannot load phase model {args.model}: {exc}")
            return 1
        print(f"loaded phase model {args.model}: "
              f"{meta.get('n_phases', '?')} phases"
              + (f", trained on {meta['trained_on']}"
                 if meta.get("trained_on") else ""))
    elif args.app or args.samples:
        template = _train_template(args)
    else:
        print("no --model/--app/--samples: serving without classification "
              "(ingest + stats only)")
    endpoint = (Endpoint.unix(args.unix) if args.unix
                else Endpoint.tcp(args.host, args.port))
    config = ServerConfig(
        endpoint=endpoint,
        queue_capacity=args.queue,
        policy=args.policy,
        idle_timeout=args.idle_timeout,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval=args.checkpoint_interval,
        store_dir=args.store_dir,
        metrics_port=args.metrics_port,
        dashboard_port=args.dashboard_port,
        log_level=args.log_level,
        refit_interval=args.refit_interval,
        refit_drift_threshold=args.refit_drift_threshold,
        worker_id=args.worker_id or "",
        finished_capacity=args.finished_capacity,
    )
    server = PhaseMonitorServer(template, config)
    bound = server.start()
    if server.metrics_http is not None:
        print(f"metrics endpoint: {server.metrics_http.url}")
    if server.dashboard_http is not None:
        print(f"analytics dashboard: {server.dashboard_http.url}")
    if server.quarantined_checkpoint is not None:
        print(f"warning: corrupt checkpoint quarantined -> "
              f"{server.quarantined_checkpoint}; starting fresh")
    if server.restored_streams:
        print(f"restored {len(server.restored_streams)} stream(s) from "
              f"checkpoint: {', '.join(sorted(server.restored_streams))}")
    print(f"incprofd listening on {bound} "
          f"(queue={config.queue_capacity}, policy={config.policy}"
          + (f", checkpoints -> {args.checkpoint_dir} "
             f"every {config.checkpoint_interval:g}s"
             if args.checkpoint_dir else "")
          + (f", live refit every >={config.refit_interval:g}s at "
             f"drift >={config.refit_drift_threshold:g}"
             if config.refit_interval is not None else "")
          + ")")
    try:
        server.wait()
    except KeyboardInterrupt:
        print("\nshutting down")
        server.stop()
    return 0


def _serve_selftest(args: argparse.Namespace) -> int:
    """In-process smoke test: daemon + synthetic publishers + assertions."""
    from repro.core.online import OnlinePhaseTracker
    from repro.core.pipeline import AnalysisConfig, analyze_snapshots
    from repro.service import (
        Endpoint,
        PhaseMonitorServer,
        ServerConfig,
        SyntheticLoadGenerator,
    )

    generator = SyntheticLoadGenerator()
    analysis = analyze_snapshots(
        generator.stream(0, 24), AnalysisConfig(kmax=4, drop_short_final=False)
    )
    template = OnlinePhaseTracker.from_analysis(analysis)
    config = ServerConfig(endpoint=Endpoint.tcp("127.0.0.1", 0),
                          queue_capacity=args.queue, policy="block")
    n_streams, n_intervals = 4, 24
    with PhaseMonitorServer(template, config) as server:
        load = generator.run(server.endpoint, n_streams, n_intervals)
        stats = server.stats()
    failures = []
    if load.sent != n_streams * n_intervals:
        failures.append(f"sent {load.sent} != {n_streams * n_intervals}")
    if load.processed != load.sent:
        failures.append(f"processed {load.processed} != sent {load.sent}")
    if stats["drops"] != 0:
        failures.append(f"{stats['drops']} drops under blocking policy")
    if not all(r.drained for r in load.streams.values()):
        failures.append("some streams did not drain")
    print(f"selftest: {n_streams} streams x {n_intervals} intervals, "
          f"{load.processed} classified, "
          f"{stats['ingest_rate']:.0f} intervals/s, "
          f"drops={stats['drops']}, "
          f"p99 classify {stats['classify_latency']['p99'] * 1e3:.2f} ms")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("selftest PASS (clean shutdown)")
    return 0


def _cmd_serve_fleet(args: argparse.Namespace) -> int:
    import tempfile

    from repro.fleet import FleetConfig, FleetRouter, RouterConfig, WorkerSupervisor
    from repro.service import Endpoint
    from repro.util.errors import ReproError

    if args.selftest:
        return _serve_fleet_selftest(args)
    if args.selftest_analytics:
        return _serve_fleet_analytics_selftest(args)
    root = args.root or tempfile.mkdtemp(prefix="incprof-fleet-")
    fleet_config = FleetConfig(
        root=root,
        n_workers=args.workers,
        model_path=args.model,
        queue_capacity=args.queue,
        policy=args.policy,
        idle_timeout=args.idle_timeout,
        checkpoint_interval=args.checkpoint_interval,
        max_restarts=args.max_restarts,
        log_level=args.log_level,
        archive_intervals=args.archive_intervals,
    )
    endpoint = (Endpoint.unix(args.unix) if args.unix
                else Endpoint.tcp(args.host, args.port))
    router_config = RouterConfig(endpoint=endpoint,
                                 log_level=args.log_level,
                                 dashboard_port=args.dashboard_port)
    supervisor = WorkerSupervisor(fleet_config)
    try:
        supervisor.start()
    except ReproError as exc:
        print(f"error: cannot start fleet: {exc}")
        supervisor.stop()
        return 1
    supervisor.start_monitor()
    router = FleetRouter(supervisor, router_config)
    try:
        bound = router.start()
    except (ReproError, OSError) as exc:
        print(f"error: cannot start router: {exc}")
        supervisor.stop()
        return 1
    print(f"incprofd fleet: {args.workers} worker(s) under {root}")
    for worker_id, info in sorted(supervisor.status()["workers"].items()):
        print(f"  {worker_id}: {info['endpoint']}")
    print(f"router listening on {bound} "
          f"(ring generation {supervisor.ring.generation})")
    if router.dashboard_http is not None:
        print(f"analytics dashboard: {router.dashboard_http.url}")
    try:
        router.wait()
    except KeyboardInterrupt:
        print("\nshutting down fleet")
        supervisor.stop()
        router.stop()
    return 0


def _serve_fleet_selftest(args: argparse.Namespace) -> int:
    """Fleet smoke test: generated heterogeneous scenario traffic through
    the router (≥2 scenario shapes spread across ≥2 workers), kill a
    worker, assert the ring rebalances and every stream drains on
    survivors."""
    import shutil
    import tempfile
    import threading
    import time as _time
    from pathlib import Path

    from repro.apps.generator import generate_scenario, scenario_snapshots
    from repro.apps.spec import concat_specs
    from repro.core.model_io import save_model
    from repro.core.pipeline import AnalysisConfig, analyze_snapshots
    from repro.fleet import FleetConfig, FleetRouter, RouterConfig, WorkerSupervisor
    from repro.service import Endpoint, RetryPolicy, ScenarioLoadGenerator

    n_workers = max(2, args.workers)
    n_streams, n_intervals = 4, 30
    root = tempfile.mkdtemp(prefix="incprof-fleet-selftest-")
    failures = []
    try:
        # Two distinct generated shapes: different kernel universes,
        # phase durations, and Markov timelines.
        shapes = [generate_scenario(11, "easy"), generate_scenario(23, "medium")]
        generator = ScenarioLoadGenerator(shapes)
        # Train the serving model on one stream that plays both shapes
        # back to back, so classification sees both kernel universes.
        training = scenario_snapshots(concat_specs("fleet-train", *shapes), 48)
        analysis = analyze_snapshots(
            training, AnalysisConfig(kmax=4, drop_short_final=False))
        model_path = str(Path(root) / "model.ipm")
        save_model(analysis, model_path)
        fleet_config = FleetConfig(
            root=root, n_workers=n_workers, model_path=model_path,
            checkpoint_interval=0.2, ping_interval=0.2,
            max_restarts=0, log_level="error",
        )
        retry = RetryPolicy(max_attempts=8, base_delay=0.1, max_delay=1.0)
        with WorkerSupervisor(fleet_config) as supervisor:
            supervisor.start_monitor()
            with FleetRouter(supervisor,
                             RouterConfig(endpoint=Endpoint.tcp("127.0.0.1", 0),
                                          log_level="error")) as router:
                # Pick stream ids so the consistent-hash ring provably
                # spreads the scenario traffic over >= 2 workers (the
                # ring lookup is deterministic, so probe candidates).
                streams, owners = [], set()
                candidate = 0
                while len(streams) < n_streams and candidate < 256:
                    shape = candidate % len(shapes)
                    stream_id = f"scn{shape}-{candidate}"
                    owner = supervisor.ring.lookup(stream_id)
                    candidate += 1
                    if (len(streams) == n_streams - 1
                            and len(owners | {owner}) < 2):
                        continue  # last slot must secure 2-worker coverage
                    streams.append((stream_id, shape))
                    owners.add(owner)
                if len(owners) < 2:
                    failures.append(
                        f"stream placement covers {len(owners)} worker(s), "
                        "expected >= 2")
                if len({shape for _sid, shape in streams}) < 2:
                    failures.append("traffic uses < 2 scenario shapes")
                victim = supervisor.ring.lookup(streams[0][0])
                box = {}

                def publish() -> None:
                    box["load"] = generator.run(router.endpoint, streams,
                                                n_intervals, delay=0.05,
                                                retry=retry)

                thread = threading.Thread(target=publish, name="fleet-load")
                thread.start()
                _time.sleep(0.8)  # streams registered, checkpoints written
                supervisor.kill_worker(victim)
                thread.join(timeout=120.0)
                if thread.is_alive():
                    failures.append("load generator did not finish")
                status = supervisor.status()
                stats = router.merged_stats()
        load = box.get("load")
        if load is None:
            failures.append("no load result")
        else:
            for stream_id, report in sorted(load.streams.items()):
                if report.error:
                    failures.append(f"{stream_id}: {report.error}")
                elif not report.drained:
                    failures.append(f"{stream_id}: did not drain")
            # Failover re-sends intervals past the adopter's resume_from
            # (seq dedup keeps them from being classified twice), so sent
            # may legitimately exceed the unique-interval count.
            if load.sent < n_streams * n_intervals:
                failures.append(
                    f"sent {load.sent} < {n_streams * n_intervals} "
                    "(intervals lost)")
        if status["evictions_total"] != 1:
            failures.append(
                f"evictions_total {status['evictions_total']} != 1 "
                f"(victim {victim} should have been evicted)")
        if len(status["members"]) != n_workers - 1:
            failures.append(f"ring has {len(status['members'])} members, "
                            f"expected {n_workers - 1}")
        source = stats.get("classify_latency_source", {})
        print(f"fleet selftest: {n_workers} workers, {n_streams} streams x "
              f"{n_intervals} intervals ({len(shapes)} scenario shapes "
              f"across {len(owners)} workers) through the router; "
              f"killed {victim}; "
              f"migrated={status['migrations_total']}, "
              f"ring generation {status['generation']}, "
              f"latency merge {source.get('kind', '?')}")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("fleet selftest PASS (rebalance + resume on survivors)")
    return 0


def _serve_fleet_analytics_selftest(args: argparse.Namespace) -> int:
    """Analytics smoke: two distinct workload shapes through an
    archiving fleet; assert the live cohorts separate them, the
    dashboard serves, and the offline pass reproduces the split."""
    import shutil
    import tempfile
    import urllib.request
    from pathlib import Path

    from repro.core.model_io import save_model
    from repro.core.pipeline import AnalysisConfig, analyze_snapshots
    from repro.fleet import FleetConfig, FleetRouter, RouterConfig, WorkerSupervisor
    from repro.fleet.analytics import analyze_fleet_dir
    from repro.service import (
        Endpoint,
        PhaseClient,
        RetryPolicy,
        SyntheticLoadGenerator,
        publish_samples,
    )

    n_workers = max(2, args.workers)
    per_kind, n_intervals = 3, 40
    # Two workload shapes over one function universe: "steady" pins one
    # dominant function (one phase, no transitions), "alternating" flips
    # between two every interval (two phases, transition rate ~1).
    kinds = {
        "steady": lambda i: 0,
        "alternating": lambda i: 1 + (i % 2),
    }
    root = tempfile.mkdtemp(prefix="incprof-fleet-analytics-")
    failures = []

    def check_split(assignments, label: str) -> None:
        groups = {}
        for kind in kinds:
            groups[kind] = {assignments.get(f"{kind}-{i}")
                            for i in range(per_kind)}
            if None in groups[kind]:
                failures.append(f"{label}: missing streams of kind {kind}: "
                                f"{sorted(assignments)}")
                return
        if groups["steady"] & groups["alternating"]:
            failures.append(f"{label}: workload kinds share a cohort: "
                            f"{assignments}")

    try:
        generator = SyntheticLoadGenerator()
        # Train on the default rotation so every dominant-function phase
        # either workload visits is in the served model.
        analysis = analyze_snapshots(
            generator.stream(0, 24),
            AnalysisConfig(kmax=4, drop_short_final=False))
        model_path = str(Path(root) / "model.ipm")
        save_model(analysis, model_path)
        fleet_config = FleetConfig(
            root=root, n_workers=n_workers, model_path=model_path,
            checkpoint_interval=0.2, ping_interval=0.2,
            max_restarts=0, log_level="error", archive_intervals=True,
        )
        retry = RetryPolicy(max_attempts=8, base_delay=0.1, max_delay=1.0)
        with WorkerSupervisor(fleet_config) as supervisor:
            supervisor.start_monitor()
            with FleetRouter(
                    supervisor,
                    RouterConfig(endpoint=Endpoint.tcp("127.0.0.1", 0),
                                 log_level="error",
                                 dashboard_port=0)) as router:
                for kind, pattern in kinds.items():
                    for i in range(per_kind):
                        report = publish_samples(
                            router.endpoint, f"{kind}-{i}",
                            generator.stream(i, n_intervals, pattern=pattern),
                            app="analytics-selftest", rank=i, retry=retry)
                        if report.error:
                            failures.append(f"{kind}-{i}: {report.error}")
                with PhaseClient(router.endpoint) as client:
                    reply = client.fleet_analytics()
                if not reply.ok:
                    failures.append(f"fleet_analytics failed: {reply.error}")
                    live = {}
                else:
                    live = reply.data
                    if live.get("n_cohorts", 0) < 2:
                        failures.append(
                            f"live pass found {live.get('n_cohorts')} "
                            "cohort(s), expected >= 2")
                    check_split(live.get("assignments", {}), "live")
                assert router.dashboard_http is not None
                for page in ("", "analytics.json", "healthz"):
                    url = router.dashboard_http.url + page
                    with urllib.request.urlopen(url, timeout=10) as resp:
                        if resp.status != 200:
                            failures.append(f"GET {url} -> {resp.status}")
        offline = analyze_fleet_dir(root, warmup=6)
        if offline.get("n_cohorts", 0) < 2:
            failures.append(f"offline pass found {offline.get('n_cohorts')} "
                            "cohort(s), expected >= 2")
        check_split(offline.get("assignments", {}), "offline")
        print(f"analytics selftest: {n_workers} workers, "
              f"{len(kinds)} workload kinds x {per_kind} streams x "
              f"{n_intervals} intervals; "
              f"live cohorts={live.get('n_cohorts', '?')}, "
              f"offline cohorts={offline.get('n_cohorts', '?')} "
              f"over {len(offline.get('stores', []))} worker store(s)")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("analytics selftest PASS (live == offline cohort split)")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.apps import get_app
    from repro.incprof.session import Session, SessionConfig
    from repro.service import Endpoint, RetryPolicy, publish_session
    from repro.util.errors import ReproError

    try:
        endpoint = Endpoint.parse(args.to)
    except ReproError as exc:
        print(f"error: {exc}")
        return 1
    app = get_app(args.app)
    config = SessionConfig(interval=args.interval, ranks=args.ranks,
                           seed=args.seed, scale=args.scale)
    result = Session(app, config).run()
    print(f"{args.app}: collected {len(result.per_rank)} rank(s), "
          f"{len(result.samples(0))} snapshots/rank; publishing to {endpoint}")
    retry = RetryPolicy(max_attempts=args.max_attempts,
                        request_timeout=args.request_timeout)
    try:
        reports = publish_session(endpoint, result,
                                  stream_prefix=args.stream_prefix or args.app,
                                  retry=retry)
    except (ReproError, OSError) as exc:
        print(f"error: cannot publish to {endpoint}: {exc}")
        return 1
    for stream_id in sorted(reports):
        rep = reports[stream_id]
        status = rep.error or ("drained" if rep.drained else "not drained")
        bumpy = (f" reconnects={rep.reconnects} retries={rep.retries}"
                 if rep.reconnects or rep.retries else "")
        print(f"  {stream_id}: sent={rep.sent} processed={rep.processed} "
              f"novel={rep.novel} rejected={rep.rejected}{bumpy} [{status}]")
    return 0 if all(not r.error for r in reports.values()) else 1


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service import Endpoint, PhaseClient
    from repro.util.errors import ReproError

    try:
        endpoint = Endpoint.parse(args.to)
        with PhaseClient(endpoint) as client:
            reply = client.fleet_status()
            analytics = client.fleet_analytics() if args.cohorts else None
    except (ReproError, OSError) as exc:
        print(f"error: cannot reach daemon at {args.to!r}: {exc}")
        return 1
    if not reply.ok:
        print(f"error: {reply.error}")
        return 1
    if analytics is not None and not analytics.ok:
        print(f"error: fleet_analytics: {analytics.error}")
        return 1
    status = reply.data
    if analytics is not None:
        status["analytics"] = analytics.data
    if args.json:
        print(_json.dumps(status, indent=2, sort_keys=True))
        return 0
    service = status["service"]
    print(f"incprofd @ {endpoint}: {status['n_streams']} live stream(s), "
          f"{status['registered_total']} registered, "
          f"{status['expired_total']} expired")
    print(f"  ingest {service['processed']}/{service['ingested']} processed, "
          f"{service['ingest_rate']:.0f} intervals/s, "
          f"drops={service['drops']}, lag={status['total_lag']}, "
          f"novel={status['novel_total']}")
    for phase, occ in status["phase_occupancy"].items():
        label = "novel" if phase == "-1" else f"phase {phase}"
        print(f"  {label:>9s}: {occ['intervals']:6d} intervals "
              f"({occ['share']:.1%})")
    for row in status["streams"]:
        print(f"  {row['stream_id']:>16s}: seq={row['last_seq']} "
              f"lag={row['lag']} novel={row['novel']} "
              f"idle={row['idle_seconds']:.1f}s")
    if analytics is not None:
        _print_analytics_report(analytics.data)
    return 0


def _print_analytics_report(report: dict) -> None:
    """Shared cohort/anomaly/drift rendering for ``fleet-status
    --cohorts`` and ``analyze-fleet``."""
    print(f"  cohorts: {report.get('n_cohorts', 0)} over "
          f"{report.get('n_streams', 0)} stream(s)")
    assignments = report.get("assignments", {})
    for cohort in report.get("cohorts", []):
        members = ", ".join(cohort["streams"][:6])
        if len(cohort["streams"]) > 6:
            members += f", ... ({cohort['size']} total)"
        print(f"    cohort {cohort['cohort']}: {cohort['size']} stream(s), "
              f"transition rate {cohort['mean_transition_rate']:.2f}, "
              f"novel {cohort['mean_novel_share']:.1%} [{members}]")
    anomalies = report.get("anomalies", [])
    if anomalies:
        for row in anomalies:
            print(f"    anomaly: {row['stream_id']} "
                  f"(cohort {assignments.get(row['stream_id'], '?')}, "
                  f"distance {row['distance']:.3f}, "
                  f"cohort mean {row['cohort_mean']:.3f})")
    else:
        print("    anomalies: none")
    drift_events = report.get("drift_events", [])
    if drift_events:
        for event in drift_events:
            print(f"    drift: {event['kind']} in cohort {event['cohort']} "
                  f"({len(event['streams'])} stream(s), "
                  f"window {event['window']})")
    else:
        print("    drift events: none")


def _cmd_analyze_fleet(args: argparse.Namespace) -> int:
    """Offline fleet analytics: replay per-worker archives, cluster."""
    import json as _json

    from repro.fleet.analytics import analyze_fleet_dir
    from repro.util.errors import ReproError

    kwargs = {"warmup": args.warmup}
    if args.kmax is not None:
        kwargs["kmax"] = args.kmax
    if args.drift_window is not None:
        kwargs["drift_window"] = args.drift_window
    try:
        report = analyze_fleet_dir(args.root, **kwargs)
    except ReproError as exc:
        print(f"error: {exc}")
        return 1
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"fleet root {report['root']}: {len(report['stores'])} worker "
          f"store(s), {report['n_streams']} replayed stream(s)")
    _print_analytics_report(report)
    for row in report.get("skipped", []):
        print(f"    skipped {row['stream_id']}: {row['reason']}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Scrape the daemon's Prometheus text metrics over the wire protocol."""
    from repro.service import Endpoint, PhaseClient
    from repro.util.errors import ReproError

    try:
        endpoint = Endpoint.parse(args.to)
        with PhaseClient(endpoint) as client:
            text = client.metrics()
    except (ReproError, OSError) as exc:
        print(f"error: cannot reach daemon at {args.to!r}: {exc}")
        return 1
    print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Live terminal view of a running daemon (sparkline history)."""
    import time as _time

    from repro.service import Endpoint, PhaseClient
    from repro.util.asciiplot import sparkline
    from repro.util.errors import ReproError

    try:
        endpoint = Endpoint.parse(args.to)
    except ReproError as exc:
        print(f"error: {exc}")
        return 1
    history: dict = {"rate": [], "queued": [], "processed": []}
    iteration = 0
    try:
        with PhaseClient(endpoint) as client:
            while args.iterations <= 0 or iteration < args.iterations:
                if iteration:
                    _time.sleep(args.refresh)
                iteration += 1
                stats = client.stats().data
                history["rate"].append(float(stats.get("ingest_rate", 0.0)))
                history["queued"].append(float(stats.get("queued_total", 0)))
                history["processed"].append(float(stats.get("processed", 0)))
                for series in history.values():
                    del series[:-args.width]
                latency = stats.get("classify_latency", {})
                traces = stats.get("traces", {})
                lines = [
                    f"incprofd @ {endpoint}  "
                    f"streams={stats.get('streams', 0)} "
                    f"policy={stats.get('policy', '?')}",
                    f"  rate   {history['rate'][-1]:10.1f}/s "
                    f"{sparkline(history['rate'], width=args.width)}",
                    f"  queued {history['queued'][-1]:10.0f}   "
                    f"{sparkline(history['queued'], width=args.width)}",
                    f"  done   {history['processed'][-1]:10.0f}   "
                    f"{sparkline(history['processed'], width=args.width)}",
                    f"  drops={stats.get('drops', 0)} "
                    f"novel={stats.get('novel', 0)} "
                    f"p99={latency.get('p99', 0.0) * 1e3:.2f}ms "
                    f"traces={traces.get('finished', 0)}/"
                    f"{traces.get('started', 0)}",
                ]
                if args.clear:
                    print("\x1b[2J\x1b[H", end="")
                print("\n".join(lines))
    except (ReproError, OSError) as exc:
        print(f"error: lost daemon at {args.to!r}: {exc}")
        return 1
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_report_all(args: argparse.Namespace) -> int:
    from repro.eval.report_md import write_markdown_report

    path = write_markdown_report(args.out, workers=args.workers)
    print(f"wrote {path}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.apps import paper_app_names
    from repro.eval.experiments import run_experiments
    from repro.eval.tables import table1, table1_comparison

    results = run_experiments(paper_app_names(), scale=args.scale,
                              seed=args.seed, workers=args.workers)
    print(table1(results).render())
    print()
    print(table1_comparison(results).render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incprof",
        description="IncProf reproduction: phase identification for HPC workloads",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_la = sub.add_parser("list-apps",
                          help="list the full registry: name, kind, "
                               "description (incl. factory families)")
    p_la.add_argument("--kind", choices=["paper", "synthetic", "generated"],
                      default=None, help="filter by registry kind")
    p_la.add_argument("--json", action="store_true",
                      help="machine-readable output")
    p_la.set_defaults(func=_cmd_list_apps)

    p_gen = sub.add_parser("generate",
                           help="materialize generated scenarios "
                                "(specs with exact ground truth)")
    p_gen.add_argument("--n", type=int, default=5,
                       help="how many scenarios (default 5)")
    p_gen.add_argument("--tier", default="all",
                       choices=["easy", "medium", "hard", "all"],
                       help="difficulty tier (default: round-robin all)")
    p_gen.add_argument("--seed", type=int, default=0,
                       help="root seed of the population")
    p_gen.add_argument("--json", action="store_true",
                       help="print full specs as JSON")
    p_gen.add_argument("--out", default=None,
                       help="write one spec JSON file per scenario here")
    p_gen.set_defaults(func=_cmd_generate)

    p_sweep = sub.add_parser(
        "sweep-scenarios",
        help="score phase-recovery accuracy across generated scenarios")
    p_sweep.add_argument("--n", type=int, default=100,
                         help="population size (default 100)")
    p_sweep.add_argument("--seed", type=int, default=0,
                         help="root seed of the population")
    p_sweep.add_argument("--tiers", default="all",
                         help="comma-separated tiers (default: all)")
    p_sweep.add_argument("--interval", type=float, default=1.0,
                         help="collection interval in seconds")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="process-pool size for scoring")
    p_sweep.add_argument("--json", action="store_true",
                         help="print the report as JSON")
    p_sweep.add_argument("--bench-out", default=None,
                         help="merge the distribution into this "
                              "BENCH_perf.json-style file")
    p_sweep.add_argument("--min-median", action="append", default=[],
                         metavar="TIER=VALUE",
                         help="fail (exit 1) if a tier's median label "
                              "agreement is below VALUE; repeatable")
    p_sweep.set_defaults(func=_cmd_sweep_scenarios)

    p_run = sub.add_parser("run", help="collect incremental profiles for a workload")
    p_run.add_argument("--app", required=True, type=_app_arg,
                       metavar="APP",
                       help="workload name or factory address "
                            "(e.g. graph500, scenario:seed=42,tier=hard)")
    p_run.add_argument("--out", required=True, help="sample output directory")
    p_run.add_argument("--ranks", type=int, default=1)
    p_run.add_argument("--store-format", default="loose",
                       choices=["loose", "segments"],
                       help="on-disk layout: loose per-interval gmon files "
                            "(legacy, default) or the tiered columnar "
                            "segment store")
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_an = sub.add_parser("analyze", help="analyze a directory of gmon samples")
    p_an.add_argument("samples", help="sample directory written by 'run'")
    p_an.add_argument("--rank", type=int, default=0)
    p_an.add_argument("--merge-ranks", action="store_true",
                      help="analyze the gmon.sum of all ranks instead of one rank")
    p_an.add_argument("--kselect", default="elbow",
                      choices=["elbow", "chord", "silhouette"])
    p_an.add_argument("--coverage", type=float, default=0.95)
    p_an.add_argument("--save-model", default=None, metavar="PATH",
                      help="write the trained phase model to a durable "
                           "artifact loadable by 'serve --model'")
    p_an.add_argument("--follow", action="store_true",
                      help="tail a growing sample directory: stream new "
                           "snapshots through the incremental engine, print "
                           "live phase assignments and refit events, then "
                           "finalize with the full report")
    p_an.add_argument("--poll", type=float, default=1.0,
                      help="directory poll interval in seconds (with --follow)")
    p_an.add_argument("--max-polls", type=int, default=0,
                      help="stop following after this many polls "
                           "(0 = until Ctrl-C)")
    _add_workers(p_an)
    p_an.set_defaults(func=_cmd_analyze)

    p_rep = sub.add_parser("report", help="full experiment + paper-style table")
    _add_paper_app(p_rep)
    p_rep.add_argument("--lift", action="store_true",
                       help="suggest call-graph lifts for discovered sites")
    p_rep.add_argument("--merge", action="store_true",
                       help="post-process: merge phases sharing site functions")
    _add_common(p_rep)
    _add_workers(p_rep)
    p_rep.set_defaults(func=_cmd_report)

    p_live = sub.add_parser("live", help="profile the app's real kernels live")
    _add_paper_app(p_live)
    p_live.add_argument("--scale", type=float, default=1.0)
    p_live.add_argument("--interval", type=float, default=0.25)
    p_live.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    p_live.set_defaults(func=_cmd_live)

    p_fig = sub.add_parser("figure", help="regenerate an app's heartbeat figure")
    _add_paper_app(p_fig)
    _add_common(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    p_t1 = sub.add_parser("table1", help="regenerate Table I across all apps")
    _add_common(p_t1)
    _add_workers(p_t1)
    p_t1.set_defaults(func=_cmd_table1)

    p_all = sub.add_parser("report-all",
                           help="write the full markdown reproduction report")
    p_all.add_argument("--out", default="REPORT.md")
    _add_workers(p_all)
    p_all.set_defaults(func=_cmd_report_all)

    p_script = sub.add_parser("live-script",
                              help="profile any Python script under IncProf")
    p_script.add_argument("script", help="path to a Python script")
    p_script.add_argument("args", nargs="*", help="arguments passed to the script")
    p_script.add_argument("--interval", type=float, default=0.5)
    p_script.add_argument("--out", default=None, help="sample directory")
    p_script.set_defaults(func=_cmd_live_script)

    p_merge = sub.add_parser("merge", help="sum gmon files (gprof -s)")
    p_merge.add_argument("inputs", nargs="+", help="gmon sample files")
    p_merge.add_argument("--out", required=True, help="merged output file")
    p_merge.set_defaults(func=_cmd_merge)

    p_comp = sub.add_parser(
        "compact",
        help="run retention compaction + artifact GC on an interval store")
    p_comp.add_argument("store", help="store directory (loose or segment)")
    p_comp.add_argument("--stream", default=None,
                        help="compact only this stream (default: all)")
    p_comp.add_argument("--raw-keep", type=int, default=None, metavar="N",
                        help="keep this many newest intervals at the raw "
                             "tier (default: store policy)")
    p_comp.add_argument("--vector-keep", type=int, default=None, metavar="N",
                        help="keep this many newest intervals at or above "
                             "the vector tier (default: store policy)")
    p_comp.add_argument("--gc-keep", type=int, default=2, metavar="K",
                        help="versioned .ipm/.ipckp artifacts kept per "
                             "family by GC")
    p_comp.set_defaults(func=_cmd_compact)

    p_replay = sub.add_parser(
        "replay",
        help="time-travel: re-drive a recorded window through the "
             "streaming engine")
    p_replay.add_argument("store", help="store directory (loose or segment)")
    p_replay.add_argument("--stream", default=None,
                          help="stream id (default: the store's only stream)")
    p_replay.add_argument("--t0", type=float, default=None,
                          help="window start timestamp (inclusive)")
    p_replay.add_argument("--t1", type=float, default=None,
                          help="window end timestamp (exclusive)")
    p_replay.add_argument("--warmup", type=int, default=12,
                          help="engine warmup intervals before phases emit")
    p_replay.add_argument("--drift-threshold", type=float, default=None,
                          metavar="RATE",
                          help="enable drift-triggered refits at this "
                               "novel-interval rate")
    p_replay.add_argument("--refit-cooldown", type=int, default=16,
                          help="minimum intervals between refits")
    p_replay.add_argument("--sweep", default=None, metavar="R1,R2,...",
                          help="backtest several --refit-drift-threshold "
                               "values against the recorded window and "
                               "print the comparison table")
    p_replay.add_argument("--timeline", action="store_true",
                          help="finalize the replay engine and print the "
                               "phase timeline")
    p_replay.set_defaults(func=_cmd_replay)

    p_serve = sub.add_parser("serve",
                             help="run the incprofd phase-monitoring daemon")
    p_serve.add_argument("--app", type=_app_arg, metavar="APP",
                         help="train the serving phase model on this app "
                              "(name or factory address)")
    p_serve.add_argument("--samples", help="train from a sample directory instead")
    p_serve.add_argument("--model", default=None, metavar="PATH",
                         help="serve a phase model saved by "
                              "'analyze --save-model' (skips training)")
    p_serve.add_argument("--rank", type=int, default=0,
                         help="training rank when using --samples")
    p_serve.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                         help="persist daemon state here and recover it on "
                              "startup (crash-safe restarts)")
    p_serve.add_argument("--checkpoint-interval", type=float, default=2.0,
                         help="seconds between checkpoints (with "
                              "--checkpoint-dir)")
    p_serve.add_argument("--store-dir", default=None, metavar="DIR",
                         help="record every ingested interval into a tiered "
                              "segment store here (compacted and GCed in "
                              "the background; replayable with 'replay')")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=9271,
                         help="TCP port (0 = ephemeral)")
    p_serve.add_argument("--unix", default=None,
                         help="listen on a unix socket path instead of TCP")
    p_serve.add_argument("--queue", type=int, default=64,
                         help="per-stream queue capacity")
    p_serve.add_argument("--policy", default="block",
                         choices=["block", "drop-oldest", "reject"],
                         help="backpressure policy for full stream queues")
    p_serve.add_argument("--idle-timeout", type=float, default=30.0,
                         help="expire streams idle longer than this (seconds)")
    p_serve.add_argument("--metrics-port", type=int, default=None,
                         help="also serve Prometheus text metrics over "
                              "plain HTTP on this port (0 = ephemeral)")
    p_serve.add_argument("--dashboard-port", type=int, default=None,
                         help="serve the live analytics dashboard over "
                              "plain HTTP on this port (0 = ephemeral)")
    p_serve.add_argument("--log-level", default="info",
                         choices=["debug", "info", "warning", "error"],
                         help="structured JSON log threshold (stderr)")
    p_serve.add_argument("--refit-interval", type=float, default=None,
                         metavar="SECONDS",
                         help="enable online model refits: minimum seconds "
                              "between per-stream refits (0 = no cooldown; "
                              "omit to serve a frozen model)")
    p_serve.add_argument("--refit-drift-threshold", type=float, default=0.3,
                         metavar="RATE",
                         help="novel-interval rate over the drift window "
                              "that triggers a refit (with --refit-interval)")
    p_serve.add_argument("--worker-id", default=None, metavar="ID",
                         help="fleet identity: run as this worker of a "
                              "sharded fleet (enables ring-ownership "
                              "enforcement; normally set by serve-fleet)")
    p_serve.add_argument("--finished-capacity", type=int, default=64,
                         help="finished-stream history rows kept "
                              "(drop-oldest beyond this)")
    p_serve.add_argument("--selftest", action="store_true",
                         help="in-process smoke test: server + synthetic "
                              "publishers, assert clean shutdown")
    _add_common(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_fleet = sub.add_parser(
        "serve-fleet",
        help="shard incprofd: spawn worker daemons behind one router")
    p_fleet.add_argument("--workers", type=int, default=2,
                         help="worker daemons to spawn")
    p_fleet.add_argument("--root", default=None, metavar="DIR",
                         help="fleet root directory (sockets, per-worker "
                              "checkpoints, manifest); default: a temp dir")
    p_fleet.add_argument("--model", default=None, metavar="PATH",
                         help="phase-model artifact every worker serves")
    p_fleet.add_argument("--host", default="127.0.0.1",
                         help="router listen host")
    p_fleet.add_argument("--port", type=int, default=9270,
                         help="router TCP port (0 = ephemeral)")
    p_fleet.add_argument("--unix", default=None,
                         help="router unix socket path instead of TCP")
    p_fleet.add_argument("--queue", type=int, default=64,
                         help="per-stream queue capacity in each worker")
    p_fleet.add_argument("--policy", default="block",
                         choices=["block", "drop-oldest", "reject"])
    p_fleet.add_argument("--idle-timeout", type=float, default=30.0)
    p_fleet.add_argument("--checkpoint-interval", type=float, default=0.5)
    p_fleet.add_argument("--max-restarts", type=int, default=1,
                         help="same-identity revivals before a dead worker "
                              "is evicted and the ring rebalances")
    p_fleet.add_argument("--archive-intervals", action="store_true",
                         help="give each worker its own tiered segment "
                              "store under worker-<id>/store (replayable "
                              "with 'incprof replay')")
    p_fleet.add_argument("--dashboard-port", type=int, default=None,
                         help="serve the fleet analytics dashboard over "
                              "plain HTTP on this port (0 = ephemeral)")
    p_fleet.add_argument("--log-level", default="info",
                         choices=["debug", "info", "warning", "error"])
    p_fleet.add_argument("--selftest", action="store_true",
                         help="fleet smoke test: spawn workers, publish "
                              "through the router, SIGKILL one worker, "
                              "assert every stream resumes")
    p_fleet.add_argument("--selftest-analytics", action="store_true",
                         help="analytics smoke test: two workload shapes "
                              "through an archiving fleet, assert the "
                              "cohort split live and offline")
    p_fleet.set_defaults(func=_cmd_serve_fleet)

    p_sub = sub.add_parser("submit",
                           help="run a workload and stream it to a daemon")
    p_sub.add_argument("--app", required=True, type=_app_arg, metavar="APP",
                       help="workload name or factory address "
                            "(e.g. scenario:seed=42,tier=hard)")
    p_sub.add_argument("--to", required=True,
                       help="daemon endpoint: HOST:PORT or unix:PATH")
    p_sub.add_argument("--ranks", type=int, default=1)
    p_sub.add_argument("--stream-prefix", default=None,
                       help="stream id prefix (default: the app name)")
    p_sub.add_argument("--max-attempts", type=int, default=6,
                       help="connection/retry attempt budget per stream")
    p_sub.add_argument("--request-timeout", type=float, default=30.0,
                       help="per-request deadline in seconds")
    _add_common(p_sub)
    p_sub.set_defaults(func=_cmd_submit)

    p_fs = sub.add_parser("fleet-status",
                          help="query a running daemon's fleet view")
    p_fs.add_argument("--to", required=True,
                      help="daemon endpoint: HOST:PORT or unix:PATH")
    p_fs.add_argument("--json", action="store_true", help="raw JSON output")
    p_fs.add_argument("--cohorts", action="store_true",
                      help="also run fleet analytics: cluster live streams "
                           "into behaviour cohorts, flag anomalies and "
                           "drift events")
    p_fs.set_defaults(func=_cmd_fleet_status)

    p_af = sub.add_parser(
        "analyze-fleet",
        help="offline fleet analytics over per-worker interval archives")
    p_af.add_argument("root",
                      help="fleet root directory (contains worker-*/store "
                           "archives from 'serve-fleet --archive-intervals')")
    p_af.add_argument("--kmax", type=int, default=None,
                      help="max cohorts to consider (default 4)")
    p_af.add_argument("--drift-window", type=int, default=None,
                      help="trailing intervals examined for drift events "
                           "(default 32)")
    p_af.add_argument("--warmup", type=int, default=12,
                      help="replay warmup intervals before the online model "
                           "starts classifying")
    p_af.add_argument("--json", action="store_true", help="raw JSON output")
    p_af.set_defaults(func=_cmd_analyze_fleet)

    p_met = sub.add_parser("metrics",
                           help="scrape a daemon's Prometheus text metrics")
    p_met.add_argument("--to", required=True,
                       help="daemon endpoint: HOST:PORT or unix:PATH")
    p_met.set_defaults(func=_cmd_metrics)

    p_top = sub.add_parser("top",
                           help="live terminal view of a running daemon")
    p_top.add_argument("--to", required=True,
                       help="daemon endpoint: HOST:PORT or unix:PATH")
    p_top.add_argument("--refresh", type=float, default=1.0,
                       help="seconds between refreshes")
    p_top.add_argument("--iterations", type=int, default=0,
                       help="stop after this many refreshes (0 = forever)")
    p_top.add_argument("--width", type=int, default=40,
                       help="sparkline history width (samples kept)")
    p_top.add_argument("--clear", action="store_true",
                       help="clear the screen between refreshes")
    p_top.set_defaults(func=_cmd_top)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
