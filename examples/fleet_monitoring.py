"""Fleet-scale phase monitoring with ``incprofd``, end to end.

The paper's deployment scenario at service scale: discovery runs *once*
offline; then a fleet of ranks streams incremental profile dumps into a
long-running daemon, which classifies every interval online and
aggregates phase occupancy, novelty alerts, and per-stream lag — while a
misbehaving run lights up the novelty counters the moment it appears.

Run:  python examples/fleet_monitoring.py
"""

import tempfile
from pathlib import Path

from repro.api import (
    Session,
    SessionConfig,
    analyze_snapshots,
    load_model,
    publish_samples,
    publish_session,
    save_model,
)
from repro.apps.synthetic import PhaseSpec, Synthetic
from repro.core.timeline import phase_strip
from repro.service import Endpoint, PhaseMonitorServer, ServerConfig


def main() -> None:
    app = Synthetic()

    # ---- offline: one profiled run, phases discovered, tracker trained ----
    train = Session(app, SessionConfig(ranks=1, seed=111)).run()
    analysis = analyze_snapshots(train.samples(0))
    print(f"offline training: {analysis.n_phases} phases from "
          f"{analysis.interval_data.n_intervals} intervals")

    # ---- the model is a durable artifact: save, ship, load anywhere ----
    with tempfile.TemporaryDirectory() as tmp:
        artifact = save_model(analysis, Path(tmp) / "synthetic.ipm")
        print(f"phase model artifact: {artifact.name} "
              f"({artifact.stat().st_size} bytes)")
        template = load_model(artifact)

    # ---- the daemon: ephemeral loopback port, blocking backpressure ----
    config = ServerConfig(endpoint=Endpoint.tcp("127.0.0.1", 0))
    with PhaseMonitorServer(template, config) as server:
        print(f"incprofd listening on {server.endpoint} "
              f"(policy={config.policy}, queue={config.queue_capacity})\n")

        # ---- a healthy 4-rank deployment run streams in concurrently ----
        fleet = Session(app, SessionConfig(ranks=4, seed=777)).run()
        reports = publish_session(server.endpoint, fleet, stream_prefix="node")
        print("healthy fleet:")
        for stream_id in sorted(reports):
            rep = reports[stream_id]
            strip = phase_strip(rep.phase_sequence, width=60)
            print(f"  {stream_id}: {strip}")
            print(f"  {'':>{len(stream_id)}}  sent={rep.sent} "
                  f"classified={rep.processed} novel={rep.novel}")

        # ---- one rogue run: an input regime never seen in training ----
        rogue_script = list(app.ground_truth_phases())
        rogue_script.insert(
            2, PhaseSpec("rogue", 15.0, (("garbage_collect", 0.7, 3.0),))
        )
        rogue = Session(Synthetic(rogue_script),
                        SessionConfig(ranks=1, seed=555)).run()
        report = publish_samples(server.endpoint, "node-rogue",
                                 rogue.samples(0), app="synthetic")
        print("\nrogue stream (unseen phase injected):")
        print(f"  node-rogue: {phase_strip(report.phase_sequence, width=60)}")
        print(f"  novel intervals: {report.novel}/{report.processed} "
              f"('!' marks above)")

        # ---- the fleet view a dashboard would poll ----
        stats = server.stats()
        status = server.fleet_status()
        print("\nservice stats:")
        print(f"  ingest: {stats['processed']}/{stats['ingested']} classified, "
              f"{stats['ingest_rate']:.0f} intervals/s, drops={stats['drops']}")
        latency = stats["classify_latency"]
        print(f"  classify latency: p50={latency['p50'] * 1e3:.2f} ms "
              f"p99={latency['p99'] * 1e3:.2f} ms")
        print("  fleet phase occupancy:")
        for phase, occ in status["phase_occupancy"].items():
            label = "novel !" if phase == "-1" else f"phase {phase}"
            print(f"    {label:>8s}: {occ['intervals']:4d} intervals "
                  f"({occ['share']:.1%})")
    print("\ndaemon stopped cleanly")


if __name__ == "__main__":
    main()
