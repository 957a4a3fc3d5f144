"""The fleet subsystem: ring, routing protocol, merging, and the
router/worker dance — everything that can run in one process.

The subprocess chaos path (SIGKILL a real worker under a real
supervisor) lives in ``test_chaos.py``; here every server is in-process
so the routing, ownership, adoption, and merge logic is exercised
deterministically and fast.
"""

import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.fleet import HashRing, FleetRouter, RouterConfig
from repro.fleet.ring import _point
from repro.service import (
    Endpoint,
    PhaseClient,
    PhaseMonitorServer,
    RetryPolicy,
    ServerConfig,
    SyntheticLoadGenerator,
    publish_samples,
)
from repro.service.checkpoint import FleetManifest, worker_checkpoint_dir
from repro.service.metrics import (
    ServiceMetrics,
    aggregate_worker_stats,
    merged_latency_percentiles,
)
from repro.service.protocol import (
    BINARY_MAGIC,
    ROUTE_UNAVAILABLE,
    ROUTE_WRONG_WORKER,
    ROUTING_CODES,
    Hello,
    SnapshotMsg,
    decode_payload,
    encode_message,
    read_frame,
    read_message,
    worker_unavailable_reply,
    write_message,
    wrong_worker_reply,
)
from repro.service.registry import StreamRegistry, StreamState
from repro.util.errors import ServiceError, ValidationError

from repro.api import AnalysisConfig, OnlinePhaseTracker, analyze_snapshots

FAST_RETRY = RetryPolicy(base_delay=0.01, max_delay=0.1, request_timeout=5.0)


# ----------------------------------------------------------------------
# consistent-hash ring
# ----------------------------------------------------------------------
class TestHashRing:
    def test_lookup_is_deterministic_across_instances(self):
        members = ["w0", "w1", "w2"]
        a = HashRing(members)
        b = HashRing(reversed(members))  # insertion order must not matter
        for i in range(200):
            sid = f"stream-{i}"
            assert a.lookup(sid) == b.lookup(sid)

    def test_wire_roundtrip_preserves_every_lookup(self):
        ring = HashRing(["w0", "w1", "w2"], virtual_nodes=32, generation=7)
        clone = HashRing.from_obj(ring.to_obj())
        assert clone.generation == 7
        assert clone.members() == ring.members()
        for i in range(100):
            assert clone.lookup(f"s{i}") == ring.lookup(f"s{i}")

    def test_removal_only_moves_the_dead_workers_streams(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        streams = [f"load-{i}" for i in range(400)]
        before = ring.assignments(streams)
        ring.remove_worker("w2")
        after = ring.assignments(streams)
        for sid in streams:
            if before[sid] != "w2":
                assert after[sid] == before[sid], (
                    f"{sid} moved {before[sid]} -> {after[sid]} although "
                    "its owner survived")
            else:
                assert after[sid] != "w2"

    def test_virtual_nodes_spread_the_load(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        load = ring.load([f"s{i}" for i in range(4000)])
        assert sum(load.values()) == 4000
        # 64 virtual nodes per worker keeps the imbalance modest.
        assert min(load.values()) > 0.4 * 1000
        assert max(load.values()) < 2.0 * 1000

    def test_generation_bumps_on_every_membership_change(self):
        ring = HashRing()
        assert ring.add_worker("w0") == 1
        assert ring.add_worker("w1") == 2
        assert ring.remove_worker("w0") == 3
        assert ring.generation == 3

    def test_membership_errors_are_typed(self):
        ring = HashRing(["w0"])
        with pytest.raises(ValidationError):
            ring.add_worker("w0")
        with pytest.raises(ValidationError):
            ring.remove_worker("ghost")
        with pytest.raises(ValidationError):
            HashRing(virtual_nodes=0)
        with pytest.raises(ValidationError):
            HashRing([""])

    def test_empty_ring_lookup(self):
        ring = HashRing()
        assert ring.lookup_or_none("s") is None
        with pytest.raises(ValidationError):
            ring.lookup("s")

    def test_point_is_stable(self):
        # PYTHONHASHSEED-independent: the routing table must agree across
        # the router, supervisor, and every worker process.
        assert _point("w0#0") == _point("w0#0")
        assert _point("w0#0") != _point("w0#1")

    def test_from_obj_rejects_garbage(self):
        with pytest.raises(ValidationError):
            HashRing.from_obj({"virtual_nodes": 8})  # no members


# ----------------------------------------------------------------------
# routing replies: the "not processed, resend elsewhere" contract
# ----------------------------------------------------------------------
class TestRoutingReplies:
    def test_wrong_worker_names_the_real_owner(self):
        reply = wrong_worker_reply("w2", "w0", 5)
        assert not reply.ok
        assert reply.data["code"] == ROUTE_WRONG_WORKER
        assert reply.data["worker_id"] == "w2"  # the owner, not the refuser
        assert reply.data["ring_generation"] == 5

    def test_worker_unavailable_is_a_routing_reply(self):
        reply = worker_unavailable_reply("w1", "died")
        assert not reply.ok
        assert reply.data["code"] == ROUTE_UNAVAILABLE
        assert reply.data["code"] in ROUTING_CODES


# ----------------------------------------------------------------------
# latency merging: exact vs upper bound, and the labels telling them apart
# ----------------------------------------------------------------------
class TestStatsMerging:
    def test_single_daemon_percentiles_are_labelled_exact(self):
        metrics = ServiceMetrics()
        for v in (0.001, 0.002, 0.003):
            metrics.classify_latency.record_many(v, 1)
        snap = metrics.snapshot()
        assert snap["classify_latency_source"]["kind"] == "exact"

    def test_merged_window_percentiles_are_exact_over_the_union(self):
        w0 = [0.001] * 90 + [0.100] * 10   # one slow worker
        w1 = [0.001] * 100                  # one fast worker
        merged = aggregate_worker_stats({
            "w0": {"latency_window": w0, "classify_latency": {}},
            "w1": {"latency_window": w1, "classify_latency": {}},
        })
        assert merged["classify_latency_source"]["kind"] == "merged-window"
        assert merged["classify_latency_source"]["workers"] == 2
        assert merged["classify_latency_source"]["samples"] == 200
        expected = merged_latency_percentiles([w0, w1])
        assert merged["classify_latency"] == expected
        # ... and exactness matters: max-of-p99s would claim 0.1 for the
        # fleet p90, while the true union p90 is still the fast path.
        union = np.array(w0 + w1)
        assert merged["classify_latency"]["p90"] == pytest.approx(
            float(np.quantile(union, 0.9)))

    def test_missing_window_falls_back_to_labelled_upper_bound(self):
        merged = aggregate_worker_stats({
            "w0": {"latency_window": [0.001],
                   "classify_latency": {"p99": 0.002}},
            "w1": {"classify_latency": {"p99": 0.050}},  # no raw window
        })
        assert (merged["classify_latency_source"]["kind"]
                == "merged-upper-bound")
        assert merged["classify_latency"]["p99"] == 0.050  # max per key

    def test_counters_sum_and_per_worker_section_survives(self):
        merged = aggregate_worker_stats({
            "w0": {"processed": 10, "streams": 2, "latency_window": []},
            "w1": {"processed": 32, "streams": 1, "latency_window": []},
        })
        assert merged["processed"] == 42
        assert merged["streams"] == 3
        assert merged["n_workers"] == 2
        assert set(merged["per_worker"]) == {"w0", "w1"}


# ----------------------------------------------------------------------
# bounded finished-stream history (and its visibility)
# ----------------------------------------------------------------------
class TestFinishedHistoryBound:
    def _registry(self, cap):
        return StreamRegistry(idle_timeout=30.0, finished_capacity=cap)

    def test_drop_oldest_beyond_cap_is_counted(self):
        registry = self._registry(cap=3)
        for i in range(5):
            registry.register(f"s{i}")
            registry.close(f"s{i}")
        rows = registry.finished_rows()
        assert [r["stream_id"] for r in rows] == ["s2", "s3", "s4"]
        assert registry.finished_evicted == 2

    def test_expired_streams_count_against_the_same_cap(self):
        registry = StreamRegistry(idle_timeout=0.001, finished_capacity=2)
        for i in range(4):
            registry.register(f"e{i}")
        time.sleep(0.01)
        expired = registry.expire_idle()
        assert len(expired) == 4
        assert len(registry.finished_rows()) == 2
        assert registry.finished_evicted == 2

    def test_restore_under_a_smaller_cap_drops_oldest_and_counts(self):
        registry = self._registry(cap=2)
        rows = [{"stream_id": f"old{i}"} for i in range(5)]
        registry.restore_finished(rows, registered=5, expired=0,
                                  finished_evicted=7)
        kept = [r["stream_id"] for r in registry.finished_rows()]
        assert kept == ["old3", "old4"]
        assert registry.finished_evicted == 7 + 3

    def test_capacity_is_validated(self):
        with pytest.raises(ValidationError):
            StreamRegistry(finished_capacity=0)


class TestExpireRaces:
    def test_expire_idle_racing_touch_never_corrupts(self):
        """Concurrent expiry + touch must neither crash nor leave a
        stream both active and finished."""
        registry = StreamRegistry(idle_timeout=0.005, finished_capacity=256)
        stop = threading.Event()
        errors = []

        def toucher():
            i = 0
            while not stop.is_set():
                sid = f"t{i % 8}"
                try:
                    registry.register(sid)
                except ServiceError:
                    pass
                try:
                    registry.touch(sid)
                except ServiceError:
                    pass  # expired between register and touch: fine
                except Exception as exc:  # noqa: BLE001 - test harness
                    errors.append(exc)
                i += 1

        def expirer():
            while not stop.is_set():
                try:
                    registry.expire_idle(now=registry._clock() + 1.0)
                except Exception as exc:  # noqa: BLE001 - test harness
                    errors.append(exc)

        threads = [threading.Thread(target=toucher) for _ in range(2)]
        threads.append(threading.Thread(target=expirer))
        for t in threads:
            t.start()
        time.sleep(0.4)
        stop.set()
        for t in threads:
            t.join(timeout=5.0)
        assert not errors
        active = {s.stream_id for s in registry.active()}
        for state in registry.active():
            assert not state.closed
        assert registry.expired == len(
            [r for r in registry.finished_rows()]) + registry.finished_evicted
        assert len(active) <= 8

    def test_adopt_racing_expiry_keeps_the_adopted_stream_fresh(self):
        registry = StreamRegistry(idle_timeout=0.01, finished_capacity=16)
        stop = threading.Event()
        errors = []

        def adopter():
            while not stop.is_set():
                state = StreamState("migrant", "app", 0, now=0.0)
                try:
                    registry.adopt(state)
                except Exception as exc:  # noqa: BLE001 - test harness
                    errors.append(exc)

        thread = threading.Thread(target=adopter)
        thread.start()
        for _ in range(200):
            registry.expire_idle()
        stop.set()
        thread.join(timeout=5.0)
        assert not errors
        # adopt() stamps the clock, so the last adoption is never stale
        state = registry.get_or_none("migrant")
        if state is not None:
            assert not state.closed


# ----------------------------------------------------------------------
# fleet manifest + per-worker checkpoint layout
# ----------------------------------------------------------------------
class TestFleetDurableState:
    def test_worker_checkpoint_dirs_are_disjoint(self, tmp_path):
        a = worker_checkpoint_dir(tmp_path, "w0")
        b = worker_checkpoint_dir(tmp_path, "w1")
        assert a != b and a.parent == b.parent == tmp_path

    def test_worker_id_must_be_path_safe(self, tmp_path):
        for bad in ("", "..", "a/b"):
            with pytest.raises(ValidationError):
                worker_checkpoint_dir(tmp_path, bad)

    def test_manifest_roundtrip(self, tmp_path):
        manifest = FleetManifest(tmp_path)
        assert manifest.load() is None
        ring = HashRing(["w0", "w1"])
        manifest.write(ring.to_obj(), {"w0": {"endpoint": "unix:/x"}})
        loaded = manifest.load()
        assert loaded["ring"]["members"] == ["w0", "w1"]
        assert loaded["workers"]["w0"]["endpoint"] == "unix:/x"

    def test_corrupt_manifest_raises_typed(self, tmp_path):
        from repro.util.errors import CheckpointError

        manifest = FleetManifest(tmp_path)
        manifest.path.write_text("{not json")
        with pytest.raises(CheckpointError):
            manifest.load()


# ----------------------------------------------------------------------
# in-process fleet: real workers + real router, no subprocesses
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trained():
    gen = SyntheticLoadGenerator()
    analysis = analyze_snapshots(gen.stream(0, 24),
                                 AnalysisConfig(kmax=4,
                                                drop_short_final=False))
    return gen, OnlinePhaseTracker.from_analysis(analysis)


def worker_config(worker_id: str, **overrides) -> ServerConfig:
    defaults = dict(endpoint=Endpoint.tcp("127.0.0.1", 0),
                    queue_capacity=64, policy="block",
                    housekeeping_interval=0.05, worker_id=worker_id)
    defaults.update(overrides)
    return ServerConfig(**defaults)


def owned_stream(ring: HashRing, worker_id: str, prefix: str = "s") -> str:
    for i in range(10_000):
        sid = f"{prefix}{i}"
        if ring.lookup(sid) == worker_id:
            return sid
    raise AssertionError(f"no stream hashes to {worker_id}")


class FakeHandle:
    def __init__(self, worker_id, server):
        self.worker_id = worker_id
        self.server = server
        self.evicted = False

    @property
    def endpoint(self):
        return self.server.endpoint


class FakeSupervisor:
    """Duck-typed supervisor over in-process servers (no subprocesses)."""

    def __init__(self, servers, ring, policy="block"):
        self.ring = ring
        self.handles = {wid: FakeHandle(wid, s) for wid, s in servers.items()}
        self.config = SimpleNamespace(policy=policy)
        self.failures = []

    def endpoint_of(self, worker_id):
        handle = self.handles.get(worker_id)
        if handle is None or handle.evicted:
            raise ServiceError(f"no live worker {worker_id!r}")
        return handle.endpoint

    def live_workers(self):
        return [h for h in self.handles.values() if not h.evicted]

    def handle_failure(self, worker_id):
        self.failures.append(worker_id)
        return "noted"

    def status(self):
        return {"generation": self.ring.generation,
                "members": self.ring.members(), "workers": {},
                "restarts_total": 0, "evictions_total": 0,
                "migrations_total": 0}

    def stop(self):
        pass


@pytest.mark.socket
class TestWorkerFleetMode:
    def test_single_daemon_replies_carry_no_fleet_fields(self, trained):
        _, template = trained
        with PhaseMonitorServer(template, worker_config("")) as server:
            with PhaseClient(server.endpoint, retry=FAST_RETRY) as client:
                reply = client.hello("solo")
                assert "worker_id" not in reply.data
                assert "ring_generation" not in reply.data
                assert "worker_id" not in client.ping().data

    def test_ring_update_installs_and_refuses_stale(self, trained):
        _, template = trained
        with PhaseMonitorServer(template, worker_config("w0")) as server:
            with PhaseClient(server.endpoint, retry=FAST_RETRY,
                             check=False) as client:
                new = HashRing(["w0", "w1"], generation=5)
                reply = client.control("ring-update", ring=new.to_obj())
                assert reply.ok and reply.data["generation"] == 5
                assert reply.data["worker_id"] == "w0"
                stale = HashRing(["w0"], generation=3)
                reply = client.control("ring-update", ring=stale.to_obj())
                assert not reply.ok and "stale" in reply.error

    def test_worker_refuses_streams_the_ring_assigns_away(self, trained):
        gen, template = trained
        ring = HashRing(["w0", "w1"], generation=1)
        mine = owned_stream(ring, "w0")
        theirs = owned_stream(ring, "w1")
        with PhaseMonitorServer(template, worker_config("w0")) as server:
            with PhaseClient(server.endpoint, retry=FAST_RETRY, check=False,
                             follow_routing=False) as client:
                assert client.control("ring-update", ring=ring.to_obj()).ok
                assert client.hello(mine).ok
                denial = client.hello(theirs)
                assert not denial.ok
                assert denial.data["code"] == ROUTE_WRONG_WORKER
                assert denial.data["worker_id"] == "w1"
                # snapshots for unowned streams refuse identically
                sample = gen.stream(1, 1)[0]
                refused = client.snapshot(theirs, 0, sample)
                assert refused.data["code"] == ROUTE_WRONG_WORKER
            assert server.metrics.snapshot()["wrong_worker"] >= 2

    def test_ring_update_reports_misplaced_streams(self, trained):
        _, template = trained
        with PhaseMonitorServer(template, worker_config("w0")) as server:
            with PhaseClient(server.endpoint, retry=FAST_RETRY,
                             check=False) as client:
                solo = HashRing(["w0"], generation=1)
                client.control("ring-update", ring=solo.to_obj())
                sid = owned_stream(HashRing(["w0", "w1"]), "w1")
                assert client.hello(sid).ok  # owned while alone
                grown = HashRing(["w0", "w1"], generation=2)
                reply = client.control("ring-update", ring=grown.to_obj())
                assert reply.ok and sid in reply.data["misplaced"]

    def test_adopt_stream_installs_state_and_resume_anchor(self, trained):
        gen, template = trained
        obj = {"stream_id": "orphan", "app": "x", "rank": 3,
               "last_seq": 9, "processed_seq": 9, "enqueued": 10,
               "processed": 10, "novel": 1}
        with PhaseMonitorServer(template, worker_config("w0")) as server:
            with PhaseClient(server.endpoint, retry=FAST_RETRY,
                             check=False) as client:
                reply = client.control("adopt-stream", stream=obj)
                assert reply.ok and reply.data["adopted"] is True
                assert reply.data["resume_from"] == 10
                # the publisher resumes exactly past the adopted anchor
                hello = client.hello("orphan", resume=True)
                assert hello.data["resumed"] is True
                assert hello.data["resume_from"] == 10
                sample = gen.stream(2, 11)[10]
                assert client.snapshot("orphan", 10, sample).ok

    def test_adoption_never_rolls_back_live_state(self, trained):
        gen, template = trained
        samples = gen.stream(3, 5)
        with PhaseMonitorServer(template, worker_config("w0")) as server:
            with PhaseClient(server.endpoint, retry=FAST_RETRY,
                             check=False) as client:
                client.hello("racer")
                for i, sample in enumerate(samples):
                    client.snapshot("racer", i, sample)
                # Acks mean *admitted*, not classified — wait for the
                # worker to drain so the live state is genuinely newer
                # than the stale record (the scenario under test).
                deadline = time.monotonic() + 10.0
                state = server.registry.get("racer")
                while (state.processed_seq < len(samples) - 1
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                stale = {"stream_id": "racer", "last_seq": 1,
                         "processed_seq": 1, "processed": 2}
                reply = client.control("adopt-stream", stream=stale)
                assert reply.ok and reply.data["adopted"] is False
                assert reply.data["reason"] == "live-state-newer"
                assert reply.data["resume_from"] == len(samples)

    def test_adopt_stream_rejects_garbage(self, trained):
        _, template = trained
        with PhaseMonitorServer(template, worker_config("w0")) as server:
            with PhaseClient(server.endpoint, retry=FAST_RETRY,
                             check=False) as client:
                assert not client.control("adopt-stream").ok
                bad = client.control("adopt-stream",
                                     stream={"stream_id": "x",
                                             "last_seq": "NaN?"})
                assert not bad.ok


@pytest.mark.socket
class TestFleetRouterInProcess:
    @pytest.fixture()
    def fleet(self, trained):
        """Two in-process fleet-mode workers with the ring installed."""
        _, template = trained
        ring = HashRing(["w0", "w1"], generation=1)
        servers = {}
        clients = []
        for wid in ("w0", "w1"):
            server = PhaseMonitorServer(template, worker_config(wid))
            server.start()
            servers[wid] = server
            client = PhaseClient(server.endpoint, retry=FAST_RETRY,
                                 check=False)
            assert client.control("ring-update", ring=ring.to_obj()).ok
            clients.append(client)
        supervisor = FakeSupervisor(servers, ring)
        yield servers, ring, supervisor
        for client in clients:
            client.close()
        for server in servers.values():
            server.stop()

    def test_proxy_mode_routes_each_stream_to_its_ring_owner(self, trained,
                                                             fleet):
        gen, _ = trained
        servers, ring, supervisor = fleet
        with FleetRouter(supervisor,
                         RouterConfig(endpoint=Endpoint.tcp("127.0.0.1", 0),
                                      log_level="error")) as router:
            load = gen.run(router.endpoint, 4, 12, retry=FAST_RETRY)
            assert load.sent == 48 and load.processed == 48
            assert all(r.drained and not r.error
                       for r in load.streams.values())
            # every stream landed on the worker the ring names
            for sid in load.streams:
                owner = ring.lookup(sid)
                other = "w1" if owner == "w0" else "w0"
                owner_rows = servers[owner].registry.fleet_status()
                other_rows = servers[other].registry.fleet_status()
                finished_on = [r["stream_id"] for r in owner_rows["finished"]]
                assert sid in finished_on
                assert sid not in [r["stream_id"]
                                   for r in other_rows["finished"]]
            assert router.routed > 0

    def test_proxy_relays_the_packed_snapshot_ack(self, trained, fleet):
        """A publisher reads back the worker's packed ack through the
        router, not a JSON re-encoding of it."""
        gen, _ = trained
        _, _, supervisor = fleet
        sample = gen.stream(3, 1)[0]
        with FleetRouter(supervisor,
                         RouterConfig(endpoint=Endpoint.tcp("127.0.0.1", 0),
                                      log_level="error")) as router:
            sock = router.endpoint.connect()
            fh = sock.makefile("rwb")
            try:
                write_message(fh, Hello(stream_id="packed"))
                assert read_message(fh).ok
                fh.write(encode_message(
                    SnapshotMsg(stream_id="packed", seq=0, gmon=sample)))
                fh.flush()
                payload = read_frame(fh)
            finally:
                fh.close()
                sock.close()
        assert payload.startswith(BINARY_MAGIC)
        ack = decode_payload(payload)
        assert ack.ok and ack.data["outcome"] == "accepted"
        assert ack.data["seq"] == 0

    def test_router_merges_stats_exactly_and_labels_them(self, trained,
                                                         fleet):
        gen, _ = trained
        _, _, supervisor = fleet
        with FleetRouter(supervisor,
                         RouterConfig(endpoint=Endpoint.tcp("127.0.0.1", 0),
                                      log_level="error")) as router:
            gen.run(router.endpoint, 4, 10, retry=FAST_RETRY)
            with PhaseClient(router.endpoint, retry=FAST_RETRY) as viewer:
                stats = viewer.stats().data
                status = viewer.fleet_status().data
                metrics_text = viewer.metrics()
        assert stats["processed"] == 40
        assert stats["n_workers"] == 2
        assert stats["classify_latency_source"]["kind"] == "merged-window"
        assert stats["role"] == "router"
        assert status["service"]["processed"] == 40
        assert {row["worker_id"] for row in status["finished"]} == {"w0", "w1"}
        assert "incprofd_processed_total 40" in metrics_text

    def test_forward_failure_reports_to_the_supervisor(self, trained, fleet):
        gen, _ = trained
        servers, ring, supervisor = fleet
        sid = owned_stream(ring, "w1", prefix="dead-")
        with FleetRouter(supervisor,
                         RouterConfig(endpoint=Endpoint.tcp("127.0.0.1", 0),
                                      log_level="error")) as router:
            servers["w1"].stop()  # the owner dies; router must not hang
            with PhaseClient(router.endpoint, retry=FAST_RETRY, check=False,
                             follow_routing=False) as client:
                reply = client.hello(sid)
            assert not reply.ok
            assert reply.data["code"] == ROUTE_UNAVAILABLE
            assert router.forward_failures >= 1
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and "w1" not in supervisor.failures:
            time.sleep(0.01)
        assert "w1" in supervisor.failures

    def test_unavailable_owner_is_resent_on_the_same_connection(self,
                                                                trained,
                                                                fleet):
        """``worker-unavailable`` means: back off, then resend to the same
        router on the same connection; the router resolves the owner
        again once the supervisor has rebalanced."""
        servers, ring, supervisor = fleet
        sid = owned_stream(ring, "w1", prefix="gone-")
        evicting = threading.Lock()

        def evict(worker_id):
            # What the real supervisor does off the router's thread:
            # shrink the ring and push it to the survivors.
            with evicting:
                supervisor.failures.append(worker_id)
                if worker_id not in ring.members():
                    return
                ring.remove_worker(worker_id)
                supervisor.handles[worker_id].evicted = True
                with PhaseClient(servers["w0"].endpoint, retry=FAST_RETRY,
                                 check=False) as push:
                    push.control("ring-update", ring=ring.to_obj())

        supervisor.handle_failure = evict
        patient = RetryPolicy(base_delay=0.05, max_delay=0.5,
                              request_timeout=5.0)
        with FleetRouter(supervisor,
                         RouterConfig(endpoint=Endpoint.tcp("127.0.0.1", 0),
                                      log_level="error")) as router:
            servers["w1"].stop()
            with PhaseClient(router.endpoint, retry=patient) as client:
                reply = client.hello(sid)
                assert reply.ok and reply.data["worker_id"] == "w0"
                assert client.reconnects == 0
            assert router.forward_failures >= 1
        assert set(supervisor.failures) == {"w1"}

    def test_router_rejects_worker_controls(self, trained, fleet):
        _, _, supervisor = fleet
        with FleetRouter(supervisor,
                         RouterConfig(endpoint=Endpoint.tcp("127.0.0.1", 0),
                                      log_level="error")) as router:
            with PhaseClient(router.endpoint, retry=FAST_RETRY,
                             check=False) as client:
                ping = client.ping()
                assert ping.data["role"] == "router"
                assert not client.control("ring-update", ring={}).ok
                assert not client.control("adopt-stream", stream={}).ok

    def test_empty_ring_answers_worker_unavailable(self, trained):
        _, template = trained
        supervisor = FakeSupervisor({}, HashRing())
        with FleetRouter(supervisor,
                         RouterConfig(endpoint=Endpoint.tcp("127.0.0.1", 0),
                                      log_level="error")) as router:
            with PhaseClient(router.endpoint, retry=FAST_RETRY, check=False,
                             follow_routing=False) as client:
                reply = client.hello("nobody")
            assert reply.data["code"] == ROUTE_UNAVAILABLE


@pytest.mark.socket
class TestPublishThroughFleet:
    def test_publish_samples_survives_a_mid_stream_rebalance(self, trained):
        """End-to-end: a stream's worker leaves mid-replay; the stalls
        path re-resolves through the router and the replay finishes on
        the new owner with every interval classified."""
        gen, template = trained
        ring = HashRing(["w0", "w1"], generation=1)
        servers = {}
        for wid in ("w0", "w1"):
            server = PhaseMonitorServer(template, worker_config(wid))
            server.start()
            servers[wid] = server
            with PhaseClient(server.endpoint, retry=FAST_RETRY,
                             check=False) as push:
                assert push.control("ring-update", ring=ring.to_obj()).ok
        supervisor = FakeSupervisor(servers, ring)
        sid = owned_stream(ring, "w0", prefix="mid-")
        samples = gen.stream(13, 40)
        try:
            with FleetRouter(supervisor,
                             RouterConfig(
                                 endpoint=Endpoint.tcp("127.0.0.1", 0),
                                 log_level="error")) as router:
                def rebalance():
                    time.sleep(0.15)
                    ring.remove_worker("w0")
                    for wid in ("w0", "w1"):
                        with PhaseClient(servers[wid].endpoint,
                                         retry=FAST_RETRY,
                                         check=False) as push:
                            push.control("ring-update", ring=ring.to_obj())

                flip = threading.Thread(target=rebalance)
                flip.start()
                report = publish_samples(router.endpoint, sid, samples,
                                         delay=0.02, retry=FAST_RETRY)
                flip.join(timeout=5.0)
            assert report.error == "" and report.drained
            # the stream finished on the surviving owner
            finished = [r["stream_id"] for r in
                        servers["w1"].registry.fleet_status()["finished"]]
            assert sid in finished
            # nothing lost: the new owner classified the whole stream,
            # exactly as one undisturbed daemon would
            reference = template.spawn(zero_start=True)
            for snap in samples:
                reference.observe_snapshot(snap)
            assert report.processed == len(samples)
            assert report.phase_sequence == reference.phase_sequence()
            # versions the client observed never went backwards
            assert report.model_versions == sorted(report.model_versions)
        finally:
            for server in servers.values():
                server.stop()
