"""Tests for the event-driven site runtime: envelopes, transports,
nodes, federated query routing, and the cluster orchestrator."""

import pytest

from repro.core.service import ServiceConfig
from repro.distributed.network import Network
from repro.obs import telemetry_session
from repro.obs.summary import main as summary_main
from repro.queries.q2 import TemperatureExposureQuery
from repro.runtime import (
    Cluster,
    ClusterSnapshot,
    Envelope,
    InProcessTransport,
    ProcessTransport,
)
from repro.runtime.envelope import (
    INFERENCE_STATE,
    QUERY_STATE,
    decode_query_bundle,
    decode_single_query_state,
    decode_state_bundle,
    decode_tag_list,
    encode_query_bundle,
    encode_single_query_state,
    encode_state_bundle,
    encode_tag_list,
)
from repro.sim.tags import EPC, TagKind
from repro.workloads.scenarios import cold_chain_scenario


def tags(n, kind=TagKind.ITEM):
    return [EPC(kind, i) for i in range(n)]


class TestEnvelopeCodecs:
    def test_tag_list_round_trip(self):
        original = tags(5) + [EPC(TagKind.CASE, 9)]
        assert decode_tag_list(encode_tag_list(original)) == original
        assert decode_tag_list(encode_tag_list([])) == []

    def test_state_bundle_round_trip(self):
        states = {t: bytes([i] * 12) for i, t in enumerate(tags(4))}
        assert decode_state_bundle(encode_state_bundle(states)) == states

    def test_state_bundle_compresses_similar_states(self):
        shared = bytes(range(40))
        states = {t: shared + bytes([i]) for i, t in enumerate(tags(10))}
        bundle = encode_state_bundle(states)
        assert len(bundle) < sum(len(s) for s in states.values())

    def test_query_bundle_round_trip(self):
        per_query = {
            "q1": {t: bytes([1, 2, i]) for i, t in enumerate(tags(3))},
            "path": {tags(1)[0]: b"\x01\x00"},
        }
        assert decode_query_bundle(encode_query_bundle(per_query)) == per_query

    def test_single_query_state_round_trip(self):
        tag = EPC(TagKind.ITEM, 42)
        name, back_tag, data = decode_single_query_state(
            encode_single_query_state("q2", tag, b"\x07\x08")
        )
        assert (name, back_tag, data) == ("q2", tag, b"\x07\x08")


class TestInProcessTransport:
    def test_delivers_and_accounts(self):
        transport = InProcessTransport()
        received = []
        transport.register(1, received.append)
        transport.send(Envelope(0, 1, "x", b"12345", time=7))
        transport.flush()
        assert len(received) == 1 and received[0].payload == b"12345"
        assert transport.ledger.bytes_by_kind["x"] == 5
        assert transport.ledger.link_bytes(0, 1) == 5
        assert transport.ledger.link_messages(0, 1) == 1

    def test_unregistered_destination_accounted_but_dropped(self):
        transport = InProcessTransport()
        transport.send(Envelope(0, -2, "ons-lookup", b"ab"))
        assert transport.ledger.bytes_by_kind["ons-lookup"] == 2

    def test_duplicate_registration_rejected(self):
        transport = InProcessTransport()
        transport.register(0, lambda env: None)
        with pytest.raises(ValueError):
            transport.register(0, lambda env: None)

    def test_external_ledger(self):
        ledger = Network()
        transport = InProcessTransport(ledger=ledger)
        transport.send(Envelope(0, 1, "x", b"abc"))
        assert ledger.total_bytes() == 3


def hosted_process_transport(n_sites=4, n_workers=2, **kwargs):
    """A started ProcessTransport hosting ``n_sites`` trivial sites.

    Each site's op table echoes values and serves a minimal (but valid)
    site checkpoint header so ``move_site`` passes its peek validation;
    ``adopt``'s reset/restore calls are absorbed by stubs.
    """
    from repro._util.encoding import ByteWriter
    from repro.runtime.checkpoint import CHECKPOINT_VERSION

    transport = ProcessTransport(n_workers=n_workers, **kwargs)

    def fake_checkpoint(site):
        writer = ByteWriter()
        writer.varint(CHECKPOINT_VERSION)
        writer.svarint(site)
        return writer.getvalue()

    for site in range(n_sites):
        transport.register(site, lambda env: None)
        transport.host_site(
            site,
            {
                "attach": lambda shim: None,
                "echo": lambda *args: args,
                "blob_len": lambda blob: len(blob),
                "make_blob": lambda n: bytes(range(256)) * (n // 256),
                "boom": lambda: 1 // 0,
                "snapshot": (lambda s: lambda: fake_checkpoint(s))(site),
                "reset_fresh": lambda: None,
                "restore": lambda blob: None,
            },
        )
    return transport


class TestProcessTransport:
    def test_delivers_and_accounts_without_hosted_sites(self):
        """With nothing hosted it degenerates to synchronous delivery."""
        with ProcessTransport() as transport:
            received = []
            transport.register(1, received.append)
            transport.send(Envelope(0, 1, "x", b"12345", time=7))
            transport.flush()
            assert len(received) == 1 and received[0].payload == b"12345"
            assert transport.ledger.bytes_by_kind["x"] == 5
            assert transport._workers == []  # never forked

    def test_site_call_runs_locally_before_fork_and_remotely_after(self):
        with hosted_process_transport() as transport:
            assert transport.site_call(0, "echo", 1, "a") == (1, "a")
            assert not transport._started
            transport.site_cast(0, "echo", 1)  # first cast forks the workers
            assert transport._started and len(transport._workers) == 2
            assert transport.site_call(3, "echo", 2, "b") == (2, "b")
            transport.flush()

    def test_shard_map_round_robin_and_explicit(self):
        with hosted_process_transport() as transport:
            transport.site_cast(0, "echo")
            assert transport.shard_map == {0: 0, 1: 1, 2: 0, 3: 1}
        explicit = {0: 1, 1: 1, 2: 1, 3: 0}
        with hosted_process_transport(shard_map=explicit) as transport:
            transport.site_cast(0, "echo")
            assert transport.shard_map == explicit

    def test_shared_memory_blob_plane_round_trips(self):
        """Payloads past the shm threshold cross intact, both ways."""
        from repro.runtime.process import SHM_THRESHOLD

        big = SHM_THRESHOLD * 2
        with hosted_process_transport() as transport:
            transport.site_cast(0, "echo")  # fork first
            assert transport.site_call(1, "blob_len", b"\x07" * big) == big
            blob = transport.site_call(1, "make_blob", big)
            assert len(blob) == big and blob == bytes(range(256)) * (big // 256)

    def test_worker_op_error_surfaces_with_traceback(self):
        with hosted_process_transport() as transport:
            transport.site_cast(0, "echo")
            with pytest.raises(RuntimeError, match="ZeroDivisionError"):
                transport.site_call(1, "boom")

    def test_dead_worker_raises_worker_died_instead_of_hanging(self):
        """Regression: a worker dying mid-command used to leave the
        parent blocked forever on the FIFO reply read. The liveness
        poll must surface WorkerDied naming the worker and the op."""
        import os

        from repro.runtime import WorkerDied

        transport = ProcessTransport(n_workers=2)
        for site in range(2):
            transport.register(site, lambda env: None)
            transport.host_site(
                site,
                {
                    "attach": lambda shim: None,
                    "echo": lambda *args: args,
                    "die": lambda: os._exit(3),
                },
            )
        try:
            transport.site_cast(0, "echo")  # fork the workers
            transport.flush()
            with pytest.raises(WorkerDied, match="die@site0") as err:
                transport.site_call(0, "die")
            assert err.value.worker == 0
            assert err.value.op == "call die@site0"
        finally:
            transport.close()

    def test_cast_error_surfaces_at_flush(self):
        with hosted_process_transport() as transport:
            transport.site_cast(1, "boom")
            with pytest.raises(RuntimeError, match="ZeroDivisionError"):
                transport.flush()

    def test_move_site_updates_shard_and_gauges(self):
        with hosted_process_transport() as transport:
            transport.site_cast(0, "echo")
            transport.move_site(0, 1)
            assert transport.shard_map[0] == 1
            assert transport.ledger.rebalances == 1
            assert transport.ledger.shard_sites == {0: 1, 1: 3}
            stats = {s["worker"]: s["hosted_sites"] for s in transport.worker_stats()}
            assert stats == {0: [2], 1: [0, 1, 3]}
            with pytest.raises(ValueError, match="no worker"):
                transport.move_site(0, 9)

    def test_rebalancer_moves_hottest_site_off_busiest_worker(self):
        """Auto policy: per-site ledger byte deltas pick the move."""
        with hosted_process_transport() as transport:
            transport.site_cast(0, "echo")
            # Worker 0 hosts {0, 2}; make site 0 dominate the traffic.
            transport.ledger.send(0, 99, "data", b"x" * 100_000)
            assert transport.maybe_rebalance() is True
            assert transport.shard_map[0] == 1
            assert transport.ledger.rebalances == 1
            # Balanced traffic afterwards: no further move.
            assert transport.maybe_rebalance() is False

    def test_rebalancer_tolerates_balanced_load(self):
        with hosted_process_transport() as transport:
            transport.site_cast(0, "echo")
            for site in range(4):
                transport.ledger.send(site, 99, "data", b"x" * 1000)
            assert transport.maybe_rebalance() is False
            assert transport.ledger.rebalances == 0

    def test_scheduled_move_fires_at_its_boundary(self):
        with hosted_process_transport(scheduled_moves={2: (3, 0)}) as transport:
            transport.site_cast(0, "echo")
            assert transport.maybe_rebalance() is False
            assert transport.maybe_rebalance() is True
            assert transport.shard_map[3] == 0

    def test_close_is_idempotent_and_rejects_sends(self):
        transport = hosted_process_transport()
        transport.site_cast(0, "echo")
        transport.close()
        transport.close()
        assert transport._workers == []
        with pytest.raises(RuntimeError, match="closed"):
            transport.send(Envelope(0, 1, "x", b""))

    def test_dispatch_runs_closures_only_before_fork(self):
        with hosted_process_transport() as transport:
            seen = []
            transport.dispatch(0, lambda: seen.append("pre-fork"))
            assert seen == ["pre-fork"]
            transport.site_cast(0, "echo")
            with pytest.raises(RuntimeError, match="named ops"):
                transport.dispatch(0, lambda: seen.append("post-fork"))
            transport.dispatch(-1, lambda: seen.append("parent"))  # not hosted
            assert seen == ["pre-fork", "parent"]

    def test_registration_closed_after_fork_for_hosting_only(self):
        with hosted_process_transport() as transport:
            transport.site_cast(0, "echo")
            # Parent-resident handlers (e.g. a frontend) may still join...
            transport.register(-3, lambda env: None)
            # ...but new *hosted* sites cannot appear after the fork.
            with pytest.raises(RuntimeError, match="forked"):
                transport.host_site(-3, {"attach": lambda shim: None})


def envelope_process_transport(relay_to=None, failing=()):
    """A ProcessTransport whose two hosted sites (0 and 1, one per
    worker) record every envelope they receive, readable back through
    the ``received`` op. Site ``s`` in ``failing`` raises on delivery;
    with ``relay_to`` set, site 0 forwards each envelope there with a
    ``!`` appended, through the worker's outbox."""
    transport = ProcessTransport(n_workers=2)
    for site in range(2):
        received: list[bytes] = []
        shim_box: list = []

        def handler(env, site=site, received=received, shim_box=shim_box):
            if site in failing:
                raise RuntimeError("kaboom")
            received.append(env.payload)
            if site == 0 and relay_to is not None:
                shim_box[0].send(Envelope(0, relay_to, "hop", env.payload + b"!"))

        transport.register(site, handler)
        transport.host_site(
            site,
            {
                "attach": shim_box.append,
                "received": (lambda r: lambda: list(r))(received),
            },
        )
    transport.site_cast(0, "received")  # fork the workers
    transport.flush()
    return transport


class TestProcessTransportEnvelopes:
    """Envelopes addressed to worker-hosted sites run their handlers
    inside the workers; the parent's flush is the barrier."""

    def test_delivers_in_order_to_hosted_sites(self):
        with envelope_process_transport() as transport:
            for i in range(20):
                transport.send(Envelope(-1, i % 2, "x", bytes([i])))
            transport.flush()
            assert transport.site_call(0, "received") == [
                bytes([i]) for i in range(0, 20, 2)
            ]
            assert transport.site_call(1, "received") == [
                bytes([i]) for i in range(1, 20, 2)
            ]
            assert transport.ledger.messages_by_kind["x"] == 20

    def test_flush_waits_for_relay_chains(self):
        """A hop emitted by a handler on one worker reaches the other
        worker's site before flush returns, and is accounted once."""
        with envelope_process_transport(relay_to=1) as transport:
            transport.send(Envelope(-1, 0, "hop", b"a"))
            transport.flush()
            assert transport.site_call(1, "received") == [b"a!"]
            assert transport.ledger.messages_by_kind["hop"] == 2

    def test_handler_errors_surface_at_flush(self):
        with envelope_process_transport(failing=(1,)) as transport:
            transport.send(Envelope(-1, 1, "x", b""))
            with pytest.raises(RuntimeError, match="kaboom"):
                transport.flush()

    def test_close_after_handler_error(self):
        """close() after a worker's handler raised still reaps every
        worker, and a second close is a no-op."""
        transport = envelope_process_transport(failing=(1,))
        processes = [handle.process for handle in transport._workers]
        transport.send(Envelope(-1, 1, "x", b""))
        with pytest.raises(RuntimeError, match="kaboom"):
            transport.flush()
        transport.close()
        assert transport._workers == []
        assert not any(process.is_alive() for process in processes)
        transport.close()
        assert transport._workers == []


@pytest.fixture(scope="module")
def chain_config():
    return ServiceConfig(
        run_interval=300, recent_history=600, truncation="cr", emit_events=False
    )


class TestClusterDeterminism:
    def test_process_matches_inprocess(self, multi_site_chain, chain_config):
        """Sharded OS workers preserve every observable result and byte."""
        inproc = Cluster(multi_site_chain.traces, chain_config)
        inproc.run(multi_site_chain.params.horizon)
        with ProcessTransport(n_workers=2) as transport:
            sharded = Cluster(
                multi_site_chain.traces, chain_config, transport=transport
            )
            sharded.run(multi_site_chain.params.horizon)
            assert sharded.containment_error(
                multi_site_chain.truth
            ) == inproc.containment_error(multi_site_chain.truth)
            assert dict(sharded.network.bytes_by_kind) == dict(
                inproc.network.bytes_by_kind
            )
            assert dict(sharded.network.bytes_by_link) == dict(
                inproc.network.bytes_by_link
            )
            assert [m.tag for m in sharded.migrations] == [
                m.tag for m in inproc.migrations
            ]
            for a, b in zip(sharded.snapshots, inproc.snapshots):
                assert a.time == b.time and a.containment == b.containment
            # The worker plane really ran: both shards moved bytes.
            rows = sharded.network.worker_rows()
            assert [row[0] for row in rows] == [0, 1]
            assert all(row[2] > 0 and row[3] > 0 for row in rows)


class TestBatchedMigration:
    def test_batching_reduces_bytes_same_results(self, multi_site_chain, chain_config):
        batched = Cluster(multi_site_chain.traces, chain_config, batch_migrations=True)
        batched.run(multi_site_chain.params.horizon)
        per_tag = Cluster(multi_site_chain.traces, chain_config, batch_migrations=False)
        per_tag.run(multi_site_chain.params.horizon)
        assert (
            batched.network.bytes_by_kind[INFERENCE_STATE]
            < per_tag.network.bytes_by_kind[INFERENCE_STATE]
        )
        assert (
            batched.network.messages_by_kind[INFERENCE_STATE]
            < per_tag.network.messages_by_kind[INFERENCE_STATE]
        )
        assert batched.containment_error(
            multi_site_chain.truth
        ) == per_tag.containment_error(multi_site_chain.truth)


@pytest.fixture(scope="module")
def federated_scenario():
    return cold_chain_scenario(
        seed=7,
        n_sites=2,
        n_freezer_cases=6,
        n_room_cases=3,
        items_per_case=6,
        n_exposures=4,
        horizon=1500,
        site_leave_time=700,
    )


def run_federated(scenario, transport=None):
    config = ServiceConfig(
        run_interval=300,
        recent_history=600,
        truncation="cr",
        emit_events=True,
        event_period=5,
    )
    cluster = Cluster(scenario.traces, config, transport=transport)
    cluster.add_query(
        "q2",
        lambda site: TemperatureExposureQuery(scenario.catalog, exposure_duration=400),
    )
    cluster.set_sensor_streams(
        {site: scenario.sensor_stream(site) for site in range(len(scenario.traces))}
    )
    cluster.run(scenario.horizon)
    return cluster


class TestFederatedQueryRouting:
    def test_query_state_migrates_and_alerts_continue(self, federated_scenario):
        scenario = federated_scenario
        cluster = run_federated(scenario)
        exposed = {tag for tag, _, back in scenario.exposures if back is None}
        # Query state actually crossed the wire.
        assert cluster.network.bytes_by_kind[QUERY_STATE] > 0
        # Exposure runs that started at site 0 alert at site 1...
        site1_alerts = cluster.nodes[1].queries["q2"].alerts
        assert exposed <= {a.key for a in site1_alerts}
        # ...and keep their pre-migration start time (continuity): the
        # run began before the goods left site 0.
        for alert in site1_alerts:
            if alert.key in exposed:
                assert alert.start_time < 700

    def test_handoff_export_span_accounts_the_query_state_bundle(
        self, federated_scenario, tmp_path, capsys
    ):
        """Traced, every query hand-off says what went in and what went
        on the wire, and the summary CLI turns that into a per-link ratio."""
        with telemetry_session(capacity=65536, dump_dir=str(tmp_path)) as tel:
            cluster = run_federated(federated_scenario)
            spans = [
                e for e in tel.recorder.entries() if e.get("name") == "handoff.export"
            ]
            path = tel.dump(reason="handoff")
        assert spans and {(s["plane"], s["src"], s["dst"]) for s in spans} == {
            ("federation", 0, 1)
        }
        assert all(s["boundary"] % 300 == 0 and s["states"] > 0 for s in spans)
        assert (
            sum(s["wire_bytes"] for s in spans)
            == cluster.network.bytes_by_kind[QUERY_STATE]
        )
        # raw_bytes counts the automaton states alone (no tags, no names).
        assert all(s["raw_bytes"] >= s["states"] for s in spans)
        assert summary_main([path]) == 0
        out = capsys.readouterr().out
        assert "state bundles per link" in out and "federation/handoff.export" in out

    def test_process_federation_matches(self, federated_scenario):
        scenario = federated_scenario
        inproc = run_federated(scenario)
        with ProcessTransport(n_workers=2) as transport:
            sharded = run_federated(scenario, transport=transport)
            key = lambda c: sorted(
                (str(a.key), a.start_time, a.end_time)
                for node in c.nodes
                for a in node.queries["q2"].alerts
            )
            assert key(inproc) and key(sharded) == key(inproc)
            assert dict(sharded.network.bytes_by_kind) == dict(
                inproc.network.bytes_by_kind
            )


class TestContainmentError:
    def test_guards_time_zero(self, multi_site_chain, chain_config):
        """Regression: a snapshot at time 0 must not index truth at -1."""
        cluster = Cluster(multi_site_chain.traces, chain_config)
        item = multi_site_chain.truth.items()[0]
        cluster.snapshots.append(ClusterSnapshot(0, {item: None}, {item}))
        error = cluster.containment_error(multi_site_chain.truth)
        assert 0.0 <= error <= 1.0

    def test_empty_snapshots(self, multi_site_chain, chain_config):
        """Regression: the empty-snapshot path returns 0, not NaN/crash."""
        cluster = Cluster(multi_site_chain.traces, chain_config)
        assert cluster.containment_error(multi_site_chain.truth) == 0.0
        cluster.snapshots.append(ClusterSnapshot(300, {}, set()))
        assert cluster.containment_error(multi_site_chain.truth) == 0.0
