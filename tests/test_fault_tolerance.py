"""Fault-tolerant site runtime: chaos transport, at-least-once
delivery, duplicate idempotency, checkpoint/restore, and crash
recovery — all verified against the deterministic harness invariant:
faults may only change ledger overhead, never results.

Set ``CHAOS_SEED`` (CI matrix) to verify one extra fault-plan seed.
"""

import os

import pytest

from chaos import (
    CHAOS_CONFIG,
    assert_chaos_invariant,
    chaos_plan,
    chaos_scenario,
    chaos_transport,
    run_chaos,
)
from repro.core.collapsed import CollapsedState
from repro.core.service import ServiceConfig
from repro.queries.q2 import TemperatureExposureQuery
from repro.runtime import (
    Cluster,
    Envelope,
    FaultPlan,
    FaultyTransport,
    InProcessTransport,
    LinkFaults,
    ProcessTransport,
    SiteNode,
)
from repro.runtime.envelope import (
    INFERENCE_STATE,
    MIGRATE_REQUEST,
    QUERY_STATE,
    encode_query_bundle,
    encode_state_bundle,
    encode_tag_list,
)
from repro.sim.tags import EPC, TagKind
from repro.streams.pattern import PatternState
from repro.streams.state import encode_pattern_state

# CHAOS_SEED *replaces* the built-in seeds: the CI matrix runs one
# fresh seed per job without re-running the defaults the tier-1 job
# already covers.
CHAOS_SEEDS = (
    [int(os.environ["CHAOS_SEED"])] if os.environ.get("CHAOS_SEED") else [11, 23, 47]
)

#: per-seed crash schedules: (site, crash_time, recover_time), all
#: inside one interval of the 300-epoch schedule.
CRASHES = {seed: (seed % 2, 910 + seed % 50, 1150) for seed in CHAOS_SEEDS}


@pytest.fixture(scope="module")
def scenario():
    return chaos_scenario()


@pytest.fixture(scope="module")
def baseline(scenario):
    """The fault-free in-process reference run."""
    return run_chaos(scenario)


class TestChaosInvariant:
    """The tentpole: seeded faults + crash never change results."""

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_faults_with_crash_bit_identical(self, scenario, baseline, seed):
        chaotic = run_chaos(
            scenario, transport=chaos_transport(seed), crash=CRASHES[seed]
        )
        assert_chaos_invariant(baseline, chaotic)

    def test_fault_plan_injects_every_fault_kind(self, scenario, baseline):
        transport = chaos_transport(CHAOS_SEEDS[0])
        run_chaos(scenario, transport=transport)
        assert transport.injected["drop"] > 0
        assert transport.injected["duplicate"] > 0
        assert transport.injected["delay"] > 0

    def test_asymmetric_link_plan(self, scenario, baseline):
        """Faults confined to one direction of one link still converge."""
        plan = FaultPlan(
            seed=5,
            links=(((1, 0), LinkFaults(drop=0.5, duplicate=0.3, max_drops=6)),),
        )
        chaotic = run_chaos(scenario, transport=FaultyTransport(plan))
        assert_chaos_invariant(baseline, chaotic)

    def test_crash_on_reliable_transport(self, scenario, baseline):
        """Checkpoint recovery is independent of delivery faults."""
        chaotic = run_chaos(scenario, crash=(1, 950, 980))
        assert_chaos_invariant(baseline, chaotic, expect_overhead=False)

    def test_dedup_layer_suppressed_duplicates(self, scenario, baseline):
        chaotic = run_chaos(scenario, transport=chaos_transport(CHAOS_SEEDS[0]))
        assert chaotic.duplicates_dropped > 0

    def test_crash_scheduled_mid_session_still_bit_identical(self, scenario, baseline):
        """Regression: scheduling a crash *after* boundaries have been
        processed (no checkpoints exist yet) must capture the current
        state at schedule time — recovery used to silently skip the
        restore and resume with amnesia."""
        with Cluster(scenario.traces, CHAOS_CONFIG) as cluster:
            cluster.add_query(
                "q2",
                lambda site: TemperatureExposureQuery(
                    scenario.catalog, exposure_duration=400
                ),
            )
            cluster.set_sensor_streams(
                {s: scenario.sensor_stream(s) for s in range(len(scenario.traces))}
            )
            cluster.run(900)
            cluster.crash(1, 950)
            cluster.recover(1, 980)
            cluster.run(scenario.horizon)
            alerts = sorted(
                (str(a.key), a.start_time, a.end_time, a.values)
                for node in cluster.nodes
                for a in node.queries["q2"].alerts
            )
            assert alerts == baseline.alerts
            assert cluster.migrations == baseline.migrations
            assert (
                cluster.containment_error(scenario.truth)
                == baseline.containment_error
            )

    def test_recover_with_lost_checkpoint_raises(self, scenario):
        """A recovery that would silently lose state must fail loudly."""
        with Cluster(scenario.traces, CHAOS_CONFIG) as cluster:
            cluster.add_query(
                "q2",
                lambda site: TemperatureExposureQuery(
                    scenario.catalog, exposure_duration=400
                ),
            )
            cluster.set_sensor_streams(
                {s: scenario.sensor_stream(s) for s in range(len(scenario.traces))}
            )
            cluster.run(900)
            cluster.crash(1, 950)
            cluster.recover(1, 980)
            cluster._checkpoints.clear()  # simulate checkpoint storage loss
            with pytest.raises(RuntimeError, match="no checkpoint"):
                cluster.run(scenario.horizon)


class TestCrossTransportEquivalence:
    """Satellite: identical trajectories and per-kind ledger totals
    across in-process, process, and faulty transports (modulo the
    retransmit/ack overhead kinds)."""

    @pytest.mark.parametrize(
        "make_transport",
        [
            pytest.param(lambda: None, id="inprocess"),
            pytest.param(lambda: chaos_transport(31), id="faulty-31"),
            pytest.param(lambda: ProcessTransport(n_workers=2), id="process"),
            pytest.param(
                lambda: FaultyTransport(
                    chaos_plan(31), inner=ProcessTransport(n_workers=2)
                ),
                id="faulty-over-process",
            ),
        ],
    )
    def test_trajectories_and_ledgers_match(self, scenario, baseline, make_transport):
        result = run_chaos(scenario, transport=make_transport())
        assert result.snapshots == baseline.snapshots
        assert result.containment_error == baseline.containment_error
        assert result.alerts == baseline.alerts
        assert result.data_bytes == baseline.data_bytes
        assert result.migrations == baseline.migrations


class TestProcessChaos:
    """Tentpole acceptance: the process-parallel transport is invisible
    to every observable result — under seeded chaos faults, a mid-run
    crash, and a shard rebalance that moves the crash site to a
    *different* worker before its recovery (so the checkpoint restores
    onto a worker that never originally hosted the site).

    Named so the CI chaos matrix (``-k TestChaosInvariant``) does not
    re-run these heavy process runs per seed job.
    """

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_faulty_process_with_crash_and_rebalance(self, scenario, baseline, seed):
        site, _, _ = CRASHES[seed]
        # Two sites on two workers shard site->worker identically, so
        # moving the crash site at the first boundary guarantees its
        # later recovery lands on the other worker.
        # rebalance=False keeps the scheduled move the *only* move, so
        # the shard-map assertions below stay exact (the auto policy is
        # unit-tested separately and may legitimately move sites back).
        inner = ProcessTransport(
            n_workers=2, rebalance=False, scheduled_moves={1: (site, 1 - site)}
        )
        chaotic = run_chaos(
            scenario,
            transport=FaultyTransport(chaos_plan(seed), inner=inner),
            crash=CRASHES[seed],
        )
        assert_chaos_invariant(baseline, chaotic)
        assert inner.ledger.rebalances == 1
        assert inner.shard_map[site] == 1 - site

    def test_worker_gauges_surface_in_ledger(self, scenario):
        transport = ProcessTransport(n_workers=2)
        run_chaos(scenario, transport=transport)
        rows = transport.ledger.worker_rows()
        assert [row[0] for row in rows] == [0, 1]
        assert {worker: sites for worker, sites, _, _ in rows} == {0: 1, 1: 1}
        # Both shards exchanged envelopes with the rest of the federation.
        assert all(bytes_in > 0 and bytes_out > 0 for _, _, bytes_in, bytes_out in rows)


def make_node(scenario, site=1):
    config = ServiceConfig(run_interval=300, recent_history=600, truncation="cr")
    node = SiteNode(scenario.traces[site], config)
    node.bind(InProcessTransport())
    return node


class TestDuplicateIdempotency:
    """Satellite: replaying a delivered envelope never double-applies."""

    def test_inference_state_replay(self, scenario):
        node = make_node(scenario)
        tag = EPC(TagKind.ITEM, 3)
        case = EPC(TagKind.CASE, 1)
        state = CollapsedState(tag, {case: -1.0}, case, None)
        env = Envelope(
            0, node.site, INFERENCE_STATE,
            encode_state_bundle({tag: state.to_bytes()}), time=300, seq=1,
        )
        node.handle(env)
        node.handle(env)  # duplicated delivery
        assert node.duplicates_dropped == 1
        assert len(node.migrations_in) == 1
        assert node.service.prior_weights[tag] == pytest.approx({case: -1.0})

    def test_query_state_replay_does_not_refire_alert(self, scenario):
        node = make_node(scenario)
        node.add_query(
            "q2",
            TemperatureExposureQuery(scenario.catalog, exposure_duration=400),
        )
        tag = EPC(TagKind.ITEM, 3)
        # A migrated run whose span already satisfies the duration: the
        # alert fires once at merge time.
        migrated = PatternState(stage=1, start_time=0, last_time=500, values=[12.0])
        payload = encode_query_bundle(
            {"q2": {tag: encode_pattern_state(migrated)}}
        )
        env = Envelope(0, node.site, QUERY_STATE, payload, time=600, seq=1)
        node.handle(env)
        assert len(node.queries["q2"].alerts) == 1
        node.handle(env)  # duplicated delivery
        assert len(node.queries["q2"].alerts) == 1
        assert node.duplicates_dropped == 1

    def test_migrate_request_replay_serves_once(self, scenario):
        node = make_node(scenario, site=0)
        node.service.run_at(900)
        served = sorted(node.service.containment)[:2]
        env = Envelope(
            1, node.site, MIGRATE_REQUEST, encode_tag_list(served), time=900, seq=1
        )
        node.handle(env)
        sent_once = node._transport.ledger.messages_by_kind[INFERENCE_STATE]
        node.handle(env)
        assert node._transport.ledger.messages_by_kind[INFERENCE_STATE] == sent_once
        assert node.duplicates_dropped == 1

    def test_unsequenced_envelopes_bypass_dedup(self, scenario):
        """seq=0 control traffic keeps the legacy at-most-once path."""
        node = make_node(scenario)
        tag = EPC(TagKind.ITEM, 9)
        state = CollapsedState(tag, {}, EPC(TagKind.CASE, 2), None)
        env = Envelope(
            0, node.site, INFERENCE_STATE,
            encode_state_bundle({tag: state.to_bytes()}), time=300,
        )
        node.handle(env)
        node.handle(env)
        assert node.duplicates_dropped == 0
        assert len(node.migrations_in) == 2


class TestCheckpointRestore:
    """Site checkpoints round-trip every piece of volatile state."""

    def test_snapshot_restore_round_trip(self, scenario):
        config = CHAOS_CONFIG
        with Cluster(scenario.traces, config) as cluster:
            cluster.add_query(
                "q2",
                lambda site: TemperatureExposureQuery(
                    scenario.catalog, exposure_duration=400
                ),
            )
            cluster.set_sensor_streams(
                {s: scenario.sensor_stream(s) for s in range(len(scenario.traces))}
            )
            cluster.run(900)
            node = cluster.nodes[1]
            checkpoint = node.snapshot()
            before = {
                "containment": dict(node.service.containment),
                "valid_from": dict(node.service.valid_from),
                "priors": {t: dict(w) for t, w in node.service.prior_weights.items()},
                "last": {t: dict(w) for t, w in node.service.last_weights.items()},
                "regions": dict(node.service.critical_regions),
                "changes": list(node.service.changes),
                "seen": set(node.seen),
                "migrations": list(node.migrations_in),
                "sensor_pos": node._sensor_pos,
                "link_tx": dict(node._link_tx),
                "link_rx": {s: set(q) for s, q in node._link_rx.items()},
                "pattern": dict(node.queries["q2"].pattern.states),
                "alerts": list(node.queries["q2"].alerts),
                "temps": dict(node.queries["q2"].temperature.table),
            }
            node.reset(
                {"q2": TemperatureExposureQuery(scenario.catalog, exposure_duration=400)}
            )
            assert node.service.containment == {}
            assert node.seen == set()
            node.restore(checkpoint)
            assert node.service.containment == before["containment"]
            assert node.service.valid_from == before["valid_from"]
            assert node.service.prior_weights == before["priors"]
            assert node.service.last_weights == before["last"]
            assert node.service.critical_regions == before["regions"]
            assert node.service.changes == before["changes"]
            assert node.seen == before["seen"]
            assert node.migrations_in == before["migrations"]
            assert node._sensor_pos == before["sensor_pos"]
            assert node._link_tx == before["link_tx"]
            assert node._link_rx == before["link_rx"]
            assert node.queries["q2"].pattern.states == before["pattern"]
            assert node.queries["q2"].alerts == before["alerts"]
            assert node.queries["q2"].temperature.table == before["temps"]
            # A restored node checkpoints back to the identical bytes.
            assert node.snapshot() == checkpoint

    def test_restore_rejects_wrong_site(self, scenario):
        node0 = make_node(scenario, site=0)
        node1 = make_node(scenario, site=1)
        with pytest.raises(ValueError, match="site"):
            node1.restore(node0.snapshot())

    def test_restore_rejects_corrupt_checkpoint(self, scenario):
        node = make_node(scenario)
        data = node.snapshot()
        for cut in (0, 1, len(data) // 2, len(data) - 1):
            with pytest.raises(ValueError):
                node.restore(data[:cut])

    def test_add_query_requires_a_declarative_query(self, scenario):
        """A site runs only compiled plans: an object without a spec
        and ``bind`` is refused at registration, by name."""
        node = make_node(scenario)

        class HandWritten:
            def on_event(self, event):  # pragma: no cover - never called
                pass

        with pytest.raises(TypeError, match="'opaque'.*HandWritten"):
            node.add_query("opaque", HandWritten())
        assert "opaque" not in node.queries
        node.snapshot()  # the refused query left nothing to checkpoint


class TestCrashScheduling:
    def test_unrecovered_crash_raises(self, scenario):
        with Cluster(scenario.traces, CHAOS_CONFIG) as cluster:
            cluster.add_query(
                "q2",
                lambda site: TemperatureExposureQuery(
                    scenario.catalog, exposure_duration=400
                ),
            )
            cluster.crash(1, 950)
            with pytest.raises(RuntimeError, match="still down"):
                cluster.run(scenario.horizon)

    def test_recover_without_crash_raises(self, scenario):
        with Cluster(scenario.traces, CHAOS_CONFIG) as cluster:
            cluster.recover(1, 950)
            with pytest.raises(RuntimeError, match="not down"):
                cluster.run(scenario.horizon)

    def test_schedule_in_past_rejected(self, scenario):
        with Cluster(scenario.traces, CHAOS_CONFIG) as cluster:
            cluster.run(300)
            with pytest.raises(ValueError, match="already processed"):
                cluster.crash(0, 200)

    def test_unknown_site_rejected(self, scenario):
        with Cluster(scenario.traces, CHAOS_CONFIG) as cluster:
            with pytest.raises(ValueError, match="unknown site"):
                cluster.crash(9, 500)


class TestSyncConvergence:
    def test_round_limit_scales_with_plan(self):
        """A plan whose drop cap exceeds the default 64 rounds is still
        valid: the barrier budget grows with it (finding: a fixed cap
        rejected plans that guarantee delivery by construction)."""
        small = FaultyTransport(FaultPlan.chaos(1))
        assert small.sync_round_limit == 64
        big = FaultyTransport(
            FaultPlan(seed=1, default=LinkFaults(drop=0.9, max_drops=100))
        )
        assert big.sync_round_limit == 2 * 102 + 8

    def test_high_drop_cap_plan_still_converges(self, scenario, baseline):
        plan = FaultPlan(seed=9, default=LinkFaults(drop=0.6, max_drops=80))
        chaotic = run_chaos(scenario, transport=FaultyTransport(plan))
        assert_chaos_invariant(baseline, chaotic)

    def test_sync_raises_when_plan_never_delivers(self, scenario):
        """An (effectively) always-dropping link must make the barrier
        fail loudly instead of spinning forever."""
        plan = FaultPlan(
            seed=1, default=LinkFaults(drop=1 - 1e-12, max_drops=10**9)
        )
        with pytest.raises(RuntimeError, match="did not converge"):
            run_chaos(scenario, transport=FaultyTransport(plan))
