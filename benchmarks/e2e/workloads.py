"""The four end-to-end workloads: seeded inputs and deployment wiring.

Each workload turns ``--seed`` into *generated inputs* — clean per-site
traces with their ground truth, an optional flaky-edge fault plan, a
query plan, and the alerts the scenario's ground truth says must fire —
and knows how to wire the deployment (cluster, monitors, tiers,
replicas, frontend) over the traces the ingest stage rebuilds. The
program under test only ever sees the generated inputs.

A run is one pass over one workload. Tag counts, read rates and fault
rates are the ones ISSUE 11 lists; what is scaled to the run length is
the *horizon* alone (``Workload.horizon``), chosen so that a pass takes
20-24 s of measured wall on the 2-core reference box.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Any, Sequence

import numpy as np

from repro._util.rng import spawn_rng
from repro.archive.store import SiteArchive
from repro.archive.tiers import DiskTier
from repro.core.online import MemoryBudget, OnlineConfig
from repro.core.service import ServiceConfig
from repro.edge import EdgePlan
from repro.queries.q1 import FreezerExposureQuery
from repro.queries.q2 import TemperatureExposureQuery
from repro.queries.tracking import PathDeviationQuery
from repro.runtime import Cluster
from repro.runtime.faults import FaultPlan
from repro.runtime.process import ProcessTransport
from repro.serving import (
    ArchiveReplica,
    HistoryRequest,
    HistoryService,
    QueryFrontend,
    TenantPolicy,
    replica_site_id,
)
from repro.sim.readers import ObservationSampler
from repro.sim.supplychain import simulate
from repro.sim.tags import EPC, TagKind
from repro.sim.trace import GroundTruth, Trace
from repro.sim.vendor import FeedNoise, VendorFeed
from repro.workloads.monitors import ColocationBreachQuery, DwellTimeQuery
from repro.workloads.scenarios import care_facility_scenario, cold_chain_scenario

#: inference run interval = gateway seal window = one boundary step.
INTERVAL = 300

#: the run length (BENCHMARK.json ``run_seconds``) the horizons below
#: were sized for.
REFERENCE_SECONDS = 24

#: the paper's section 5.1 service configuration, used everywhere.
CONFIG = ServiceConfig(
    run_interval=INTERVAL, recent_history=600, truncation="cr", emit_events=True
)

#: the background tenant's admission policy on ``history-serving``.
BATCH_TENANT = "batch"
BATCH_QUOTA = 16


@dataclass
class QuerySlice:
    """Queries issued once the cluster has stepped to ``after``."""

    after: int
    requests: list[HistoryRequest]
    tenant: str | None = None
    #: submit as one atomic ``execute_many`` batch (background audits).
    batch: bool = False
    #: the batch is sized past its tenant's quota on purpose: being shed
    #: is the planned outcome, being admitted is the failure.
    shed: bool = False


@dataclass
class Inputs:
    """Everything generated from the seed for one workload."""

    traces: list[Trace]
    truth: GroundTruth
    horizon: int
    queries: list[QuerySlice]
    #: (monitor name, key) alerts the ground truth says must fire.
    expected_alerts: set
    #: alerts that may fire without being spurious (a superset of the
    #: expected ones; None = exactly the expected ones).
    allowed_alerts: set | None = None
    edge_plan: EdgePlan | None = None
    #: per-site sensor streams the monitors consume beside object events.
    sensors: dict[int, list] | None = None
    scenario: Any = None


@dataclass
class Deployment:
    """The wired system for one run."""

    cluster: Cluster
    frontend: QueryFrontend
    replicas: list[ArchiveReplica] = field(default_factory=list)
    tiers: list[DiskTier] = field(default_factory=list)
    #: the driver must tell the frontend about appends itself (it was
    #: bound with replica routing, which ``attach_frontend`` cannot do).
    notify_frontend: bool = False


# -- query generators ---------------------------------------------------------


def _interactive(
    rng: np.random.Generator, tags: Sequence[EPC], boundary: int, count: int
) -> list[HistoryRequest]:
    """A zipf(1.3) interactive mix over ``tags`` against history up to
    ``boundary``: 80 % point location/containment, 10 % sliding-window
    trajectory, 10 % whole-history dwell."""
    picks = (rng.zipf(1.3, size=count) - 1) % len(tags)
    rolls = rng.random(count)
    times = rng.integers(0, boundary, size=count)
    out: list[HistoryRequest] = []
    for pick, roll, t in zip(picks.tolist(), rolls.tolist(), times.tolist()):
        tag = tags[pick]
        if roll < 0.4:
            out.append(HistoryRequest(0, "location", tag, t, k=3))
        elif roll < 0.8:
            out.append(HistoryRequest(0, "containment", tag, t, k=3))
        elif roll < 0.9:
            out.append(HistoryRequest(0, "trajectory", tag, max(0, t - 600), t + 1))
        else:
            out.append(HistoryRequest(0, "dwell", tag, 0, boundary))
    return out


def _audit(
    tags: Sequence[EPC], horizon: int, step: int, monitors: Sequence[str]
) -> list[HistoryRequest]:
    """A compliance audit: every tag's history walked once, all unique."""
    out: list[HistoryRequest] = []
    for tag in tags:
        for t in range(step // 2, horizon, step):
            out.append(HistoryRequest(0, "location", tag, t, k=3))
            out.append(HistoryRequest(0, "containment", tag, t, k=3))
        out.append(HistoryRequest(0, "trajectory", tag, 0, horizon))
        out.append(HistoryRequest(0, "provenance", tag, horizon - 1))
        out.append(HistoryRequest(0, "dwell", tag, 0, horizon))
    for name in monitors:
        out.append(HistoryRequest(0, "alerts", None, 0, horizon, name=name))
    return out


def _shuffled(rng: np.random.Generator, tags: Sequence[EPC]) -> list[EPC]:
    """Seeded popularity order: which tags are hot differs per seed."""
    return [tags[i] for i in rng.permutation(len(tags))]


def _sensor_streams(scenario, seed: int) -> dict[int, list]:
    return {
        site: scenario.sensor_stream(site, seed=seed)
        for site in range(len(scenario.traces))
    }


def _boundaries(horizon: int) -> range:
    return range(INTERVAL, horizon + 1, INTERVAL)


def _alert_keys(cluster: Cluster, name: str) -> set:
    """Keys of every alert monitor ``name`` raised, on any site."""
    keys = set()
    for node in cluster.nodes:
        for alert in node.queries[name].alerts:
            key = getattr(alert, "key", None)
            if key is None:  # route-deviation alerts carry a tag
                key = alert.tag
            keys.add((name, key[0] if isinstance(key, tuple) and len(key) == 1 else key))
    return keys


# -- workloads ------------------------------------------------------------------


class Workload:
    name: str
    why: str
    #: epochs a run of REFERENCE_SECONDS replays.
    HORIZON: int
    #: the shortest horizon at which the scenario still does what the
    #: workload is here for (intake over, a migration under way, ...).
    MIN_HORIZON: int
    #: OS workers the deployment uses (0 = single process).
    workers = 0

    def horizon(self, seconds: float) -> int:
        """Epochs to replay in a run of ``seconds``: the horizon is what
        scales with the run length, in whole boundary steps; tag
        density never does."""
        steps = round(self.HORIZON * seconds / REFERENCE_SECONDS / INTERVAL)
        return max(self.MIN_HORIZON, steps * INTERVAL)

    def generate(self, seed: int, seconds: float) -> Inputs:
        raise NotImplementedError

    def wire(self, inputs: Inputs, traces: list[Trace], workdir: str) -> Deployment:
        raise NotImplementedError

    def predicted_alerts(self, inputs: Inputs, cluster: Cluster) -> set:
        raise NotImplementedError


class ColdChainMonitor(Workload):
    name = "coldchain-monitor"
    why = (
        "the paper's hybrid-query setting: containment inference plus q1/q2/"
        "co-location monitors over sensors do most of the work, runtime almost "
        "none (one migration wave); the single-threaded baseline"
    )

    # 128 cases x 12 items = 1 664 tags, as in ISSUE 11. The scenario
    # walks cases in one every 8 epochs, freezer cases first, and a
    # frozen item can only be moved into a room case that has arrived;
    # with 64 freezer cases no exposure could start before epoch ~530
    # and no alert could fire inside a horizon this run length affords.
    # 32 + 96 keeps the tag count and lets exposures start at ~280.
    FREEZER_CASES = 32
    ROOM_CASES = 96
    ITEMS = 12
    HORIZON = 1200
    MIN_HORIZON = 1200
    #: cases start leaving for site 1 (one every 4 epochs) while the
    #: last ones are still walking in: the one migration wave.
    LEAVE = 900
    EXPOSURES = 16
    SHORT = 4
    EXPOSURE_START = 280
    EXPOSURE_SPACING = 8
    Q1_DURATION = 200
    Q2_DURATION = 300
    SLICE = 200
    AUDIT_STEP = 120

    def generate(self, seed: int, seconds: float) -> Inputs:
        horizon = self.horizon(seconds)
        scenario = cold_chain_scenario(
            n_freezer_cases=self.FREEZER_CASES,
            n_room_cases=self.ROOM_CASES,
            items_per_case=self.ITEMS,
            n_exposures=self.EXPOSURES,
            n_short_exposures=self.SHORT,
            exposure_start=self.EXPOSURE_START,
            exposure_spacing=self.EXPOSURE_SPACING,
            horizon=horizon,
            n_sites=2,
            site_leave_time=self.LEAVE,
            read_rate=0.8,
            seed=seed,
        )
        rng = np.random.default_rng([seed, 1])
        tags = _shuffled(
            rng,
            sorted(scenario.catalog.frozen_items) + sorted(scenario.catalog.freezer_cases),
        )
        queries = [
            QuerySlice(boundary, _interactive(rng, tags, boundary, self.SLICE))
            for boundary in _boundaries(horizon)
        ]
        audit = _audit(tags, horizon, self.AUDIT_STEP, ("q1", "q2", "colocation"))
        # Cold pass over the transport, warm pass from the result cache.
        queries.append(QuerySlice(horizon, audit))
        queries.append(QuerySlice(horizon, list(audit)))
        # An exposure is noticed at the first boundary run that sees
        # enough of it, so its alert may trail the true time by up to
        # two boundaries; only exposures with that much room must alert.
        expected, allowed = set(), set()
        for tag, moved_out, moved_back in scenario.exposures:
            if moved_back is not None:
                continue
            for name, duration in (("q1", self.Q1_DURATION), ("q2", self.Q2_DURATION)):
                allowed.add((name, tag))
                if moved_out + duration + 2 * INTERVAL <= horizon:
                    expected.add((name, tag))
        return Inputs(
            scenario.traces, scenario.truth, horizon, queries, expected,
            allowed_alerts=allowed, sensors=_sensor_streams(scenario, seed),
            scenario=scenario,
        )

    def wire(self, inputs: Inputs, traces: list[Trace], workdir: str) -> Deployment:
        catalog = inputs.scenario.catalog
        cluster = Cluster(traces, CONFIG)
        cluster.add_query(
            "q1", lambda site: FreezerExposureQuery(catalog, self.Q1_DURATION)
        )
        cluster.add_query(
            "q2", lambda site: TemperatureExposureQuery(catalog, self.Q2_DURATION)
        )
        cluster.add_query(
            "colocation",
            lambda site: ColocationBreachQuery(
                catalog, conflicts=(("frozen", "dry"),), duration=100
            ),
        )
        cluster.set_sensor_streams(inputs.sensors)
        # The result cache holds the whole audit (~9.6 k distinct
        # queries), or its second pass would not be the warm one.
        frontend = QueryFrontend(cache_capacity=16384)
        cluster.attach_frontend(frontend)
        replicas = [
            ArchiveReplica(site, replica_site_id(site, 0, len(traces)))
            for site in range(len(traces))
        ]
        for replica in replicas:
            cluster.attach_replica(replica)
        return Deployment(cluster, frontend, replicas)

    def predicted_alerts(self, inputs: Inputs, cluster: Cluster) -> set:
        # The co-location monitor runs (its cost is part of the workload)
        # but is not scored: the scenario records no ground truth for it.
        return _alert_keys(cluster, "q1") | _alert_keys(cluster, "q2")


class FlakyEdge(Workload):
    name = "flaky-edge"
    why = (
        "the only dirty feeds: edge retransmit, dedup, reorder and WAL-replay paths "
        "run and there is no containment to infer, so an ingest change that helps "
        "the clean path but hurts recovery shows"
    )

    RESIDENTS = 500
    WANDERERS = 100
    RETURNERS = 25
    #: residents walk in one every 8 epochs.
    INTAKE = RESIDENTS * 8
    HORIZON = 6600
    #: room for the intake and for a hundred exit visits after it.
    MIN_HORIZON = 5100
    LINGER = 220
    SLICE = 1500

    def generate(self, seed: int, seconds: float) -> Inputs:
        horizon = self.horizon(seconds)
        wander_start = self.INTAKE + 100
        scenario = care_facility_scenario(
            n_residents=self.RESIDENTS,
            n_wanderers=self.WANDERERS,
            n_returners=self.RETURNERS,
            wander_start=wander_start,
            # the last visit ends a boundary before the horizon.
            wander_spacing=(horizon - INTERVAL - self.LINGER - wander_start)
            // self.WANDERERS,
            linger=self.LINGER,
            horizon=horizon,
            read_rate=0.95,
            seed=seed,
        )
        traces = scenario.traces
        n_edges = sum(len(VendorFeed.split_trace(trace)) for trace in traces)
        busy = _busiest_edge(traces, horizon // 4)
        # The bench_ingest.py flaky plan: noisy feeds, the busiest
        # reader offline for the middle half, lossy links, one edge
        # crash, one gateway crash + WAL replay.
        plan = EdgePlan(
            seed=seed,
            noise=FeedNoise(duplicate=0.1, junk=0.05, shuffle=0.3),
            offline={busy: (horizon // 4, 3 * horizon // 4)},
            link_faults=FaultPlan.chaos(
                seed, drop=0.2, duplicate=0.15, delay=0.2, max_delay=3
            ),
            edge_restarts={(busy + 1) % n_edges: horizon // 2},
            gateway_restarts=(horizon // 2,),
        )
        rng = np.random.default_rng([seed, 2])
        tags = _shuffled(rng, scenario.truth.cases())
        queries = [
            QuerySlice(boundary, _interactive(rng, tags, boundary, self.SLICE))
            for boundary in _boundaries(horizon)
        ]
        queries.append(QuerySlice(horizon, _audit(tags[:40], horizon, 300, ("dwell",))))
        expected = {("dwell", tag) for tag, _ in scenario.wanderers}
        return Inputs(
            traces, scenario.truth, horizon, queries, expected,
            edge_plan=plan, scenario=scenario,
        )

    def wire(self, inputs: Inputs, traces: list[Trace], workdir: str) -> Deployment:
        cluster = Cluster(traces, CONFIG)
        limit = inputs.scenario.dwell_limit
        cluster.add_query("dwell", lambda site: DwellTimeQuery(max_dwell=limit))
        frontend = QueryFrontend(cache_capacity=8192)
        cluster.attach_frontend(frontend)
        return Deployment(cluster, frontend)

    def predicted_alerts(self, inputs: Inputs, cluster: Cluster) -> set:
        violations = [
            v for node in cluster.nodes for v in node.queries["dwell"].violations()
        ]
        return {("dwell", v[0]) for v in inputs.scenario.exit_violations(violations)}


def _busiest_edge(traces: Sequence[Trace], start: int) -> int:
    """The edge (run_ingest enumeration order) with the most readings at
    or after ``start`` — the outage target that actually hurts."""
    best, best_count, edge_id = 0, -1, 0
    for trace in traces:
        for reader in VendorFeed.split_trace(trace):
            count = int(np.sum((trace.readers == reader) & (trace.times >= start)))
            if count > best_count:
                best, best_count = edge_id, count
            edge_id += 1
    return best


class ChainMigration(Workload):
    name = "chain-migration"
    why = (
        "pallets cross a four-site chain, so state export/absorb, centroid_compress, "
        "query hand-off and worker pipes dominate and the Table 5 byte metrics have "
        "something to count; sites run on OS workers"
    )

    SITES = 4
    CASES = 2
    ITEMS = 40
    INJECTION = 150
    HORIZON = 1800
    #: a pallet stays ~660 epochs per site: the third site is busy.
    MIN_HORIZON = 1500
    MAX_DWELL = 200
    SCHEDULE_SEED = 11
    AUDIT_ITEMS = 40
    AUDIT_STEP = 60
    workers = min(2, os.cpu_count() or 1)

    def generate(self, seed: int, seconds: float) -> Inputs:
        horizon = self.horizon(seconds)
        # Who moves where and when is fixed; the seed draws the readings.
        # The cost of a query hand-off (difflib over near-identical
        # automaton states) swings several-fold with which shelves two
        # cases of a pallet happen to share, so a movement schedule that
        # changed with the seed would make every timing here a lottery
        # over seeds instead of a measurement of the code.
        result = simulate(
            n_warehouses=self.SITES,
            cases_per_pallet=self.CASES,
            items_per_case=self.ITEMS,
            injection_period=self.INJECTION,
            horizon=horizon,
            seed=self.SCHEDULE_SEED,
        )
        sampler = ObservationSampler(seed=spawn_rng(seed, "chain-sampler"))
        result.traces = sampler.sample_all_sites(
            result.truth, result.layouts, result.models, horizon
        )
        truth = result.truth
        rng = np.random.default_rng([seed, 3])
        tags = _shuffled(
            rng, truth.cases() + truth.pallets() + truth.items()[: self.AUDIT_ITEMS]
        )
        # Cross-site trajectories and provenance: each query fans out to
        # all four sites and the slowest answer sets its time.
        queries = [
            QuerySlice(
                horizon, _audit(tags, horizon, self.AUDIT_STEP, ("dwell", "tracking"))
            )
        ]
        # A stay must alert once it has clearly outlasted MAX_DWELL inside
        # the horizon; one that outlasts it by a few epochs only (shelf
        # readers scan every 10) may or may not.
        expected, allowed = set(), set()
        for case in truth.cases():
            for start, end, location in truth.locations[case].segments(0, horizon):
                if location.site < 0:
                    continue
                key = ("dwell", (case, location.site, location.place))
                if end - start > self.MAX_DWELL - 10:
                    allowed.add(key)
                if end - start > self.MAX_DWELL + 10:
                    expected.add(key)
        return Inputs(
            result.traces, truth, horizon, queries, expected,
            allowed_alerts=allowed, scenario=result,
        )

    def wire(self, inputs: Inputs, traces: list[Trace], workdir: str) -> Deployment:
        route = tuple(range(self.SITES))
        routes = {tag: route for tag in inputs.truth.pallets() + inputs.truth.cases()}
        # Blobs over 64 KiB cross the worker pipes in shared memory, and
        # the first one starts multiprocessing's resource tracker in the
        # process that sends it. Started here instead, before the fork,
        # the workers inherit this one tracker rather than each starting
        # an orphan that outlives the run; run_once stops it.
        resource_tracker.ensure_running()
        transport = ProcessTransport(n_workers=self.workers)
        cluster = Cluster(traces, CONFIG, transport=transport)
        cluster.add_query(
            "dwell",
            lambda site: DwellTimeQuery(max_dwell=self.MAX_DWELL, kind=TagKind.CASE),
        )
        cluster.add_query("tracking", lambda site: PathDeviationQuery(routes))
        frontend = QueryFrontend(cache_capacity=8192)
        cluster.attach_frontend(frontend)
        # Fork the workers now (set-up), not inside the first step.
        transport.site_cast(0, "archive_boundary")
        transport.flush()
        return Deployment(cluster, frontend)

    def predicted_alerts(self, inputs: Inputs, cluster: Cluster) -> set:
        # No pallet leaves its route, so any tracking alert is spurious.
        return _alert_keys(cluster, "dwell") | _alert_keys(cluster, "tracking")


class HistoryServing(Workload):
    name = "history-serving"
    why = (
        "reads beside writes: zipf point, window and whole-history queries interleave "
        "with appends over tiered archives and replicas, so serving and archive reads "
        "dominate; only here does the gate prune"
    )

    CASES = 8  # freezer and room cases each
    ITEMS = 12
    HORIZON = 4500
    #: the memory budget's own horizon is 2 400 epochs.
    MIN_HORIZON = 3000
    SLICE = 5000
    SEAL_EVERY = 512

    def generate(self, seed: int, seconds: float) -> Inputs:
        horizon = self.horizon(seconds)
        scenario = cold_chain_scenario(
            n_freezer_cases=self.CASES,
            n_room_cases=self.CASES,
            items_per_case=self.ITEMS,
            n_exposures=3,
            n_short_exposures=1,
            horizon=horizon,
            n_sites=2,
            site_leave_time=horizon // 3,
            read_rate=0.8,
            seed=seed,
        )
        rng = np.random.default_rng([seed, 4])
        tags = _shuffled(
            rng,
            sorted(scenario.catalog.frozen_items) + sorted(scenario.catalog.freezer_cases),
        )
        audit = _audit(tags, horizon, 300, ("q2",))
        queries: list[QuerySlice] = []
        for index, boundary in enumerate(_boundaries(horizon)):
            queries.append(
                QuerySlice(boundary, _interactive(rng, tags, boundary, self.SLICE))
            )
            # A background audit burst per boundary; every 4th one is
            # sized past the tenant's quota and must be shed.
            shed = index % 4 == 3
            size = BATCH_QUOTA + 8 if shed else BATCH_QUOTA - 4
            offset = (index * 37) % (len(audit) - size)
            queries.append(
                QuerySlice(
                    boundary, audit[offset : offset + size],
                    tenant=BATCH_TENANT, batch=True, shed=shed,
                )
            )
        expected = {
            ("q2", tag)
            for tag, moved_out, moved_back in scenario.exposures
            if moved_back is None
        }
        return Inputs(
            scenario.traces, scenario.truth, horizon, queries, expected,
            sensors=_sensor_streams(scenario, seed), scenario=scenario,
        )

    def wire(self, inputs: Inputs, traces: list[Trace], workdir: str) -> Deployment:
        catalog = inputs.scenario.catalog
        config = ServiceConfig(
            run_interval=INTERVAL,
            recent_history=600,
            truncation="cr",
            emit_events=True,
            online=OnlineConfig(),
            budget=MemoryBudget(horizon=2400),
        )
        cluster = Cluster(traces, config)
        cluster.add_query(
            "q2", lambda site: TemperatureExposureQuery(catalog, 400)
        )
        cluster.set_sensor_streams(inputs.sensors)
        sites = [node.site for node in cluster.nodes]
        tiers: list[DiskTier] = []
        replicas: list[ArchiveReplica] = []
        replica_map: dict[int, list[int]] = {}
        for node in cluster.nodes:
            # A small seal threshold and a small resident set, so that
            # old history really lives on the disk tier.
            tier = DiskTier(os.path.join(workdir, f"tier-{node.site}"), max_resident=4)
            node.archive = SiteArchive(node.site, seal_every=self.SEAL_EVERY)
            node.archive.attach_tier(tier, hot_segments=2)
            node.history = HistoryService(node.archive)
            replica_tier = DiskTier(
                os.path.join(workdir, f"replica-tier-{node.site}"), max_resident=4
            )
            replica = ArchiveReplica(
                node.site, replica_site_id(node.site, 0, len(sites)), tier=replica_tier
            )
            cluster.attach_replica(replica)
            tiers += [tier, replica_tier]
            replicas.append(replica)
            replica_map[node.site] = [replica.site_id]
        frontend = QueryFrontend(cache_capacity=8192)
        frontend.bind(
            cluster.transport, sites, replicas=replica_map, read_preference="replica"
        )
        frontend.set_tenant_policy(
            BATCH_TENANT, TenantPolicy(quota=BATCH_QUOTA, priority=-1)
        )
        return Deployment(cluster, frontend, replicas, tiers, notify_frontend=True)

    def predicted_alerts(self, inputs: Inputs, cluster: Cluster) -> set:
        return _alert_keys(cluster, "q2")


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (ColdChainMonitor(), FlakyEdge(), ChainMigration(), HistoryServing())
}
