"""Query-serving frontend: scatter-gather, caching, admission, retry.

Runs a two-site cold chain once (module fixture) and serves historical
queries against it over several transports, checking that federated
answers agree with direct per-site :class:`HistoryService` reads, that
the epoch-tagged cache hits and invalidates, and that the at-least-once
retry loop survives a transport that drops serving traffic.
"""

import threading

import pytest

from repro.archive import SiteArchive
from repro.core.service import ServiceConfig
from repro.queries.q2 import TemperatureExposureQuery
from repro.runtime import Cluster, InProcessTransport, ProcessTransport
from repro.runtime.envelope import HISTORY_REQUEST, HISTORY_RESPONSE, Envelope
from repro.serving import (
    ArchivePublisher,
    ArchiveReplica,
    Backpressure,
    HistoryRequest,
    QueryFrontend,
    ServingSession,
    replica_site_id,
)
from repro.serving.history import HistoryService
from repro.sim.tags import EPC, TagKind
from repro.workloads.scenarios import cold_chain_scenario

CONFIG = ServiceConfig(
    run_interval=300,
    recent_history=600,
    truncation="cr",
    emit_events=True,
    event_period=5,
)


def make_scenario():
    return cold_chain_scenario(
        seed=29,
        n_sites=2,
        n_freezer_cases=4,
        n_room_cases=2,
        items_per_case=4,
        n_exposures=2,
        horizon=1200,
        site_leave_time=600,
    )


def run_served(scenario, transport=None, frontend=None):
    cluster = Cluster(scenario.traces, CONFIG, transport=transport)
    cluster.add_query(
        "q2",
        lambda site: TemperatureExposureQuery(scenario.catalog, exposure_duration=400),
    )
    cluster.set_sensor_streams(
        {site: scenario.sensor_stream(site) for site in range(len(scenario.traces))}
    )
    frontend = frontend if frontend is not None else QueryFrontend()
    cluster.attach_frontend(frontend)
    cluster.run(scenario.horizon)
    return cluster, frontend


@pytest.fixture(scope="module")
def scenario():
    return make_scenario()


@pytest.fixture(scope="module")
def served(scenario):
    cluster, frontend = run_served(scenario)
    yield cluster, frontend
    cluster.close()


def probe_tags(scenario):
    return sorted(scenario.catalog.frozen_items)[:4] + [EPC(TagKind.CASE, 0)]


class TestScatterGather:
    def test_point_answers_pick_the_freshest_site(self, scenario, served):
        cluster, frontend = served
        session = frontend.session("audit")
        for tag in probe_tags(scenario):
            for time in (300, 600, 900, 1199):
                result = session.containment(tag, time)
                answers = {
                    node.site: node.history.point_containment(tag, time)
                    for node in cluster.nodes
                }
                with_rows = {s: a for s, a in answers.items() if a.rows}
                if not with_rows:
                    assert result.rows == ()
                    continue
                freshest = max(with_rows, key=lambda s: (with_rows[s].last_update, -s))
                assert result.site == freshest
                assert result.rows == with_rows[freshest].rows

    def test_migrated_tag_answers_from_destination(self, scenario, served):
        _, frontend = served
        session = frontend.session()
        case = EPC(TagKind.CASE, 0)
        item = probe_tags(scenario)[0]
        assert session.location(case, 1199).site == 1
        assert session.location(case, 300).site == 0
        assert session.containment(item, 1199).site == 1

    def test_range_answers_pool_every_site(self, scenario, served):
        cluster, frontend = served
        session = frontend.session()
        case = EPC(TagKind.CASE, 0)
        result = session.trajectory(case, 0, 1200)
        expected = sorted(
            (
                (node.site,) + row
                for node in cluster.nodes
                for row in node.history.trajectory(case, 0, 1200).rows
            ),
            key=lambda row: (row[1], row[0], row[2], row[3]),
        )
        assert list(result.rows) == expected
        sites = {row[0] for row in result.rows}
        assert sites == {0, 1}

    def test_dwell_and_provenance_and_alerts(self, scenario, served):
        _, frontend = served
        session = frontend.session()
        item = probe_tags(scenario)[0]
        dwell = session.dwell(item, 0, 1200)
        assert all(epochs > 0 for _, _, epochs in dwell.rows)
        provenance = session.provenance(item, 900)
        assert provenance.rows  # the item sits inside some case
        alerts = session.alerts("q2")
        assert all(row[1] == "q2" for row in alerts.rows)

    def test_unknown_tag_is_empty_not_an_error(self, served):
        _, frontend = served
        session = frontend.session()
        ghost = EPC(TagKind.ITEM, 999999)
        assert session.containment(ghost, 600).rows == ()
        assert session.trajectory(ghost, 0, 1200).rows == ()


class TestCache:
    def test_repeat_query_hits_and_append_invalidates(self, scenario, served):
        cluster, _ = served
        # A dedicated frontend: the synthetic note_append below announces
        # a boundary that never materializes, which (correctly) keeps
        # every later fill born-stale — that must not leak into the
        # shared fixture's frontend.
        frontend = QueryFrontend(site_id=-5)
        frontend.bind(cluster.transport, [node.site for node in cluster.nodes])
        for node in cluster.nodes:
            frontend.note_append(node.site, node.archive.last_boundary)
        session = frontend.session()
        tag = probe_tags(scenario)[1]
        before = frontend.stats.cache_hits
        first = session.containment(tag, 750)
        again = session.containment(tag, 750)
        assert again == first
        assert frontend.stats.cache_hits == before + 1
        remote_before = frontend.stats.remote_requests
        # A new append bumps the epoch vector: the entry is stale.
        frontend.note_append(0, cluster.nodes[0].archive.last_boundary + 300)
        refreshed = session.containment(tag, 750)
        assert refreshed == first  # nothing actually changed on disk
        assert frontend.stats.remote_requests > remote_before

    def test_cache_capacity_is_bounded(self, scenario, served):
        _, frontend = served
        assert len(frontend._cache) <= frontend.cache_capacity


class TestProcessTransportEquivalence:
    def test_answers_match_in_process(self, scenario, served):
        _, in_process_frontend = served
        cluster, frontend = run_served(
            scenario, transport=ProcessTransport(n_workers=2)
        )
        try:
            baseline_session = in_process_frontend.session()
            session = frontend.session()
            for tag in probe_tags(scenario):
                for time in (300, 900, 1199):
                    assert session.containment(tag, time) == (
                        baseline_session.containment(tag, time)
                    )
                assert session.trajectory(tag, 0, 1200) == (
                    baseline_session.trajectory(tag, 0, 1200)
                )
            assert session.alerts() == baseline_session.alerts()
        finally:
            cluster.close()


class FlakyServingTransport(InProcessTransport):
    """Reliable for cluster traffic, drops the first serving requests."""

    def __init__(self, drop_first: int) -> None:
        super().__init__()
        self.drop_first = drop_first
        self.dropped = 0

    def send(self, env: Envelope) -> None:
        if env.kind == HISTORY_REQUEST and self.dropped < self.drop_first:
            self.dropped += 1
            self.ledger.send(env.src, env.dst, env.kind, env.payload)
            return  # accounted, never delivered
        super().send(env)


class TestAtLeastOnce:
    def test_frontend_retries_until_answered(self, scenario):
        transport = FlakyServingTransport(drop_first=3)
        cluster, frontend = run_served(scenario, transport=transport)
        try:
            session = frontend.session()
            tag = probe_tags(scenario)[0]
            result = session.containment(tag, 900)
            assert result.rows  # answered despite the drops
            assert transport.dropped == 3
            assert frontend.stats.retransmits >= 3
        finally:
            cluster.close()

    def test_dead_site_backoff_caps_retransmit_rate(self, scenario):
        """Regression: a dead site used to draw one retransmit per
        gather round — a hot loop for the whole MAX_ROUNDS budget. The
        capped exponential backoff makes that O(log rounds), surfaced
        via the ledger's frontend_retransmits gauge."""

        class DeadSite(InProcessTransport):
            def send(self, env: Envelope) -> None:
                if env.kind == HISTORY_REQUEST and env.dst == 1:
                    self.ledger.send(env.src, env.dst, env.kind, env.payload)
                    return  # site 1 never answers
                super().send(env)

        transport = DeadSite()
        cluster, frontend = run_served(scenario, transport=transport)
        try:
            frontend.MAX_ROUNDS = 40
            with pytest.raises(RuntimeError, match="missing responses"):
                frontend.session().containment(probe_tags(scenario)[0], 600)
            # Retransmits at rounds 0, 1, 3, 7, 15, 31 — six, not forty.
            assert frontend.stats.retransmits == 6
            assert transport.ledger.frontend_retransmits == 6
        finally:
            cluster.close()

    def test_gather_gives_up_after_round_limit(self, scenario):
        class BlackHole(InProcessTransport):
            def send(self, env: Envelope) -> None:
                if env.kind == HISTORY_REQUEST:
                    self.ledger.send(env.src, env.dst, env.kind, env.payload)
                    return
                super().send(env)

        cluster, frontend = run_served(scenario, transport=BlackHole())
        try:
            frontend.MAX_ROUNDS = 3
            with pytest.raises(RuntimeError, match="missing responses"):
                frontend.session().containment(probe_tags(scenario)[0], 600)
        finally:
            cluster.close()


class TestAdmissionControl:
    def test_submit_beyond_limit_raises_backpressure(self, scenario, served):
        cluster, frontend = served
        small = QueryFrontend(max_in_flight=2, site_id=-4)
        small.bind(cluster.transport, [node.site for node in cluster.nodes])
        session = small.session("burst")
        tag = probe_tags(scenario)[0]
        session.submit(HistoryRequest(0, "containment", tag, 300))
        session.submit(HistoryRequest(0, "containment", tag, 600))
        queries_before = small.stats.queries
        with pytest.raises(Backpressure):
            session.submit(HistoryRequest(0, "containment", tag, 900))
        assert small.stats.rejected == 1
        assert session.stats.rejected == 1
        # A rejected submission still counts as a query at BOTH levels,
        # so frontend- and session-level rejection rates agree.
        assert small.stats.queries == queries_before + 1
        assert session.stats.queries == 1
        results = session.gather()
        assert len(results) == 2 and all(r.rows for r in results)
        assert session.stats.queries == 3
        assert small.stats.queries == queries_before + 3

    def test_session_stats_track_queries(self, scenario, served):
        _, frontend = served
        session = frontend.session("tenant-a")
        assert isinstance(session, ServingSession)
        tag = probe_tags(scenario)[2]
        session.containment(tag, 600)
        session.containment(tag, 600)
        assert session.stats.queries == 2
        assert session.stats.cache_hits >= 1


class TestFrontendGuards:
    def test_unbound_frontend_refuses_queries(self):
        frontend = QueryFrontend()
        with pytest.raises(RuntimeError, match="not bound"):
            frontend.session().containment(EPC(TagKind.ITEM, 1), 0)

    def test_foreign_envelope_kinds_are_dropped_not_raised(self, scenario, served):
        """A misrouted envelope must not kill an unrelated gather."""
        _, frontend = served
        before = frontend.stats.dropped
        frontend.handle(Envelope(0, -3, "inference-state", b"", 0))
        frontend.handle(Envelope(0, -3, HISTORY_REQUEST, b"", 0))
        frontend.handle(Envelope(0, -3, HISTORY_RESPONSE, b"\xff\xff\xff\xff", 0))
        assert frontend.stats.dropped == before + 3
        # The frontend still serves queries afterwards.
        result = frontend.session().containment(probe_tags(scenario)[0], 900)
        assert result.rows

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            QueryFrontend(max_in_flight=0)


def boundary_archive():
    """An archive whose interesting rows sit exactly on the boundary.

    The last boundary is 600; a location interval *opens* there, one
    alert *starts* there, and another alert *ends* just before a probe
    point — the cases where the three range queries used to disagree.
    """
    archive = SiteArchive(0, seal_every=4)
    tag = EPC(TagKind.ITEM, 1)
    tid = archive.intern_tag(tag)
    archive.location.observe(tid, 0, ((7, 1.0),))
    archive.location.observe(tid, 600, ((8, 1.0),))  # seals [0,600)@7, opens @8
    name_id = archive.intern_key("q")
    archive.alerts.append(name_id, archive.intern_key("at-boundary"), 600, 605, (1.0,))
    archive.alerts.append(name_id, archive.intern_key("early"), 100, 200, (2.0,))
    archive.last_boundary = 600
    return archive, tag


class TestRangeBoundarySemantics:
    """Regression pins for the unified half-open ``[lo, hi)`` contract.

    ``hi == -1`` means ``last_boundary + 1`` for trajectory, dwell, AND
    alerts — dwell used to clip one epoch short (an interval opening at
    the last boundary dwelt zero epochs) and alerts used to filter
    inclusively (a row starting exactly at ``hi`` leaked in).
    """

    def test_open_range_equals_explicit_boundary_plus_one(self):
        archive, tag = boundary_archive()
        service = HistoryService(archive)
        hi = archive.last_boundary + 1
        assert service.trajectory(tag, 0, -1) == service.trajectory(tag, 0, hi)
        assert service.dwell(tag, 0, -1) == service.dwell(tag, 0, hi)
        assert service.alerts("q", 0, -1) == service.alerts("q", 0, hi)

    def test_interval_opening_at_last_boundary_dwells_one_epoch(self):
        archive, tag = boundary_archive()
        service = HistoryService(archive)
        dwell = dict(service.dwell(tag, 0, -1).rows)
        assert dwell == {7: 600, 8: 1}  # place 8 no longer vanishes
        trajectory = service.trajectory(tag, 0, -1).rows
        assert (600, -1, 8) in trajectory

    def test_alert_starting_at_hi_is_excluded(self):
        archive, tag = boundary_archive()
        service = HistoryService(archive)
        keys = lambda answer: [row[1] for row in answer.rows]
        # Half-open upper bound: start == hi is out, start == hi-1 is in.
        assert keys(service.alerts("q", 0, 600)) == ["early"]
        assert keys(service.alerts("q", 0, 601)) == ["at-boundary", "early"]
        # Overlap lower bound: an alert is in while it still touches lo.
        assert keys(service.alerts("q", 605, -1)) == ["at-boundary"]
        assert keys(service.alerts("q", 606, -1)) == []

    def test_dwell_clips_open_interval_to_explicit_hi(self):
        archive, tag = boundary_archive()
        service = HistoryService(archive)
        assert dict(service.dwell(tag, 590, 600).rows) == {7: 10}
        assert dict(service.dwell(tag, 590, 601).rows) == {7: 10, 8: 1}


def synthetic_federation(transport=None):
    """Two tiny synthetic archives behind publishers — fast fixtures for
    cache-behaviour tests that need precise control over boundaries."""
    from tests.test_replication import build_archive

    transport = transport if transport is not None else InProcessTransport()
    archives = [build_archive(site=s) for s in range(2)]
    for archive in archives:
        ArchivePublisher(archive).bind(transport)
    return transport, archives


class AppendMidGather(InProcessTransport):
    """Delivers an epoch bump to the frontend while a gather is in flight."""

    def __init__(self):
        super().__init__()
        self.bump = None  # (frontend, site, boundary)

    def send(self, env):
        if self.bump is not None and env.kind == HISTORY_REQUEST:
            frontend, site, boundary = self.bump
            self.bump = None
            frontend.note_append(site, boundary)
        super().send(env)


class TestCacheStaleness:
    def test_entry_born_stale_is_never_served(self):
        transport, archives = synthetic_federation(AppendMidGather())
        frontend = QueryFrontend(site_id=-9)
        frontend.bind(transport, [0, 1])
        for archive in archives:
            frontend.note_append(archive.site, archive.last_boundary)
        tag = EPC(TagKind.ITEM, 0)
        session = frontend.session()
        # The append lands between admission and the responses: the
        # filled entry is tagged with the pre-append vector, so it is
        # stale the moment it is born.
        transport.bump = (frontend, 0, archives[0].last_boundary + 300)
        session.containment(tag, 150)
        remote_before = frontend.stats.remote_requests
        hits_before = frontend.stats.cache_hits
        session.containment(tag, 150)  # must refetch, not hit
        assert frontend.stats.remote_requests > remote_before
        assert frontend.stats.cache_hits == hits_before

    def test_lagging_replica_cannot_mask_new_rows(self):
        from tests.test_replication import grow_archive

        transport, archives = synthetic_federation()
        replica = ArchiveReplica(0, replica_site_id(0, 0, 2))
        replica.bind(transport)
        replica.catch_up()
        frontend = QueryFrontend(site_id=-9)
        frontend.bind(transport, [0, 1], replicas={0: [replica.site_id]},
                      read_preference="replica")
        # The primary moves on; the replica does NOT catch up. The
        # frontend hears about the new boundary.
        grow_archive(archives[0], 4, 2)
        for archive in archives:
            frontend.note_append(archive.site, archive.last_boundary)
        tag = EPC(TagKind.ITEM, 0)
        session = frontend.session()
        session.containment(tag, 150)  # served by the lagging replica
        remote_before = frontend.stats.remote_requests
        session.containment(tag, 150)  # entry was tagged with the lag
        assert frontend.stats.remote_requests > remote_before
        assert frontend.stats.cache_hits == 0
        # Once the replica catches up, the entry finally sticks.
        replica.catch_up()
        session.containment(tag, 150)
        assert session.containment(tag, 150).rows
        assert frontend.stats.cache_hits >= 1

    def test_replica_backed_hits_equal_primary_answers(self):
        transport, archives = synthetic_federation()
        replica = ArchiveReplica(0, replica_site_id(0, 0, 2))
        replica.bind(transport)
        replica.catch_up()
        replicated = QueryFrontend(site_id=-9)
        replicated.bind(transport, [0, 1], replicas={0: [replica.site_id]},
                        read_preference="replica")
        primary_only = QueryFrontend(site_id=-10)
        primary_only.bind(transport, [0, 1])
        for frontend in (replicated, primary_only):
            for archive in archives:
                frontend.note_append(archive.site, archive.last_boundary)
        tag = EPC(TagKind.ITEM, 2)
        request = HistoryRequest(0, "containment", tag, 250)
        cold = replicated.execute(request)
        warm = replicated.execute(request)
        assert cold == warm == primary_only.execute(request)
        assert replicated.stats.cache_hits == 1
        assert replica.stats.answered > 0


class TestConcurrentSessions:
    def test_lru_stays_bounded_under_concurrent_sessions(self):
        transport, _ = synthetic_federation()
        frontend = QueryFrontend(max_in_flight=64, cache_capacity=8, site_id=-9)
        frontend.bind(transport, [0, 1])
        errors = []

        def client(worker: int) -> None:
            session = frontend.session(f"client-{worker}")
            try:
                for i in range(40):
                    tag = EPC(TagKind.ITEM, i % 5)
                    session.containment(tag, 7 * i + worker)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(frontend._cache) <= frontend.cache_capacity
        assert frontend.stats.queries == 160
        # Eviction means older keys are gone: re-running an early query
        # misses the cache again.
        remote_before = frontend.stats.remote_requests
        frontend.session().containment(EPC(TagKind.ITEM, 0), 0)
        assert frontend.stats.remote_requests > remote_before
