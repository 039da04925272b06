"""Historical archive: stream consistency, sealing, codec, recovery.

The headline contract (ISSUE 5 acceptance): for every scenario,
point-in-time location/containment queries against a site's archive
exactly match the inference snapshots the site emitted at those epochs
— including across migration and crash/recovery, where the recovered
site's archive must be bit-identical to the fault-free run's.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.archive import NO_CONTAINER, SiteArchive, decode_archive, encode_archive
from repro.core.events import EventBatch, EventLog, ObjectEvent
from repro.core.service import ServiceConfig
from repro.queries.q2 import TemperatureExposureQuery
from repro.runtime import Cluster
from repro.serving.history import HistoryService
from repro.sim.tags import EPC, TagKind
from repro.workloads.scenarios import cold_chain_scenario, evidence_scenario

EVENTS_CONFIG = ServiceConfig(
    run_interval=300,
    recent_history=600,
    truncation="cr",
    emit_events=True,
    event_period=5,
)


def run_cluster(traces, scenario=None, crash=None, config=EVENTS_CONFIG):
    cluster = Cluster(traces, config)
    if scenario is not None and scenario.fields:
        cluster.add_query(
            "q2",
            lambda site: TemperatureExposureQuery(
                scenario.catalog, exposure_duration=400
            ),
        )
        cluster.set_sensor_streams(
            {site: scenario.sensor_stream(site) for site in range(len(traces))}
        )
    if crash is not None:
        site, crash_time, recover_time = crash
        cluster.crash(site, crash_time)
        cluster.recover(site, recover_time)
    cluster.run(traces[0].horizon)
    return cluster


def assert_stream_consistent(cluster):
    """Archive answers at boundary epochs == the emitted snapshots."""
    checked = 0
    for node in cluster.nodes:
        for record in node.service.runs:
            for tag, container in record.containment.items():
                answer = node.history.point_containment(tag, record.time)
                assert answer.rows, (node.site, tag, record.time)
                assert answer.rows[0][0] == container
                checked += 1
        for event in node.service.events:
            answer = node.history.point_location(event.tag, event.time)
            assert answer.rows and answer.rows[0][0] == event.place
            checked += 1
    assert checked > 0


class TestStreamConsistency:
    def test_evidence_scenario(self):
        scenario = evidence_scenario(seed=3)
        # The Fig. 4 journey is short (horizon 260), so tick faster than
        # the default 300-epoch interval.
        config = ServiceConfig(
            run_interval=50,
            recent_history=100,
            truncation="cr",
            emit_events=True,
            event_period=5,
        )
        with run_cluster([scenario.trace], config=config) as cluster:
            assert_stream_consistent(cluster)

    def test_cold_chain_single_site(self):
        scenario = cold_chain_scenario(seed=11, horizon=900)
        with run_cluster(scenario.traces, scenario) as cluster:
            assert_stream_consistent(cluster)

    def test_cold_chain_across_migration(self):
        scenario = cold_chain_scenario(
            seed=19, n_sites=2, horizon=1200, site_leave_time=600
        )
        with run_cluster(scenario.traces, scenario) as cluster:
            assert_stream_consistent(cluster)
            # A migrated case has history at both sites; the later
            # interval lives at the destination.
            case = EPC(TagKind.CASE, 0)
            src, dst = cluster.nodes
            assert src.history.trajectory(case, 0, 1200).rows
            assert dst.history.trajectory(case, 0, 1200).rows

    def test_crash_recovery_archive_bit_identical(self):
        scenario = cold_chain_scenario(
            seed=23, n_sites=2, horizon=1200, site_leave_time=600
        )
        with run_cluster(scenario.traces, scenario) as baseline:
            with run_cluster(scenario.traces, scenario, crash=(1, 910, 1100)) as crashed:
                for base_node, crash_node in zip(baseline.nodes, crashed.nodes):
                    assert encode_archive(base_node.archive) == encode_archive(
                        crash_node.archive
                    )
                assert_stream_consistent(crashed)


class TestArchiveStore:
    def _stub_archive(self):
        archive = SiteArchive(0, seal_every=4)
        item = archive.intern_tag(EPC(TagKind.ITEM, 1))
        case = archive.intern_tag(EPC(TagKind.CASE, 1))
        return archive, item, case

    def test_interval_merging_and_sealing(self):
        archive, item, _ = self._stub_archive()
        log = archive.location
        log.observe(item, 0, ((5, 1.0),))
        log.observe(item, 10, ((5, 1.0),))  # same place: no new interval
        log.observe(item, 20, ((7, 1.0),))
        assert log.covering(item, 15) == [(0, 0, 5, 1.0)]
        assert log.covering(item, 25) == [(0, 20, 7, 1.0)]
        assert log.in_range(item, 0, 100) == [(0, 20, 5, 1.0), (20, -1, 7, 1.0)]
        assert log.row_count() == 1  # only the sealed [0, 20) row
        log.seal()
        assert len(log.segments) == 1

    def test_auto_seal_threshold(self):
        archive, item, _ = self._stub_archive()
        for i in range(10):
            archive.location.observe(item, i, ((i, 1.0),))
        assert archive.location.segments  # crossed seal_every=4

    def test_compact_merges_adjacent_same_value(self):
        archive, item, _ = self._stub_archive()
        log = archive.containment
        # Force the same value into two touching sealed rows.
        log.pending = [(item, 0, 0, 10, 3, 0.5), (item, 0, 10, 20, 3, 0.5)]
        log.seal()
        log.pending = [(item, 0, 20, 30, 4, 0.5)]
        before = log.in_range(item, 0, 100)
        removed = log.compact()
        assert removed == 1
        assert log.in_range(item, 0, 100) == [(0, 20, 3, 0.5), (20, 30, 4, 0.5)]
        assert [r for r in before if r[2] == 4] == [(20, 30, 4, 0.5)]

    def test_snapshot_reader_is_isolated(self):
        archive, item, case = self._stub_archive()
        archive.containment.observe(item, 0, ((case, 0.9),))
        reader = HistoryService(archive.snapshot_reader())
        live = HistoryService(archive)
        archive.containment.observe(item, 300, ((NO_CONTAINER, 1.0),))
        archive.last_boundary = 300
        assert reader.point_containment(EPC(TagKind.ITEM, 1), 300).rows[0][0] == EPC(
            TagKind.CASE, 1
        )
        assert live.point_containment(EPC(TagKind.ITEM, 1), 300).rows[0][0] is None

    def test_ingest_rejects_time_travel_backwards(self):
        archive = SiteArchive(0)
        archive.last_boundary = 600

        class Stub:
            last_run_time = 300
            events = []
            containment = {}
            last_weights = {}

        with pytest.raises(ValueError, match="older boundary"):
            archive.ingest_service(Stub())

    def test_ingest_tolerates_tag_with_no_candidates(self):
        """A tag can surface with an empty candidate-weight table (zero
        co-located containers in its window); the belief log skips it
        instead of crashing on the empty normalization."""
        archive = SiteArchive(0)
        lonely = EPC(TagKind.ITEM, 1)
        item = EPC(TagKind.ITEM, 2)
        case = EPC(TagKind.CASE, 1)

        class Stub:
            last_run_time = 300
            events = []
            containment = {lonely: None, item: case}
            last_weights = {lonely: {}, item: {case: -0.5}}

            def events_since(self, cursor):
                return [], cursor

        archive.ingest_service(Stub())
        assert archive.last_boundary == 300
        # The tag with real candidates still logged a belief row.
        assert archive.tag_id_of(item) is not None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SiteArchive(0, seal_every=0)
        with pytest.raises(ValueError):
            SiteArchive(0, top_k=0)


class TestArchiveCodec:
    def test_round_trip_preserves_segmentation(self):
        archive = SiteArchive(2, seal_every=3, top_k=2)
        item = archive.intern_tag(EPC(TagKind.ITEM, 7))
        case = archive.intern_tag(EPC(TagKind.CASE, 9))
        for t in range(6):
            archive.location.observe(item, t * 10, ((t, 1.0),))
        archive.containment.observe(item, 0, ((case, 0.75),))
        archive.belief.observe(item, 0, ((case, 0.75), (item, 0.25)))
        archive.events.append(5, item, 3, case)
        archive.ingest_alerts("q2", [])
        archive.alerts.append(
            archive.intern_key("q2"), archive.intern_key("I-000007"), 10, 20, (1.5, 2.5)
        )
        archive.last_boundary = 50
        data = encode_archive(archive)
        restored = decode_archive(data)
        assert encode_archive(restored) == data
        assert restored.site == 2
        assert restored.last_boundary == 50
        assert restored.row_count() == archive.row_count()
        assert len(restored.location.segments) == len(archive.location.segments)
        assert restored.tag_table == archive.tag_table
        assert restored.key_table == archive.key_table
        assert restored.alert_cursors == archive.alert_cursors

    def test_rejects_unknown_version(self):
        archive = SiteArchive(0)
        data = bytearray(encode_archive(archive))
        data[0] = 99
        with pytest.raises(ValueError, match="version"):
            decode_archive(bytes(data))

    def test_rejects_truncation(self):
        archive = SiteArchive(1)
        archive.intern_tag(EPC(TagKind.ITEM, 1))
        archive.events.append(1, 0, 2, NO_CONTAINER)
        data = encode_archive(archive)
        for cut in range(len(data)):
            with pytest.raises(ValueError):
                decode_archive(data[:cut])


# -- columnar ingest vs the row walk it replaced -----------------------------

_POOL = [EPC(TagKind.ITEM, i) for i in range(4)] + [EPC(TagKind.CASE, i) for i in range(2)]


class _EventsOnly:
    """The slice of a service ``ingest_service`` reads, events only."""

    containment: dict = {}
    last_weights: dict = {}

    def __init__(self):
        self.events: list = []
        self.last_run_time = 0

    def events_since(self, cursor):
        # Like the real service's batches, the EPC table is in sorted
        # order — not the first-encounter order interning must follow.
        batch = EventBatch.from_events(self.events[cursor:])
        order = sorted(range(len(batch.epcs)), key=batch.epcs.__getitem__)
        remap = np.full(len(order) + 1, -1)  # trailing slot: container -1
        remap[order] = np.arange(len(order))
        batch = EventBatch(
            batch.time, remap[batch.tag], batch.site, batch.place,
            remap[batch.container], [batch.epcs[i] for i in order],
        )
        return EventLog([batch]), len(self.events)


def ingest_row_by_row(archive, events, boundary):
    """What ``ingest_service`` did per event before it went columnar."""
    for event in events:
        tag_id = archive.intern_tag(event.tag)
        container = (
            NO_CONTAINER if event.container is None else archive.intern_tag(event.container)
        )
        archive.events.append(event.time, tag_id, event.place, container)
        archive.location.observe(tag_id, event.time, ((event.place, 1.0),), value_only=True)
        if event.time > archive.last_event.get(tag_id, -1):
            archive.last_event[tag_id] = event.time
    archive.last_boundary = boundary


@st.composite
def boundary_batches(draw):
    """A few boundaries' worth of time-ordered events."""
    batches, now = [], 0
    for _ in range(draw(st.integers(1, 4))):
        steps = draw(st.lists(st.integers(0, 2), max_size=25))
        batch = []
        for step in steps:
            now += step
            batch.append(
                ObjectEvent(
                    now,
                    draw(st.sampled_from(_POOL)),
                    0,
                    draw(st.integers(0, 2)),
                    draw(st.sampled_from([None, *_POOL[4:]])),
                )
            )
        batches.append(batch)
        now += 1
    return batches


class TestColumnarIngest:
    @pytest.mark.parametrize("seal_every", [1, 7, 512])
    @settings(max_examples=60, deadline=None)
    @given(batches=boundary_batches())
    def test_bytes_and_segment_boundaries_match_the_row_walk(self, seal_every, batches):
        columnar, by_row = SiteArchive(3, seal_every), SiteArchive(3, seal_every)
        service = _EventsOnly()
        for number, batch in enumerate(batches, start=1):
            service.events.extend(batch)
            service.last_run_time = 300 * number
            columnar.ingest_service(service)
            ingest_row_by_row(by_row, batch, 300 * number)
            assert encode_archive(columnar) == encode_archive(by_row)
        for name in ("events", "location"):
            got, want = getattr(columnar, name), getattr(by_row, name)
            assert [len(seg[0]) for seg in got.segments] == [
                len(seg[0]) for seg in want.segments
            ]
            assert got.pending == want.pending
            assert all(
                len(seg[0]) == seal_every for seg in columnar.events.segments
            )
        assert columnar.tag_table == by_row.tag_table
        assert columnar.last_event == by_row.last_event
        assert columnar.location.open == by_row.location.open

    def test_service_events_reach_the_archive_unchanged(self):
        """End to end: what a real service emitted is what a row walk
        over its (materialized) events would have archived."""
        scenario = cold_chain_scenario(seed=7, n_sites=1, horizon=900)
        cluster = run_cluster(scenario.traces)
        node = cluster.nodes[0]
        by_row = SiteArchive(node.site)
        ingest_row_by_row(by_row, list(node.service.events), node.archive.last_boundary)
        assert len(node.service.events) > by_row.seal_every  # sealed at least once

        def named(archive, tag_id):
            return None if tag_id == NO_CONTAINER else archive.tag_of(tag_id)

        def event_rows(archive):
            return [
                (time, named(archive, tag), place, named(archive, container))
                for time, tag, place, container in archive.events.rows()
            ]

        def location_rows(archive):
            log = archive.location
            sealed = list(log._sealed_rows()) + log.pending
            return [(named(archive, row[0]), *row[1:]) for row in sealed]

        # Tag ids differ (the live archive also interns containment
        # tags between batches), so compare by tag.
        assert event_rows(node.archive) == event_rows(by_row)
        assert location_rows(node.archive) == location_rows(by_row)
        for name in ("events", "location"):
            got, want = getattr(node.archive, name), getattr(by_row, name)
            assert [len(seg[0]) for seg in got.segments] == [
                len(seg[0]) for seg in want.segments
            ]
