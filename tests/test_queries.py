"""Tests for Q1, Q2, and the tracking query on ground-truth streams."""

import pytest

from repro.core.events import ObjectEvent, events_from_truth
from repro.queries.q1 import FreezerExposureQuery
from repro.queries.q2 import TemperatureExposureQuery
from repro.queries.tracking import PathDeviationQuery
from repro.sim.tags import EPC, TagKind
from repro.workloads.catalog import ProductCatalog
from repro.workloads.scenarios import cold_chain_scenario


@pytest.fixture(scope="module")
def scenario():
    return cold_chain_scenario(seed=4)


def run_query(query, scenario):
    events = events_from_truth(scenario.truth, scenario.horizon, period=5)
    query.push_batch(events, scenario.sensor_stream(0))
    return query


class TestQ1:
    def test_alerts_match_injected_exposures(self, scenario):
        q1 = run_query(FreezerExposureQuery(scenario.catalog, exposure_duration=300), scenario)
        expected = {tag for tag, _, back in scenario.exposures if back is None}
        assert {a.key for a in q1.alerts} == expected

    def test_short_exposures_do_not_alert(self, scenario):
        q1 = run_query(FreezerExposureQuery(scenario.catalog, exposure_duration=300), scenario)
        short = {tag for tag, _, back in scenario.exposures if back is not None}
        assert not ({a.key for a in q1.alerts} & short)

    def test_alert_carries_temperatures(self, scenario):
        q1 = run_query(FreezerExposureQuery(scenario.catalog, exposure_duration=300), scenario)
        for alert in q1.alerts:
            assert alert.values
            assert all(t > 0 for t in alert.values)  # room temperature readings

    def test_alert_timing(self, scenario):
        q1 = run_query(FreezerExposureQuery(scenario.catalog, exposure_duration=300), scenario)
        starts = {tag: t_out for tag, t_out, back in scenario.exposures if back is None}
        for alert in q1.alerts:
            assert alert.end_time == pytest.approx(starts[alert.key] + 300, abs=20)

    def test_state_export_round_trip(self, scenario):
        q1 = run_query(FreezerExposureQuery(scenario.catalog, exposure_duration=300), scenario)
        tag = next(iter(q1.active_states()))
        data = q1.export_state(tag)
        fresh = FreezerExposureQuery(scenario.catalog, exposure_duration=300)
        fresh.import_state(tag, data)
        assert fresh.pattern.state_of(tag).stage == q1.pattern.state_of(tag).stage


class TestQ2:
    def test_ignores_containment(self, scenario):
        """Q2 alerts on location/temperature only (§5.4)."""
        q2 = run_query(
            TemperatureExposureQuery(scenario.catalog, exposure_duration=400), scenario
        )
        expected = {tag for tag, _, back in scenario.exposures if back is None}
        assert {a.key for a in q2.alerts} == expected

    def test_threshold_respected(self, scenario):
        q2 = run_query(
            TemperatureExposureQuery(
                scenario.catalog, exposure_duration=400, temp_threshold=50.0
            ),
            scenario,
        )
        assert q2.alerts == []  # nothing in the warehouse exceeds 50 °C


class TestTracking:
    def test_on_route_object_never_alerts(self):
        tag = EPC(TagKind.CASE, 0)
        query = PathDeviationQuery({tag: (0, 1, 2)})
        query.push_batch(
            [ObjectEvent(time, tag, site, 0, None)
             for site, time in ((0, 0), (0, 5), (1, 10), (2, 20))]
        )
        assert query.alerts == []
        assert query.path_of(tag) == [0, 1, 2]

    def test_deviation_detected_once(self):
        tag = EPC(TagKind.CASE, 0)
        query = PathDeviationQuery({tag: (0, 1, 2)})
        query.push_batch([
            ObjectEvent(0, tag, 0, 0, None),
            ObjectEvent(5, tag, 3, 0, None),  # off route
            ObjectEvent(8, tag, 3, 0, None),
        ])
        assert len(query.alerts) == 1
        alert = query.alerts[0]
        assert alert.site == 3 and alert.time == 5

    def test_unmonitored_tags_ignored(self):
        query = PathDeviationQuery({})
        query.push_batch([ObjectEvent(0, EPC(TagKind.CASE, 9), 5, 0, None)])
        assert query.alerts == []


class TestEventsFromTruth:
    def test_period_and_sites(self, scenario):
        events = events_from_truth(scenario.truth, scenario.horizon, period=10)
        assert events
        assert all(e.time % 10 in range(10) for e in events)
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_container_attribute_tracks_changes(self, scenario):
        tag, t_out, _ = scenario.exposures[1]
        events = events_from_truth(scenario.truth, scenario.horizon, period=1)
        before = [e for e in events if e.tag == tag and e.time == t_out - 1]
        after = [e for e in events if e.tag == tag and e.time == t_out + 1]
        assert before[0].container != after[0].container
