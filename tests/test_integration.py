"""End-to-end integration: simulate → infer → query → score."""

import os
import runpy

import pytest

from repro.core.events import ObjectEvent, events_from_truth
from repro.core.service import ServiceConfig, StreamingInference
from repro.metrics.accuracy import service_containment_error, service_location_error
from repro.metrics.fmeasure import match_alerts
from repro.queries.q1 import FreezerExposureQuery
from repro.sim.sensors import SensorReading
from repro.streams.engine import StreamScheduler
from repro.workloads.scenarios import cold_chain_scenario


@pytest.fixture(scope="module")
def pipeline():
    scenario = cold_chain_scenario(seed=4, read_rate=0.9)
    service = StreamingInference(
        scenario.trace,
        ServiceConfig(
            run_interval=300,
            recent_history=600,
            truncation="cr",
            emit_events=True,
            event_period=5,
        ),
    )
    service.run_until(scenario.horizon)
    return scenario, service


class TestInferenceQuality(object):
    def test_containment_error_low(self, pipeline):
        scenario, service = pipeline
        err = service_containment_error(scenario.truth, service)
        assert err <= 0.25

    def test_location_error_low(self, pipeline):
        scenario, service = pipeline
        err = service_location_error(scenario.truth, service)
        assert err <= 0.10


class TestEndToEndQuery(object):
    def run_q1(self, events, scenario):
        query = FreezerExposureQuery(scenario.catalog, exposure_duration=300)
        scheduler = StreamScheduler()
        scheduler.route(ObjectEvent, query.on_event)
        scheduler.route(SensorReading, query.on_sensor)
        scheduler.run(events, scenario.sensor_stream(0))
        return query

    def test_inferred_alerts_score_against_truth(self, pipeline):
        scenario, service = pipeline
        truth_q1 = self.run_q1(
            events_from_truth(scenario.truth, scenario.horizon, period=5), scenario
        )
        inferred_q1 = self.run_q1(sorted(service.events, key=lambda e: e.time), scenario)
        # Alerts can lag ground truth by up to one inference interval
        # (300 epochs): events materialize at run boundaries.
        fm = match_alerts(
            inferred_q1.alert_pairs(), truth_q1.alert_pairs(), tolerance=310
        )
        assert truth_q1.alerts  # the scenario does produce exposures
        assert fm.f1 >= 0.6  # inferred stream reproduces most alerts

    def test_event_stream_nonempty_and_ordered(self, pipeline):
        _, service = pipeline
        times = [e.time for e in service.events]
        assert times
        assert times == sorted(times)


class TestExamples:
    """The examples that read ``service.events`` as a list (length,
    ``sorted``, iteration) keep running on the columnar event log."""

    EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")

    @pytest.mark.parametrize(
        "script, expected",
        [
            ("cold_chain_monitoring.py", "precision="),
            ("hospital_tracking.py", "deviation alerts"),
        ],
    )
    def test_example_runs(self, script, expected, capsys):
        runpy.run_path(os.path.join(self.EXAMPLES, script), run_name="__main__")
        assert expected in capsys.readouterr().out
