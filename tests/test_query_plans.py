"""Equivalence suite: compiled plans vs their oracles.

The declarative refactor's headline guarantee: compiling Q1/Q2/tracking
from specs changes *nothing observable*. Alerts, per-object migrated
state bytes, and checkpoint payloads are bit-identical to the original
hand-written implementations (``tests/oracles/queries.py``) over
ground-truth and inferred streams, and a federated run — clean and
under a chaos-seed fault plan — reproduces the outputs frozen in
``tests/data/query_federation_golden.json``. The columnar executor
(``QueryEngine.push_batch``) is held to the tuple-at-a-time operator
DAG (``tests/oracles/dag.py``) on generated streams cut into arbitrary
batches, and its ``SEQ(A+)`` blocks to a literal matcher
(``tests/oracles/sase.py``) at the pattern's boundaries. On top of
that, the suite pins the multi-query optimizer's sharing counts,
exercises the two new declarative monitors, and property-tests the
generic plan-state codecs.
"""

import hashlib
import json
import os
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.events import EventLog, ObjectEvent, events_from_truth
from repro.core.service import ServiceConfig, StreamingInference
from repro.queries.compiler import QueryEngine, RouteAutomaton
from repro.queries.q1 import SENSOR_CODEC, FreezerExposureQuery, freezer_exposure_spec
from repro.queries.q2 import TemperatureExposureQuery, temperature_exposure_spec
from repro.queries.spec import (
    Compare,
    JoinLatest,
    KindIs,
    KleeneDuration,
    Latest,
    Predicate,
    QuerySpec,
    RouteConformance,
    Stream,
    Where,
)
from repro.queries.tracking import PathDeviationQuery, path_deviation_spec
from repro.runtime import Cluster
from repro.sim.sensors import SensorReading
from repro.sim.tags import EPC, TagKind
from repro.workloads.catalog import ProductCatalog
from repro.workloads.monitors import (
    EVENT_CODEC,
    ColocationBreachQuery,
    DwellTimeQuery,
    colocation_breach_spec,
    dwell_time_spec,
)
from repro.workloads.scenarios import cold_chain_scenario

from chaos import CHAOS_CONFIG, chaos_scenario, chaos_transport
from oracles.dag import ScalarEngine, drive, merge_by_time
from oracles.queries import (
    LegacyFreezerExposureQuery,
    LegacyPathDeviationQuery,
    LegacyTemperatureExposureQuery,
)
from oracles.sase import seq_a_plus

# -- scenario matrix -------------------------------------------------------

#: three standalone scenarios: (seed, read_rate, q1_duration, q2_duration).
SCENARIOS = [
    (4, 0.8, 300, 400),
    (23, 0.7, 250, 350),
    (51, 0.9, 300, 400),
]


@pytest.fixture(scope="module", params=SCENARIOS, ids=lambda p: f"seed{p[0]}")
def scenario_cell(request):
    seed, read_rate, q1_dur, q2_dur = request.param
    scenario = cold_chain_scenario(seed=seed, read_rate=read_rate)
    events = events_from_truth(scenario.truth, scenario.horizon, period=5)
    return scenario, events, q1_dur, q2_dur


def run_batch(query, events, sensors=()):
    """A compiled query over the whole stream as one batch."""
    query.push_batch(events, sensors)
    return query


def assert_query_equivalent(compiled, legacy, tags):
    """Alerts, migrated bytes, and checkpoint payloads all match."""
    assert compiled.alerts == legacy.alerts
    assert compiled.alert_pairs() == legacy.alert_pairs()
    for tag in sorted(tags):
        assert compiled.export_state(tag) == legacy.export_state(tag)
    assert compiled.snapshot_state() == legacy.snapshot_state()


class TestCompiledVsLegacyExposure:
    """Q1/Q2 compiled plans against the hand-written oracles."""

    def test_q1_bit_identical(self, scenario_cell):
        scenario, events, q1_dur, _ = scenario_cell
        sensors = scenario.sensor_stream(0)
        compiled = run_batch(
            FreezerExposureQuery(scenario.catalog, exposure_duration=q1_dur),
            events, sensors,
        )
        legacy = drive(
            LegacyFreezerExposureQuery(scenario.catalog, exposure_duration=q1_dur),
            events, sensors,
        )
        assert compiled.alerts  # non-vacuous: the scenario produces exposures
        assert_query_equivalent(compiled, legacy, scenario.catalog.frozen_items)

    def test_q2_bit_identical(self, scenario_cell):
        scenario, events, _, q2_dur = scenario_cell
        sensors = scenario.sensor_stream(0)
        compiled = run_batch(
            TemperatureExposureQuery(scenario.catalog, exposure_duration=q2_dur),
            events, sensors,
        )
        legacy = drive(
            LegacyTemperatureExposureQuery(
                scenario.catalog, exposure_duration=q2_dur
            ),
            events, sensors,
        )
        assert compiled.alerts
        assert_query_equivalent(compiled, legacy, scenario.catalog.frozen_items)

    def test_q1_bit_identical_on_inferred_stream(self):
        """Same guarantee over the inference-produced event stream."""
        scenario = cold_chain_scenario(seed=4)
        service = StreamingInference(
            scenario.trace,
            ServiceConfig(
                run_interval=300, recent_history=600, truncation="cr",
                emit_events=True, event_period=5,
            ),
        )
        service.run_until(scenario.horizon)
        events = sorted(service.events, key=lambda e: e.time)
        sensors = scenario.sensor_stream(0)
        compiled = run_batch(FreezerExposureQuery(scenario.catalog), events, sensors)
        legacy = drive(
            LegacyFreezerExposureQuery(scenario.catalog), events, sensors
        )
        assert_query_equivalent(compiled, legacy, scenario.catalog.frozen_items)

    def test_cross_restore(self, scenario_cell):
        """A compiled plan restores a legacy checkpoint and vice versa —
        the byte formats are one and the same."""
        scenario, events, q1_dur, _ = scenario_cell
        sensors = scenario.sensor_stream(0)
        legacy = drive(
            LegacyFreezerExposureQuery(scenario.catalog, exposure_duration=q1_dur),
            events, sensors,
        )
        compiled = FreezerExposureQuery(scenario.catalog, exposure_duration=q1_dur)
        compiled.restore_state(legacy.snapshot_state())
        assert compiled.pattern.states == legacy.pattern.states
        assert compiled.alerts == legacy.alerts
        assert compiled.temperature.table == legacy.temperature.table
        fresh_legacy = LegacyFreezerExposureQuery(
            scenario.catalog, exposure_duration=q1_dur
        )
        fresh_legacy.restore_state(compiled.snapshot_state())
        assert fresh_legacy.snapshot_state() == compiled.snapshot_state()


class TestCompiledVsLegacyTracking:
    def routes_for(self, scenario):
        cases = sorted(
            tag for tag in scenario.truth.tags() if tag.kind is TagKind.CASE
        )
        # Declare half the cases cleared for site 0 only: with 2 sites
        # every case travels 0 → 1, so the others deviate.
        return {
            case: (0, 1) if case.serial % 2 == 0 else (0,) for case in cases
        }

    def test_tracking_bit_identical(self):
        scenario = cold_chain_scenario(seed=7, n_sites=2, horizon=1500,
                                       site_leave_time=700)
        events = events_from_truth(scenario.truth, scenario.horizon, period=5)
        routes = self.routes_for(scenario)
        compiled = run_batch(PathDeviationQuery(routes), events)
        legacy = drive(LegacyPathDeviationQuery(routes), events)
        assert compiled.alerts  # odd-serial cases do deviate
        assert [tuple(a) for a in compiled.alerts] == [
            tuple(a) for a in legacy.alerts
        ]
        for tag in sorted(routes):
            assert compiled.export_state(tag) == legacy.export_state(tag)
            assert compiled.path_of(tag) == legacy.path_of(tag)
        assert compiled.snapshot_state() == legacy.snapshot_state()

    def test_tracking_import_merge_matches_legacy(self):
        """Split the stream at a hand-off point: state exported from the
        first half merges into an instance that saw the second half."""
        scenario = cold_chain_scenario(seed=7, n_sites=2, horizon=1500,
                                       site_leave_time=700)
        events = events_from_truth(scenario.truth, scenario.horizon, period=5)
        routes = self.routes_for(scenario)
        cut = scenario.horizon // 2

        def split_run(factory, feed):
            first, second = factory(routes), factory(routes)
            feed(first, [event for event in events if event.time < cut])
            feed(second, [event for event in events if event.time >= cut])
            for tag in sorted(routes):
                state = first.export_state(tag)
                if state is not None:
                    second.import_state(tag, state)
            return second

        compiled = split_run(PathDeviationQuery, run_batch)
        legacy = split_run(LegacyPathDeviationQuery, drive)
        for tag in sorted(routes):
            assert compiled.export_state(tag) == legacy.export_state(tag)
        assert compiled.snapshot_state() == legacy.snapshot_state()


class TestMultiQuerySharing:
    """The multi-query optimizer instantiates shared sub-plans once."""

    def test_q1_q2_share_local_subplan(self):
        catalog = ProductCatalog()
        engine = QueryEngine()
        q1 = FreezerExposureQuery(catalog)
        q2 = TemperatureExposureQuery(catalog)
        q1.bind(engine)
        # Q1 alone: 2 sources, frozen filter, window, join, 3 gate
        # filters, 1 pattern block.
        assert engine.operators_built == 9
        assert engine.operators_shared == 0
        q2.bind(engine)
        # Q2 adds its 2 gate filters and its pattern; the events source,
        # sensors source, frozen filter, window, and join are reused.
        assert engine.operators_built == 12
        assert engine.operators_shared == 5
        assert q1.temperature is q2.temperature
        assert q1.pattern is not q2.pattern

    def test_shared_engine_results_match_standalone(self):
        scenario = cold_chain_scenario(seed=4)
        events = events_from_truth(scenario.truth, scenario.horizon, period=5)
        sensors = scenario.sensor_stream(0)
        # Standalone instances, driven separately.
        alone_q1 = run_batch(FreezerExposureQuery(scenario.catalog), events, sensors)
        alone_q2 = run_batch(TemperatureExposureQuery(scenario.catalog), events, sensors)
        # One shared engine, each batch entering it exactly once.
        engine = QueryEngine()
        q1 = FreezerExposureQuery(scenario.catalog)
        q2 = TemperatureExposureQuery(scenario.catalog)
        q1.bind(engine)
        q2.bind(engine)
        engine.push_batch(events, sensors)
        assert q1.alerts == alone_q1.alerts
        assert q2.alerts == alone_q2.alerts
        assert q1.snapshot_state() == alone_q1.snapshot_state()
        assert q2.snapshot_state() == alone_q2.snapshot_state()

    def test_identical_specs_share_everything(self):
        catalog = ProductCatalog()
        engine = QueryEngine()
        TemperatureExposureQuery(catalog).bind(engine)
        built = engine.operators_built
        TemperatureExposureQuery(catalog).bind(engine)
        assert engine.operators_built == built  # nothing new to build

    def test_ledger_surfaces_sharing_gauges(self):
        scenario = cold_chain_scenario(seed=7, n_sites=2, horizon=900)
        with Cluster(scenario.traces, CHAOS_CONFIG) as cluster:
            cluster.add_query(
                "q1", lambda site: FreezerExposureQuery(scenario.catalog)
            )
            cluster.add_query(
                "q2", lambda site: TemperatureExposureQuery(scenario.catalog)
            )
            ledger = cluster.network
            assert ledger.plan_operators_built == 12 * len(cluster.nodes)
            assert ledger.plan_operators_shared == 5 * len(cluster.nodes)
            # A crash-style reset rebinds the plans but must not
            # re-count the site's operators in the gauges.
            cluster.nodes[0].reset(
                {
                    "q1": FreezerExposureQuery(scenario.catalog),
                    "q2": TemperatureExposureQuery(scenario.catalog),
                }
            )
            assert ledger.plan_operators_built == 12 * len(cluster.nodes)
            assert ledger.plan_operators_shared == 5 * len(cluster.nodes)

    def test_push_batch_takes_event_subclasses(self):
        """A batch is read by field name: a subclass of the stream's
        tuple type reaches compiled plans like the type itself."""

        class EnrichedEvent(ObjectEvent):
            pass

        query = DwellTimeQuery(max_dwell=50, max_gap=100)
        tag = EPC(TagKind.CASE, 0)
        query.push_batch([EnrichedEvent(time, tag, 0, 3, None) for time in (0, 30, 60)])
        assert query.violations() == [(tag, 0, 3, 60)]


# -- federated equivalence -------------------------------------------------

#: the frozen federation outputs (see :class:`TestFederatedEquivalence`).
GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "query_federation_golden.json"
)


def run_federated(scenario, factories, transport=None, crash=None):
    """One federated run; returns canonical observables + checkpoints."""
    with Cluster(scenario.traces, CHAOS_CONFIG, transport=transport) as cluster:
        for name, factory in sorted(factories.items()):
            cluster.add_query(name, factory)
        cluster.set_sensor_streams(
            {s: scenario.sensor_stream(s) for s in range(len(scenario.traces))}
        )
        if crash is not None:
            site, crash_time, recover_time = crash
            cluster.crash(site, crash_time)
            cluster.recover(site, recover_time)
        cluster.run(scenario.horizon)
        alerts = {
            name: sorted(
                (str(alert.key), alert.start_time, alert.end_time, alert.values)
                for node in cluster.nodes
                for alert in node.queries[name].alerts
            )
            for name in factories
        }
        return {
            "alerts": alerts,
            "migrations": cluster.migrations,
            "data_bytes": cluster.network.data_bytes_by_kind(),
            "containment_error": cluster.containment_error(scenario.truth),
            "checkpoints": {
                node.site: node.snapshot() for node in cluster.nodes
            },
            "query_blobs": {
                node.site: node.router.snapshot_queries() for node in cluster.nodes
            },
        }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def federation_digest(run: dict) -> dict:
    """A federated run reduced to JSON: exact values, hashed bytes."""
    digest = {
        "alerts": {
            name: [[key, start, end, list(values)] for key, start, end, values in rows]
            for name, rows in sorted(run["alerts"].items())
        },
        "migrations": [
            [str(m.tag), m.src, m.dst, m.time, m.bytes_sent] for m in run["migrations"]
        ],
        "data_bytes": dict(sorted(run["data_bytes"].items())),
        "containment_error": run["containment_error"],
        "checkpoints_sha256": {
            str(site): _sha256(blob) for site, blob in sorted(run["checkpoints"].items())
        },
        "query_blobs_sha256": {
            str(site): {name: _sha256(blob) for name, blob in sorted(blobs.items())}
            for site, blobs in sorted(run["query_blobs"].items())
        },
    }
    return json.loads(json.dumps(digest))  # the fixture's own types


def golden_runs() -> dict:
    """The two frozen runs: Q2 on the chaos scenario, over clean links
    and under the seed-17 fault plan."""
    scenario = chaos_scenario()
    factories = {
        "q2": lambda site: TemperatureExposureQuery(
            scenario.catalog, exposure_duration=400
        )
    }
    return {
        "clean": federation_digest(run_federated(scenario, factories)),
        "chaos-17": federation_digest(
            run_federated(scenario, factories, transport=chaos_transport(17))
        ),
    }


class TestFederatedEquivalence:
    """Compiled plans through the full distributed runtime, against
    ``tests/data/query_federation_golden.json``.

    The fixture holds, per run, the alerts, the migrations with their
    bytes, the per-kind ledger bytes, the containment error, and a
    sha256 of every site checkpoint and of every query's checkpoint
    blob. It was written by ``PYTHONPATH=src python
    tests/test_query_plans.py`` at commit dcf7b4b — the last tree with
    the tuple-at-a-time operator DAG in ``src/`` — where the same two
    runs with the hand-written Q2 (``tests/oracles/queries.py``) in
    place of the compiled plan produced identical alerts, migrations,
    ledger bytes, containment error and checkpoints. Rewrite it only
    after an intended change.
    """

    @pytest.fixture(scope="class")
    def runs(self):
        return golden_runs()

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN_PATH) as fh:
            return json.load(fh)

    @pytest.mark.parametrize("run", ["clean", "chaos-17"])
    def test_matches_frozen_run(self, runs, golden, run):
        got, want = runs[run], golden[run]
        assert got["alerts"]["q2"]  # non-vacuous: exposures span the hand-off
        for key in want:
            assert got[key] == want[key], key


class TestCompiledPlanFaultTolerance:
    """Compiled plans (incl. the new monitors) survive faults bit-for-bit."""

    def factories(self, scenario):
        return {
            "q2": lambda site: TemperatureExposureQuery(
                scenario.catalog, exposure_duration=400
            ),
            "dwell": lambda site: DwellTimeQuery(max_dwell=400),
            "colocation": lambda site: ColocationBreachQuery(
                scenario.catalog, conflicts=(("frozen", "dry"),), duration=100
            ),
        }

    def test_alert_logs_identical_across_crash_and_duplicates(self):
        scenario = chaos_scenario()
        baseline = run_federated(scenario, self.factories(scenario))
        assert any(baseline["alerts"].values())  # non-vacuous
        chaotic = run_federated(
            scenario,
            self.factories(scenario),
            transport=chaos_transport(29),
            crash=(1, 950, 1050),
        )
        assert chaotic["alerts"] == baseline["alerts"]
        assert chaotic["migrations"] == baseline["migrations"]
        assert chaotic["data_bytes"] == baseline["data_bytes"]

    def test_new_monitors_fire_in_federation(self):
        scenario = chaos_scenario()
        result = run_federated(scenario, self.factories(scenario))
        assert result["alerts"]["dwell"]
        assert result["alerts"]["colocation"]


# -- new declarative monitors (unit semantics) ------------------------------


class TestDwellMonitor:
    def make_events(self, times, tag=EPC(TagKind.CASE, 0), site=0, place=3):
        return [ObjectEvent(t, tag, site, place, None) for t in times]

    def test_fires_after_max_dwell(self):
        query = DwellTimeQuery(max_dwell=50, max_gap=60)
        query.push_batch(self.make_events([0, 20, 40, 60]))
        assert query.violations() == [(EPC(TagKind.CASE, 0), 0, 3, 60)]

    def test_gap_breaks_visit(self):
        query = DwellTimeQuery(max_dwell=50, max_gap=30)
        query.push_batch(self.make_events([0, 20, 100, 120]))
        # 20 → 100 exceeds max_gap: the visit restarts, neither span
        # (0..20 nor 100..120) reaches max_dwell.
        assert query.violations() == []

    def test_separate_places_are_separate_visits(self):
        query = DwellTimeQuery(max_dwell=50, max_gap=200)
        tag = EPC(TagKind.CASE, 0)
        stream = [
            ObjectEvent(0, tag, 0, 3, None),
            ObjectEvent(40, tag, 0, 5, None),  # moved: new partition
            ObjectEvent(100, tag, 0, 5, None),  # span 60 at place 5
        ]
        query.push_batch(stream)
        assert query.violations() == [(tag, 0, 5, 100)]

    def test_items_ignored_for_case_monitor(self):
        query = DwellTimeQuery(max_dwell=10)
        query.push_batch(self.make_events([0, 50], tag=EPC(TagKind.ITEM, 0)))
        assert query.violations() == []


class TestColocationMonitor:
    def catalog(self):
        catalog = ProductCatalog()
        self.food = EPC(TagKind.ITEM, 0)
        self.chem = EPC(TagKind.ITEM, 1)
        catalog.product_types[self.food] = "frozen"
        catalog.product_types[self.chem] = "chemical"
        return catalog

    def test_sustained_conflict_fires(self):
        query = ColocationBreachQuery(self.catalog(), duration=20, max_gap=60)
        stream = []
        for t in range(0, 40, 5):
            stream.append(ObjectEvent(t, self.chem, 0, 7, None))
            stream.append(ObjectEvent(t, self.food, 0, 7, None))
        query.push_batch(stream)
        breached = {tag for tag, _, _, _ in query.breaches()}
        # Both parties see the other as latest occupant and alert.
        assert breached == {self.food, self.chem}
        for _, site, place, _ in query.breaches():
            assert (site, place) == (0, 7)

    def test_separation_resets_run(self):
        query = ColocationBreachQuery(self.catalog(), duration=30, max_gap=200)
        stream = [
            ObjectEvent(0, self.chem, 0, 7, None),
            ObjectEvent(5, self.food, 0, 7, None),   # sees chem: run starts
            ObjectEvent(10, self.food, 0, 7, None),  # sees itself: reset
            ObjectEvent(40, self.food, 0, 7, None),
        ]
        query.push_batch(stream)
        assert query.breaches() == []

    def test_compatible_neighbours_do_not_fire(self):
        catalog = self.catalog()
        other = EPC(TagKind.ITEM, 2)
        catalog.product_types[other] = "frozen"
        query = ColocationBreachQuery(catalog, duration=10, max_gap=60)
        stream = []
        for t in range(0, 40, 5):
            stream.append(ObjectEvent(t, other, 0, 7, None))
            stream.append(ObjectEvent(t, self.food, 0, 7, None))
        query.push_batch(stream)
        assert query.breaches() == []


# -- plan-state codec properties -------------------------------------------

f32 = st.floats(-1e6, 1e6, width=32, allow_nan=False)
f64 = st.floats(allow_nan=False, allow_infinity=False)


class TestCodecProperties:
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.integers(-8, 8),
                st.integers(0, 500),
                f64,
            ),
            max_size=12,
        )
    )
    def test_window_row_codec_round_trip(self, rows):
        from repro._util.encoding import ByteReader, ByteWriter

        readings = [SensorReading(*row) for row in rows]
        writer = ByteWriter()
        for reading in readings:
            SENSOR_CODEC.write(writer, reading)
        reader = ByteReader(writer.getvalue())
        back = [SENSOR_CODEC.read(reader) for _ in readings]
        assert back == readings
        assert reader.exhausted()

    @settings(deadline=None)
    @given(
        partitions=st.dictionaries(
            st.tuples(st.integers(-5, 5), st.integers(0, 50)),
            st.tuples(
                st.integers(0, 2),
                st.integers(0, 10**6),
                st.integers(0, 10**6),
                st.lists(f32, max_size=8),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_composite_pattern_bundle_round_trip(self, partitions):
        from repro.queries.compiler import CompiledPattern
        from repro.streams.pattern import PatternState

        tag = EPC(TagKind.CASE, 1)
        # Duration beyond any generated span: absorb never promotes a
        # run to fired, so the assertion isolates the codec itself.
        node = dwell_time_spec(max_dwell=10**7).output
        source = CompiledPattern(node)
        for (site, place), (stage, start, last, values) in partitions.items():
            source.pattern.states[(tag, site, place)] = PatternState(
                stage, start, last, list(values)
            )
        data = source.export_key_state(tag)
        assert data is not None
        target = CompiledPattern(node)
        target.absorb_key_state(tag, data)
        assert set(target.pattern.states) == set(source.pattern.states)
        for key, state in source.pattern.states.items():
            absorbed = target.pattern.states[key]
            # float32 values survive exactly (strategy is 32-bit wide);
            # a quiescent (stage 0) incoming state is deliberately inert.
            if state.stage == 0:
                assert absorbed.stage == 0
            else:
                assert absorbed == state

    @given(
        progress=st.dictionaries(
            st.integers(0, 30),
            st.tuples(
                st.integers(0, 5),
                st.booleans(),
                st.lists(st.integers(0, 9), max_size=6),
            ),
            max_size=5,
        ),
        deviated_alerts=st.lists(
            st.tuples(
                st.integers(0, 30),
                st.integers(0, 10**6),
                st.integers(0, 9),
                st.lists(st.integers(0, 9), max_size=2),
            ),
            max_size=4,
        ),
    )
    def test_route_snapshot_round_trip(self, progress, deviated_alerts):
        from repro._util.encoding import ByteReader, ByteWriter
        from repro.queries.compiler import DeviationAlert, _RouteProgress

        node = RouteConformance(Stream("events"), {})
        source = RouteAutomaton(node)
        for serial, (position, deviated, history) in progress.items():
            source.progress[EPC(TagKind.CASE, serial)] = _RouteProgress(
                position, deviated, list(history)
            )
        source.alerts = [
            DeviationAlert(EPC(TagKind.CASE, serial), time, site, tuple(expected))
            for serial, time, site, expected in deviated_alerts
        ]
        writer = ByteWriter()
        source.write_snapshot(writer)
        target = RouteAutomaton(node)
        reader = ByteReader(writer.getvalue())
        target.read_snapshot(reader)
        assert reader.exhausted()
        assert target.progress == source.progress
        assert target.alerts == source.alerts

    @given(data=st.binary(max_size=40))
    def test_malformed_plan_state_raises_value_error(self, data):
        query = TemperatureExposureQuery(ProductCatalog())
        try:
            query.restore_state(data)
        except ValueError:
            pass  # the only acceptable failure mode

    @given(data=st.binary(max_size=40))
    def test_malformed_composite_bundle_raises_value_error(self, data):
        query = DwellTimeQuery(max_dwell=100)
        try:
            query.import_state(EPC(TagKind.CASE, 0), data)
        except ValueError:
            pass


# -- batch executor vs the tuple-at-a-time operator DAG ---------------------

#: a small closed world, so generated streams collide on keys, tags
#: and timestamps often enough to reach every branch.
B_ITEMS = [EPC(TagKind.ITEM, i) for i in range(4)]
B_CASES = [EPC(TagKind.CASE, i) for i in range(3)]
B_TAGS = B_ITEMS + B_CASES


def batch_catalog() -> ProductCatalog:
    catalog = ProductCatalog()
    catalog.register_freezer_case(B_CASES[0], B_ITEMS[:2])
    catalog.register_typed_case(B_CASES[1], [B_ITEMS[2]], "chemical")
    return catalog


def _timed(draw, row, max_size):
    """Rows stamped with non-decreasing times (repeats included)."""
    steps = draw(st.lists(st.integers(0, 3), max_size=max_size))
    rows, now = [], 0
    for step in steps:
        now += step
        rows.append(draw(row(now)))
    return rows


@st.composite
def event_streams(draw, max_size=40):
    return _timed(
        draw,
        lambda now: st.builds(
            ObjectEvent,
            st.just(now),
            st.sampled_from(B_TAGS),
            st.integers(0, 1),
            st.integers(0, 2),
            st.sampled_from([None, *B_CASES]),
        ),
        max_size,
    )


@st.composite
def sensor_streams(draw, max_size=25):
    return _timed(
        draw,
        lambda now: st.builds(
            SensorReading,
            st.just(now),
            st.integers(0, 1),
            st.integers(0, 2),
            st.floats(-20.0, 30.0, allow_nan=False),
        ),
        max_size,
    )


def _shipped_specs(catalog):
    return {
        "q1": lambda: freezer_exposure_spec(catalog, 3, 0.0),
        "q2": lambda: temperature_exposure_spec(catalog, 4, 10.0),
        "dwell": lambda: dwell_time_spec(3, kind=TagKind.CASE, max_gap=2),
        "colocation": lambda: colocation_breach_spec(
            catalog,
            conflicts=(("frozen", "chemical"), ("frozen", "dry")),
            duration=2,
            max_gap=3,
        ),
        "tracking": lambda: path_deviation_spec(
            {B_CASES[0]: (0, 1), B_ITEMS[0]: (1, 0), B_CASES[2]: (0,)}
        ),
    }


#: every shipped spec alone, Q1+Q2 on one shared engine, and all five.
ENGINE_MIXES = [
    ("q1",), ("q2",), ("q1", "q2"), ("dwell",), ("colocation",), ("tracking",),
    ("q1", "q2", "dwell", "colocation", "tracking"),
]


def build_engine(names, catalog, kind=QueryEngine):
    """A columnar engine (or, ``kind=ScalarEngine``, the oracle DAG)
    with the named shipped specs registered."""
    specs = _shipped_specs(catalog)
    engine = kind()
    return engine, {name: engine.register(specs[name]()) for name in names}


def merged(events, sensors):
    """The one arrival order both executors must honour."""
    return list(merge_by_time(sensors, events))


def push_tuples(engine, stream):
    for item in stream:
        engine.push(item)


def push_batches(engine, chunks):
    for chunk in chunks:
        engine.push_batch(_events_of(chunk), _sensors_of(chunk))


def assert_plans_identical(got, want):
    """Alerts in order, every tag's migration bytes, checkpoint bytes
    and window relations."""
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].alerts == want[name].alerts, name
        for tag in B_TAGS:
            assert got[name].export_state(tag) == want[name].export_state(tag), (name, tag)
        assert got[name].snapshot_state() == want[name].snapshot_state(), name
        assert [w.table for w in got[name].windows] == [
            w.table for w in want[name].windows
        ], name


class TestBatchEquivalence:
    """``push_batch`` reproduces the tuple-at-a-time DAG bit for bit."""

    @pytest.mark.parametrize("names", ENGINE_MIXES, ids="+".join)
    @settings(max_examples=40, deadline=None)
    @given(events=event_streams(), sensors=sensor_streams())
    def test_one_batch_matches_the_dag(self, names, events, sensors):
        catalog = batch_catalog()
        ref_engine, ref = build_engine(names, catalog, ScalarEngine)
        push_tuples(ref_engine, merged(events, sensors))
        engine, plans = build_engine(names, catalog)
        engine.push_batch(EventLog.of(events), sensors)  # the columnar hand-over
        assert_plans_identical(plans, ref)

    @pytest.mark.parametrize("names", ENGINE_MIXES, ids="+".join)
    @settings(max_examples=40, deadline=None)
    @given(
        events=event_streams(),
        sensors=sensor_streams(),
        cuts=st.lists(st.integers(0, 65), max_size=5),
        import_after=st.integers(0, 5),
    )
    def test_arbitrary_cuts_and_a_mid_stream_import(
        self, names, events, sensors, cuts, import_after
    ):
        """The stream cut into batches anywhere — between same-epoch
        sensor and event tuples included — with migrated state absorbed
        between two batches, still matches pushing tuple by tuple."""
        catalog = batch_catalog()
        stream = merged(events, sensors)
        bounds = sorted({0, len(stream), *(c for c in cuts if c < len(stream))})
        chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
        # State another site would hand over: whatever the whole stream
        # leaves behind, absorbed after chunk ``import_after``.
        donor_engine, donor = build_engine(names, catalog, ScalarEngine)
        push_tuples(donor_engine, stream)
        migrated = [
            (name, tag, data)
            for name in names
            for tag in B_TAGS
            if (data := donor[name].export_state(tag)) is not None
        ]
        ref_engine, ref = build_engine(names, catalog, ScalarEngine)
        engine, plans = build_engine(names, catalog)
        for index, chunk in enumerate(chunks):
            push_tuples(ref_engine, chunk)
            push_batches(engine, [chunk])
            if index == import_after:
                for name, tag, data in migrated:
                    ref[name].import_state(tag, data)
                    plans[name].import_state(tag, data)
        assert_plans_identical(plans, ref)

    def test_cut_between_same_epoch_sensor_and_event(self):
        catalog = batch_catalog()
        frozen = B_ITEMS[0]
        warm = [SensorReading(t, 0, 1, 20.0) for t in (0, 5)]
        events = [ObjectEvent(t, frozen, 0, 1, None) for t in (0, 5, 9)]
        ref_engine, ref = build_engine(("q1", "q2"), catalog, ScalarEngine)
        push_tuples(ref_engine, merged(events, warm))
        assert ref["q1"].alerts  # the 0→9 exposure outlasts the duration
        engine, plans = build_engine(("q1", "q2"), catalog)
        # Epoch 5's sensor reading ends one batch, its event opens the next.
        engine.push_batch(events[:1], warm)
        engine.push_batch(events[1:], [])
        assert_plans_identical(plans, ref)

    def test_inferred_event_log_matches_the_dag(self):
        """The production hand-over: a service's columnar event log."""
        scenario = cold_chain_scenario(seed=4)
        service = StreamingInference(
            scenario.trace,
            ServiceConfig(
                run_interval=300, recent_history=600, truncation="cr",
                emit_events=True,
            ),
        )
        service.run_until(scenario.horizon)
        sensors = list(scenario.sensor_stream(0))

        def engine_with_plans(engine):
            specs = [
                freezer_exposure_spec(scenario.catalog, 300),
                temperature_exposure_spec(scenario.catalog, 400),
                colocation_breach_spec(
                    scenario.catalog, conflicts=(("frozen", "dry"),), duration=100
                ),
            ]
            return engine, [engine.register(spec) for spec in specs]

        ref_engine, ref = engine_with_plans(ScalarEngine())
        push_tuples(ref_engine, merged(service.events, sensors))
        engine, plans = engine_with_plans(QueryEngine())
        engine.push_batch(service.events, sensors)
        assert any(plan.alerts for plan in ref)
        for got, want in zip(plans, ref):
            assert got.alerts == want.alerts
            assert got.snapshot_state() == want.snapshot_state()
            for tag in scenario.catalog.frozen_items:
                assert got.export_state(tag) == want.export_state(tag)


# -- SASE semantics: pattern blocks against a literal SEQ(A+) --------------

S_TAGS = [EPC(TagKind.CASE, 0), EPC(TagKind.CASE, 1)]


def _events_of(chunk):
    return [t for t in chunk if isinstance(t, ObjectEvent)]


def _sensors_of(chunk):
    return [t for t in chunk if isinstance(t, SensorReading)]


def _push_and_reset(duration, max_gap, reset_first):
    """A ``SEQ(A+)`` whose pushes (place >= 1) and resets (place <= 1)
    overlap at place 1: one tuple both pushes and resets. Which comes
    first is the DAG's visit order; a plan registered earlier that
    builds the reset filter first makes the reset lead."""
    source = Stream("events")
    high = Where(source, Compare("place", ">=", 1))
    low = Where(source, Compare("place", "<=", 1))
    block = KleeneDuration(
        high, key=("tag",), time="time", value="place", duration=duration,
        resets=(low,), max_gap=max_gap,
    )

    def register(engine):
        if reset_first:
            engine.register(QuerySpec("lead", KleeneDuration(
                low, key=("tag",), time="time", value="time", duration=duration,
            )))
        return engine.register(QuerySpec("sase", block))

    def classify(stream):
        for e in stream:
            actions = ["push"] * (e.place >= 1) + ["reset"] * (e.place <= 1)
            for action in reversed(actions) if reset_first else actions:
                yield e.time, e.tag, action, e.place

    return register, classify


def _sensor_join(duration, max_gap):
    """Events joined with the latest reading of their location: warm
    pushes, cold resets. A reading and an event of one epoch: the
    reading is in the window before the event probes it."""
    window = Latest(Stream("sensors"), key=("site", "sensor"))
    joined = JoinLatest(
        Stream("events"), window, probe=("site", "place"),
        select=(("time", "left.time"), ("tag", "left.tag"), ("temp", "right.temp")),
    )
    block = KleeneDuration(
        Where(joined, Compare("temp", ">", 0.0)), key=("tag",), time="time",
        value="temp", duration=duration,
        resets=(Where(joined, Compare("temp", "<=", 0.0)),), max_gap=max_gap,
    )

    def classify(stream):
        latest = {}
        for item in stream:
            if isinstance(item, SensorReading):
                latest[(item.site, item.sensor)] = item.temp
                continue
            temp = latest.get((item.site, item.place))
            if temp is not None:
                yield item.time, item.tag, "push" if temp > 0.0 else "reset", temp

    return (lambda engine: engine.register(QuerySpec("sase", block))), classify


def _self_join(duration, max_gap):
    """Events joined with the latest event of their location: one
    tuple probes the window and updates it, and the probe reads the
    relation as of the previous instant."""
    source = Stream("events")
    occupant = Latest(source, key=("site", "place"))
    joined = JoinLatest(
        source, occupant, probe=("site", "place"),
        select=(("time", "left.time"), ("tag", "left.tag"), ("since", "right.time")),
    )
    block = KleeneDuration(
        joined, key=("tag",), time="time", value="since", duration=duration,
        max_gap=max_gap,
    )

    def classify(stream):
        latest = {}
        for e in stream:
            previous = latest.get((e.site, e.place))
            if previous is not None:
                yield e.time, e.tag, "push", previous.time
            latest[(e.site, e.place)] = e

    return (lambda engine: engine.register(QuerySpec("sase", block))), classify


def _sase_states(plan):
    (block,) = plan.global_ops
    return {
        key: (s.stage, s.start_time, s.last_time, list(s.values))
        for key, s in block.states.items()
    }


def check_sase(family, events, sensors=(), cuts=()):
    """The plan's alerts and automaton states equal the literal
    matcher's, tuple at a time through the operator DAG and in
    batches cut anywhere."""
    register, classify, duration, max_gap = family
    stream = list(merge_by_time(sensors, events))
    want_alerts, want_states = seq_a_plus(classify(stream), duration, max_gap)
    scalar = ScalarEngine()
    plans = {"scalar": register(scalar)}
    push_tuples(scalar, stream)
    engine = QueryEngine()
    plans["batch"] = register(engine)
    bounds = sorted({0, len(stream), *(c for c in cuts if c < len(stream))})
    push_batches(engine, [stream[lo:hi] for lo, hi in zip(bounds, bounds[1:])])
    for name, plan in plans.items():
        assert [tuple(a) for a in plan.alerts] == want_alerts, name
        assert _sase_states(plan) == want_states, name
    return want_alerts


@st.composite
def sase_family(draw, kind):
    duration = draw(st.integers(1, 5))
    max_gap = draw(st.one_of(st.none(), st.integers(1, 5)))
    if kind == "push_and_reset":
        register, classify = _push_and_reset(duration, max_gap, draw(st.booleans()))
    elif kind == "sensor_join":
        register, classify = _sensor_join(duration, max_gap)
    else:
        register, classify = _self_join(duration, max_gap)
    return register, classify, duration, max_gap


@st.composite
def boundary_stream(draw, family, with_sensors=False):
    """Tuples whose time steps sit on the boundaries: 0 (one epoch),
    1, duration - 1, duration, duration + 1, max_gap, max_gap + 1."""
    _, _, duration, max_gap = family
    steps = [0, 1, duration - 1, duration, duration + 1]
    if max_gap is not None:
        steps += [max_gap, max_gap + 1]
    events, sensors, now = [], [], 0
    for step in draw(st.lists(st.sampled_from(steps), max_size=30)):
        now += step
        if with_sensors and draw(st.booleans()):
            sensors.append(SensorReading(
                now, 0, draw(st.integers(0, 1)), draw(st.sampled_from([-5.0, 5.0, 12.5]))
            ))
        else:
            events.append(ObjectEvent(
                now, draw(st.sampled_from(S_TAGS)), 0, draw(st.integers(0, 2)), None
            ))
    return events, sensors


class TestSaseSemantics:
    """SEQ(A+) at its boundaries — spans of duration - 1, duration and
    duration + 1, gaps of max_gap and max_gap + 1, a reading and an
    event of one epoch, one tuple that both pushes and resets, a join
    probe and its window update from one tuple — against the literal
    matcher in ``tests/oracles/sase.py``."""

    @pytest.mark.parametrize("kind", ["push_and_reset", "sensor_join", "self_join"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), cuts=st.lists(st.integers(0, 40), max_size=4))
    def test_matches_literal_matcher(self, kind, data, cuts):
        family = data.draw(sase_family(kind))
        events, sensors = data.draw(
            boundary_stream(family, with_sensors=kind == "sensor_join")
        )
        check_sase(family, events, sensors, cuts)

    @pytest.mark.parametrize("delta, fires", [(-1, False), (0, False), (1, True)])
    def test_span_must_exceed_duration(self, delta, fires):
        register, classify = _push_and_reset(4, None, False)
        events = [ObjectEvent(t, S_TAGS[0], 0, 2, None) for t in (0, 4 + delta)]
        assert bool(check_sase((register, classify, 4, None), events)) == fires

    @pytest.mark.parametrize("gap, fires", [(3, True), (4, False)])
    def test_gap_beyond_max_gap_breaks_the_run(self, gap, fires):
        register, classify = _push_and_reset(4, 3, False)
        events = [ObjectEvent(t, S_TAGS[0], 0, 2, None) for t in (0, 3, 3 + gap)]
        assert bool(check_sase((register, classify, 4, 3), events)) == fires

    @pytest.mark.parametrize("reset_first, fires", [(False, False), (True, True)])
    def test_tuple_that_pushes_and_resets(self, reset_first, fires):
        """At place 1 the tuple pushes and resets: reset-then-push
        leaves a run open at t=3 that t=8 completes; push-then-reset
        leaves nothing for t=8 to extend."""
        register, classify = _push_and_reset(4, None, reset_first)
        events = [
            ObjectEvent(0, S_TAGS[0], 0, 2, None),
            ObjectEvent(3, S_TAGS[0], 0, 1, None),
            ObjectEvent(8, S_TAGS[0], 0, 2, None),
        ]
        assert bool(check_sase((register, classify, 4, None), events)) == fires

    def test_reading_and_event_of_one_epoch(self):
        register, classify = _sensor_join(4, None)
        sensors = [SensorReading(0, 0, 1, 5.0), SensorReading(9, 0, 1, -5.0)]
        events = [ObjectEvent(t, S_TAGS[0], 0, 1, None) for t in (0, 5, 9)]
        # t=0 sees its own epoch's warm reading; t=9 its cold one.
        assert check_sase((register, classify, 4, None), events, sensors, cuts=[1]) == [
            (S_TAGS[0], 0, 5, (5.0, 5.0))
        ]

    def test_probe_reads_the_relation_before_its_own_update(self):
        register, classify = _self_join(2, None)
        events = [
            ObjectEvent(0, S_TAGS[1], 0, 0, None),
            ObjectEvent(0, S_TAGS[0], 0, 0, None),
            ObjectEvent(3, S_TAGS[0], 0, 0, None),
        ]
        # S_TAGS[0] at t=0 finds S_TAGS[1], not itself; at t=3 itself.
        assert check_sase((register, classify, 2, None), events) == [
            (S_TAGS[0], 0, 3, (0.0, 0.0))
        ]


class TestBatchFallbackAndVisitOrder:
    """Plans the shipped specs do not exercise: predicates without a
    columnar form, and plans whose same-tuple visit order is not the
    common one."""

    @staticmethod
    def _both(register, events):
        """``register(engine) -> plans`` driven tuple by tuple through
        the oracle DAG, and in two batches."""
        ref_engine = ScalarEngine()
        ref = register(ref_engine)
        push_tuples(ref_engine, events)
        engine = QueryEngine()
        plans = register(engine)
        half = len(events) // 2
        push_batches(engine, [events[:half], events[half:]])
        return plans, ref

    @settings(max_examples=40, deadline=None)
    @given(events=event_streams())
    def test_unknown_predicate_takes_the_row_fallback(self, events):
        @dataclass(frozen=True)
        class OddPlace(Predicate):  # no ``mask``: row materialization
            def __call__(self, item):
                return item.place % 2 == 1

        def register(engine):
            odd = Where(Stream("events"), OddPlace())
            pattern = KleeneDuration(
                odd, key=("tag",), time="time", value="place", duration=2, max_gap=4
            )
            return {"odd": engine.register(QuerySpec("odd", pattern))}

        plans, ref = self._both(register, events)
        assert_plans_identical(plans, ref)

    @settings(max_examples=40, deadline=None)
    @given(events=event_streams())
    def test_same_tuple_reset_before_push_follows_dag_order(self, events):
        """One tuple can both reset and extend a run; which happens
        first is the DAG's visit order. Registering the reset filter
        first (shared from an earlier plan) makes the reset lead."""
        def register(engine):
            source = Stream("events")
            low = Where(source, Compare("place", "<=", 1))
            high = Where(source, Compare("place", ">=", 1))
            first = KleeneDuration(low, key=("tag",), time="time", value="place", duration=2)
            second = KleeneDuration(
                high, key=("tag",), time="time", value="place", duration=2,
                resets=(low,),
            )
            third = KleeneDuration(
                low, key=("tag",), time="time", value="time", duration=3,
                resets=(high,),
            )
            return {
                name: engine.register(QuerySpec(name, block))
                for name, block in (("first", first), ("second", second), ("third", third))
            }

        plans, ref = self._both(register, events)
        assert_plans_identical(plans, ref)

    @settings(max_examples=40, deadline=None)
    @given(events=event_streams())
    def test_join_sees_own_update_when_the_dag_updates_first(self, events):
        """A window built over a *filter* of the join's source is
        updated (inside the filter's subtree) before the join probes:
        the case tuple finds itself. The batch join must agree."""
        def register(engine):
            source = Stream("events")
            cases = Latest(
                Where(source, KindIs(TagKind.CASE)), key=("site", "place"),
                codec=EVENT_CODEC,
            )
            joined = JoinLatest(
                source, cases, probe=("site", "place"),
                select=(("time", "left.time"), ("tag", "left.tag"),
                        ("case", "right.tag"), ("since", "right.time")),
            )
            pattern = KleeneDuration(
                joined, key=("tag",), time="time", value="since", duration=2, max_gap=3
            )
            return {"near": engine.register(QuerySpec("near", pattern))}

        plans, ref = self._both(register, events)
        assert_plans_identical(plans, ref)


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden_runs(), fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
