"""Equivalence suite: compiled plans vs the hand-written query paths.

The declarative refactor's headline guarantee: compiling Q1/Q2/tracking
from specs changes *nothing observable*. Alerts, per-object migrated
state bytes, and checkpoint payloads are bit-identical to the original
hand-written implementations (the oracle in ``tests/oracles/queries.py``)
— standalone over ground-truth and inferred streams, and end-to-end
through a federated run including a chaos-seed fault plan. On top of
that, the suite pins the multi-query optimizer's sharing counts,
exercises the two new declarative monitors, and property-tests the
generic plan-state codecs.
"""

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
from repro.streams.engine import StreamScheduler, merge_by_time
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
from oracles.queries import (
    LegacyFreezerExposureQuery,
    LegacyPathDeviationQuery,
    LegacyTemperatureExposureQuery,
)

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


def drive(query, events, sensors):
    scheduler = StreamScheduler()
    scheduler.route(ObjectEvent, query.on_event)
    scheduler.route(SensorReading, query.on_sensor)
    scheduler.run(events, sensors)
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
        compiled = drive(
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
        compiled = drive(
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
        compiled = drive(FreezerExposureQuery(scenario.catalog), events, sensors)
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
        compiled = PathDeviationQuery(routes)
        legacy = LegacyPathDeviationQuery(routes)
        for event in events:
            compiled.on_event(event)
            legacy.on_event(event)
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

        def split_run(factory):
            first, second = factory(routes), factory(routes)
            for event in events:
                (first if event.time < cut else second).on_event(event)
            for tag in sorted(routes):
                state = first.export_state(tag)
                if state is not None:
                    second.import_state(tag, state)
            return second

        compiled = split_run(PathDeviationQuery)
        legacy = split_run(LegacyPathDeviationQuery)
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
        alone_q1 = drive(FreezerExposureQuery(scenario.catalog), events, sensors)
        alone_q2 = drive(TemperatureExposureQuery(scenario.catalog), events, sensors)
        # One shared engine, each tuple pushed exactly once.
        engine = QueryEngine()
        q1 = FreezerExposureQuery(scenario.catalog)
        q2 = TemperatureExposureQuery(scenario.catalog)
        q1.bind(engine)
        q2.bind(engine)
        scheduler = StreamScheduler()
        scheduler.route(ObjectEvent, engine.push)
        scheduler.route(SensorReading, engine.push)
        scheduler.run(events, sensors)
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

    def test_engine_push_dispatches_subclasses(self):
        """Engine dispatch keeps the scheduler's isinstance semantics:
        a subclass of a stream's tuple type reaches compiled plans."""

        class EnrichedEvent(ObjectEvent):
            pass

        query = DwellTimeQuery(max_dwell=50, max_gap=100)
        tag = EPC(TagKind.CASE, 0)
        for time in (0, 30, 60):
            query.on_event(EnrichedEvent(time, tag, 0, 3, None))
        assert query.violations() == [(tag, 0, 3, 60)]


# -- federated equivalence -------------------------------------------------


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
            if hasattr(next(iter(cluster.nodes)).queries[name], "alert_pairs")
        }
        return {
            "alerts": alerts,
            "migrations": cluster.migrations,
            "data_bytes": cluster.network.data_bytes_by_kind(),
            "containment_error": cluster.containment_error(scenario.truth),
            "checkpoints": {
                node.site: node.snapshot() for node in cluster.nodes
            },
        }


class TestFederatedEquivalence:
    """Compiled vs legacy through the full distributed runtime."""

    def test_compiled_matches_legacy_federation(self):
        scenario = chaos_scenario()
        compiled = run_federated(
            scenario,
            {"q2": lambda site: TemperatureExposureQuery(
                scenario.catalog, exposure_duration=400)},
        )
        legacy = run_federated(
            scenario,
            {"q2": lambda site: LegacyTemperatureExposureQuery(
                scenario.catalog, exposure_duration=400)},
        )
        assert compiled["alerts"] == legacy["alerts"]
        assert compiled["migrations"] == legacy["migrations"]  # incl. bytes
        assert compiled["data_bytes"] == legacy["data_bytes"]
        assert compiled["containment_error"] == legacy["containment_error"]
        # Site checkpoints (inference + query blobs) are byte-identical.
        assert compiled["checkpoints"] == legacy["checkpoints"]

    def test_compiled_matches_legacy_under_chaos_seed(self):
        """Same comparison with a seeded fault plan on every link."""
        scenario = chaos_scenario()
        compiled = run_federated(
            scenario,
            {"q2": lambda site: TemperatureExposureQuery(
                scenario.catalog, exposure_duration=400)},
            transport=chaos_transport(17),
        )
        legacy = run_federated(
            scenario,
            {"q2": lambda site: LegacyTemperatureExposureQuery(
                scenario.catalog, exposure_duration=400)},
            transport=chaos_transport(17),
        )
        assert compiled["alerts"] == legacy["alerts"]
        assert compiled["migrations"] == legacy["migrations"]
        assert compiled["data_bytes"] == legacy["data_bytes"]


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
        for event in self.make_events([0, 20, 40, 60]):
            query.on_event(event)
        assert query.violations() == [(EPC(TagKind.CASE, 0), 0, 3, 60)]

    def test_gap_breaks_visit(self):
        query = DwellTimeQuery(max_dwell=50, max_gap=30)
        for event in self.make_events([0, 20, 100, 120]):
            query.on_event(event)
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
        for event in stream:
            query.on_event(event)
        assert query.violations() == [(tag, 0, 5, 100)]

    def test_items_ignored_for_case_monitor(self):
        query = DwellTimeQuery(max_dwell=10)
        for event in self.make_events([0, 50], tag=EPC(TagKind.ITEM, 0)):
            query.on_event(event)
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
        for event in stream:
            query.on_event(event)
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
        for event in stream:
            query.on_event(event)
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
        for event in stream:
            query.on_event(event)
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


# -- batch path vs tuple-at-a-time push ------------------------------------

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


def build_engine(names, catalog):
    specs = _shipped_specs(catalog)
    engine = QueryEngine()
    return engine, {name: engine.register(specs[name]()) for name in names}


def merged(events, sensors):
    """The one arrival order both paths must honour."""
    return list(merge_by_time(sensors, events))


def push_batches(engine, chunks):
    for chunk in chunks:
        engine.push_batch(
            [t for t in chunk if isinstance(t, ObjectEvent)],
            [t for t in chunk if isinstance(t, SensorReading)],
        )


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
    """``push_batch`` reproduces tuple-at-a-time ``push`` bit for bit."""

    @pytest.mark.parametrize("names", ENGINE_MIXES, ids="+".join)
    @settings(max_examples=40, deadline=None)
    @given(events=event_streams(), sensors=sensor_streams())
    def test_one_batch_matches_push(self, names, events, sensors):
        catalog = batch_catalog()
        ref_engine, ref = build_engine(names, catalog)
        for item in merged(events, sensors):
            ref_engine.push(item)
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
        donor_engine, donor = build_engine(names, catalog)
        for item in stream:
            donor_engine.push(item)
        migrated = [
            (name, tag, data)
            for name in names
            for tag in B_TAGS
            if (data := donor[name].export_state(tag)) is not None
        ]
        ref_engine, ref = build_engine(names, catalog)
        engine, plans = build_engine(names, catalog)
        for index, chunk in enumerate(chunks):
            for item in chunk:
                ref_engine.push(item)
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
        ref_engine, ref = build_engine(("q1", "q2"), catalog)
        for item in merged(events, warm):
            ref_engine.push(item)
        assert ref["q1"].alerts  # the 0→9 exposure outlasts the duration
        engine, plans = build_engine(("q1", "q2"), catalog)
        # Epoch 5's sensor reading ends one batch, its event opens the next.
        engine.push_batch(events[:1], warm)
        engine.push_batch(events[1:], [])
        assert_plans_identical(plans, ref)

    def test_inferred_event_log_matches_push(self):
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

        def engine_with_plans():
            engine = QueryEngine()
            queries = [
                FreezerExposureQuery(scenario.catalog, 300),
                TemperatureExposureQuery(scenario.catalog, 400),
            ]
            plans = [query.bind(engine) for query in queries]
            plans.append(
                engine.register(
                    colocation_breach_spec(
                        scenario.catalog, conflicts=(("frozen", "dry"),), duration=100
                    )
                )
            )
            return engine, plans

        ref_engine, ref = engine_with_plans()
        for item in merged(service.events, sensors):
            ref_engine.push(item)
        engine, plans = engine_with_plans()
        engine.push_batch(service.events, sensors)
        assert any(plan.alerts for plan in ref)
        for got, want in zip(plans, ref):
            assert got.alerts == want.alerts
            assert got.snapshot_state() == want.snapshot_state()
            for tag in scenario.catalog.frozen_items:
                assert got.export_state(tag) == want.export_state(tag)


class TestBatchFallbacksAndDagOrder:
    """Plans the shipped specs do not exercise: predicates without a
    columnar form, hand-wired subscribers, and DAGs whose same-tuple
    visit order is not the common one."""

    @staticmethod
    def _both(register, events):
        """``register(engine) -> plans`` driven tuple by tuple, and in
        two batches."""
        ref_engine = QueryEngine()
        ref = register(ref_engine)
        for item in events:
            ref_engine.push(item)
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

    @settings(max_examples=25, deadline=None)
    @given(events=event_streams())
    def test_hand_wired_subscriber_sees_the_same_rows(self, events):
        seen: list[list] = []  # one list per engine, in registration order

        def register(engine):
            cases = Where(Stream("events"), KindIs(TagKind.CASE))
            pattern = KleeneDuration(
                cases, key=("tag",), time="time", value="place", duration=2
            )
            plan = engine.register(QuerySpec("cases", pattern))
            seen.append([])
            engine.operator_of(cases).subscribe(seen[-1].append)
            return {"cases": plan}

        plans, ref = self._both(register, events)
        assert_plans_identical(plans, ref)
        pushed, batched = seen
        assert batched == pushed == [e for e in events if e.tag.kind is TagKind.CASE]

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
