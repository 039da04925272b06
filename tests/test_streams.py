"""Tests for plan timing, pattern matching, state encoding and the
batch kernels."""

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.events import EventBatch, EventLog, ObjectEvent
from repro.queries.batch import _latest_before, _row_keys
from repro.queries.compiler import QueryEngine
from repro.queries.spec import JoinLatest, KleeneDuration, Latest, QuerySpec, Stream
from repro.sim.sensors import SensorReading
from repro.sim.tags import EPC, TagKind
from repro.streams.pattern import KleeneDurationPattern, PatternAlert, PatternState
from repro.streams.state import decode_pattern_state, encode_pattern_state

from oracles.dag import NowJoin, Window


class Tick(NamedTuple):
    time: int
    key: str
    value: float


class TestEngineTiming:
    """The two same-instant rules of a compiled plan: a reading is in
    its window before the events of its epoch probe it, and a tuple
    probes a window it also updates as of the previous instant."""

    def test_sensors_precede_events_at_equal_time(self):
        window = Latest(Stream("sensors"), key=("site", "sensor"))
        joined = JoinLatest(
            Stream("events"), window, probe=("site", "place"),
            select=(("time", "left.time"), ("tag", "left.tag"), ("temp", "right.temp")),
        )
        spec = QuerySpec("warm", KleeneDuration(
            joined, key=("tag",), time="time", value="temp", duration=0,
        ))
        engine = QueryEngine()
        plan = engine.register(spec)
        tag = EPC(TagKind.CASE, 0)
        engine.push_batch(
            [ObjectEvent(t, tag, 0, 1, None) for t in (5, 6)],
            [SensorReading(5, 0, 1, 7.0)],
        )
        assert plan.alerts == [PatternAlert(tag, 5, 6, (7.0, 7.0))]

    def test_join_probes_pre_update_relation(self):
        source = Stream("events")
        joined = JoinLatest(
            source, Latest(source, key=("site", "place")), probe=("site", "place"),
            select=(("time", "left.time"), ("tag", "left.tag"), ("since", "right.time")),
        )
        spec = QuerySpec("seen", KleeneDuration(
            joined, key=("tag",), time="time", value="since", duration=0,
        ))
        engine = QueryEngine()
        plan = engine.register(spec)
        tag = EPC(TagKind.CASE, 0)
        # t=1 finds no previous row (not its own); t=2 sees the t=1 row.
        engine.push_batch([ObjectEvent(t, tag, 0, 4, None) for t in (1, 2, 3)])
        assert plan.alerts == [PatternAlert(tag, 2, 3, (1.0, 2.0))]


class TestPattern:
    def make(self, duration=10):
        return KleeneDurationPattern(
            key_fn=lambda t: t.key,
            time_fn=lambda t: t.time,
            value_fn=lambda t: t.value,
            duration=duration,
        )

    def test_fires_after_duration(self):
        pattern = self.make(duration=10)
        for time in (0, 5, 11):
            pattern.push(Tick(time, "x", float(time)))
        assert len(pattern.alerts) == 1
        alert = pattern.alerts[0]
        assert alert.key == "x"
        assert alert.start_time == 0 and alert.end_time == 11
        assert alert.values == (0.0, 5.0, 11.0)

    def test_does_not_fire_below_duration(self):
        pattern = self.make(duration=10)
        pattern.push(Tick(0, "x", 1.0))
        pattern.push(Tick(10, "x", 1.0))  # span must strictly exceed
        assert pattern.alerts == []

    def test_reset_breaks_run(self):
        pattern = self.make(duration=10)
        pattern.push(Tick(0, "x", 1.0))
        pattern.reset_key("x", 4)
        pattern.push(Tick(5, "x", 1.0))
        pattern.push(Tick(12, "x", 1.0))  # span 7 from restart: no alert
        assert pattern.alerts == []
        pattern.push(Tick(16, "x", 1.0))  # span 11: fires
        assert len(pattern.alerts) == 1

    def test_partitions_are_independent(self):
        pattern = self.make(duration=5)
        pattern.push(Tick(0, "x", 1.0))
        pattern.push(Tick(0, "y", 1.0))
        pattern.push(Tick(6, "x", 1.0))
        assert [a.key for a in pattern.alerts] == ["x"]

    def test_fires_once_per_run(self):
        pattern = self.make(duration=5)
        for time in (0, 6, 7, 8):
            pattern.push(Tick(time, "x", 1.0))
        assert len(pattern.alerts) == 1

    def test_max_gap_breaks_stale_runs(self):
        pattern = KleeneDurationPattern(
            key_fn=lambda t: t.key,
            time_fn=lambda t: t.time,
            value_fn=lambda t: t.value,
            duration=10,
            max_gap=20,
        )
        pattern.push(Tick(0, "x", 1.0))
        pattern.push(Tick(50, "x", 2.0))  # gap 50 > 20: fresh run at 50
        assert pattern.alerts == []
        assert pattern.state_of("x").start_time == 50
        pattern.push(Tick(61, "x", 3.0))  # span 11 from the restart
        assert len(pattern.alerts) == 1
        assert pattern.alerts[0].start_time == 50

    def test_max_gap_none_keeps_runs_alive(self):
        pattern = self.make(duration=10)
        pattern.push(Tick(0, "x", 1.0))
        pattern.push(Tick(500, "x", 2.0))  # default: any silence is fine
        assert len(pattern.alerts) == 1

    def test_max_values_caps_state(self):
        pattern = KleeneDurationPattern(
            key_fn=lambda t: t.key,
            time_fn=lambda t: t.time,
            value_fn=lambda t: t.value,
            duration=1000,
            max_values=4,
        )
        for time in range(20):
            pattern.push(Tick(time, "x", 1.0))
        assert len(pattern.state_of("x").values) == 4

    def test_absorb_into_empty_adopts(self):
        pattern = self.make(duration=10)
        pattern.push(Tick(0, "x", 1.0))
        other = self.make(duration=10)
        other.absorb_state("x", pattern.export_state("x"))
        other.push(Tick(11, "x", 2.0))
        assert len(other.alerts) == 1

    def test_absorb_merges_with_local_partial(self):
        """A migrated run merges with the partial formed at the new
        site: earliest start wins, so the duration spans the hand-off."""
        origin = self.make(duration=10)
        origin.push(Tick(0, "x", 1.0))
        origin.push(Tick(4, "x", 2.0))
        local = self.make(duration=10)
        local.push(Tick(7, "x", 3.0))  # new site's own young partial
        local.absorb_state("x", origin.export_state("x"))
        state = local.state_of("x")
        assert state.stage == 1
        assert state.start_time == 0
        assert state.values == [1.0, 2.0, 3.0]
        local.push(Tick(11, "x", 4.0))  # 11 > 0 + 10: fires on merge
        assert len(local.alerts) == 1
        assert local.alerts[0].start_time == 0

    def test_absorb_fires_when_merged_span_satisfies_duration(self):
        """If the combined cross-site span already exceeds the duration
        at hand-off time, the alert fires at the merge — there may be
        no further qualifying event to trigger it later."""
        origin = self.make(duration=10)
        origin.push(Tick(0, "x", 1.0))
        origin.push(Tick(4, "x", 2.0))
        local = self.make(duration=10)
        local.push(Tick(11, "x", 3.0))  # last local event before hand-off
        local.absorb_state("x", origin.export_state("x"))
        assert len(local.alerts) == 1
        alert = local.alerts[0]
        assert alert.start_time == 0 and alert.end_time == 11
        assert local.state_of("x").stage == 2
        local.push(Tick(30, "x", 4.0))
        assert len(local.alerts) == 1  # no duplicate for the same run

    def test_absorb_fired_state_suppresses_refire(self):
        origin = self.make(duration=5)
        origin.push(Tick(0, "x", 1.0))
        origin.push(Tick(6, "x", 1.0))  # fires at the origin site
        assert len(origin.alerts) == 1
        local = self.make(duration=5)
        local.push(Tick(8, "x", 1.0))
        local.absorb_state("x", origin.export_state("x"))
        local.push(Tick(20, "x", 1.0))
        assert local.alerts == []  # the same run does not alert twice

    def test_absorb_quiescent_state_is_inert(self):
        local = self.make(duration=10)
        local.push(Tick(3, "x", 1.0))
        from repro.streams.pattern import PatternState

        local.absorb_state("x", PatternState())  # stage-0 incoming
        state = local.state_of("x")
        assert state.stage == 1 and state.start_time == 3

    def test_export_import_state(self):
        pattern = self.make(duration=10)
        pattern.push(Tick(0, "x", 1.0))
        exported = pattern.export_state("x")
        other = self.make(duration=10)
        other.import_state("x", exported)
        other.push(Tick(11, "x", 2.0))
        assert len(other.alerts) == 1


class TestStateEncoding:
    @given(
        stage=st.integers(0, 2),
        start=st.integers(0, 10**6),
        last=st.integers(0, 10**6),
        values=st.lists(st.floats(-100, 100, width=32), max_size=16),
    )
    def test_round_trip(self, stage, start, last, values):
        state = PatternState(stage, start, last, list(values))
        back = decode_pattern_state(encode_pattern_state(state))
        assert back.stage == stage
        assert back.start_time == start
        assert back.last_time == last
        assert back.values == pytest.approx(values)


# -- the columnar hand-over --------------------------------------------------

_TAGS = [EPC(TagKind.ITEM, 1), EPC(TagKind.ITEM, 2), EPC(TagKind.CASE, 1)]


@st.composite
def object_events(draw, max_size=30):
    steps = draw(st.lists(st.integers(0, 2), max_size=max_size))
    events, now = [], 0
    for step in steps:
        now += step
        events.append(
            ObjectEvent(
                now,
                draw(st.sampled_from(_TAGS)),
                draw(st.integers(0, 1)),
                draw(st.integers(0, 3)),
                draw(st.sampled_from([None, _TAGS[2]])),
            )
        )
    return events


def log_of(events, cuts):
    """``events`` as a log of several batches, cut at ``cuts``."""
    bounds = sorted({0, len(events), *(c for c in cuts if c < len(events))})
    return EventLog(
        EventBatch.from_events(events[a:b]) for a, b in zip(bounds, bounds[1:])
    )


class TestEventLog:
    """The columnar log still reads like the list it replaced."""

    @given(events=object_events(), cuts=st.lists(st.integers(0, 30), max_size=3))
    def test_reads_like_a_list(self, events, cuts):
        log = log_of(events, cuts)
        assert len(log) == len(events)
        assert bool(log) == bool(events)
        assert list(log) == events
        assert log == events and events == log
        assert log == log_of(events, [])  # batching is not identity
        assert log != events + [ObjectEvent(99, _TAGS[0], 0, 0, None)]
        for index in range(-len(events), len(events)):
            assert log[index] == events[index]
        with pytest.raises(IndexError):
            log[len(events)]
        assert sorted(log, key=lambda e: e.time) == events

    @given(
        events=object_events(),
        cuts=st.lists(st.integers(0, 30), max_size=3),
        lo=st.integers(-35, 35),
        hi=st.integers(-35, 35),
    )
    def test_slices_are_logs_over_column_views(self, events, cuts, lo, hi):
        log = log_of(events, cuts)
        assert isinstance(log[lo:hi], EventLog)
        assert log[lo:hi] == events[lo:hi]
        assert log[lo:] == events[lo:]
        assert log[::2] == events[::2]

    @given(
        events=object_events(),
        cuts=st.lists(st.integers(0, 30), max_size=3),
        cut_time=st.integers(0, 40),
    )
    def test_drop_before_cuts_by_time(self, events, cuts, cut_time):
        log = log_of(events, cuts)
        kept = [e for e in events if e.time >= cut_time]
        assert log.drop_before(cut_time) == len(events) - len(kept)
        assert log == kept


class TestBatchKernels:
    """The join and key kernels against the scalar operators."""

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 3),  # key
                st.sampled_from(["probe", "build", "both"]),
            ),
            max_size=30,
        ),
        build_first=st.booleans(),
    )
    def test_as_of_join_matches_now_join(self, rows, build_first):
        """``_latest_before`` finds what the oracle's ``NowJoin`` against
        a ``Window`` would have looked up, tuple by tuple — with the
        window update wired after (or, ``build_first``, before) the
        probe of the same tuple."""
        table = Window(lambda t: t[1])
        found = {}
        join = NowJoin(
            table, probe_key=lambda t: t[1], combine=lambda left, right: (left, right)
        )
        join.subscribe(lambda pair: found.__setitem__(pair[0][0], pair[1][0]))
        probes, builds = [], []
        for rank, (key, role) in enumerate(rows):
            item = (rank, key)
            steps = []
            if role != "build":
                probes.append(item)
                steps.append(join.push)
            if role != "probe":
                builds.append(item)
                steps.append(table.push)
            for step in reversed(steps) if build_first else steps:
                step(item)
        keys = np.array([k for _, k in probes] + [k for _, k in builds], dtype=np.int64)
        match = _latest_before(
            keys,
            np.array([r for r, _ in probes], dtype=np.int64),
            np.array([r for r, _ in builds], dtype=np.int64),
            build_first,
        )
        got = {
            probes[i][0]: builds[j][0] for i, j in enumerate(match.tolist()) if j >= 0
        }
        assert got == found

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([0, 1, -(2**62), 2**62, 7]),
                st.integers(0, 2),
                st.sampled_from([-(2**40), 0, 2**40]),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_row_keys_agree_exactly_when_rows_do(self, rows):
        """Also when the value ranges are too wide for mixed radix and
        the columns have to be re-densified."""
        columns = [np.array(col, dtype=np.int64) for col in zip(*rows)]
        keys = _row_keys(columns).tolist()
        for i, a in enumerate(rows):
            for j, b in enumerate(rows):
                assert (keys[i] == keys[j]) == (a == b)

    def test_row_keys_of_float_columns(self):
        keys = _row_keys([np.array([0.5, 1.5, 0.5]), np.array([1, 1, 1])]).tolist()
        assert keys[0] == keys[2] != keys[1]
