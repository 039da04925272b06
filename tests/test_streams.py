"""Tests for stream operators, pattern matching, and state encoding."""

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.events import EventBatch, EventLog, ObjectEvent
from repro.queries.batch import _latest_before, _row_keys
from repro.sim.tags import EPC, TagKind
from repro.streams.engine import StreamScheduler, merge_by_time
from repro.streams.operators import (
    WINDOW_UPDATE_PRIORITY,
    Filter,
    LatestByKey,
    Map,
    NowJoin,
)
from repro.streams.pattern import KleeneDurationPattern, PatternState
from repro.streams.state import decode_pattern_state, encode_pattern_state


class Tick(NamedTuple):
    time: int
    key: str
    value: float


class TestOperators:
    def test_filter_and_map_chain(self):
        out = []
        filt = Filter(lambda t: t.value > 0)
        mapper = Map(lambda t: t.value * 2)
        filt.subscribe(mapper)
        mapper.subscribe(out.append)
        for tick in (Tick(0, "a", 1.0), Tick(1, "a", -1.0), Tick(2, "a", 3.0)):
            filt.push(tick)
        assert out == [2.0, 6.0]

    def test_latest_by_key_keeps_newest(self):
        table = LatestByKey(lambda t: t.key)
        table.push(Tick(0, "a", 1.0))
        table.push(Tick(5, "a", 9.0))
        table.push(Tick(3, "b", 2.0))
        assert table.lookup("a").value == 9.0
        assert table.lookup("b").value == 2.0
        assert table.lookup("zzz") is None
        assert len(table) == 2

    def test_now_join_probes_table(self):
        table = LatestByKey(lambda t: t.key)
        table.push(Tick(0, "a", 20.0))
        out = []
        join = NowJoin(
            table,
            probe_key=lambda t: t.key,
            combine=lambda left, right: (left.time, right.value),
            where=lambda left, right: right.value > 10,
        )
        join.subscribe(out.append)
        join.push(Tick(7, "a", 0.0))
        join.push(Tick(8, "missing", 0.0))
        table.push(Tick(9, "a", 5.0))
        join.push(Tick(10, "a", 0.0))  # filtered by where
        assert out == [(7, 20.0)]


class TestScheduler:
    def test_merge_orders_by_time(self):
        a = [Tick(0, "a", 0), Tick(4, "a", 0)]
        b = [Tick(1, "b", 0), Tick(3, "b", 0)]
        merged = list(merge_by_time(a, b))
        assert [t.time for t in merged] == [0, 1, 3, 4]

    def test_merge_tie_break_is_stable(self):
        """The documented contract: at equal timestamps, the earlier
        argument stream wins; within a stream, original order holds."""
        a = [Tick(5, "a1", 0), Tick(5, "a2", 0)]
        b = [Tick(5, "b1", 0), Tick(5, "b2", 0)]
        merged = list(merge_by_time(a, b))
        assert [t.key for t in merged] == ["a1", "a2", "b1", "b2"]
        # And swapping the argument order swaps the winner.
        merged = list(merge_by_time(b, a))
        assert [t.key for t in merged] == ["b1", "b2", "a1", "a2"]

    def test_routes_by_type(self):
        class Other(NamedTuple):
            time: int

        ticks, others = [], []
        sched = StreamScheduler()
        sched.route(Tick, ticks.append)
        sched.route(Other, others.append)
        n = sched.run([Tick(0, "a", 0), Tick(2, "a", 0)], [Other(1)])
        assert n == 3
        assert len(ticks) == 2 and len(others) == 1

    def test_dispatch_cache_handles_subclasses(self):
        class Special(Tick):
            pass

        base_hits, special_hits = [], []
        sched = StreamScheduler()
        sched.route(Tick, base_hits.append)
        sched.route(Special, special_hits.append)
        sched.run([Tick(0, "a", 0), Special(1, "b", 0)])
        # A Special tuple matches both routes (isinstance semantics);
        # a plain Tick matches only the base route.
        assert len(base_hits) == 2
        assert len(special_hits) == 1
        # The resolved chains are cached per exact type.
        assert len(sched.handlers_for(Tick)) == 1
        assert len(sched.handlers_for(Special)) == 2

    def test_late_route_invalidates_cache(self):
        first, second = [], []
        sched = StreamScheduler()
        sched.route(Tick, first.append)
        sched.run([Tick(0, "a", 0)])  # caches Tick → (first,)
        sched.route(Tick, second.append)
        sched.run([Tick(1, "a", 0)])
        assert len(first) == 2 and len(second) == 1

    def test_unrouted_types_are_counted_but_dropped(self):
        class Other(NamedTuple):
            time: int

        sched = StreamScheduler()
        hits = []
        sched.route(Tick, hits.append)
        assert sched.run([Other(0)], [Tick(1, "a", 0)]) == 2
        assert len(hits) == 1


class TestSubscriptionPriority:
    def test_priority_orders_delivery(self):
        seen = []
        source = Map(lambda t: t)
        source.subscribe(lambda t: seen.append("late"), priority=1)
        source.subscribe(lambda t: seen.append("early"))  # default 0
        source.subscribe(lambda t: seen.append("early2"))
        source.push(Tick(0, "a", 0))
        assert seen == ["early", "early2", "late"]

    def test_join_probes_pre_update_relation(self):
        """With the window update at low priority, a tuple probing a
        window built from the same stream sees the *previous* row —
        CQL's pre-update [Now] semantics."""
        out = []
        source = Map(lambda t: t)
        table = LatestByKey(lambda t: t.key)
        join = NowJoin(
            table, probe_key=lambda t: t.key,
            combine=lambda left, right: (left.time, right.time),
        )
        join.subscribe(out.append)
        source.subscribe(join)
        source.subscribe(table, priority=WINDOW_UPDATE_PRIORITY)
        source.push(Tick(1, "a", 0))  # no previous row: probe misses
        source.push(Tick(2, "a", 0))  # sees the t=1 row
        assert out == [(2, 1)]


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
        """``_latest_before`` finds what a ``NowJoin`` against a
        ``LatestByKey`` would have looked up, tuple by tuple — with the
        window update wired after (or, ``build_first``, before) the
        probe of the same tuple."""
        table = LatestByKey(lambda t: t[1])
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
