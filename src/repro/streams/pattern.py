"""SASE-style ``SEQ(A+)`` pattern matching with per-object state.

Query 1's outer block is::

    [ Pattern SEQ(A+)
      Where A[i].tag_id = A[1].tag_id and
            A[A.len].time > A[1].time + 6 hrs ]

i.e. a run of qualifying tuples for the same object whose span exceeds a
duration. The automaton state per object is exactly what Appendix B
prescribes for migration: (i) the current automaton state, (ii) the
minimum values needed for future evaluation (first-event time), and
(iii) the values the query returns (the collected readings). That state
is what :mod:`repro.streams.state` serializes and what the
centroid-sharing technique (§4.2) compresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, NamedTuple

__all__ = ["PatternState", "PatternAlert", "KleeneDurationPattern"]


class PatternAlert(NamedTuple):
    """A completed pattern match."""

    key: Hashable
    start_time: int
    end_time: int
    values: tuple[float, ...]


@dataclass
class PatternState:
    """Automaton state of one partition (one object)."""

    #: 0 = waiting for first A; 1 = inside A+; 2 = already fired.
    stage: int = 0
    start_time: int = 0
    last_time: int = 0
    values: list[float] = field(default_factory=list)

    def reset(self) -> None:
        self.stage = 0
        self.start_time = 0
        self.last_time = 0
        self.values.clear()


class KleeneDurationPattern:
    """``SEQ(A+)`` per key with a minimum-span firing condition.

    Parameters
    ----------
    key_fn:
        Partitioning function (Q1/Q2: the tag id).
    time_fn:
        Event timestamp accessor.
    value_fn:
        Value collected from each qualifying event (Q1/Q2: temperature).
    duration:
        Fire when ``last.time > first.time + duration`` — once per run;
        a new run starts after a reset (or a ``max_gap`` silence).
    max_values:
        Cap on the collected value list (bounds per-object state size).
    max_gap:
        Treat a silence longer than ``max_gap`` between consecutive
        qualifying events as a run break: the stale partial (or fired)
        state resets and the arriving event starts a fresh run. ``None``
        (the default, used by Q1/Q2) keeps runs alive across any gap —
        those queries break runs explicitly via :meth:`reset_key`.
        Dwell-style monitors, whose partitions simply stop receiving
        events when the object moves away, rely on it instead.
    """

    def __init__(
        self,
        key_fn: Callable[[Any], Hashable],
        time_fn: Callable[[Any], int],
        value_fn: Callable[[Any], float],
        duration: int,
        max_values: int = 64,
        max_gap: int | None = None,
    ) -> None:
        self.key_fn = key_fn
        self.time_fn = time_fn
        self.value_fn = value_fn
        self.duration = duration
        self.max_values = max_values
        self.max_gap = max_gap
        self.states: dict[Hashable, PatternState] = {}
        self.alerts: list[PatternAlert] = []

    def state_of(self, key: Hashable) -> PatternState:
        state = self.states.get(key)
        if state is None:
            state = PatternState()
            self.states[key] = state
        return state

    def push(self, event: Any) -> None:
        key = self.key_fn(event)
        time = self.time_fn(event)
        state = self.state_of(key)
        if (
            self.max_gap is not None
            and state.stage != 0
            and time > state.last_time + self.max_gap
        ):
            state.reset()
        if state.stage == 0:
            state.stage = 1
            state.start_time = time
            state.values.clear()
        state.last_time = time
        if len(state.values) < self.max_values:
            state.values.append(float(self.value_fn(event)))
        if state.stage == 1 and time > state.start_time + self.duration:
            state.stage = 2
            self.alerts.append(
                PatternAlert(key, state.start_time, time, tuple(state.values))
            )

    def reset_key(self, key: Hashable, time: int) -> None:
        """The negative condition: the run is broken (Q1: the product is
        back inside a freezer), so the partial match is discarded."""
        state = self.states.get(key)
        if state is not None:
            state.reset()

    # -- migration support -------------------------------------------------

    def export_state(self, key: Hashable) -> PatternState | None:
        return self.states.get(key)

    def import_state(self, key: Hashable, state: PatternState) -> None:
        self.states[key] = state

    def absorb_state(self, key: Hashable, incoming: PatternState) -> None:
        """Merge a migrated automaton state with any local partial match.

        When an object's state arrives *after* the new site has already
        processed the object's first local events (the runtime runs
        inference ticks before routing arrivals), the local automaton
        may hold a young partial run. For a duration pattern the two
        runs are one continuous exposure, so the merge keeps the
        earliest start, the latest event, and the concatenated values —
        and a run that already fired at the previous site suppresses a
        duplicate alert here. If the *combined* span already satisfies
        the duration, the alert fires at merge time: the qualifying
        event exists (the local partial's last event), it just arrived
        before the migrated start of the run.
        """
        local = self.states.get(key)
        if local is None or local.stage == 0:
            self.states[key] = incoming
            local = incoming
        elif incoming.stage == 0:
            return  # nothing was in progress at the previous site
        else:
            if incoming.stage == 2:
                local.stage = 2
            if incoming.start_time < local.start_time:
                local.start_time = incoming.start_time
                local.values = (incoming.values + local.values)[: self.max_values]
            local.last_time = max(local.last_time, incoming.last_time)
        if local.stage == 1 and local.last_time > local.start_time + self.duration:
            local.stage = 2
            self.alerts.append(
                PatternAlert(key, local.start_time, local.last_time, tuple(local.values))
            )

    def evict(self, key: Hashable) -> None:
        self.states.pop(key, None)
