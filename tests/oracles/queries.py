"""Hand-written Q1, Q2 and tracking queries — the query layer's oracle.

The pre-compiler implementations of the paper's monitoring queries,
kept verbatim as the reference ``tests/test_query_plans.py`` holds the
compiled plans (:mod:`repro.queries`) to: alerts, migrated per-object
state bytes, and checkpoint payloads must match bit for bit. Each query
is a direct tuple-at-a-time reading of its CQL+SEQ text (§2).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Hashable, NamedTuple

from repro._util.encoding import ByteReader, ByteWriter
from repro.core.events import ObjectEvent
from repro.sim.sensors import SensorReading
from repro.sim.tags import EPC, read_epc, write_epc
from repro.streams.pattern import KleeneDurationPattern, PatternAlert, PatternState
from repro.streams.state import (
    decode_pattern_state,
    encode_pattern_state,
    restore_pattern,
    snapshot_pattern,
)
from repro.workloads.catalog import ProductCatalog

from oracles.dag import Window

__all__ = [
    "ExposureTuple",
    "LegacyFreezerExposureQuery",
    "LegacyTemperatureExposureQuery",
    "LegacyPathDeviationQuery",
    "snapshot_exposure_query",
    "restore_exposure_query",
]


def snapshot_exposure_query(query) -> bytes:
    """Checkpoint an exposure query (Q1/Q2): automaton states, fired
    alerts, and the ``[Partition By sensor Rows 1]`` temperature table.

    The temperature table matters for crash recovery: without it, the
    first events after a restart would find no latest reading and the
    restored site would silently miss pattern pushes the fault-free run
    made.
    """
    writer = ByteWriter()
    writer.blob(snapshot_pattern(query.pattern))
    table = query.temperature.table
    writer.varint(len(table))
    for key in sorted(table):
        reading = table[key]
        writer.varint(reading.time)
        writer.svarint(reading.site)
        writer.varint(reading.sensor)
        writer.float64(reading.temp)
    return writer.getvalue()


def restore_exposure_query(query, data: bytes) -> None:
    """Inverse of :func:`snapshot_exposure_query`."""
    reader = ByteReader(data)
    try:
        restore_pattern(query.pattern, reader.blob())
        table = {}
        for _ in range(reader.varint()):
            reading = SensorReading(
                time=reader.varint(),
                site=reader.svarint(),
                sensor=reader.varint(),
                temp=reader.float64(),
            )
            table[(reading.site, reading.sensor)] = reading
    except (EOFError, struct.error, IndexError) as exc:
        raise ValueError(f"malformed exposure-query snapshot: {exc}") from exc
    query.temperature.table = table


class ExposureTuple(NamedTuple):
    """One tuple of the inner query's output stream S."""

    time: int
    tag: EPC
    place: int
    temp: float


class LegacyFreezerExposureQuery:
    """Hand-written continuous evaluation of Query 1."""

    def __init__(
        self,
        catalog: ProductCatalog,
        exposure_duration: int = 300,
        temp_threshold: float = 0.0,
    ) -> None:
        self.catalog = catalog
        self.temp_threshold = temp_threshold
        # Temperature [Partition By sensor Rows 1]
        self.temperature = Window(lambda s: (s.site, s.sensor))
        # Pattern SEQ(A+) over the global stream, partitioned by tag id.
        self.pattern = KleeneDurationPattern(
            key_fn=lambda s: s.tag,
            time_fn=lambda s: s.time,
            value_fn=lambda s: s.temp,
            duration=exposure_duration,
        )

    # -- stream handlers ----------------------------------------------------

    def on_sensor(self, reading: SensorReading) -> None:
        self.temperature.push(reading)

    def on_event(self, event: ObjectEvent) -> None:
        if not self.catalog.is_frozen_product(event.tag):
            return
        if self.catalog.is_freezer(event.container):
            # Back under refrigeration: the exposure run is broken.
            self.pattern.reset_key(event.tag, event.time)
            return
        reading = self.temperature.lookup((event.site, event.place))
        if reading is None:
            return
        if reading.temp > self.temp_threshold:
            self.pattern.push(
                ExposureTuple(event.time, event.tag, event.place, reading.temp)
            )
        else:
            # Measurably cold (e.g. a freezer location): not exposed.
            self.pattern.reset_key(event.tag, event.time)

    # -- results and migrated state ------------------------------------------

    @property
    def alerts(self) -> list[PatternAlert]:
        return self.pattern.alerts

    def alert_pairs(self) -> list[tuple[Hashable, int]]:
        """(tag, alert time) pairs for F-measure scoring."""
        return [(alert.key, alert.end_time) for alert in self.alerts]

    def export_state(self, tag: EPC) -> bytes | None:
        state = self.pattern.export_state(tag)
        return None if state is None else encode_pattern_state(state)

    def import_state(self, tag: EPC, data: bytes) -> None:
        """Absorb a migrated automaton state (merging with any local
        partial match the new site has already built up)."""
        self.pattern.absorb_state(tag, decode_pattern_state(data))

    def active_states(self) -> dict[EPC, PatternState]:
        """Per-object automaton states currently held (for sharing)."""
        return dict(self.pattern.states)

    # -- checkpoint hooks (crash recovery) --------------------------------

    def snapshot_state(self) -> bytes:
        return snapshot_exposure_query(self)

    def restore_state(self, data: bytes) -> None:
        restore_exposure_query(self, data)


class LegacyTemperatureExposureQuery:
    """Hand-written continuous evaluation of Query 2."""

    def __init__(
        self,
        catalog: ProductCatalog,
        exposure_duration: int = 400,
        temp_threshold: float = 10.0,
    ) -> None:
        self.catalog = catalog
        self.temp_threshold = temp_threshold
        self.temperature = Window(lambda s: (s.site, s.sensor))
        self.pattern = KleeneDurationPattern(
            key_fn=lambda s: s.tag,
            time_fn=lambda s: s.time,
            value_fn=lambda s: s.temp,
            duration=exposure_duration,
        )

    def on_sensor(self, reading: SensorReading) -> None:
        self.temperature.push(reading)

    def on_event(self, event: ObjectEvent) -> None:
        if not self.catalog.is_frozen_product(event.tag):
            return
        reading = self.temperature.lookup((event.site, event.place))
        if reading is None:
            return
        if reading.temp > self.temp_threshold:
            self.pattern.push(
                ExposureTuple(event.time, event.tag, event.place, reading.temp)
            )
        else:
            self.pattern.reset_key(event.tag, event.time)

    @property
    def alerts(self) -> list[PatternAlert]:
        return self.pattern.alerts

    def alert_pairs(self) -> list[tuple[Hashable, int]]:
        return [(alert.key, alert.end_time) for alert in self.alerts]

    def export_state(self, tag: EPC) -> bytes | None:
        state = self.pattern.export_state(tag)
        return None if state is None else encode_pattern_state(state)

    def import_state(self, tag: EPC, data: bytes) -> None:
        self.pattern.absorb_state(tag, decode_pattern_state(data))

    def active_states(self) -> dict[EPC, PatternState]:
        return dict(self.pattern.states)

    # -- checkpoint hooks (crash recovery) --------------------------------

    def snapshot_state(self) -> bytes:
        return snapshot_exposure_query(self)

    def restore_state(self, data: bytes) -> None:
        restore_exposure_query(self, data)


class _LegacyDeviationAlert(NamedTuple):
    """An object observed off its intended route."""

    tag: EPC
    time: int
    site: int
    expected: tuple[int, ...]


@dataclass
class _RouteProgress:
    """Per-object tracking state (migrates with the object)."""

    position: int = 0
    deviated: bool = False
    history: list[int] = field(default_factory=list)


class LegacyPathDeviationQuery:
    """Hand-written continuous route conformance checking."""

    def __init__(self, routes: dict[EPC, tuple[int, ...]]) -> None:
        self.routes = dict(routes)
        self.progress: dict[EPC, _RouteProgress] = {}
        self.alerts: list[_LegacyDeviationAlert] = []

    def on_event(self, event: ObjectEvent) -> None:
        route = self.routes.get(event.tag)
        if route is None:
            return
        state = self.progress.setdefault(event.tag, _RouteProgress())
        if state.deviated:
            return
        if not state.history or state.history[-1] != event.site:
            state.history.append(event.site)
        if state.position < len(route) and event.site == route[state.position]:
            return  # still at the expected site
        if state.position + 1 < len(route) and event.site == route[state.position + 1]:
            state.position += 1  # advanced to the next expected site
            return
        state.deviated = True
        expected = route[state.position : state.position + 2]
        self.alerts.append(
            _LegacyDeviationAlert(event.tag, event.time, event.site, expected)
        )

    def path_of(self, tag: EPC) -> list[int]:
        """Sites visited so far (the "list the path taken" query)."""
        state = self.progress.get(tag)
        return list(state.history) if state is not None else []

    # -- migrated state (runtime QueryRouter hooks) ------------------------

    def export_state(self, tag: EPC) -> bytes | None:
        """Serialize one object's route progress for migration."""
        state = self.progress.get(tag)
        if state is None:
            return None
        writer = ByteWriter()
        writer.varint(state.position)
        writer.varint(1 if state.deviated else 0)
        writer.varint(len(state.history))
        for site in state.history:
            writer.varint(site)
        return writer.getvalue()

    def import_state(self, tag: EPC, data: bytes) -> None:
        """Merge migrated route progress with any local observations."""
        reader = ByteReader(data)
        try:
            position = reader.varint()
            deviated = bool(reader.varint())
            history = [reader.varint() for _ in range(reader.varint())]
        except EOFError as exc:
            raise ValueError(f"malformed route state: {exc}") from exc
        state = self.progress.setdefault(tag, _RouteProgress())
        state.position = max(state.position, position)
        state.deviated = state.deviated or deviated
        merged = list(history)
        for site in state.history:
            if not merged or merged[-1] != site:
                merged.append(site)
        state.history = merged

    # -- checkpoint hooks (crash recovery) ---------------------------------

    def snapshot_state(self) -> bytes:
        """Checkpoint all route progress and fired alerts (routes are
        constructor state and come back with the rebuilt instance)."""
        writer = ByteWriter()
        writer.varint(len(self.progress))
        for tag in sorted(self.progress):
            state = self.progress[tag]
            write_epc(writer, tag)
            writer.varint(state.position)
            writer.varint(1 if state.deviated else 0)
            writer.varint(len(state.history))
            for site in state.history:
                writer.svarint(site)
        writer.varint(len(self.alerts))
        for alert in self.alerts:
            write_epc(writer, alert.tag)
            writer.varint(alert.time)
            writer.svarint(alert.site)
            writer.varint(len(alert.expected))
            for site in alert.expected:
                writer.svarint(site)
        return writer.getvalue()

    def restore_state(self, data: bytes) -> None:
        reader = ByteReader(data)
        try:
            progress: dict[EPC, _RouteProgress] = {}
            for _ in range(reader.varint()):
                tag = read_epc(reader)
                position = reader.varint()
                deviated = bool(reader.varint())
                history = [reader.svarint() for _ in range(reader.varint())]
                progress[tag] = _RouteProgress(position, deviated, history)
            alerts: list[_LegacyDeviationAlert] = []
            for _ in range(reader.varint()):
                tag = read_epc(reader)
                time = reader.varint()
                site = reader.svarint()
                expected = tuple(reader.svarint() for _ in range(reader.varint()))
                alerts.append(_LegacyDeviationAlert(tag, time, site, expected))
        except EOFError as exc:
            raise ValueError(f"malformed tracking snapshot: {exc}") from exc
        self.progress = progress
        self.alerts = alerts
