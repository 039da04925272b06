"""The object event stream produced by inference (§2, §3).

Inference translates raw readings ``(time, tag, reader)`` into
high-level events ``(time, tag, location, container)`` — the schema
that tracking and monitoring queries consume. Optional descriptive
attributes (product type, container type) come from the manufacturer's
catalog (:mod:`repro.workloads.catalog`) at query time.

The stream is handed over **columnar**: each inference run appends one
:class:`EventBatch` (int64 ``time``/``place`` columns, tag and container
as indices into a per-batch EPC table, rows in ``(time, tag)`` order)
to the service's :class:`EventLog`. The query engine and the archive
consume the columns directly; an :class:`ObjectEvent` tuple is only
built when somebody indexes or iterates the log (hand-written queries,
examples, tests), so the log still reads like the list it replaced.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.sim.tags import EPC, TagKind
from repro.sim.trace import GroundTruth

__all__ = ["ObjectEvent", "EventBatch", "EventLog", "change_rows", "events_from_truth"]


class ObjectEvent(NamedTuple):
    """One inferred object state: where it is and what contains it."""

    time: int
    tag: EPC
    site: int
    place: int
    container: EPC | None


class EventBatch:
    """A run of events as columns, in arrival (``(time, tag)``) order.

    ``tag`` and ``container`` index into ``epcs``, the batch's own EPC
    table; a ``container`` of ``-1`` means "contained by nothing".
    Indexing and iteration build :class:`ObjectEvent` tuples on demand;
    a slice is another batch sharing the table (column views, no copy).
    """

    __slots__ = ("time", "tag", "site", "place", "container", "epcs")

    def __init__(
        self,
        time: np.ndarray,
        tag: np.ndarray,
        site: np.ndarray,
        place: np.ndarray,
        container: np.ndarray,
        epcs: Sequence[EPC],
    ) -> None:
        self.time = time
        self.tag = tag
        self.site = site
        self.place = place
        self.container = container
        self.epcs = epcs

    @classmethod
    def from_events(cls, events: Iterable[ObjectEvent]) -> "EventBatch":
        """Columns for already-materialized event tuples (table entries
        in first-encounter order, tag before container)."""
        events = list(events)
        index: dict[EPC, int] = {}
        tags, containers = [], []
        for event in events:
            tags.append(index.setdefault(event.tag, len(index)))
            containers.append(
                -1
                if event.container is None
                else index.setdefault(event.container, len(index))
            )

        def column(values: Iterable[int]) -> np.ndarray:
            return np.fromiter(values, dtype=np.int64, count=len(events))

        return cls(
            column(e.time for e in events),
            column(tags),
            column(e.site for e in events),
            column(e.place for e in events),
            column(containers),
            list(index),
        )

    def __len__(self) -> int:
        return len(self.time)

    def __iter__(self) -> Iterator[ObjectEvent]:
        table = [*self.epcs, None]  # container -1 reads the trailing None
        return map(
            ObjectEvent,
            self.time.tolist(),
            [table[i] for i in self.tag.tolist()],
            self.site.tolist(),
            self.place.tolist(),
            [table[i] for i in self.container.tolist()],
        )

    def __getitem__(self, index: int | slice) -> "ObjectEvent | EventBatch":
        if isinstance(index, slice):
            return EventBatch(
                self.time[index], self.tag[index], self.site[index],
                self.place[index], self.container[index], self.epcs,
            )
        container = int(self.container[index])
        return ObjectEvent(
            int(self.time[index]),
            self.epcs[int(self.tag[index])],
            int(self.site[index]),
            int(self.place[index]),
            None if container < 0 else self.epcs[container],
        )


class EventLog:
    """A time-ordered event stream held as :class:`EventBatch` columns.

    List-shaped for readers — ``len``, truthiness, integer and slice
    indexing, iteration and ``==`` (against another log or a plain list
    of :class:`ObjectEvent`) behave like the ``list[ObjectEvent]`` this
    replaces, building tuples lazily — while columnar consumers walk
    :attr:`batches`. A unit-step slice is another log over column
    views.
    """

    __slots__ = ("batches",)

    def __init__(self, batches: Iterable[EventBatch] = ()) -> None:
        self.batches = [batch for batch in batches if len(batch)]

    @classmethod
    def of(cls, events: "EventLog | Iterable[ObjectEvent]") -> "EventLog":
        """``events`` as a log: itself if it already is one, else the
        tuples turned into one batch."""
        if isinstance(events, EventLog):
            return events
        return cls([EventBatch.from_events(events)])

    def append(self, batch: EventBatch) -> None:
        if len(batch):
            self.batches.append(batch)

    def __len__(self) -> int:
        return sum(map(len, self.batches))

    def __iter__(self) -> Iterator[ObjectEvent]:
        for batch in self.batches:
            yield from batch

    def __getitem__(self, index: int | slice) -> "ObjectEvent | EventLog | list":
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return list(self)[index]
            pieces, base = [], 0
            for batch in self.batches:
                lo, hi = max(start - base, 0), min(stop - base, len(batch))
                if lo < hi:
                    pieces.append(batch[lo:hi])
                base += len(batch)
            return EventLog(pieces)
        if index < 0:
            index += len(self)
        if index >= 0:
            for batch in self.batches:
                if index < len(batch):
                    return batch[index]
                index -= len(batch)
        raise IndexError("event index out of range")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (EventLog, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # mutable, like the list it stands in for

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventLog({len(self)} events in {len(self.batches)} batches)"

    def drop_before(self, time: int) -> int:
        """Drop the leading events older than ``time``; returns how many."""
        dropped = 0
        while self.batches:
            head = self.batches[0]
            keep_from = int(np.searchsorted(head.time, time, side="left"))
            dropped += keep_from
            if keep_from < len(head):
                if keep_from:
                    self.batches[0] = head[keep_from:]
                break
            del self.batches[0]
        return dropped


def change_rows(group: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Indices (ascending) of each group's first row and of every row
    whose value differs from its group's previous row — the only rows
    at which per-group "current value" state (a tag's place, an
    object's site) can change."""
    order = np.argsort(group, kind="stable")
    grouped, values = group[order], value[order]
    change = np.ones(len(order), dtype=bool)
    change[1:] = (grouped[1:] != grouped[:-1]) | (values[1:] != values[:-1])
    return np.sort(order[change])


def events_from_truth(
    truth: GroundTruth,
    horizon: int,
    sites: Iterable[int] | None = None,
    period: int = 1,
    kinds: tuple[TagKind, ...] = (TagKind.ITEM, TagKind.CASE),
) -> list[ObjectEvent]:
    """The event stream a *perfect* inference module would emit.

    Query answers computed on this stream are the ground truth that
    §5.4's F-measures score inferred-stream answers against.
    """
    site_filter = set(sites) if sites is not None else None
    events: list[ObjectEvent] = []
    for tag in truth.tags():
        if tag.kind not in kinds:
            continue
        imap = truth.locations[tag]
        for seg_start, seg_end, loc in imap.segments(0, horizon):
            if loc is None or loc.site < 0:
                continue
            if site_filter is not None and loc.site not in site_filter:
                continue
            first = seg_start + (-seg_start) % period
            for time in range(first, seg_end, period):
                events.append(
                    ObjectEvent(
                        time, tag, loc.site, loc.place, truth.container_at(tag, time)
                    )
                )
    events.sort(key=lambda e: (e.time, e.tag))
    return events
