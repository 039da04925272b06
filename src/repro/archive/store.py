"""Per-site append-only historical archive (the time-travel store).

The streaming service answers "where is tag X *now*"; this module keeps
what it said at every epoch boundary so the serving layer can answer
"where *was* tag X at time t", containment provenance, dwell totals,
and alert audits long after the stream has moved on.

A :class:`SiteArchive` is fed once per inference boundary from the
site's :class:`~repro.core.service.StreamingInference` output and holds
four columnar logs:

* **location intervals** — each tag's decoded place as ``[start, end)``
  intervals, built from the emitted :class:`~repro.core.events.ObjectEvent`
  stream (adjacent same-place events collapse into one interval);
* **containment intervals** — the per-boundary containment snapshot as
  intervals, each carrying the posterior probability the EM assigned to
  the container when it was adopted;
* **belief intervals** — the top-k posterior candidates per tag (rank,
  candidate, probability), resealed whenever the posterior changes;
* **events** and **query alerts** — the raw emitted rows, for scans.

Rows accumulate in a small Python *pending* list; :meth:`~SiteArchive.seal`
freezes pending rows into an immutable numpy **segment** (automatic
once ``seal_every`` rows gather), and :meth:`~SiteArchive.compact`
merges adjacent same-value intervals across segments. Readers take
:meth:`~SiteArchive.snapshot_reader` — sealed segments are shared
(immutable), pending/open state is copied — so a reader's answers are
unaffected by appends that happen after the snapshot.

Everything here is deterministic: ingest iterates service state in
sorted-tag order and posteriors are computed with a fixed summation
order, so two runs with bit-identical inference state produce
bit-identical archives — the property the chaos harness leans on for
crash recovery (the archive rides inside site checkpoints, see
:mod:`repro.archive.codec`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro.core.events import EventBatch, EventLog, change_rows
from repro.sim.tags import EPC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.service import StreamingInference

__all__ = ["SiteArchive", "NO_CONTAINER", "TOP_K"]


def _fresh_segments(segments):
    """An empty container of the same kind as ``segments``.

    Plain in-memory logs use a ``list``; tiered logs use
    :class:`~repro.archive.tiers.TieredSegments`, which must survive
    compaction (``compact`` rebuilds the sealed-segment container).
    """
    fresh = getattr(segments, "fresh", None)
    return fresh() if fresh is not None else []


def _sealed_row_total(segments) -> int:
    """Sealed-row count without materializing disk-resident segments."""
    counts = getattr(segments, "row_counts", None)
    if counts is not None:
        return sum(counts())
    return sum(len(seg[0]) for seg in segments)

#: value sentinel for "contained by nothing" in containment columns.
NO_CONTAINER = -1

#: how many posterior candidates the belief log keeps per tag.
TOP_K = 3

#: interval-log row: (tag_id, rank, start, end, value, posterior).
_ROW_INTS = 5


def _posteriors(weights: dict[EPC, float]) -> list[tuple[EPC, float]]:
    """Normalize log-domain candidate weights to probabilities.

    Candidates are processed in sorted-EPC order so the float summation
    order (and therefore every bit of the result) is deterministic.
    """
    items = sorted(weights.items())
    peak = max(weight for _, weight in items)
    exps = [(cand, math.exp(weight - peak)) for cand, weight in items]
    total = 0.0
    for _, mass in exps:
        total += mass
    return [(cand, mass / total) for cand, mass in exps]


class _IntervalLog:
    """Append-only ``(tag, rank, start, end, value, posterior)`` intervals.

    Per tag there is at most one *open* state — a tuple of
    ``(value, posterior)`` rows by rank, in force since ``start``. When
    :meth:`observe` sees a different state, rows for the old one are
    sealed with ``end`` = the new boundary. ``value_only=True``
    compares values and ignores posterior drift (containment intervals
    keep the posterior at adoption time instead of resealing every
    boundary).
    """

    def __init__(self, seal_every: int) -> None:
        self.seal_every = seal_every
        #: immutable sealed segments: parallel arrays
        #: (tags, ranks, starts, ends, values) int64 + posteriors float64.
        self.segments: list[tuple[np.ndarray, ...]] = []
        #: rows sealed but not yet frozen into a segment.
        self.pending: list[tuple[int, int, int, int, int, float]] = []
        #: per-tag open state: tag_id -> (start, ((value, posterior), ...)).
        self.open: dict[int, tuple[int, tuple[tuple[int, float], ...]]] = {}

    # -- writing ----------------------------------------------------------

    def observe(
        self,
        tag: int,
        time: int,
        state: tuple[tuple[int, float], ...],
        value_only: bool = False,
    ) -> None:
        current = self.open.get(tag)
        if current is not None:
            if value_only:
                same = tuple(v for v, _ in current[1]) == tuple(v for v, _ in state)
            else:
                same = current[1] == state
            if same:
                return
            start, rows = current
            for rank, (value, posterior) in enumerate(rows):
                self.pending.append((tag, rank, start, time, value, posterior))
            self._maybe_seal()
        if state:
            self.open[tag] = (time, state)
        elif current is not None:
            del self.open[tag]

    def _maybe_seal(self) -> None:
        if len(self.pending) >= self.seal_every:
            self.seal()

    def seal(self) -> None:
        """Freeze pending rows into one immutable columnar segment."""
        if not self.pending:
            return
        rows = self.pending
        self.pending = []
        cols = tuple(
            np.fromiter((row[i] for row in rows), dtype=np.int64, count=len(rows))
            for i in range(_ROW_INTS)
        )
        posts = np.fromiter((row[5] for row in rows), dtype=np.float64, count=len(rows))
        self.segments.append(cols + (posts,))

    def compact(self) -> int:
        """Merge adjacent same-value intervals; returns rows removed.

        Rows across all sealed segments are re-sorted by
        ``(tag, rank, start)`` and neighbours with identical
        ``(tag, rank, value, posterior)`` whose intervals touch are
        fused. The result replaces every sealed segment; pending and
        open state are untouched. Query answers are unchanged.
        """
        self.seal()
        rows = sorted(self._sealed_rows(), key=lambda r: (r[0], r[1], r[2]))
        merged: list[tuple[int, int, int, int, int, float]] = []
        for row in rows:
            if merged:
                last = merged[-1]
                if (
                    last[0] == row[0]
                    and last[1] == row[1]
                    and last[4] == row[4]
                    and last[5] == row[5]
                    and last[3] == row[2]
                ):
                    merged[-1] = (last[0], last[1], last[2], row[3], last[4], last[5])
                    continue
            merged.append(row)
        removed = len(rows) - len(merged)
        self.segments = _fresh_segments(self.segments)
        self.pending = merged
        self.seal()
        return removed

    # -- reading ----------------------------------------------------------

    def _sealed_rows(self) -> Iterator[tuple[int, int, int, int, int, float]]:
        for tags, ranks, starts, ends, values, posts in self.segments:
            for i in range(len(tags)):
                yield (
                    int(tags[i]),
                    int(ranks[i]),
                    int(starts[i]),
                    int(ends[i]),
                    int(values[i]),
                    float(posts[i]),
                )

    def _rows_for(self, tag: int) -> Iterator[tuple[int, int, int, int, float]]:
        """Sealed + pending ``(rank, start, end, value, posterior)`` rows."""
        for tags, ranks, starts, ends, values, posts in self.segments:
            for i in np.nonzero(tags == tag)[0].tolist():
                yield (
                    int(ranks[i]),
                    int(starts[i]),
                    int(ends[i]),
                    int(values[i]),
                    float(posts[i]),
                )
        for row in self.pending:
            if row[0] == tag:
                yield row[1:]

    def covering(self, tag: int, time: int) -> list[tuple[int, int, int, float]]:
        """Rows in force at ``time``: ``(rank, start, value, posterior)``.

        Sealed rows cover ``start <= time < end``; the open state covers
        ``time >= start``. Sorted by rank.
        """
        hits = [
            (rank, start, value, posterior)
            for rank, start, end, value, posterior in self._rows_for(tag)
            if start <= time < end
        ]
        current = self.open.get(tag)
        if current is not None and current[0] <= time:
            start, rows = current
            hits.extend(
                (rank, start, value, posterior)
                for rank, (value, posterior) in enumerate(rows)
            )
        hits.sort(key=lambda r: r[0])
        return hits

    def in_range(
        self, tag: int, lo: int, hi: int, rank: int = 0
    ) -> list[tuple[int, int, int, float]]:
        """Rank-``rank`` intervals overlapping ``[lo, hi)``, by start.

        Rows are ``(start, end, value, posterior)`` with ``end == -1``
        for the still-open interval.
        """
        out = [
            (start, end, value, posterior)
            for row_rank, start, end, value, posterior in self._rows_for(tag)
            if row_rank == rank and start < hi and end > lo
        ]
        current = self.open.get(tag)
        if current is not None and current[0] < hi and rank < len(current[1]):
            start, rows = current
            value, posterior = rows[rank]
            out.append((start, -1, value, posterior))
        out.sort(key=lambda r: r[0])
        return out

    def snapshot(self) -> "_IntervalLog":
        view = _IntervalLog(self.seal_every)
        view.segments = self.segments.copy()
        view.pending = list(self.pending)
        view.open = dict(self.open)
        return view

    def row_count(self) -> int:
        return _sealed_row_total(self.segments) + len(self.pending)


class _EventLog:
    """Append-only ``(time, tag, place, container)`` event rows."""

    def __init__(self, seal_every: int) -> None:
        self.seal_every = seal_every
        self.segments: list[tuple[np.ndarray, ...]] = []
        self.pending: list[tuple[int, int, int, int]] = []

    def append(self, time: int, tag: int, place: int, container: int) -> None:
        self.pending.append((time, tag, place, container))
        if len(self.pending) >= self.seal_every:
            self.seal()

    def extend(
        self,
        times: np.ndarray,
        tags: np.ndarray,
        places: np.ndarray,
        containers: np.ndarray,
    ) -> None:
        """Append rows given as columns, sealing exactly where row-wise
        :meth:`append` would: every sealed segment holds ``seal_every``
        rows. Full segments are cut from the columns by slice; only the
        rows completing a partial segment and the unsealed tail become
        pending tuples."""
        columns = (times, tags, places, containers)

        def to_pending(lo: int, hi: int) -> None:
            self.pending.extend(zip(*(col[lo:hi].tolist() for col in columns)))

        start, end = 0, len(times)
        if self.pending:
            start = min(end, self.seal_every - len(self.pending))
            to_pending(0, start)
            if len(self.pending) >= self.seal_every:
                self.seal()
        while end - start >= self.seal_every:
            stop = start + self.seal_every
            self.segments.append(
                tuple(col[start:stop].astype(np.int64) for col in columns)
            )
            start = stop
        to_pending(start, end)

    def seal(self) -> None:
        if not self.pending:
            return
        rows = self.pending
        self.pending = []
        self.segments.append(
            tuple(
                np.fromiter((row[i] for row in rows), dtype=np.int64, count=len(rows))
                for i in range(4)
            )
        )

    def rows(self) -> Iterator[tuple[int, int, int, int]]:
        for times, tags, places, containers in self.segments:
            for i in range(len(times)):
                yield (int(times[i]), int(tags[i]), int(places[i]), int(containers[i]))
        yield from self.pending

    def snapshot(self) -> "_EventLog":
        view = _EventLog(self.seal_every)
        view.segments = self.segments.copy()
        view.pending = list(self.pending)
        return view

    def row_count(self) -> int:
        return _sealed_row_total(self.segments) + len(self.pending)


class _AlertLog:
    """Append-only alert rows: ``(name, key, start, end, values...)``.

    ``name`` and ``key`` are ids into the archive's string table;
    ``values`` is the alert's variable-length float payload, stored
    flat with offsets in sealed segments.
    """

    def __init__(self, seal_every: int) -> None:
        self.seal_every = seal_every
        #: (names, keys, starts, ends, offsets[n+1]) int64 + flat float64.
        self.segments: list[tuple[np.ndarray, ...]] = []
        self.pending: list[tuple[int, int, int, int, tuple[float, ...]]] = []

    def append(
        self, name: int, key: int, start: int, end: int, values: tuple[float, ...]
    ) -> None:
        self.pending.append((name, key, start, end, values))
        if len(self.pending) >= self.seal_every:
            self.seal()

    def seal(self) -> None:
        if not self.pending:
            return
        rows = self.pending
        self.pending = []
        ints = tuple(
            np.fromiter((row[i] for row in rows), dtype=np.int64, count=len(rows))
            for i in range(4)
        )
        lengths = np.fromiter(
            (len(row[4]) for row in rows), dtype=np.int64, count=len(rows)
        )
        offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(lengths, dtype=np.int64)]
        )
        flat = np.fromiter(
            (v for row in rows for v in row[4]),
            dtype=np.float64,
            count=int(offsets[-1]),
        )
        self.segments.append(ints + (offsets, flat))

    def rows(self) -> Iterator[tuple[int, int, int, int, tuple[float, ...]]]:
        for names, keys, starts, ends, offsets, flat in self.segments:
            for i in range(len(names)):
                values = tuple(flat[offsets[i] : offsets[i + 1]].tolist())
                yield (int(names[i]), int(keys[i]), int(starts[i]), int(ends[i]), values)
        yield from self.pending

    def snapshot(self) -> "_AlertLog":
        view = _AlertLog(self.seal_every)
        view.segments = self.segments.copy()
        view.pending = list(self.pending)
        return view

    def row_count(self) -> int:
        return _sealed_row_total(self.segments) + len(self.pending)


class SiteArchive:
    """One site's append-only history, fed at every inference boundary."""

    def __init__(self, site: int, seal_every: int = 4096, top_k: int = TOP_K) -> None:
        if seal_every < 1:
            raise ValueError("seal_every must be positive")
        if top_k < 1:
            raise ValueError("top_k must be positive")
        self.site = site
        self.seal_every = seal_every
        self.top_k = top_k
        #: last boundary whose inference output has been ingested.
        self.last_boundary = 0
        #: sealed-segment layout epoch. Appends (seal) only grow segment
        #: lists, so a replication cursor taken within one generation
        #: stays valid; :meth:`compact` rewrites the layout and bumps
        #: this, forcing replicas holding old cursors to full-resync.
        #: Volatile like ``_event_cursor``: not serialized by the codec,
        #: so a restored archive restarts at generation 0.
        self.generation = 0
        #: optional :class:`~repro.archive.tiers.DiskTier` (see
        #: :meth:`attach_tier`); None keeps everything in RAM.
        self.tier = None
        #: interned tags, in first-encounter order (deterministic: ingest
        #: iterates service state sorted).
        self.tag_table: list[EPC] = []
        self._tag_ids: dict[EPC, int] = {}
        #: interned strings (query names, alert keys).
        self.key_table: list[str] = []
        self._key_ids: dict[str, int] = {}
        self.location = _IntervalLog(seal_every)
        self.containment = _IntervalLog(seal_every)
        self.belief = _IntervalLog(seal_every)
        self.events = _EventLog(seal_every)
        self.alerts = _AlertLog(seal_every)
        #: alerts already ingested, per query name (rides in checkpoints:
        #: query alert logs are checkpointed too, so the cursors stay
        #: aligned across crash recovery).
        self.alert_cursors: dict[str, int] = {}
        #: per-tag epoch of the latest archived event — the "when did
        #: this site last actually see the tag" freshness signal the
        #: frontend's scatter-gather merge ranks sites by. Derived from
        #: the event log (the codec rebuilds it on decode).
        self.last_event: dict[int, int] = {}
        #: position in the service's ``events`` list; deliberately
        #: volatile — a restarted service starts a fresh events list, so
        #: the cursor resets with it (see :mod:`repro.archive.codec`).
        self._event_cursor = 0

    # -- interning --------------------------------------------------------

    def intern_tag(self, tag: EPC) -> int:
        tag_id = self._tag_ids.get(tag)
        if tag_id is None:
            tag_id = self._tag_ids[tag] = len(self.tag_table)
            self.tag_table.append(tag)
        return tag_id

    def tag_id_of(self, tag: EPC) -> int | None:
        """Interned id of ``tag`` (None if never archived)."""
        return self._tag_ids.get(tag)

    def tag_of(self, tag_id: int) -> EPC:
        return self.tag_table[tag_id]

    def intern_key(self, key: str) -> int:
        key_id = self._key_ids.get(key)
        if key_id is None:
            key_id = self._key_ids[key] = len(self.key_table)
            self.key_table.append(key)
        return key_id

    def key_of(self, key_id: int) -> str:
        return self.key_table[key_id]

    # -- ingest (the service → archive feed) ------------------------------

    def ingest_service(self, service: "StreamingInference") -> None:
        """Capture one boundary's inference output.

        Call once after each :meth:`~repro.core.service.StreamingInference.run_at`:
        new emitted events extend the location intervals and the event
        log; the containment snapshot and the posterior top-k extend
        their interval logs. Iteration is in sorted-tag order so the
        archive is a pure function of the service state.
        """
        boundary = service.last_run_time
        if boundary < self.last_boundary:
            raise ValueError(
                f"archive at boundary {self.last_boundary} cannot ingest "
                f"older boundary {boundary}"
            )
        # Absolute cursor: survives the service's memory budget
        # dropping already-ingested events off the front.
        fresh, self._event_cursor = service.events_since(self._event_cursor)
        for batch in EventLog.of(fresh).batches:
            self._ingest_events(batch)
        for tag in sorted(service.containment):
            tag_id = self.intern_tag(tag)
            container = service.containment[tag]
            weights = service.last_weights.get(tag)
            posterior_list = _posteriors(weights) if weights else []
            if container is None:
                state = ((NO_CONTAINER, 1.0),)
            else:
                table = dict(posterior_list)
                posterior = table.get(container, 1.0 if not posterior_list else 0.0)
                state = ((self.intern_tag(container), posterior),)
            self.containment.observe(tag_id, boundary, state, value_only=True)
        for tag in sorted(service.last_weights):
            weights = service.last_weights[tag]
            if not weights:
                # A tag can surface with zero containment candidates in
                # its window (e.g. nothing co-located before it moved
                # on); there is no posterior to log for it.
                continue
            tag_id = self.intern_tag(tag)
            posterior_list = _posteriors(weights)
            top = sorted(posterior_list, key=lambda cp: (-cp[1], cp[0]))[: self.top_k]
            self.belief.observe(
                tag_id,
                boundary,
                tuple((self.intern_tag(cand), prob) for cand, prob in top),
            )
        self.last_boundary = max(self.last_boundary, boundary)

    def _ingest_events(self, batch: EventBatch) -> None:
        """Append one columnar batch of emitted events.

        Equivalent, byte for byte, to walking the rows and per row
        interning tag then container, appending the event row,
        observing the tag's place and raising its ``last_event`` — but
        the per-row work is numpy, and Python runs only per distinct
        tag and per place *change*.
        """
        count = len(batch)
        # Intern in first-encounter order of the row-interleaved
        # (tag, container) sequence, like the row walk would.
        interleaved = np.empty(2 * count, dtype=np.int64)
        interleaved[0::2] = batch.tag
        interleaved[1::2] = batch.container
        distinct, first_seen = np.unique(interleaved, return_index=True)
        # A trailing slot maps container -1 ("none") to NO_CONTAINER.
        ids = np.full(len(batch.epcs) + 1, NO_CONTAINER, dtype=np.int64)
        for local in distinct[np.argsort(first_seen, kind="stable")].tolist():
            if local >= 0:
                ids[local] = self.intern_tag(batch.epcs[local])
        tags = ids[batch.tag]
        self.events.extend(batch.time, tags, batch.place, ids[batch.container])
        # A tag's location interval can only change at its first row or
        # where its place differs from its previous row.
        rows = change_rows(tags, batch.place)
        for tag, time, place in zip(
            tags[rows].tolist(), batch.time[rows].tolist(), batch.place[rows].tolist()
        ):
            self.location.observe(tag, time, ((place, 1.0),), value_only=True)
        freshest = np.full(len(self.tag_table), -1, dtype=np.int64)
        np.maximum.at(freshest, tags, batch.time)
        for tag in np.flatnonzero(freshest >= 0).tolist():
            if freshest[tag] > self.last_event.get(tag, -1):
                self.last_event[tag] = int(freshest[tag])

    def ingest_alerts(self, name: str, alerts: Iterable) -> None:
        """Append a query's alerts emitted since the previous ingest.

        Alerts are normalized to ``(key, start, end, values)``:
        pattern alerts map directly; route-deviation alerts become
        zero-length intervals carrying ``(site, *expected)`` as values.
        """
        alerts = list(alerts)
        cursor = self.alert_cursors.get(name, 0)
        name_id = self.intern_key(name)
        for alert in alerts[cursor:]:
            if hasattr(alert, "start_time"):
                key, start, end = alert.key, alert.start_time, alert.end_time
                values = tuple(float(v) for v in alert.values)
            else:
                key, start, end = alert.tag, alert.time, alert.time
                values = (float(alert.site),) + tuple(float(v) for v in alert.expected)
            self.alerts.append(name_id, self.intern_key(str(key)), start, end, values)
        self.alert_cursors[name] = len(alerts)

    # -- maintenance ------------------------------------------------------

    def seal(self) -> None:
        """Freeze every log's pending rows into sealed segments."""
        for log in (self.location, self.containment, self.belief):
            log.seal()
        self.events.seal()
        self.alerts.seal()

    def compact(self) -> int:
        """Merge adjacent same-value intervals; returns rows removed.

        Rewrites the sealed-segment layout, so the archive's
        ``generation`` is bumped and replication cursors taken before
        the compaction become invalid (replicas full-resync).
        """
        removed = 0
        for log in (self.location, self.containment, self.belief):
            removed += log.compact()
        self.generation += 1
        return removed

    def attach_tier(self, tier, hot_segments: int = 2) -> None:
        """Move sealed segments onto a disk tier (see :mod:`repro.archive.tiers`).

        Every log's sealed segments beyond the newest ``hot_segments``
        spill to ``tier`` immediately; future seals spill automatically
        as they age out of the hot window. Pending rows always stay in
        RAM. Readers are unaffected — disk-resident segments load
        lazily (and transparently) through the tier's LRU cache.
        """
        from repro.archive.tiers import TieredSegments

        for log in (self.location, self.containment, self.belief, self.events, self.alerts):
            log.segments = TieredSegments(tier, list(log.segments), hot_segments)
        self.tier = tier

    def snapshot_reader(self) -> "SiteArchive":
        """A consistent read view: later appends do not affect it.

        Sealed segments are shared (immutable); pending rows, open
        intervals, and the intern tables are copied.
        """
        view = SiteArchive(self.site, self.seal_every, self.top_k)
        view.last_boundary = self.last_boundary
        view.generation = self.generation
        view.tier = self.tier
        view.tag_table = list(self.tag_table)
        view._tag_ids = dict(self._tag_ids)
        view.key_table = list(self.key_table)
        view._key_ids = dict(self._key_ids)
        view.location = self.location.snapshot()
        view.containment = self.containment.snapshot()
        view.belief = self.belief.snapshot()
        view.events = self.events.snapshot()
        view.alerts = self.alerts.snapshot()
        view.alert_cursors = dict(self.alert_cursors)
        view.last_event = dict(self.last_event)
        return view

    def row_count(self) -> int:
        """Total archived rows across all logs (sealed + pending)."""
        return (
            self.location.row_count()
            + self.containment.row_count()
            + self.belief.row_count()
            + self.events.row_count()
            + self.alerts.row_count()
        )
