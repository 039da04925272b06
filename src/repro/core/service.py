"""Streaming inference service (Fig. 3, §5.1).

Runs RFINFER periodically (every ``run_interval`` epochs, default 300 as
in §5.1) over a window chosen by the history-truncation policy:

* ``"all"`` — the entire history so far (the paper's "Basic/All");
* ``"window"`` — the most recent ``window_size`` epochs ("W1200");
* ``"cr"`` — each object's critical region plus the recent history H̄
  (the paper's CR method, §4.1).

Each run updates containment estimates, optionally performs
change-point detection, refreshes critical regions, and emits the
object event stream that query processing consumes.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Iterable, Literal, Mapping

import numpy as np

from repro.core.changepoint import ChangePoint, ChangePointDetector, calibrate_threshold
from repro.core.collapsed import CollapsedState
from repro.core.events import EventBatch, EventLog
from repro.core.likelihood import WindowCache
from repro.core.online import (
    MemoryBudget,
    OnlineChangeDetector,
    OnlineConfig,
    interval_signals,
)
from repro.core.rfinfer import InferenceConfig, RFInfer, RFInferResult
from repro.core.truncation import CriticalRegion, find_critical_regions
from repro.obs import get_telemetry
from repro.sim.tags import EPC, TagKind
from repro.sim.trace import Trace

__all__ = ["ServiceConfig", "RunRecord", "StreamingInference", "EventCursorLost"]


class EventCursorLost(LookupError):
    """A consumer asked for events the memory budget already dropped.

    Consumers (query feeds, the archive) must drain each boundary before
    :meth:`StreamingInference.truncate_history` runs; one that did not
    has lost ``truncated - cursor`` events for good, and continuing
    from the retained prefix would silently corrupt its answers.
    """

    def __init__(self, site: int, cursor: int, truncated: int) -> None:
        self.site = site
        self.cursor = cursor
        self.truncated = truncated
        super().__init__(
            f"site {site}: event cursor {cursor} is behind the truncation "
            f"point {truncated}; {truncated - cursor} events were dropped "
            "by the memory budget before this consumer read them"
        )


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of the periodic inference service."""

    run_interval: int = 300
    recent_history: int = 600
    truncation: Literal["all", "window", "cr"] = "cr"
    window_size: int = 1200
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    change_detection: bool = False
    change_threshold: float | None = None
    cr_width: int = 60
    cr_margin: float = 10.0
    emit_events: bool = True
    event_period: int = 1
    keep_results: bool = True
    #: keep each retained run's full per-(object, candidate) evidence
    #: arrays. Off by default: once change points and critical regions
    #: are extracted the payload only grows without bound (it dominated
    #: long-run memory); calibration-style consumers that post-process
    #: evidence opt back in.
    retain_evidence: bool = False
    calibration_seed: int = 0
    #: streaming change detector + stability gate: tags whose run-length
    #: posterior says "stable" skip the EM/CR/event hot path entirely
    #: (their containment carries forward). None keeps every tag on the
    #: full path.
    online: OnlineConfig | None = None
    #: hard memory bound for long streams: run records, the event
    #: backlog, critical regions, window epochs, and cached base rows
    #: are all truncated to a sliding epoch horizon. None retains
    #: everything (the historical behavior).
    budget: MemoryBudget | None = None

    def __post_init__(self) -> None:
        if self.run_interval < 1:
            raise ValueError("run_interval must be positive")
        if self.recent_history < self.run_interval:
            raise ValueError(
                "recent_history must cover at least one run interval, "
                f"got H̄={self.recent_history} < interval={self.run_interval}"
            )
        if self.truncation not in ("all", "window", "cr"):
            raise ValueError(f"unknown truncation policy {self.truncation!r}")
        if self.budget is not None and self.budget.horizon < self.recent_history:
            raise ValueError(
                "a memory budget must retain at least the recent history, "
                f"got horizon={self.budget.horizon} < H̄={self.recent_history}"
            )


@dataclass
class RunRecord:
    """Bookkeeping for one inference run at stream time ``time``."""

    time: int
    duration_seconds: float
    containment: dict[EPC, EPC | None]
    changes: list[ChangePoint]
    window_rows: int
    iterations: int
    result: RFInferResult | None = None
    #: wall-clock seconds per pipeline phase (detector / window / prune /
    #: candidates / e_step / m_step / evidence / changes / cr / events;
    #: the runtime adds queries and archive).
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: tags the stability gate let skip full inference this run.
    pruned_tags: int = 0
    #: tags that went through the full EM/CR/event path this run.
    full_tags: int = 0


class StreamingInference:
    """Periodic RFINFER over an (already materialized) reading stream.

    The trace object holds all readings, but the service honours stream
    discipline: a run at time T looks only at readings before T.
    """

    #: cap (in nats) on a migrated candidate's disadvantage — one good
    #: co-location window at the new site can overrule the old estimate.
    PRIOR_CLIP = 15.0

    def __init__(self, trace: Trace, config: ServiceConfig | None = None) -> None:
        self.trace = trace
        self.config = config or ServiceConfig()
        self.site = trace.site
        self.containment: dict[EPC, EPC | None] = {}
        self.valid_from: dict[EPC, int] = {}
        self.critical_regions: dict[EPC, CriticalRegion] = {}
        #: critical regions of currently-pruned tags, parked so they do
        #: not widen windows while the stability gate holds, and
        #: restored when the tag re-enters full inference (its critical
        #: epochs rejoin the window it is re-inferred over).
        self.stashed_regions: dict[EPC, CriticalRegion] = {}
        self.prior_weights: dict[EPC, dict[EPC, float]] = {}
        #: each object's candidate weights from the most recent run that
        #: covered it — the collapsed state exported on migration. Kept
        #: as its own map (not recovered from ``runs``) so a site
        #: restored from a checkpoint exports exactly what it would have
        #: without the crash.
        self.last_weights: dict[EPC, dict[EPC, float]] = {}
        self.changes: list[ChangePoint] = []
        #: the emitted event stream: one columnar batch per run, read
        #: like a list of :class:`~repro.core.events.ObjectEvent`.
        self.events = EventLog()
        self.runs: list[RunRecord] = []
        #: events/runs dropped off the front by the memory budget —
        #: consumers hold *absolute* cursors (see :meth:`events_since`).
        self.events_truncated = 0
        self.runs_truncated = 0
        #: tags whose containment is only a migrated seed (no local run
        #: has estimated them yet) — excluded from EM initialization.
        self._seeded_only: set[EPC] = set()
        self.last_run_time = 0
        self.total_inference_seconds = 0.0
        self._threshold = self.config.change_threshold
        self._detector: ChangePointDetector | None = None
        #: streaming run-length detector behind the stability gate
        #: (None unless the config opts in).
        self.online: OnlineChangeDetector | None = (
            OnlineChangeDetector(self.config.online)
            if self.config.online is not None
            else None
        )
        #: incremental window builder — reuses base-matrix rows shared
        #: with the previous run's window (bitwise-identical to a cold
        #: build, so checkpoint-restored sites cannot diverge). Under a
        #: memory budget the retained rows are capped to the horizon.
        self._windows = WindowCache(
            trace,
            max_age=None if self.config.budget is None else self.config.budget.horizon,
        )

    # -- migration hooks (used by repro.distributed) ----------------------

    def absorb_state(self, state: CollapsedState) -> None:
        """Merge a migrated collapsed state into this site's priors.

        The carried container estimate is used for *reporting* until the
        first local run covers the object, but deliberately not as the
        EM initialization: a wrong migrated estimate would seed a wrong
        group whose posterior the object's own readings then sharpen —
        a self-confirming local optimum that cascades across sites. The
        migrated knowledge instead enters through the (bounded) prior
        weights, which break ties without being able to overrule fresh
        local co-location evidence.
        """
        merged = self.prior_weights.setdefault(state.tag, {})
        for candidate, weight in state.weights.items():
            merged[candidate] = merged.get(candidate, 0.0) + weight
        if state.tag not in self.containment and state.container is not None:
            self.containment[state.tag] = state.container
            self._seeded_only.add(state.tag)
        if state.changed_at is not None:
            self.valid_from.setdefault(state.tag, state.changed_at)

    def export_state(self, tag: EPC) -> CollapsedState:
        """Collapse this site's inference state for ``tag`` to weights.

        Weights are exported *relative to the best candidate* (best = 0,
        others ≤ 0) and clipped to a bounded confidence. Raw w_co values
        are log-likelihood sums whose magnitude grows with the window
        size: shipped absolutely they would rank "absent from the
        previous site's candidate set" (an implicit 0) above every
        observed candidate, and shipped unclipped a *wrong* previous
        estimate could outweigh any amount of bounded-window local
        evidence forever — §4.1 requires that readings at the new place
        "will eventually overrule the old weights".
        """
        if tag in self.last_weights:
            # The run's weights already include migrated priors.
            weights = dict(self.last_weights[tag])
        else:
            weights = dict(self.prior_weights.get(tag, {}))
        if weights:
            peak = max(weights.values())
            weights = {
                cand: max(w - peak, -self.PRIOR_CLIP) for cand, w in weights.items()
            }
        return CollapsedState(
            tag=tag,
            weights=weights,
            container=self.containment.get(tag),
            changed_at=self.valid_from.get(tag),
        )

    def export_states(self, tags: Iterable[EPC]) -> dict[EPC, CollapsedState]:
        """Collapse state for several departing objects at once.

        The batch form feeds the runtime's per-``(src, dst)`` migration
        bundles; objects the site knows nothing about still yield an
        (empty) state, mirroring :meth:`export_state`.
        """
        return {tag: self.export_state(tag) for tag in tags}

    # -- the periodic loop --------------------------------------------------

    @property
    def threshold(self) -> float:
        """The change-point threshold δ (calibrated lazily if unset)."""
        if self._threshold is None:
            self._threshold = calibrate_threshold(
                self.trace.model,
                self.trace.layout,
                seed=self.config.calibration_seed,
            )
        return self._threshold

    def run_until(self, horizon: int) -> None:
        """Execute all scheduled runs with boundaries ≤ ``horizon``.

        Under a memory budget each boundary also truncates the
        retained per-run state (a node-driven service truncates after
        the archive ingests the boundary instead — the archive is the
        spill target).
        """
        boundary = self.last_run_time + self.config.run_interval
        while boundary <= horizon:
            self.run_at(boundary)
            self.truncate_history()
            boundary = self.last_run_time + self.config.run_interval

    def _window_epochs(self, now: int) -> np.ndarray:
        config = self.config
        floor = 0 if config.budget is None else max(0, now - config.budget.horizon)
        if config.truncation == "all":
            return np.arange(floor, now, dtype=np.int64)
        if config.truncation == "window":
            return np.arange(max(floor, now - config.window_size), now, dtype=np.int64)
        ranges = [(max(floor, now - config.recent_history), now)]
        ranges.extend(cr.as_range() for cr in self.critical_regions.values())
        pieces = [
            np.arange(max(s, floor), min(e, now), dtype=np.int64) for s, e in ranges
        ]
        return np.unique(np.concatenate(pieces)) if pieces else np.empty(0, np.int64)

    def _object_ranges(self, obj: EPC, now: int) -> list[tuple[int, int]] | None:
        config = self.config
        floor = self.valid_from.get(obj, 0)
        if config.truncation != "cr":
            if floor == 0:
                return None
            return [(floor, now)]
        ranges = [(max(0, now - config.recent_history), now)]
        region = self.critical_regions.get(obj)
        if region is not None:
            ranges.append(region.as_range())
        return [(max(s, floor), e) for s, e in ranges if e > max(s, floor)]

    def run_at(self, now: int) -> RunRecord:
        """One inference run at stream time ``now``."""
        config = self.config
        started = _time.perf_counter()
        # The detector/prune phases are recorded (as exact 0.0) even
        # with the gate disabled, so phase breakdowns aggregate
        # uniformly across configs.
        phases: dict[str, float] = {"detector": 0.0, "prune": 0.0}
        detector = self.online
        pruned: set[EPC] = set()
        if detector is not None:
            mark = _time.perf_counter()
            detector.observe(interval_signals(self.trace, self.last_run_time, now))
            pruned = {
                tag
                for tag, container in self.containment.items()
                if tag.kind is TagKind.ITEM
                and tag not in self._seeded_only
                and detector.prunable(tag, container)
            }
            # Entering the gate parks a tag's stored critical region: a
            # full run refreshes stable tags' regions into the recent
            # history every boundary, so carrying a frozen region here
            # would widen later windows with stale epochs the full path
            # never revisits. When the tag re-enters full inference
            # (flag, refresh, staleness), its parked region is restored
            # so the run that re-infers it still covers its critical
            # epochs.
            for tag in pruned:
                region = self.critical_regions.pop(tag, None)
                if region is not None:
                    self.stashed_regions[tag] = region
            for tag in [t for t in self.stashed_regions if t not in pruned]:
                self.critical_regions[tag] = self.stashed_regions.pop(tag)
            phases["detector"] = _time.perf_counter() - mark
        epochs = self._window_epochs(now)
        if epochs.size == 0:
            record = RunRecord(
                now, 0.0, dict(self.containment), [], 0, 0, phase_seconds=phases
            )
            self.runs.append(record)
            self.last_run_time = now
            self._emit_run_telemetry(record)
            return record

        mark = _time.perf_counter()
        window = self._windows.window(epochs)
        objects = window.tags(TagKind.ITEM)
        containers = window.tags(TagKind.CASE)
        phases["window"] = _time.perf_counter() - mark

        if detector is not None:
            mark = _time.perf_counter()
            pinned = {obj: self.containment[obj] for obj in objects if obj in pruned}
            full_objects = [obj for obj in objects if obj not in pinned]
            phases["prune"] = _time.perf_counter() - mark
        else:
            pinned = {}
            full_objects = objects

        mark = _time.perf_counter()
        object_ranges = {
            obj: ranges
            for obj in full_objects
            if (ranges := self._object_ranges(obj, now)) is not None
        }
        initial = {
            tag: container
            for tag, container in self.containment.items()
            if tag not in self._seeded_only
        }
        engine = RFInfer(
            window,
            config.inference,
            objects=full_objects,
            containers=containers,
            initial_containment=initial,
            prior_weights=self.prior_weights,
            object_ranges=object_ranges,
            pinned=pinned,
        )
        phases["window"] += _time.perf_counter() - mark
        result = engine.run()
        phases.update(result.timings)
        self._seeded_only.difference_update(result.containment)
        for obj, obj_weights in result.weights.items():
            self.last_weights[obj] = dict(obj_weights)

        mark = _time.perf_counter()
        run_changes: list[ChangePoint] = []
        if config.change_detection and config.inference.keep_evidence:
            if self._detector is None or self._detector.threshold != self.threshold:
                self._detector = ChangePointDetector(self.threshold)
            for obj in full_objects:
                change = self._detector.detect(
                    result, obj, floor=self.valid_from.get(obj)
                )
                if change is not None:
                    run_changes.append(change)
                    self.changes.append(change)
                    self.valid_from[obj] = change.time
                    result.containment[obj] = change.new_container
        phases["changes"] = _time.perf_counter() - mark

        self.containment.update(result.containment)

        if detector is not None:
            mark = _time.perf_counter()
            for obj in full_objects:
                detector.confirm(obj, result.containment.get(obj))
            phases["detector"] += _time.perf_counter() - mark

        mark = _time.perf_counter()
        if config.truncation == "cr" and config.inference.keep_evidence:
            self.critical_regions.update(
                find_critical_regions(
                    result,
                    full_objects,
                    width=config.cr_width,
                    margin_threshold=config.cr_margin,
                )
            )
        phases["cr"] = _time.perf_counter() - mark

        mark = _time.perf_counter()
        if config.emit_events:
            self._emit_events(result, self.last_run_time, now)
        phases["events"] = _time.perf_counter() - mark

        duration = _time.perf_counter() - started
        self.total_inference_seconds += duration
        if config.keep_results and not config.retain_evidence:
            # Change points, critical regions, and events are extracted
            # above; the per-(object, candidate) evidence arrays and the
            # memo caches (logZ rows, decoded location paths) would only
            # accumulate memory across retained runs. Posteriors stay —
            # post-hoc consumers (location-error metrics,
            # log_likelihood) recompute from them on demand.
            result.evidence = None
            result._logz_cache.clear()
            result._location_cache.clear()
            result._solo_cache.clear()
        record = RunRecord(
            time=now,
            duration_seconds=duration,
            containment=dict(self.containment),
            changes=run_changes,
            window_rows=window.n_rows,
            iterations=result.iterations,
            result=result if config.keep_results else None,
            phase_seconds=phases,
            pruned_tags=len(pinned),
            full_tags=len(full_objects),
        )
        self.runs.append(record)
        self.last_run_time = now
        self._emit_run_telemetry(record)
        return record

    def _emit_run_telemetry(self, record: RunRecord) -> None:
        """Telemetry-only view of a finished run: one ``inference/run``
        span with the service's already-measured phase breakdown as
        child spans. Reads the record, never the inference state, so a
        traced run computes exactly what an untraced one does."""
        tel = get_telemetry()
        if not tel.enabled:
            return
        parent = tel.tracer.emit(
            "inference",
            "run",
            record.duration_seconds,
            site=self.site,
            boundary=record.time,
            window_rows=record.window_rows,
            iterations=record.iterations,
            pruned=record.pruned_tags,
            full=record.full_tags,
        )
        for phase, seconds in record.phase_seconds.items():
            tel.tracer.emit(
                "inference",
                f"phase.{phase}",
                seconds,
                parent_id=parent,
                site=self.site,
                boundary=record.time,
            )
        tel.registry.counter("inference_runs", site=self.site).inc()
        tel.registry.histogram("inference_run_seconds", site=self.site).observe(
            record.duration_seconds
        )

    # -- bounded-memory long streams ------------------------------------

    def events_since(self, cursor: int) -> tuple[EventLog, int]:
        """Events a consumer holding absolute position ``cursor`` has
        not seen (as column slices), plus its new absolute position.

        Consumers (query feeds, the archive) track *absolute* event
        counts, so the memory budget can drop consumed events off the
        front of ``self.events`` without corrupting anyone's cursor. A
        cursor *behind* the truncation point means events were dropped
        unread: that raises :class:`EventCursorLost`.
        """
        if cursor < self.events_truncated:
            raise EventCursorLost(self.site, cursor, self.events_truncated)
        fresh = self.events[cursor - self.events_truncated :]
        return fresh, self.events_truncated + len(self.events)

    def truncate_history(self) -> None:
        """Enforce the memory budget on all retained per-run state.

        Drops run records and events whose time fell behind the sliding
        horizon (and, optionally, run records beyond ``retained_runs``),
        plus critical regions that ended before it and detector tracks
        of long-silent tags. A no-op without a configured budget. Call
        *after* the boundary's consumers (queries, archive) have
        ingested — the archive is the spill target for history.
        """
        budget = self.config.budget
        if budget is None:
            return
        cut = self.last_run_time - budget.horizon
        keep = 0
        while keep < len(self.runs) and self.runs[keep].time < cut:
            keep += 1
        if budget.retained_runs is not None:
            keep = max(keep, len(self.runs) - budget.retained_runs)
        if keep > 0:
            self.runs_truncated += keep
            del self.runs[:keep]
        self.events_truncated += self.events.drop_before(cut)
        for tag in [t for t, r in self.critical_regions.items() if r.end <= cut]:
            del self.critical_regions[tag]
        for tag in [t for t, r in self.stashed_regions.items() if r.end <= cut]:
            del self.stashed_regions[tag]
        if self.online is not None:
            self.online.evict_stale()

    # -- event stream --------------------------------------------------------

    def _presence_span(self, tag: EPC, container: EPC | None, now: int) -> tuple[int, int] | None:
        """Epoch span during which ``tag`` is considered on-site."""
        first = self.trace.first_seen(tag)
        last = self.trace.last_seen(tag)
        if container is not None:
            c_first = self.trace.first_seen(container)
            c_last = self.trace.last_seen(container)
            if c_first is not None:
                first = c_first if first is None else min(first, c_first)
            if c_last is not None:
                last = c_last if last is None else max(last, c_last)
        if first is None or last is None:
            return None
        return first, min(last, now - 1)

    def _emit_events(self, result: RFInferResult, start: int, now: int) -> None:
        config = self.config
        window = result.window
        epochs = window.epochs
        lo = int(np.searchsorted(epochs, start))
        hi = int(np.searchsorted(epochs, now))
        if hi <= lo:
            return
        rows = np.arange(lo, hi)
        row_epochs = epochs[rows]
        keep = (row_epochs - start) % config.event_period == 0
        rows, row_epochs = rows[keep], row_epochs[keep]
        tags = window.tags(TagKind.ITEM) + window.tags(TagKind.CASE)
        # Per tag: select rows inside the presence span with an on-site
        # place estimate, entirely in numpy; the surviving events leave
        # as one columnar batch, never as tuples.
        times_parts: list[np.ndarray] = []
        places_parts: list[np.ndarray] = []
        rank_parts: list[np.ndarray] = []
        emitted: list[tuple[EPC, EPC | None]] = []
        # Resolve presence spans first so the batched Viterbi decode
        # only covers tags that can actually emit events this run.
        candidates: list[tuple[EPC, EPC | None, np.ndarray]] = []
        for tag in tags:
            container = result.containment.get(tag)
            span = self._presence_span(tag, container, now)
            if span is None:
                continue
            inside = (row_epochs >= span[0]) & (row_epochs <= span[1])
            if not inside.any():
                continue
            candidates.append((tag, container, inside))
        result.prefetch_locations([tag for tag, _, _ in candidates])
        for tag, container, inside in candidates:
            locations = result.location_rows(tag)
            places = locations[rows[inside]]
            on_site = places >= 0  # estimated away rows emit nothing
            if not on_site.any():
                continue
            times_parts.append(row_epochs[inside][on_site])
            places_parts.append(places[on_site])
            rank_parts.append(
                np.full(int(on_site.sum()), len(emitted), dtype=np.int64)
            )
            emitted.append((tag, container))
        if not emitted:
            return
        times = np.concatenate(times_parts)
        places = np.concatenate(places_parts)
        slots = np.concatenate(rank_parts)
        # The batch's EPC table lists the emitting tags in sorted order,
        # so a tag's table index is also its rank; containers that emit
        # no event of their own follow.
        table = sorted(tag for tag, _ in emitted)
        index = {tag: i for i, tag in enumerate(table)}
        for _, container in emitted:
            if container is not None and container not in index:
                index[container] = len(table)
                table.append(container)
        tag_of_slot = np.fromiter(
            (index[tag] for tag, _ in emitted), dtype=np.int64, count=len(emitted)
        )
        container_of_slot = np.fromiter(
            (-1 if container is None else index[container] for _, container in emitted),
            dtype=np.int64,
            count=len(emitted),
        )
        # Runs advance monotonically, so per-run (time, tag) ordering
        # keeps the whole event stream time-ordered for queries.
        order = np.lexsort((tag_of_slot[slots], times))
        slots = slots[order]
        self.events.append(
            EventBatch(
                time=times[order],
                tag=tag_of_slot[slots],
                site=np.broadcast_to(np.int64(self.site), order.shape),
                place=places[order].astype(np.int64, copy=False),
                container=container_of_slot[slots],
                epcs=table,
            )
        )

    # -- accessors -------------------------------------------------------------

    def containment_at(self, tag: EPC) -> EPC | None:
        return self.containment.get(tag)

    def retained_epoch_count(self, now: int) -> int:
        """Size of the reading window the next run would process."""
        return int(self._window_epochs(now).size)
