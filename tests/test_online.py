"""Unit tests for the online detector and the bounded-memory plumbing.

Covers the BOCPD run-length posterior update, the stability gate's
prunability rules (cooloff, staleness, seeded refresh, posterior
threshold), interval-signal classification from raw readings, and the
:class:`MemoryBudget` machinery: history truncation with absolute event
cursors, budget-clamped windows, critical-region stash/restore, and
window-cache eviction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.online import (
    CONTRA,
    SILENT,
    SUPPORT,
    IntervalSignals,
    MemoryBudget,
    OnlineChangeDetector,
    OnlineConfig,
    interval_signals,
)
from repro.core.service import EventCursorLost, ServiceConfig, StreamingInference
from repro.sim.tags import EPC, TagKind
from repro.workloads.scenarios import cold_chain_scenario

ITEM = EPC(TagKind.ITEM, 0)
CASE = EPC(TagKind.CASE, 0)
OTHER_CASE = EPC(TagKind.CASE, 1)


class FakeSignals:
    """Scripted per-tag observations (the detector only calls classify)."""

    def __init__(self, observations: dict[EPC, int], default: int = SILENT):
        self.observations = observations
        self.default = default

    def classify(self, tag: EPC, incumbent: EPC, support_ratio: float = 0.5) -> int:
        return self.observations.get(tag, self.default)


def seeded(detector: OnlineChangeDetector, tag: EPC = ITEM, container: EPC = CASE):
    detector.confirm(tag, container)
    return detector


class TestOnlineConfig:
    def test_defaults_valid(self):
        OnlineConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(hazard=0.0),
            dict(hazard=1.0),
            dict(support_rate=1.0),
            dict(change_rate=0.0),
            dict(stability_runs=0),
            dict(posterior_threshold=0.0),
            dict(posterior_threshold=1.5),
            dict(cooloff_runs=0),
            dict(refresh_interval=-1),
            dict(support_ratio=0.0),
            dict(support_ratio=1.5),
            dict(max_run_length=3, stability_runs=3),
            dict(stale_limit=0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            OnlineConfig(**kwargs)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            MemoryBudget(horizon=0)
        with pytest.raises(ValueError):
            MemoryBudget(retained_runs=0)
        with pytest.raises(ValueError):
            ServiceConfig(recent_history=600, budget=MemoryBudget(horizon=500))


class TestRunLengthPosterior:
    def test_support_accumulates_run_length(self):
        det = seeded(OnlineChangeDetector(OnlineConfig(refresh_interval=0)))
        assert det.run_length_mass(ITEM, 3) == 0.0
        for _ in range(5):
            det.observe(FakeSignals({ITEM: SUPPORT}))
        assert det.run_length_mass(ITEM, 3) > 0.9
        assert det.prunable(ITEM, CASE)
        assert not det.flagged

    def test_contra_flags_and_resets(self):
        config = OnlineConfig(refresh_interval=0)
        det = seeded(OnlineChangeDetector(config))
        for _ in range(5):
            det.observe(FakeSignals({ITEM: SUPPORT}))
        det.observe(FakeSignals({ITEM: CONTRA}))
        assert ITEM in det.flagged
        assert det.run_length_mass(ITEM, config.stability_runs) == 0.0
        # Cooloff forces full inference even after new support.
        assert not det.prunable(ITEM, CASE)
        det.observe(FakeSignals({ITEM: SUPPORT}))
        det.confirm(ITEM, CASE)
        assert not det.prunable(ITEM, CASE)  # still cooling off
        for _ in range(4):
            det.observe(FakeSignals({ITEM: SUPPORT}))
            det.confirm(ITEM, CASE)
        assert det.prunable(ITEM, CASE)

    def test_silence_is_uninformative_but_counts_stale(self):
        config = OnlineConfig(refresh_interval=0, stale_limit=2)
        det = seeded(OnlineChangeDetector(config))
        for _ in range(5):
            det.observe(FakeSignals({ITEM: SUPPORT}))
        mass = det.run_length_mass(ITEM, config.stability_runs)
        det.observe(FakeSignals({}))  # SILENT
        assert det.states[ITEM].stale == 1
        assert ITEM not in det.flagged
        # Hazard diffusion only: mass decays slightly but nothing resets.
        after = det.run_length_mass(ITEM, config.stability_runs + 1)
        assert 0.0 < after <= mass
        det.observe(FakeSignals({}))
        assert det.states[ITEM].stale == 2
        assert not det.prunable(ITEM, CASE)  # stale tags re-enter
        assert det.evict_stale() == 1
        assert ITEM not in det.states

    def test_posterior_is_normalized_and_truncated(self):
        config = OnlineConfig(refresh_interval=0, max_run_length=6)
        det = seeded(OnlineChangeDetector(config))
        for _ in range(20):
            det.observe(FakeSignals({ITEM: SUPPORT}))
        rl = det.states[ITEM].rl
        assert rl.size == config.max_run_length + 1
        assert np.isclose(np.exp(rl).sum(), 1.0)

    def test_prunable_requires_matching_incumbent(self):
        det = seeded(OnlineChangeDetector(OnlineConfig(refresh_interval=0)))
        for _ in range(5):
            det.observe(FakeSignals({ITEM: SUPPORT}))
        assert det.prunable(ITEM, CASE)
        assert not det.prunable(ITEM, OTHER_CASE)
        assert not det.prunable(ITEM, None)
        assert not det.prunable(EPC(TagKind.ITEM, 99), CASE)

    def test_confirm_resets_on_reassignment(self):
        det = seeded(OnlineChangeDetector(OnlineConfig(refresh_interval=0)))
        for _ in range(5):
            det.observe(FakeSignals({ITEM: SUPPORT}))
        det.confirm(ITEM, OTHER_CASE)
        state = det.states[ITEM]
        assert state.incumbent == OTHER_CASE
        assert state.rl.size == 1

    def test_refresh_phases_are_seeded_and_periodic(self):
        config = OnlineConfig(refresh_interval=4)
        det = OnlineChangeDetector(config)
        tags = [EPC(TagKind.ITEM, i) for i in range(32)]
        for tag in tags:
            det.confirm(tag, CASE)
        due_by_boundary = []
        for _ in range(4):
            det.observe(FakeSignals({}, default=SUPPORT))
            due_by_boundary.append({t for t in tags if det.refresh_due(t)})
        # Every tag comes due exactly once per period, on a seed-stable
        # phase, and the load is spread (no boundary takes everything).
        assert set().union(*due_by_boundary) == set(tags)
        assert sum(len(d) for d in due_by_boundary) == len(tags)
        assert max(len(d) for d in due_by_boundary) < len(tags)
        again = OnlineChangeDetector(config)
        again.boundaries = det.boundaries
        assert {t for t in tags if again.refresh_due(t)} == due_by_boundary[-1]


class TestIntervalSignals:
    @pytest.fixture(scope="class")
    def scenario(self):
        return cold_chain_scenario(
            seed=11, n_sites=1, horizon=600, n_exposures=0, n_short_exposures=0
        )

    def test_classify_supports_settled_items(self, scenario):
        truth = scenario.truth
        signals = interval_signals(scenario.trace, 150, 450)
        items = [t for t in truth.tags(TagKind.ITEM)]
        outcomes = [
            signals.classify(tag, truth.container_at(tag, 300)) for tag in items
        ]
        assert outcomes.count(SUPPORT) > 0.8 * len(items)
        assert CONTRA not in outcomes

    def test_classify_contra_for_wrong_location_case(self, scenario):
        truth = scenario.truth
        tag = truth.tags(TagKind.ITEM)[0]
        # A room case is at a different location than the frozen item.
        room_case = sorted(
            c
            for c in truth.tags(TagKind.CASE)
            if c not in scenario.catalog.freezer_cases
        )[0]
        signals = interval_signals(scenario.trace, 150, 450)
        assert signals.classify(tag, room_case) == CONTRA

    def test_silent_when_neither_read(self, scenario):
        signals = interval_signals(scenario.trace, 150, 450)
        ghost_item = EPC(TagKind.ITEM, 10_000)
        ghost_case = EPC(TagKind.CASE, 10_000)
        assert signals.classify(ghost_item, ghost_case) == SILENT
        assert signals.reads(ghost_item) == 0

    def test_empty_interval(self, scenario):
        signals = IntervalSignals(scenario.trace, 0, 0)
        tag = scenario.truth.tags(TagKind.ITEM)[0]
        case = scenario.truth.tags(TagKind.CASE)[0]
        assert signals.classify(tag, case) == SILENT

    def test_support_ratio_tolerates_colocated_rivals(self, scenario):
        truth = scenario.truth
        signals = interval_signals(scenario.trace, 150, 450)
        item = truth.tags(TagKind.ITEM)[0]
        incumbent = truth.container_at(item, 300)
        # Strict winner-take-all would flag co-located cases on count
        # noise; the ratio criterion must not.
        strict = signals.classify(item, incumbent, support_ratio=1.0)
        relaxed = signals.classify(item, incumbent, support_ratio=0.5)
        assert relaxed == SUPPORT
        assert strict in (SUPPORT, CONTRA)


GATED = ServiceConfig(
    run_interval=150,
    recent_history=300,
    truncation="cr",
    emit_events=True,
    event_period=5,
    change_detection=True,
    change_threshold=80.0,
    online=OnlineConfig(),
    budget=MemoryBudget(horizon=450),
)


class TestMemoryBudget:
    @pytest.fixture(scope="class")
    def service(self):
        scenario = cold_chain_scenario(seed=11, n_sites=1, horizon=1500)
        service = StreamingInference(scenario.trace, GATED)
        service.run_until(1500)
        return service

    def test_history_is_truncated(self, service):
        cut = service.last_run_time - GATED.budget.horizon
        assert service.runs_truncated > 0
        assert service.events_truncated > 0
        assert all(r.time >= cut for r in service.runs)
        assert all(e.time >= cut for e in service.events)
        assert all(r.end > cut for r in service.critical_regions.values())

    def test_events_since_survives_truncation(self, service):
        # A consumer that drained everything before truncation holds an
        # absolute cursor larger than the retained list.
        events, cursor = service.events_since(service.events_truncated)
        assert events == service.events
        assert cursor == service.events_truncated + len(service.events)
        tail, same = service.events_since(cursor)
        assert tail == [] and same == cursor

    def test_lagging_cursor_is_a_loud_typed_error(self, service):
        # A consumer that did not drain before the budget truncated has
        # lost events for good: resuming it from the retained prefix
        # would silently skip them, so the service refuses, naming the
        # site, the cursor and the truncation point.
        with pytest.raises(EventCursorLost) as caught:
            service.events_since(0)
        error = caught.value
        assert (error.site, error.cursor) == (service.site, 0)
        assert error.truncated == service.events_truncated > 0
        assert f"site {service.site}" in str(error)
        # The last position that is still whole keeps working.
        events, _ = service.events_since(service.events_truncated)
        assert len(events) == len(service.events)

    def test_windows_clamped_to_horizon(self, service):
        epochs = service._window_epochs(service.last_run_time)
        assert epochs[0] >= service.last_run_time - GATED.budget.horizon

    def test_window_cache_bounded(self, service):
        # Budget-clamped windows never exceed the horizon, so the cache
        # retains at most one horizon's worth of base rows. (Eviction
        # proper — for callers handing the cache unclamped epochs — is
        # exercised directly in test_likelihood.py.)
        assert service._windows.max_age == GATED.budget.horizon
        assert service._windows.cached_rows() <= GATED.budget.horizon

    def test_gate_actually_pruned(self, service):
        assert sum(r.pruned_tags for r in service.runs) > 0
        assert all(
            set(r.phase_seconds) >= {"detector", "prune"} for r in service.runs
        )

    def test_retained_runs_cap(self):
        scenario = cold_chain_scenario(seed=11, n_sites=1, horizon=900)
        config = ServiceConfig(
            run_interval=150,
            recent_history=300,
            budget=MemoryBudget(horizon=600, retained_runs=2),
        )
        service = StreamingInference(scenario.trace, config)
        service.run_until(900)
        assert len(service.runs) == 2

    def test_phases_present_when_gate_disabled(self):
        scenario = cold_chain_scenario(seed=11, n_sites=1, horizon=300)
        service = StreamingInference(
            scenario.trace, ServiceConfig(run_interval=300, recent_history=300)
        )
        record = service.run_at(300)
        assert record.phase_seconds["detector"] == 0.0
        assert record.phase_seconds["prune"] == 0.0
        assert record.pruned_tags == 0


class TestRegionStash:
    def test_pruned_regions_park_and_restore(self):
        scenario = cold_chain_scenario(seed=11, n_sites=1, horizon=1500)
        config = ServiceConfig(
            run_interval=150,
            recent_history=300,
            truncation="cr",
            online=OnlineConfig(refresh_interval=4),
        )
        service = StreamingInference(scenario.trace, config)
        service.run_until(1500)
        stashed = set(service.stashed_regions)
        live = set(service.critical_regions)
        # Stash and live sets are disjoint views of the same ledger.
        assert not (stashed & live)
        assert stashed  # stable tags are parked at the end of the run
        # A parked tag is one the gate pruned on the final boundary.
        final = service.runs[-1]
        assert final.pruned_tags >= len(stashed)
