"""Tests for change-point detection, evidence, and critical regions."""

import numpy as np
import pytest

from repro.core.changepoint import ChangePointDetector, calibrate_threshold
from repro.core.evidence import evidence_tracks
from repro.core.likelihood import TraceWindow
from repro.core.rfinfer import InferenceConfig, RFInfer
from repro.core.truncation import find_critical_regions
from repro.sim.tags import TagKind
from repro.workloads.scenarios import evidence_scenario


@pytest.fixture(scope="module")
def fig4(small_chain):
    sc = evidence_scenario(seed=2)
    window = TraceWindow.from_range(sc.trace, 0, sc.horizon)
    out = RFInfer(
        window,
        InferenceConfig(candidate_pruning=False),
        objects=[sc.object_tag],
        containers=[sc.real, sc.nrc, sc.nrnc],
    ).run()
    return sc, out


class TestEvidence:
    def test_real_container_has_best_total(self, fig4):
        sc, out = fig4
        tracks = evidence_tracks(out, sc.object_tag)
        assert tracks.best() == sc.real

    def test_belt_region_is_most_discriminative(self, fig4):
        sc, out = fig4
        tracks = evidence_tracks(out, sc.object_tag)
        belt_margin = tracks.margin_in(85, 115)
        door_margin = tracks.margin_in(10, 40)
        assert belt_margin > door_margin

    def test_cumulative_is_running_sum(self, fig4):
        sc, out = fig4
        tracks = evidence_tracks(out, sc.object_tag)
        cum = tracks.cumulative()[sc.real]
        np.testing.assert_allclose(cum, np.cumsum(tracks.point[sc.real]))

    def test_nrnc_keeps_falling_after_belt(self, fig4):
        sc, out = fig4
        tracks = evidence_tracks(out, sc.object_tag)
        cum = tracks.cumulative()
        row_belt = out.window.row_of(120)
        # NRNC (never co-located again) loses more evidence after the
        # belt than NRC (co-located again on the shelf) — Fig. 4(a).
        nrc_tail = cum[sc.nrc][-1] - cum[sc.nrc][row_belt]
        nrnc_tail = cum[sc.nrnc][-1] - cum[sc.nrnc][row_belt]
        assert nrnc_tail < nrc_tail


class TestCriticalRegion:
    def test_region_found_around_belt(self, fig4):
        sc, out = fig4
        regions = find_critical_regions(out, [sc.object_tag], width=40)
        region = regions.get(sc.object_tag)
        assert region is not None
        # The window containing the belt passage discriminates best;
        # later shelf windows also qualify only if NRC never ties R.
        assert region.start < sc.horizon

    def test_region_requires_two_candidates(self, small_chain):
        window = TraceWindow.from_range(small_chain.trace, 0, 300)
        items = window.tags(TagKind.ITEM)[:1]
        cases = window.tags(TagKind.CASE)[:1]
        out = RFInfer(
            window,
            InferenceConfig(candidate_pruning=False),
            objects=items,
            containers=cases,
        ).run()
        assert find_critical_regions(out, items) == {}

    def test_find_all_returns_subset_of_objects(self, fig4):
        sc, out = fig4
        regions = find_critical_regions(out, width=40)
        assert set(regions) <= {sc.object_tag}

    def test_contains(self, fig4):
        sc, out = fig4
        region = find_critical_regions(out, [sc.object_tag], width=40)[sc.object_tag]
        assert region.start in region
        assert region.end not in region


class TestChangePointDetector:
    def test_no_change_on_stable_object(self, fig4):
        sc, out = fig4
        detector = ChangePointDetector(threshold=50.0)
        assert detector.detect(out, sc.object_tag) is None

    def test_detects_injected_change(self, anomaly_chain):
        from repro.core.service import ServiceConfig, StreamingInference

        service = StreamingInference(
            anomaly_chain.trace,
            ServiceConfig(
                run_interval=300,
                recent_history=600,
                truncation="cr",
                change_detection=True,
                change_threshold=80.0,
                emit_events=False,
            ),
        )
        service.run_until(1500)
        assert len(service.changes) >= 1
        detected_tags = {c.tag for c in service.changes}
        true_tags = {c.tag for c in anomaly_chain.truth.changes}
        assert detected_tags & true_tags

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ChangePointDetector(threshold=-1.0)

    def test_statistic_nonnegative(self, fig4):
        sc, out = fig4
        detector = ChangePointDetector(threshold=0.0)
        delta, _, _, _ = detector.statistic(out, sc.object_tag)
        assert delta >= 0.0

    def test_floor_excludes_prefix_evidence(self, fig4):
        sc, out = fig4
        detector = ChangePointDetector(threshold=0.0)
        full, _, _, _ = detector.statistic(out, sc.object_tag)
        floored, _, _, _ = detector.statistic(out, sc.object_tag, floor=200)
        # With only the shelf suffix left there is less to split.
        assert floored <= full + 1e-9

    def test_requires_evidence(self, small_chain):
        window = TraceWindow.from_range(small_chain.trace, 0, 300)
        out = RFInfer(window, InferenceConfig(keep_evidence=False)).run()
        detector = ChangePointDetector(threshold=1.0)
        with pytest.raises(ValueError):
            detector.statistic(out, window.tags(TagKind.ITEM)[0])


class TestCalibration:
    def test_journey_calibration_positive_finite(self):
        delta = calibrate_threshold(n_samples=4, length=200, seed=1)
        assert 0.0 <= delta < 1e6

    def test_deployment_calibration(self):
        from repro.core.calibration import calibrate_threshold_from_deployment

        delta = calibrate_threshold_from_deployment(
            horizon=900, items_per_case=4, injection_period=300, seed=2
        )
        assert 0.0 <= delta < 1e6
