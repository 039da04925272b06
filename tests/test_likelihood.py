"""Tests for the vectorized likelihood plumbing (TraceWindow)."""

import numpy as np
import pytest

from repro.core.likelihood import TraceWindow, WindowCache
from repro.core.rfinfer import InferenceConfig, RFInfer
from repro.sim.tags import EPC, TagKind

from oracles.algorithm1 import tag_loglik


@pytest.fixture(scope="module")
def window(small_chain):
    return TraceWindow.from_range(small_chain.trace, 0, 600)


class TestTraceWindow:
    def test_rows_are_sorted_unique(self, window):
        assert (np.diff(window.epochs) > 0).all()

    def test_row_of_round_trip(self, window):
        for epoch in (0, 100, 599):
            assert window.epochs[window.row_of(epoch)] == epoch
        with pytest.raises(KeyError):
            window.row_of(600)

    def test_tag_rows_match_trace(self, window, small_chain):
        tag = window.tags(TagKind.CASE)[0]
        rows, readers = window.tag_rows(tag)
        raw_times, raw_readers = small_chain.trace.tag_readings_in(tag, 0, 600)
        assert rows.size == raw_times.size
        np.testing.assert_array_equal(window.epochs[rows], raw_times)
        np.testing.assert_array_equal(readers, raw_readers)

    def test_noncontiguous_window_filters_readings(self, small_chain):
        epochs = list(range(0, 100)) + list(range(300, 400))
        window = TraceWindow(small_chain.trace, epochs)
        assert window.n_rows == 200
        for tag in window.tags():
            rows, _ = window.tag_rows(tag)
            times = window.epochs[rows]
            assert (((times < 100)) | ((times >= 300) & (times < 400))).all()

    def test_group_posterior_rows_normalized(self, window):
        tag = window.tags(TagKind.CASE)[0]
        q, logz = window.group_posterior_logz([tag])
        assert q.shape == (window.n_rows, window.n_states)
        np.testing.assert_allclose(q.sum(axis=1), 1.0)
        assert (q >= 0).all()
        logq = window.group_log_posterior([tag])
        np.testing.assert_allclose(logz, np.log(np.exp(logq).sum(axis=1)))
        np.testing.assert_array_equal(window.solo_posterior(tag), q)

    def test_scatter_matches_manual(self, window):
        tag = window.tags(TagKind.ITEM)[0]
        out = np.zeros((window.n_rows, window.n_states))
        window.scatter([tag], out)
        rows, readers = window.tag_rows(tag)
        manual = np.zeros_like(out)
        for row, reader in zip(rows, readers):
            manual[row] += window.model.delta[reader]
        np.testing.assert_allclose(out, manual)

    def test_point_evidence_sums_to_weight(self, window):
        items = window.tags(TagKind.ITEM)[:4]
        out = RFInfer(window, objects=items).run()
        for obj in items:
            loglik = tag_loglik(window.trace, window.epochs, obj)
            for cand, evidence in out.evidence[obj].items():
                # Eq. (7) per epoch, against the literal per-reader loop.
                expected = np.einsum("tr,tr->t", out.posteriors[cand], loglik)
                np.testing.assert_allclose(evidence, expected, rtol=1e-12)
                # Eq. (5): the weight is the evidence summed over epochs.
                assert evidence.sum() == pytest.approx(out.weights[obj][cand], rel=1e-9)

    def test_weight_with_mask_restricts_rows(self, window):
        cases = window.tags(TagKind.CASE)
        item = window.tags(TagKind.ITEM)[0]
        # One iteration from the same start: both runs score against the
        # same posteriors, so only the evidence range differs.
        run = dict(
            config=InferenceConfig(candidate_pruning=False, max_iterations=1),
            objects=[item],
            containers=cases,
            initial_containment={item: cases[0]},
        )
        full = RFInfer(window, **run).run()
        masked = RFInfer(window, object_ranges={item: [(0, 300)]}, **run).run()
        mask = window.rows_in_ranges([(0, 300)])
        for cand in cases:
            evidence = full.evidence[item][cand]
            assert masked.weights[item][cand] == pytest.approx(evidence[mask].sum())
            assert masked.weights[item][cand] != pytest.approx(
                full.weights[item][cand]
            )

    def test_rows_in_ranges_union(self, window):
        mask = window.rows_in_ranges([(0, 10), (20, 30)])
        assert mask.sum() == 20
        assert mask[0] and not mask[15] and mask[25]

    def test_away_evidence_penalizes_readings(self, window):
        item = window.tags(TagKind.ITEM)[0]
        away = window.away_evidence(item)
        rows, _ = window.tag_rows(item)
        # Rows with readings must carry the ~log(eps) penalty.
        assert (away[rows] < -10).all()
        silent = np.setdiff1d(np.arange(window.n_rows), rows)
        assert (away[silent] > -0.01).all()

    def test_requires_at_least_one_epoch(self, small_chain):
        with pytest.raises(ValueError):
            TraceWindow(small_chain.trace, [])


class TestWindowCacheEviction:
    """The ``max_age`` cap: bounded retention, bitwise-pure results."""

    INTERVAL = 60
    MAX_AGE = 120

    def _stream(self, trace, max_age):
        """Grow-forever windows (the "all" policy), streamed 10x past
        the cap, returning the built windows."""
        cache = WindowCache(trace, max_age=max_age)
        windows = []
        for now in range(self.INTERVAL, 10 * self.MAX_AGE + 1, self.INTERVAL):
            windows.append(cache.window(np.arange(0, now, dtype=np.int64)))
        return cache, windows

    def test_rejects_bad_max_age(self, small_chain):
        with pytest.raises(ValueError):
            WindowCache(small_chain.trace, max_age=0)

    def test_retained_rows_stay_bounded(self, small_chain):
        cache, _ = self._stream(small_chain.trace, self.MAX_AGE)
        assert cache.rows_evicted > 0
        assert cache.cached_rows() <= self.MAX_AGE

    def test_eviction_is_bitwise_pure(self, small_chain):
        capped, capped_windows = self._stream(small_chain.trace, self.MAX_AGE)
        uncapped, free_windows = self._stream(small_chain.trace, None)
        assert uncapped.rows_evicted == 0
        assert uncapped.cached_rows() == 10 * self.MAX_AGE
        for got, want in zip(capped_windows, free_windows):
            np.testing.assert_array_equal(got.epochs, want.epochs)
            np.testing.assert_array_equal(got.base, want.base)
        # The cap can only lower the hit rate, never change a window.
        assert capped.rows_reused <= uncapped.rows_reused
        assert capped.rows_reused > 0

