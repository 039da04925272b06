"""Vectorized log-likelihood plumbing for the graphical model (§3.1).

Everything RFINFER computes reduces to two primitives over a *window*
(a sorted array of epochs):

* the **base matrix** ``B[t, a]`` — the log-probability that a tag at
  location ``a`` produces *no reading* during epoch ``t`` (sum of
  ``log(1 − π(r, a))`` over readers active at ``t``);
* the **delta rows** ``δ[r, a] = log π(r, a) − log(1 − π(r, a))`` — the
  log-likelihood adjustment when reader ``r`` *did* fire.

The log-likelihood of a tag's readings during epoch ``t``, as a vector
over its true location, is then ``B[t] + Σ_{r fired} δ[r]`` (Eq. 1).
Group quantities (Eq. 4) are sums of these per-tag vectors, so the
E-step is a handful of numpy scatter-adds instead of the naive
O(T·C·O·R²) loop of Algorithm 1.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.sim.tags import EPC, TagKind
from repro.sim.trace import Trace

__all__ = ["TraceWindow", "WindowCache"]


class TraceWindow:
    """A trace restricted to a set of epochs, indexed for inference.

    Parameters
    ----------
    trace:
        The raw reading stream of one site.
    epochs:
        The epochs (need not be contiguous — critical regions plus a
        recent history window, for instance). Stored sorted and unique.
    tags:
        Restrict to these tags (default: every tag in the trace).
    """

    def __init__(
        self,
        trace: Trace,
        epochs: Iterable[int],
        tags: Sequence[EPC] | None = None,
        reuse: "TraceWindow | None" = None,
    ) -> None:
        self.trace = trace
        self.model = trace.model
        self.layout = trace.layout
        if isinstance(epochs, np.ndarray):
            self.epochs = np.unique(epochs.astype(np.int64, copy=False))
        else:
            self.epochs = np.unique(np.fromiter(epochs, dtype=np.int64))
        if self.epochs.size == 0:
            raise ValueError("a TraceWindow needs at least one epoch")
        self.n_rows = int(self.epochs.size)
        self.n_locations = self.layout.n_locations
        self.n_states = self.model.n_states
        self.away_index = self.model.away_index
        self._delta = self.model.delta
        #: base-matrix rows copied from a previous window (cache telemetry).
        self.base_rows_reused = 0
        self.base = self._build_base(reuse)
        self.readings: dict[EPC, tuple[np.ndarray, np.ndarray]] = (
            self._build_readings(tags)
        )
        self._away_base: np.ndarray | None = None

    def _build_base(self, reuse: "TraceWindow | None") -> np.ndarray:
        """The (T, R) base matrix, recycling rows from ``reuse``.

        Base rows are a pure function of the epoch (pattern-table
        lookups), so rows copied from a previous window are bitwise
        identical to freshly computed ones — a cold cache can never
        change results, which is what lets crash-recovered sites (whose
        cache is empty) stay bit-identical to uncrashed ones.
        """
        if reuse is None or reuse.trace is not self.trace:
            return self.model.base_matrix(self.epochs)
        pos = np.searchsorted(reuse.epochs, self.epochs)
        pos_clip = np.minimum(pos, reuse.n_rows - 1)
        shared = reuse.epochs[pos_clip] == self.epochs
        self.base_rows_reused = int(shared.sum())
        if self.base_rows_reused == self.n_rows:
            if reuse.n_rows == self.n_rows:
                return reuse.base  # identical epoch set: share the matrix
            return reuse.base[pos_clip]  # strict subset: gather its rows
        base = np.empty((self.n_rows, self.model.n_states))
        base[shared] = reuse.base[pos_clip[shared]]
        novel = ~shared
        if novel.any():
            base[novel] = self.model.base_matrix(self.epochs[novel])
        return base

    def _build_readings(
        self, tags: Sequence[EPC] | None
    ) -> dict[EPC, tuple[np.ndarray, np.ndarray]]:
        """Per-tag (window rows, reader indices), built in one pass.

        One ``searchsorted`` over the trace's tag-major time column maps
        every candidate reading to its window row; per-tag slices then
        fall out of the trace's tag offsets without Python-level
        iteration over readings.
        """
        trace = self.trace
        t_times = trace.tag_times
        out: dict[EPC, tuple[np.ndarray, np.ndarray]] = {}
        if t_times.size == 0:
            return out
        lo_t = int(self.epochs[0])
        hi_t = int(self.epochs[-1]) + 1
        # Restrict to the window's time range first, so the pass is
        # O(readings inside the window), not O(trace length).
        seg_lo, seg_hi = trace.tag_range_bounds(lo_t, hi_t)
        lengths = seg_hi - seg_lo
        total = int(lengths.sum())
        if total == 0:
            return out
        nonzero = lengths > 0
        offsets = np.cumsum(lengths) - lengths
        sel = np.repeat(seg_lo[nonzero] - offsets[nonzero], lengths[nonzero])
        sel += np.arange(total, dtype=np.int64)
        times_sel = t_times[sel]
        rows_all = np.searchsorted(self.epochs, times_sel)
        if self.n_rows == hi_t - lo_t:
            # Contiguous window: every in-range reading hits a row.
            valid_idx = np.arange(total, dtype=np.int64)
        else:
            rows_clip = np.minimum(rows_all, self.n_rows - 1)
            valid_idx = np.flatnonzero(self.epochs[rows_clip] == times_sel)
        if valid_idx.size == 0:
            return out
        sel_bounds = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(lengths)]
        )
        bounds = np.searchsorted(valid_idx, sel_bounds)
        readers_sel = trace.tag_readers[sel]
        table = trace.tag_table
        wanted = None if tags is None else set(tags)
        for tag_id, tag in enumerate(table):
            if wanted is not None and tag not in wanted:
                continue
            a, b = bounds[tag_id], bounds[tag_id + 1]
            if a == b:
                continue
            pick = valid_idx[a:b]
            out[tag] = (rows_all[pick], readers_sel[pick])
        return out

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_range(
        cls, trace: Trace, start: int, end: int, tags: Sequence[EPC] | None = None
    ) -> "TraceWindow":
        """Window over the contiguous epoch range ``[start, end)``."""
        return cls(trace, np.arange(max(start, 0), end, dtype=np.int64), tags)

    # -- tag-level helpers -----------------------------------------------

    def tags(self, kind: TagKind | None = None) -> list[EPC]:
        """Tags with at least one reading inside the window."""
        if kind is None:
            return sorted(self.readings)
        return sorted(t for t in self.readings if t.kind is kind)

    def tag_rows(self, tag: EPC) -> tuple[np.ndarray, np.ndarray]:
        """(window-row indices, reader indices) of ``tag``'s readings."""
        empty = np.empty(0, dtype=np.int64)
        return self.readings.get(tag, (empty, empty))

    def reading_count(self, tag: EPC) -> int:
        rows, _ = self.tag_rows(tag)
        return int(rows.size)

    def row_of(self, epoch: int) -> int:
        """Window row holding ``epoch`` (raises if absent)."""
        row = int(np.searchsorted(self.epochs, epoch))
        if row >= self.n_rows or self.epochs[row] != epoch:
            raise KeyError(f"epoch {epoch} not in window")
        return row

    def rows_in_ranges(self, ranges: Sequence[tuple[int, int]]) -> np.ndarray:
        """Boolean row mask covering the union of [start, end) ranges."""
        mask = np.zeros(self.n_rows, dtype=bool)
        for start, end in ranges:
            lo = int(np.searchsorted(self.epochs, start))
            hi = int(np.searchsorted(self.epochs, end))
            mask[lo:hi] = True
        return mask

    # -- likelihood primitives (Eq. 1 and 4) ------------------------------

    def scatter(self, tags: Iterable[EPC], out: np.ndarray) -> np.ndarray:
        """Add Σ_tag Σ_{(t,r) readings} δ[r] into ``out`` (a (T, R) matrix)."""
        for tag in tags:
            rows, readers = self.tag_rows(tag)
            if rows.size:
                np.add.at(out, rows, self._delta[readers])
        return out

    def group_log_posterior(self, tags: Sequence[EPC]) -> np.ndarray:
        """Unnormalized log q over locations for a co-located group.

        ``tags`` is the container plus its believed contents; each tag
        contributes one base matrix plus its reading deltas (Eq. 4).
        """
        logq = self.base * len(tags)
        return self.scatter(tags, logq)

    def group_posterior_logz(
        self, tags: Sequence[EPC]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Normalized posterior q_tc (rows = epochs) plus the per-row
        log-normalizer.

        The normalizer ``logZ[t] = log Σ_a exp(logq[t, a])`` is the
        group's contribution to the data log-likelihood L(C) (Eq. 3);
        computing it alongside the softmax lets
        :meth:`RFInferResult.log_likelihood` reuse the E-step's work
        instead of re-deriving every group posterior from scratch.
        """
        logq = self.group_log_posterior(tags)
        peak = logq.max(axis=1, keepdims=True)
        out = np.exp(logq - peak)
        norm = out.sum(axis=1, keepdims=True)
        out /= norm
        logz = peak[:, 0] + np.log(norm[:, 0])
        return out, logz

    def qbase(self, q: np.ndarray) -> np.ndarray:
        """Per-epoch expected base log-likelihood Σ_a q(a)·B[t, a]."""
        return np.einsum("tr,tr->t", q, self.base)

    def away_evidence(self, tag: EPC) -> np.ndarray:
        """Per-epoch log-likelihood of ``tag``'s readings if it were at
        an *unmonitored* location (removed from the site, §3.3's "been
        removed altogether" hypothesis).

        Away from every reader, each interrogation misses with
        probability ``1 − ε``: silence costs almost nothing and every
        actual reading costs ``log ε``. This gives change-point
        detection a principled track for removals, which no
        candidate-container hypothesis can explain.
        """
        eps = float(self.model.epsilon)
        log_miss = np.log1p(-eps)
        delta = np.log(eps) - log_miss
        if self._away_base is None:
            period = self.layout.pattern_period
            n_active = self.model.away_counts_table()[self.epochs % period]
            self._away_base = n_active * log_miss
        evidence = self._away_base.copy()
        rows, _ = self.tag_rows(tag)
        if rows.size:
            np.add.at(evidence, rows, delta)
        return evidence

    def solo_posterior(self, tag: EPC) -> np.ndarray:
        """Posterior over locations from the tag's own readings alone.

        Used for tags that belong to no inferred group (pallets, orphan
        objects) — equivalent to a container with zero contents.
        """
        return self.group_posterior_logz([tag])[0]


class _CachedBase:
    """Reusable slice of a window's base matrix (the eviction survivor).

    Duck-types the four attributes :meth:`TraceWindow._build_base`
    reads from its ``reuse`` argument; the sliced ``base`` is copied so
    the evicted rows' memory is actually released (a numpy view would
    pin the full parent matrix).
    """

    __slots__ = ("trace", "epochs", "n_rows", "base")

    def __init__(self, trace: Trace, epochs: np.ndarray, base: np.ndarray) -> None:
        self.trace = trace
        self.epochs = epochs.copy()
        self.n_rows = int(epochs.size)
        self.base = base.copy()


class WindowCache:
    """Incremental window builder for a periodic inference service.

    Successive runs under the ``"cr"``/``"all"`` truncation policies
    share most of their epochs (the recent history slides by one run
    interval; critical regions persist verbatim), so rebuilding every
    :class:`TraceWindow` from scratch redoes mostly identical work. The
    cache hands each new window the previous one, letting it copy base
    rows for every epoch it has already seen and compute only the novel
    rows.

    Everything reused is a pure function of ``(trace, epoch)``, so a
    cache hit is bitwise identical to a cold build — a site restored
    from a checkpoint (cold cache) produces exactly the results of one
    that never crashed. For the same reason ``max_age`` eviction can
    only lower the hit rate, never change a result: rows older than
    ``newest epoch − max_age`` are dropped from the retained copy, so
    the cache's footprint stays bounded on unboundedly long streams
    (under the ``"all"`` policy the previous window otherwise grows
    with the stream).
    """

    def __init__(self, trace: Trace, max_age: int | None = None) -> None:
        if max_age is not None and max_age < 1:
            raise ValueError("max_age must be >= 1 when set")
        self.trace = trace
        self.max_age = max_age
        self._previous: TraceWindow | _CachedBase | None = None
        #: cumulative base rows served from cache (telemetry for benches).
        self.rows_reused = 0
        self.rows_built = 0
        #: cumulative rows dropped by ``max_age`` eviction.
        self.rows_evicted = 0

    def window(
        self, epochs: Iterable[int], tags: Sequence[EPC] | None = None
    ) -> TraceWindow:
        """Build (incrementally) the window over ``epochs``."""
        built = TraceWindow(self.trace, epochs, tags, reuse=self._previous)
        self.rows_reused += built.base_rows_reused
        self.rows_built += built.n_rows - built.base_rows_reused
        self._previous = self._evict(built)
        return built

    def _evict(self, built: TraceWindow) -> "TraceWindow | _CachedBase":
        if self.max_age is None:
            return built
        cutoff = int(built.epochs[-1]) + 1 - self.max_age
        if int(built.epochs[0]) >= cutoff:
            return built
        lo = int(np.searchsorted(built.epochs, cutoff))
        self.rows_evicted += lo
        return _CachedBase(self.trace, built.epochs[lo:], built.base[lo:])

    def cached_rows(self) -> int:
        """Base rows the cache currently retains for reuse."""
        return 0 if self._previous is None else self._previous.n_rows

    def clear(self) -> None:
        self._previous = None
