"""RFINFER — EM inference of containment and location (§3.2, Alg. 1).

The algorithm alternates:

* **E-step** — for each container ``c``, the posterior ``q_tc(a)`` over
  its location given its readings and its believed contents' readings
  (Eq. 4);
* **M-step** — for each object ``o`` and candidate container ``c``, the
  co-location strength ``w_co`` (Eq. 5), assigning each object to its
  argmax container.

This implementation includes the Appendix A.3 optimizations:

* *pattern caching* — epochs without readings share cached base vectors
  (inside :class:`~repro.core.likelihood.TraceWindow`);
* *candidate pruning* — objects only score their top-k co-located
  containers;
* *memoization* — a container whose member set did not change between
  EM iterations keeps its posterior without recomputation.

The M-step computes all ``objects × candidates`` weights in a handful
of numpy passes: one ``qbase`` per candidate, one mask-matrix matmul
for the silence terms, and per-candidate gather/scatter-add over the
concatenated reading arrays for the firing terms. Evidence extraction
(``keep_evidence``) batches the same way.

Convergence to a local maximum of the likelihood (Theorem 1) holds
because the E- and M-steps each maximize the EM lower bound; the
property tests in ``tests/test_rfinfer_properties.py`` verify the
monotonicity empirically and check this engine against the naive
per-epoch Algorithm 1 in ``tests/oracles/algorithm1.py``.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.candidates import colocation_counts, top_candidates
from repro.core.likelihood import TraceWindow
from repro.sim.tags import EPC, TagKind

__all__ = ["InferenceConfig", "RFInfer", "RFInferResult"]

#: Ranges of epochs an object's evidence is restricted to — the union of
#: its critical region, the recent history, and anything after its last
#: detected change point.
EpochRanges = Sequence[tuple[int, int]]


@dataclass(frozen=True)
class InferenceConfig:
    """Tunables of the RFINFER engine."""

    max_iterations: int = 10
    n_candidates: int = 5
    candidate_pruning: bool = True
    memoize: bool = True
    keep_evidence: bool = True

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")


@dataclass
class RFInferResult:
    """Everything one RFINFER run produced."""

    window: TraceWindow
    containment: dict[EPC, EPC | None]
    weights: dict[EPC, dict[EPC, float]]
    candidates: dict[EPC, list[EPC]]
    posteriors: dict[EPC, np.ndarray]
    iterations: int
    #: per-object, per-candidate point-evidence arrays over window rows
    #: (zero outside the object's valid ranges); None if not kept.
    evidence: dict[EPC, dict[EPC, np.ndarray]] | None = None
    object_masks: dict[EPC, np.ndarray] = field(default_factory=dict)
    #: final believed contents of each container (for location smoothing).
    members: dict[EPC, list[EPC]] = field(default_factory=dict)
    #: wall-clock seconds per engine phase (candidates / e_step / m_step /
    #: evidence).
    timings: dict[str, float] = field(default_factory=dict)
    _solo_cache: dict[EPC, np.ndarray] = field(default_factory=dict, repr=False)
    _location_cache: dict[EPC, np.ndarray] = field(default_factory=dict, repr=False)
    #: per-(container, member-set) log-normalizer rows memoized during
    #: the EM run, so log_likelihood() does not redo the E-step.
    _logz_cache: dict[tuple[EPC, frozenset], np.ndarray] = field(
        default_factory=dict, repr=False
    )

    # -- location estimates (the "smoothing over containment" output) ----

    def container_location_rows(self, container: EPC) -> np.ndarray:
        """MAP location (place index) per window row for a container.

        The model treats epochs independently, so a single epoch's MAP
        is unreliable: a silent epoch has a weak silence-skewed
        posterior, and an epoch with only *overlap* readings cannot
        separate the two shelves adjacent to the firing reader (the
        per-interrogation overlap rate OR is close to the main rate RR).
        Physical objects, however, dwell: rather than the fragile
        per-row argmax we decode the MAP *trajectory* under a sticky
        prior — a Viterbi pass over the per-epoch posteriors with a
        fixed penalty per location switch. Epochs with readings swing
        the log-posterior by tens of nats (a reading assigns ≈ log ε to
        every location its reader cannot see), so genuine moves switch
        the path within an epoch or two, while epoch-level noise and
        flat silence stretches cannot pay the switch penalty.
        """
        cached = self._location_cache.get(container)
        if cached is None:
            q = self.posteriors.get(container)
            if q is None:
                q = self._solo_posterior(container)
            cached = self._viterbi_decode_batch([q])[0]
            self._location_cache[container] = cached
        return cached

    #: log-likelihood cost of one location switch in the Viterbi decode.
    SWITCH_PENALTY = 15.0

    def _viterbi_decode_batch(self, qs: Sequence[np.ndarray]) -> np.ndarray:
        """Decode many posterior stacks at once — (B, T) paths.

        Per epoch, each location either stays on its own best path or
        switches from the best location so far at ``SWITCH_PENALTY``;
        the epoch loop advances all B containers together, so the
        Python-level iteration count is T, not B·T. The virtual away
        state reports as place -1 ("not on site").
        """
        logq = np.log(np.maximum(np.stack(qs), 1e-300))  # (B, T, R)
        n_batch, n_rows, n_loc = logq.shape
        penalty = self.SWITCH_PENALTY
        pointers = np.empty((n_batch, n_rows, n_loc), dtype=np.int32)
        locs = np.arange(n_loc)
        lanes = np.arange(n_batch)
        score = logq[:, 0].copy()
        pointers[:, 0] = locs
        for row in range(1, n_rows):
            best_prev = np.argmax(score, axis=1)  # (B,)
            switch_score = score[lanes, best_prev] - penalty
            stay = score >= switch_score[:, None]
            pointers[:, row] = np.where(stay, locs, best_prev[:, None])
            score = np.where(stay, score, switch_score[:, None]) + logq[:, row]
        paths = np.empty((n_batch, n_rows), dtype=np.int64)
        paths[:, -1] = np.argmax(score, axis=1)
        for row in range(n_rows - 1, 0, -1):
            paths[:, row - 1] = pointers[lanes, row, paths[:, row]]
        paths[paths == self.window.away_index] = -1
        return paths

    def prefetch_locations(self, tags: Sequence[EPC]) -> None:
        """Batch-decode the location trajectories ``tags`` will need.

        Groups every container (or orphan tag) whose Viterbi decode is
        not cached yet into one batched pass; subsequent
        :meth:`location_rows` calls are cache hits.
        """
        wanted: list[EPC] = []
        seen: set[EPC] = set()
        for tag in tags:
            container = self.containment.get(tag) or tag
            if container in seen or container in self._location_cache:
                continue
            seen.add(container)
            wanted.append(container)
        if not wanted:
            return
        stacks = [
            self.posteriors.get(c)
            if self.posteriors.get(c) is not None
            else self._solo_posterior(c)
            for c in wanted
        ]
        paths = self._viterbi_decode_batch(stacks)
        for container, path in zip(wanted, paths):
            self._location_cache[container] = path

    def _solo_posterior(self, tag: EPC) -> np.ndarray:
        cached = self._solo_cache.get(tag)
        if cached is None:
            cached = self.window.solo_posterior(tag)
            self._solo_cache[tag] = cached
        return cached

    def location_rows(self, tag: EPC) -> np.ndarray:
        """MAP location per window row for any tag.

        Objects inherit their inferred container's location (§3.2: "the
        locations of objects believed to be in the container"); tags
        with no container fall back to their own readings.
        """
        container = self.containment.get(tag)
        if container is not None:
            return self.container_location_rows(container)
        return self.container_location_rows(tag)

    def location_at(self, tag: EPC, epoch: int) -> int:
        """MAP location (place index) of ``tag`` at ``epoch``."""
        return int(self.location_rows(tag)[self.window.row_of(epoch)])

    def container_of(self, tag: EPC) -> EPC | None:
        return self.containment.get(tag)

    def log_likelihood(self) -> float:
        """L(C) of Eq. (3) under the current containment estimate.

        Groups whose member set matches one the EM run already scored
        reuse the memoized per-row log-normalizers; only groups mutated
        after the run (e.g. by change-point overrides) are recomputed.
        """
        window = self.window
        n_loc = window.n_states
        total = 0.0
        members: dict[EPC, list[EPC]] = {c: [] for c in self.posteriors}
        for obj, container in self.containment.items():
            if container is not None:
                members.setdefault(container, []).append(obj)
        for container, content in members.items():
            logz = self._logz_cache.get((container, frozenset(content)))
            if logz is None:
                _, logz = window.group_posterior_logz([container, *sorted(content)])
            total += float(logz.sum())
            total -= logz.shape[0] * np.log(n_loc)
        return total


class _MStepBatch:
    """Precomputed gather/scatter structure for the batched M-step.

    Built once per run (candidate sets and object masks are fixed across
    EM iterations). For every candidate container the readings of all
    objects scoring it are concatenated into flat ``(rows, readers,
    object, keep)`` arrays, so one iteration of the M-step is, per
    candidate, a single per-reading gather + ``bincount`` scatter-add —
    and the silence (no-reading) terms are one mask-matrix matmul for
    all pairs at once.
    """

    def __init__(
        self,
        window: TraceWindow,
        objects: Sequence[EPC],
        candidates: Mapping[EPC, Sequence[EPC]],
        masks: Mapping[EPC, np.ndarray | None],
        prior_weights: Mapping[EPC, Mapping[EPC, float]],
    ) -> None:
        self.window = window
        self.objects = list(objects)
        self.candidates = candidates
        n_objects = len(self.objects)
        n_rows = window.n_rows
        self.cand_list = sorted({c for cands in candidates.values() for c in cands})
        col_of = {c: j for j, c in enumerate(self.cand_list)}
        self.n_cols = len(self.cand_list)

        # Silence terms: each object weighs candidate qbase rows by its
        # evidence-range mask (all ones when unrestricted); objects
        # sharing a mask share one row of the distinct-mask matrix.
        distinct_rows: list[np.ndarray] = [np.ones(n_rows)]
        row_of_mask: dict[int, int] = {}
        self.obj_mask_row = np.zeros(n_objects, dtype=np.int64)
        for i, obj in enumerate(self.objects):
            mask = masks.get(obj)
            if mask is None:
                continue
            row = row_of_mask.get(id(mask))
            if row is None:
                row = row_of_mask[id(mask)] = len(distinct_rows)
                distinct_rows.append(mask.astype(float))
            self.obj_mask_row[i] = row
        self.mask_rows = np.vstack(distinct_rows)

        # Flat (object, candidate) pair table in per-object candidate
        # order — the order the argmax tie-break follows.
        pair_obj: list[int] = []
        pair_col: list[int] = []
        pair_prior: list[float] = []
        seg_starts: list[int] = []
        self.objs_with_cands: list[int] = []
        for i, obj in enumerate(self.objects):
            cands = candidates.get(obj, [])
            if not cands:
                continue
            prior = prior_weights.get(obj, {})
            # Candidates the previous site never scored are at best as
            # plausible as its worst observed candidate — without this
            # floor an unseen candidate would outrank every migrated
            # (≤ 0, relative) weight for free.
            floor = min(prior.values(), default=0.0)
            self.objs_with_cands.append(i)
            seg_starts.append(len(pair_obj))
            for cand in cands:
                pair_obj.append(i)
                pair_col.append(col_of[cand])
                pair_prior.append(prior.get(cand, floor))
        self.pair_obj = np.asarray(pair_obj, dtype=np.int64)
        self.pair_col = np.asarray(pair_col, dtype=np.int64)
        self.pair_prior = np.asarray(pair_prior, dtype=float)
        self.seg_starts = np.asarray(seg_starts, dtype=np.int64)

        # Per-candidate concatenated reading arrays across its scorers.
        self.cat_rows: list[np.ndarray] = []
        self.cat_readers: list[np.ndarray] = []
        self.cat_obj: list[np.ndarray] = []
        self.cat_slot: list[np.ndarray] = []
        self.cat_keep: list[np.ndarray] = []
        self.col_objs: list[list[int]] = []
        empty = np.empty(0, dtype=np.int64)
        scorers: list[list[int]] = [[] for _ in self.cand_list]
        for i, obj in enumerate(self.objects):
            for cand in candidates.get(obj, []):
                scorers[col_of[cand]].append(i)
        obj_rows = [window.tag_rows(obj) for obj in self.objects]
        obj_keep: list[np.ndarray | None] = []
        for i, obj in enumerate(self.objects):
            mask = masks.get(obj)
            rows = obj_rows[i][0]
            obj_keep.append(None if mask is None or rows.size == 0 else mask[rows])
        for j, _ in enumerate(self.cand_list):
            rows_parts: list[np.ndarray] = []
            readers_parts: list[np.ndarray] = []
            keep_parts: list[np.ndarray] = []
            part_obj: list[int] = []
            part_slot: list[int] = []
            part_len: list[int] = []
            for slot, i in enumerate(scorers[j]):
                rows, readers = obj_rows[i]
                if rows.size == 0:
                    continue
                rows_parts.append(rows)
                readers_parts.append(readers)
                keep = obj_keep[i]
                keep_parts.append(
                    np.ones(rows.size, dtype=bool) if keep is None else keep
                )
                part_obj.append(i)
                part_slot.append(slot)
                part_len.append(rows.size)
            self.col_objs.append(scorers[j])
            if rows_parts:
                lengths = np.asarray(part_len, dtype=np.int64)
                self.cat_rows.append(np.concatenate(rows_parts))
                self.cat_readers.append(np.concatenate(readers_parts))
                self.cat_obj.append(
                    np.repeat(np.asarray(part_obj, dtype=np.int64), lengths)
                )
                self.cat_slot.append(
                    np.repeat(np.asarray(part_slot, dtype=np.int64), lengths)
                )
                self.cat_keep.append(np.concatenate(keep_parts))
            else:
                self.cat_rows.append(empty)
                self.cat_readers.append(empty)
                self.cat_obj.append(empty)
                self.cat_slot.append(empty)
                self.cat_keep.append(np.empty(0, dtype=bool))

        self._last_qb: np.ndarray | None = None
        self._last_contrib: list[np.ndarray | None] = [None] * self.n_cols
        self._last_pairs: np.ndarray | None = None

    def step(
        self,
        posteriors: Mapping[EPC, np.ndarray],
        assignment: Mapping[EPC, EPC | None],
    ) -> dict[EPC, EPC | None]:
        """One batched M-step: all pair weights, then argmax assignment."""
        window = self.window
        delta = window._delta
        n_objects = len(self.objects)
        if not self.cand_list:
            # No candidate containers anywhere: every object keeps its
            # previous assignment.
            return {obj: assignment.get(obj) for obj in self.objects}
        qb = np.stack(
            [window.qbase(posteriors[c]) for c in self.cand_list]
        )  # (C, T)
        base_terms = (self.mask_rows @ qb.T)[self.obj_mask_row]  # (O, C)
        read_terms = np.zeros((n_objects, self.n_cols))
        for j, cand in enumerate(self.cand_list):
            rows = self.cat_rows[j]
            if rows.size == 0:
                self._last_contrib[j] = None
                continue
            q = posteriors[cand]
            contrib = np.einsum("jr,jr->j", q[rows], delta[self.cat_readers[j]])
            self._last_contrib[j] = contrib
            read_terms[:, j] = np.bincount(
                self.cat_obj[j],
                weights=np.where(self.cat_keep[j], contrib, 0.0),
                minlength=n_objects,
            )
        self._last_qb = qb
        totals = base_terms + read_terms
        pairs = totals[self.pair_obj, self.pair_col] + self.pair_prior
        self._last_pairs = pairs

        new_assignment: dict[EPC, EPC | None] = {
            obj: assignment.get(obj)
            for obj in self.objects
            if not self.candidates.get(obj)
        }
        if self.seg_starts.size:
            seg_max = np.maximum.reduceat(pairs, self.seg_starts)
            # Each object takes the first strict maximum in its candidate
            # order: on an exact tie the earlier candidate wins.
            first = np.full(len(self.objs_with_cands), pairs.size, dtype=np.int64)
            seg_of_pair = (
                np.searchsorted(self.seg_starts, np.arange(pairs.size), side="right")
                - 1
            )
            at_max = pairs == seg_max[seg_of_pair]
            np.minimum.at(first, seg_of_pair[at_max], np.flatnonzero(at_max))
            for k, i in enumerate(self.objs_with_cands):
                obj = self.objects[i]
                winner = int(first[k] - self.seg_starts[k])
                new_assignment[obj] = self.candidates[obj][winner]
        return new_assignment

    def fill_weights(self, weights: dict[EPC, dict[EPC, float]]) -> None:
        """Write the final iteration's pair weights into the result dict."""
        if self._last_pairs is None:
            return
        values = self._last_pairs.tolist()
        pos = 0
        for i in self.objs_with_cands:
            obj = self.objects[i]
            per_obj = weights[obj]
            for cand in self.candidates[obj]:
                per_obj[cand] = values[pos]
                pos += 1

    def evidence(
        self, masks: Mapping[EPC, np.ndarray | None]
    ) -> dict[EPC, dict[EPC, np.ndarray]]:
        """Batched ``keep_evidence`` extraction from the final posteriors.

        Eq. (7) per (object, candidate) and window row: the final
        M-step's ``qbase`` row plus each of the object's readings'
        ``q[t] · δ[r]`` contribution, zeroed outside the object's mask.
        Reuses the final M-step's ``qbase`` rows and per-reading
        contributions instead of recomputing them.
        """
        if self._last_qb is None:  # no candidates were ever scored
            return {obj: {} for obj in self.objects}
        collected: dict[EPC, dict[EPC, np.ndarray]] = {}
        for j, cand in enumerate(self.cand_list):
            scorers = self.col_objs[j]
            if not scorers:
                continue
            tracks = np.repeat(self._last_qb[j][None, :], len(scorers), axis=0)
            contrib = self._last_contrib[j]
            if contrib is not None:
                np.add.at(tracks, (self.cat_slot[j], self.cat_rows[j]), contrib)
            for slot, i in enumerate(scorers):
                obj = self.objects[i]
                arr = tracks[slot]
                mask = masks.get(obj)
                if mask is not None:
                    arr = np.where(mask, arr, 0.0)
                collected.setdefault(obj, {})[cand] = arr
        # Per-object candidate order is semantic: downstream change-point
        # tie-breaks follow track insertion order.
        out: dict[EPC, dict[EPC, np.ndarray]] = {}
        for obj in self.objects:
            per_obj = collected.get(obj, {})
            out[obj] = {c: per_obj[c] for c in self.candidates.get(obj, []) if c in per_obj}
        return out


class RFInfer:
    """One run of the RFINFER EM algorithm over a trace window."""

    def __init__(
        self,
        window: TraceWindow,
        config: InferenceConfig | None = None,
        objects: Sequence[EPC] | None = None,
        containers: Sequence[EPC] | None = None,
        initial_containment: Mapping[EPC, EPC | None] | None = None,
        prior_weights: Mapping[EPC, Mapping[EPC, float]] | None = None,
        object_ranges: Mapping[EPC, EpochRanges] | None = None,
        pinned: Mapping[EPC, EPC] | None = None,
    ) -> None:
        self.window = window
        self.config = config or InferenceConfig()
        self.objects = list(objects) if objects is not None else window.tags(TagKind.ITEM)
        self.containers = (
            list(containers) if containers is not None else window.tags(TagKind.CASE)
        )
        self.initial_containment = dict(initial_containment or {})
        self.prior_weights = {
            obj: dict(weights) for obj, weights in (prior_weights or {}).items()
        }
        self.object_ranges = dict(object_ranges or {})
        #: objects whose containment is fixed for this run (the service's
        #: stability gate). Pinned objects are not scored — no candidate
        #: selection, M-step, or evidence — but they stay E-step members
        #: of their pinned container, so every group posterior (and thus
        #: every other object's inference) is bitwise identical to a run
        #: that scored them and reached the same assignment.
        self.pinned = dict(pinned or {})

    # -- candidate selection -----------------------------------------------

    def _select_candidates(self) -> dict[EPC, list[EPC]]:
        counts = colocation_counts(self.window, self.objects, self.containers)
        if not self.config.candidate_pruning:
            every = list(self.containers)
            return {obj: list(every) for obj in self.objects}
        extra: dict[EPC, list[EPC]] = {}
        for obj in self.objects:
            musts: list[EPC] = []
            previous = self.initial_containment.get(obj)
            if previous is not None:
                musts.append(previous)
            musts.extend(self.prior_weights.get(obj, ()))
            if musts:
                extra[obj] = musts
        return top_candidates(counts, k=self.config.n_candidates, extra=extra)

    def _initial_assignment(self, candidates: dict[EPC, list[EPC]]) -> dict[EPC, EPC | None]:
        assignment: dict[EPC, EPC | None] = {}
        for obj in self.objects:
            initial = self.initial_containment.get(obj)
            if initial is not None and initial in candidates.get(obj, ()):
                assignment[obj] = initial
            else:
                cands = candidates.get(obj, [])
                assignment[obj] = cands[0] if cands else None
        return assignment

    def _object_masks(self) -> dict[EPC, np.ndarray | None]:
        """Evidence-range masks for every object, deduplicated.

        Under ``"cr"`` truncation most objects share the same recent-
        history range, so identical range tuples share one (read-only)
        mask array instead of recomputing it per object.
        """
        shared: dict[tuple[tuple[int, int], ...], np.ndarray] = {}
        masks: dict[EPC, np.ndarray | None] = {}
        for obj in self.objects:
            ranges = self.object_ranges.get(obj)
            if ranges is None:
                masks[obj] = None
                continue
            key = tuple(ranges)
            mask = shared.get(key)
            if mask is None:
                mask = shared[key] = self.window.rows_in_ranges(ranges)
            masks[obj] = mask
        return masks

    # -- the EM loop ---------------------------------------------------------

    def run(self) -> RFInferResult:
        window = self.window
        config = self.config
        started = _time.perf_counter()
        candidates = self._select_candidates()
        assignment = self._initial_assignment(candidates)
        candidates_seconds = _time.perf_counter() - started
        needed_containers = sorted(
            {c for cands in candidates.values() for c in cands}
            | {c for c in assignment.values() if c is not None}
            | set(self.pinned.values())
        )
        masks = self._object_masks()
        batch = _MStepBatch(
            window, self.objects, candidates, masks, self.prior_weights
        )

        posteriors: dict[EPC, np.ndarray] = {}
        members_of: dict[EPC, frozenset[EPC]] = {}
        logz_cache: dict[tuple[EPC, frozenset], np.ndarray] = {}
        weights: dict[EPC, dict[EPC, float]] = {obj: {} for obj in self.objects}
        iterations = 0
        timings = {
            "candidates": candidates_seconds,
            "e_step": 0.0,
            "m_step": 0.0,
            "evidence": 0.0,
        }

        for iterations in range(1, config.max_iterations + 1):
            # E-step: posterior over each needed container's location.
            started = _time.perf_counter()
            current_members: dict[EPC, list[EPC]] = {c: [] for c in needed_containers}
            for obj, container in assignment.items():
                if container is not None:
                    current_members.setdefault(container, []).append(obj)
            for obj, container in self.pinned.items():
                current_members.setdefault(container, []).append(obj)
            for container in needed_containers:
                group = frozenset(current_members.get(container, ()))
                if (
                    config.memoize
                    and container in posteriors
                    and members_of.get(container) == group
                ):
                    continue  # memoization: member set unchanged
                posteriors[container], logz = window.group_posterior_logz(
                    [container, *sorted(group)]
                )
                logz_cache[(container, group)] = logz
                members_of[container] = group
            timings["e_step"] += _time.perf_counter() - started

            # M-step: co-location strengths and argmax assignment.
            started = _time.perf_counter()
            new_assignment = batch.step(posteriors, assignment)
            timings["m_step"] += _time.perf_counter() - started

            if new_assignment == assignment:
                break
            assignment = new_assignment

        batch.fill_weights(weights)

        evidence: dict[EPC, dict[EPC, np.ndarray]] | None = None
        if config.keep_evidence:
            started = _time.perf_counter()
            evidence = batch.evidence(masks)
            timings["evidence"] += _time.perf_counter() - started

        final_members: dict[EPC, list[EPC]] = {c: [] for c in needed_containers}
        for obj, container in assignment.items():
            if container is not None:
                final_members.setdefault(container, []).append(obj)
        for obj, container in self.pinned.items():
            final_members.setdefault(container, []).append(obj)

        containment = dict(assignment)
        containment.update(self.pinned)

        return RFInferResult(
            window=window,
            containment=containment,
            weights=weights,
            candidates=candidates,
            posteriors=posteriors,
            iterations=iterations,
            evidence=evidence,
            object_masks={o: m for o, m in masks.items() if m is not None},
            members=final_members,
            timings=timings,
            _logz_cache=logz_cache,
        )
