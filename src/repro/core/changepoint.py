"""Change-point detection for containment changes (§3.3, Appendix A.2).

For each object the detector compares the best single-container
explanation of the evidence against the best two-segment explanation
(one container before some t′, another after), via the generalized
likelihood-ratio statistic

    Δo(T) = max_t′ [ L(C0:t′) + L(Ct′:T) ] − L(C0:T)  ≥ 0.

(The paper's Eq. 6 prints the difference with the opposite sign but
flags a change when the statistic *exceeds* δ; we implement the
standard positive GLR form.) A change is flagged when
Δo(T) > δ; the change time is the maximizing t′, and the new container
is the best candidate on the suffix. An "away" track (see
:meth:`TraceWindow.away_evidence`) lets the suffix hypothesis be
"removed altogether".

The threshold δ is calibrated *offline* by sampling no-change
observation sequences from the generative model itself and taking the
maximum Δ observed (§3.3): any larger value on real data is, under the
model, stronger evidence than pure noise can produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro._util.rng import spawn_rng
from repro.core.likelihood import TraceWindow
from repro.core.rfinfer import InferenceConfig, RFInfer, RFInferResult
from repro.sim.layout import Layout, warehouse_layout
from repro.sim.readers import ObservationSampler, ReadRateModel
from repro.sim.tags import EPC, TagKind
from repro.sim.trace import Location
from repro.sim.world import World

__all__ = ["ChangePoint", "ChangePointDetector", "calibrate_threshold"]


@dataclass(frozen=True)
class ChangePoint:
    """A detected containment change."""

    tag: EPC
    time: int
    old_container: EPC | None
    new_container: EPC | None
    score: float


class ChangePointDetector:
    """GLR change-point detector over RFINFER evidence tracks."""

    #: extra evidence the away track must show over the best container
    #: suffix before a change is labelled a removal — on a near-tie the
    #: object more plausibly left *inside* that container.
    REMOVAL_MARGIN = 5.0

    def __init__(self, threshold: float, allow_removal: bool = True) -> None:
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = threshold
        self.allow_removal = allow_removal

    # -- statistic --------------------------------------------------------

    def statistic(
        self, result: RFInferResult, tag: EPC, floor: int | None = None
    ) -> tuple[float, int, EPC | None, EPC | None]:
        """Return (Δo, best split epoch, prefix container, suffix container).

        ``floor`` excludes evidence before a previously detected change
        (Appendix A.2: "we disregard the data from 0…t′ in all
        subsequent calls"). A prefix/suffix container of None means the
        away hypothesis dominated that segment.
        """
        if result.evidence is None:
            raise ValueError("inference ran with keep_evidence=False")
        tracks = result.evidence.get(tag)
        if not tracks:
            return 0.0, -1, None, None
        window = result.window
        epochs = window.epochs
        valid = np.ones(window.n_rows, dtype=bool)
        if floor is not None:
            valid &= epochs >= floor
        mask = result.object_masks.get(tag)
        if mask is not None:
            valid &= mask
        if not valid.any():
            return 0.0, -1, None, None

        names: list[EPC | None] = list(tracks)
        matrix = np.stack([np.where(valid, tracks[c], 0.0) for c in names])
        if self.allow_removal:
            away = np.where(valid, window.away_evidence(tag), 0.0)
            matrix = np.vstack([matrix, away[None, :]])
            names.append(None)

        # Prefix sums with a leading zero column: cum[:, i] = sum of
        # rows < i, so a split *before* row i yields prefix cum[:, i].
        cum = np.concatenate(
            [np.zeros((matrix.shape[0], 1)), np.cumsum(matrix, axis=1)], axis=1
        )
        totals = cum[:, -1]
        # Single-segment fit must be a *container* (the M-step never
        # assigns "away"); exclude the away row from the single fit.
        n_real = len(tracks)
        single = float(totals[:n_real].max())

        prefix_best = cum.max(axis=0)  # over hypotheses, per split point
        suffix_all = totals[:, None] - cum
        suffix_best = suffix_all.max(axis=0)
        two_segment = prefix_best + suffix_best

        # Valid split points: boundaries between valid rows (1..n_rows-1
        # in cum-column coordinates). Splits at 0 or n_rows degenerate
        # to the single-segment fit, so they never dominate incorrectly.
        split_cols = np.arange(1, window.n_rows)
        if split_cols.size == 0:
            return 0.0, -1, None, None
        scores = two_segment[split_cols]
        best_idx = int(np.argmax(scores))
        best_col = int(split_cols[best_idx])
        delta = float(scores[best_idx] - single)
        old_container = self._segment_container(cum[:, best_col], names, n_real)
        new_container = self._segment_container(
            suffix_all[:, best_col], names, n_real
        )
        return delta, int(epochs[best_col]), old_container, new_container

    def _segment_container(
        self, segment_scores: np.ndarray, names: list[EPC | None], n_real: int
    ) -> EPC | None:
        """Best hypothesis for one segment, preferring real containers.

        Away wins only when it beats the best container by
        ``REMOVAL_MARGIN`` — on a near-tie the object more plausibly
        travelled *inside* that container.
        """
        best_real = int(np.argmax(segment_scores[:n_real]))
        if (
            self.allow_removal
            and len(names) > n_real
            and float(segment_scores[-1])
            > float(segment_scores[best_real]) + self.REMOVAL_MARGIN
        ):
            return None
        return names[best_real]

    def detect(
        self, result: RFInferResult, tag: EPC, floor: int | None = None
    ) -> ChangePoint | None:
        """Flag a change point for ``tag`` if Δo(T) exceeds the threshold.

        A change is a two-segment fit whose prefix and suffix containers
        differ. A prefix of "away" means the object *arrived* during the
        window — that is not a containment change and is not reported.
        """
        delta, split_epoch, old, new_container = self.statistic(result, tag, floor)
        if delta <= self.threshold or split_epoch < 0:
            return None
        if new_container == old or old is None:
            return None
        return ChangePoint(tag, split_epoch, old, new_container, delta)


def _null_journey(
    layout: Layout,
    length: int,
    n_distractors: int,
    rng: np.random.Generator,
) -> World:
    """A no-change journey: one case + one item travel together, with
    distractor cases that end up co-located on the object's shelf.

    The worst null-hypothesis noise comes from *twin* cases that share
    the object's shelf for the whole evaluation window — on shelf-only
    evidence they are statistically indistinguishable from the true
    container, so reading noise produces spurious two-segment fits. The
    calibrated δ must sit above that noise floor, which is why every
    distractor here is a shelf twin (plus door co-location).
    """
    world = World()
    case = EPC(TagKind.CASE, 0)
    obj = EPC(TagKind.ITEM, 0)
    world.register(case, 0)
    world.register(obj, 0, container=case)
    entry, belt = layout.entry, layout.belt
    shelf = int(rng.choice(layout.shelf_indices))
    t_belt = max(4, int(length * 0.02))
    t_shelf = t_belt + 5
    world.move(case, 0, Location(0, entry))
    world.move(case, t_belt, Location(0, belt))
    world.move(case, t_shelf, Location(0, shelf))
    for d in range(n_distractors):
        # Twin cases sit on the object's shelf for the entire window.
        twin = EPC(TagKind.CASE, d + 1)
        world.register(twin, 0, location=Location(0, shelf))
        # Twins carry their own contents, as real shelf neighbours do.
        for j in range(2):
            filler = EPC(TagKind.ITEM, 1 + d * 2 + j)
            world.register(filler, 0, container=twin)
            world.move(filler, 0, Location(0, shelf))
    world.truth.horizon = length
    return world


def calibrate_threshold(
    model: ReadRateModel | None = None,
    layout: Layout | None = None,
    n_samples: int = 20,
    length: int = 600,
    n_distractors: int = 3,
    seed: int = 0,
    margin: float = 1.05,
) -> float:
    """Choose δ by sampling no-change sequences from the model (§3.3).

    Runs the full pipeline (sample readings → RFINFER → Δ statistic) on
    ``n_samples`` synthetic journeys without change points and returns
    ``margin ×`` the maximum Δ observed. All computation happens before
    any real RFID data is seen.
    """
    if layout is None:
        layout = warehouse_layout(name="calibration")
    if model is None:
        model = ReadRateModel.build(layout, seed=seed)
    rng = spawn_rng(seed, "calibration")
    sampler = ObservationSampler(seed=spawn_rng(seed, "calibration-sampler"))
    detector = ChangePointDetector(threshold=0.0)
    worst = 0.0
    obj = EPC(TagKind.ITEM, 0)
    for sample in range(n_samples):
        world = _null_journey(layout, length, n_distractors, rng)
        trace = sampler.sample_site(world.truth, 0, layout, model, length)
        if trace.reading_count(obj) == 0:
            continue
        window = TraceWindow.from_range(trace, 0, length)
        result = RFInfer(
            window,
            InferenceConfig(candidate_pruning=False),
            objects=[obj],
            containers=window.tags(TagKind.CASE),
        ).run()
        delta, _, _, _ = detector.statistic(result, obj)
        worst = max(worst, delta)
    return worst * margin
