"""History truncation via critical regions (§4.1).

"Our history truncation algorithm aims to find a time period, called
the critical region, whose observations are most informative for
determining containment." The search slides a small window over time;
a window where the best candidate's point evidence exceeds the
second-best's by a threshold margin is a critical region, and the most
recent such window wins. Readings outside the critical region and the
recent history H̄ are discarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.rfinfer import RFInferResult
from repro.sim.tags import EPC

__all__ = ["CriticalRegion", "find_critical_regions"]


@dataclass(frozen=True)
class CriticalRegion:
    """An epoch range [start, end) retained for future inference."""

    start: int
    end: int

    def as_range(self) -> tuple[int, int]:
        return (self.start, self.end)

    def __contains__(self, epoch: int) -> bool:
        return self.start <= epoch < self.end


def find_critical_regions(
    result: RFInferResult,
    tags: "Sequence[EPC] | None" = None,
    width: int = 60,
    stride: int | None = None,
    margin_threshold: float = 10.0,
) -> dict[EPC, CriticalRegion]:
    """The most recent critical region of each of ``tags`` (default:
    every object with evidence), in one batched pass.

    Slides a window of ``width`` epochs (step ``stride``, default half
    the width) across the inference window; within each, sums the point
    evidence per candidate container and compares the best against the
    second best. The *last* window whose margin exceeds
    ``margin_threshold`` is the object's region (later evidence
    supersedes earlier per the paper's overwrite rule). Objects with
    fewer than two candidates, or no discriminating window, get none.

    Every eligible object's evidence tracks stack into one matrix, so
    the cumulative sums and window-position lookups are computed once
    per run instead of once per object.
    """
    if result.evidence is None:
        raise ValueError("inference ran with keep_evidence=False")
    if tags is None:
        tags = list(result.evidence)
    eligible: list[EPC] = []
    bounds: list[int] = [0]
    rows: list[np.ndarray] = []
    for tag in tags:
        tracks = result.evidence.get(tag)
        if tracks is None or len(tracks) < 2:
            continue
        eligible.append(tag)
        rows.extend(tracks.values())
        bounds.append(len(rows))
    regions: dict[EPC, CriticalRegion] = {}
    if not eligible:
        return regions
    if stride is None:
        stride = max(width // 2, 1)

    epochs = result.window.epochs
    matrix = np.vstack(rows)
    cum = np.concatenate(
        [np.zeros((matrix.shape[0], 1)), np.cumsum(matrix, axis=1)], axis=1
    )
    first, last = int(epochs[0]), int(epochs[-1])
    starts = np.arange(first, last + 1, stride, dtype=np.int64)
    lo = np.searchsorted(epochs, starts)
    hi = np.searchsorted(epochs, starts + width)
    occupied = hi > lo
    if not occupied.any():
        return regions
    starts, lo, hi = starts[occupied], lo[occupied], hi[occupied]
    sums = cum[:, hi] - cum[:, lo]  # (total tracks, n_windows)
    for idx, tag in enumerate(eligible):
        seg = sums[bounds[idx] : bounds[idx + 1]]
        top_two = np.partition(seg, seg.shape[0] - 2, axis=0)[-2:]
        margins = top_two[1] - top_two[0]
        winners = np.flatnonzero(margins > margin_threshold)
        if winners.size:
            start = int(starts[winners[-1]])
            regions[tag] = CriticalRegion(start, min(start + width, last + 1))
    return regions
