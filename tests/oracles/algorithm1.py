"""RFINFER as literal per-epoch loops — the inference layer's oracle.

Algorithm 1 (§3.2, App. A.1) written to mirror the paper's equations
one epoch, one reader and one candidate at a time, with none of the
App. A.3 optimizations (no shared base matrices, scatter-adds, pattern
caching, memoization or batched gathers). It reads only the trace
(readings, layout, read-rate model) and imports nothing from
:mod:`repro.core`, so the batched engine in :mod:`repro.core.rfinfer`
can be checked against it on any input small enough to run:

* Eq. (1) — :func:`tag_loglik`: per epoch ``t`` and state ``a``, the
  sum over the readers active at ``t`` of ``log π(r, a)`` if ``r`` read
  the tag, else ``log(1 − π(r, a))``;
* Eq. (4) — E-step: ``q_tc(a) ∝ exp Σ_{g ∈ {c} ∪ contents(c)} (1)``;
* Eq. (7) — point evidence ``e_co(t) = Σ_a q_tc(a) · (1)[o, t, a]``,
  zero outside the object's evidence ranges;
* Eq. (5) — M-step: ``w_co = Σ_t e_co(t)`` plus the object's migrated
  prior weight; the object moves to its first strictly best candidate.

Beyond the pseudocode it takes every input the service hands the
engine, so the two agree on every code path a run exercises:

* per-object candidate lists (candidate selection is a heuristic
  outside Algorithm 1; the oracle takes the lists as given);
* evidence ranges — an object's evidence, and so its weights, count
  only epochs inside its ``[start, end)`` ranges;
* prior weights — a candidate the prior never scored gets the object's
  worst observed prior weight (0 when it has none);
* pinned members — fixed, unscored objects that still join their
  container's E-step group.

:func:`critical_region` is the §4.1 search over the evidence, one
sliding window at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.sim.tags import EPC
from repro.sim.trace import Trace

__all__ = ["OracleResult", "algorithm1", "critical_region"]

EpochRanges = Sequence[tuple[int, int]]


@dataclass
class OracleResult:
    """Everything the engine's ``RFInferResult`` reports, recomputed."""

    containment: dict[EPC, EPC | None]
    posteriors: dict[EPC, np.ndarray]
    weights: dict[EPC, dict[EPC, float]]
    evidence: dict[EPC, dict[EPC, np.ndarray]]
    iterations: int
    #: L(C) of Eq. (3) under the final containment.
    log_likelihood: float


def tag_loglik(trace: Trace, epochs: Sequence[int], tag: EPC) -> np.ndarray:
    """Eq. (1) for every epoch: rows = ``epochs``, columns = states.

    Readers not active at an epoch cannot fire (the reading sampler
    never produces such readings), so only active readers contribute.
    """
    model, layout = trace.model, trace.layout
    fired: dict[int, set[int]] = {}
    times, readers = trace.tag_readings(tag)
    for time, reader in zip(times.tolist(), readers.tolist()):
        fired.setdefault(time, set()).add(reader)
    out = np.zeros((len(epochs), model.n_states))
    for row, epoch in enumerate(epochs):
        for reader in layout.active_readers(layout.pattern_key(epoch)):
            if reader in fired.get(epoch, ()):
                out[row] += model.log_pi[reader]
            else:
                out[row] += model.log_miss[reader]
    return out


def algorithm1(
    trace: Trace,
    epochs: Sequence[int],
    objects: Sequence[EPC],
    candidates: Mapping[EPC, Sequence[EPC]],
    initial: Mapping[EPC, EPC | None] | None = None,
    prior_weights: Mapping[EPC, Mapping[EPC, float]] | None = None,
    object_ranges: Mapping[EPC, EpochRanges] | None = None,
    pinned: Mapping[EPC, EPC] | None = None,
    max_iterations: int = 10,
) -> OracleResult:
    """Run EM over ``epochs`` of ``trace`` exactly as Algorithm 1 reads."""
    epochs = sorted({int(t) for t in epochs})
    n_rows = len(epochs)
    initial = initial or {}
    prior_weights = prior_weights or {}
    object_ranges = object_ranges or {}
    pinned = pinned or {}
    containers = sorted(
        {c for obj in objects for c in candidates.get(obj, ())} | set(pinned.values())
    )
    loglik = {
        tag: tag_loglik(trace, epochs, tag) for tag in {*objects, *containers, *pinned}
    }

    def counts(obj: EPC, epoch: int) -> bool:
        ranges = object_ranges.get(obj)
        return ranges is None or any(lo <= epoch < hi for lo, hi in ranges)

    def group(container: EPC, assignment: Mapping[EPC, EPC | None]) -> list[EPC]:
        contents = [o for o in objects if assignment[o] == container]
        contents += [o for o, c in pinned.items() if c == container]
        return [container, *contents]

    def e_step(assignment: Mapping[EPC, EPC | None]) -> dict[EPC, np.ndarray]:
        posteriors: dict[EPC, np.ndarray] = {}
        for container in containers:
            members = group(container, assignment)
            q = np.zeros((n_rows, trace.model.n_states))
            for row in range(n_rows):
                log_q = sum(loglik[tag][row] for tag in members)  # Eq. (4)
                q[row] = np.exp(log_q - log_q.max())
                q[row] /= q[row].sum()
            posteriors[container] = q
        return posteriors

    def point_evidence(obj: EPC, q: np.ndarray) -> np.ndarray:
        evidence = np.zeros(n_rows)
        for row, epoch in enumerate(epochs):
            if counts(obj, epoch):
                evidence[row] = q[row] @ loglik[obj][row]  # Eq. (7)
        return evidence

    # Start from the previous estimate when it is still a candidate,
    # else from the object's first candidate.
    assignment: dict[EPC, EPC | None] = {}
    for obj in objects:
        cands = list(candidates.get(obj, ()))
        previous = initial.get(obj)
        if previous in cands:
            assignment[obj] = previous
        else:
            assignment[obj] = cands[0] if cands else None

    weights: dict[EPC, dict[EPC, float]] = {obj: {} for obj in objects}
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        posteriors = e_step(assignment)
        new_assignment: dict[EPC, EPC | None] = {}
        for obj in objects:
            cands = candidates.get(obj, ())
            if not cands:
                new_assignment[obj] = assignment[obj]
                continue
            prior = prior_weights.get(obj, {})
            floor = min(prior.values(), default=0.0)
            best, best_weight = None, -np.inf
            for cand in cands:
                weight = float(point_evidence(obj, posteriors[cand]).sum())  # Eq. (5)
                weight += prior.get(cand, floor)
                weights[obj][cand] = weight
                if weight > best_weight:
                    best, best_weight = cand, weight
            new_assignment[obj] = best
        if new_assignment == assignment:
            break
        assignment = new_assignment

    evidence = {
        obj: {c: point_evidence(obj, posteriors[c]) for c in candidates.get(obj, ())}
        for obj in objects
    }
    containment = {**assignment, **pinned}
    log_likelihood = 0.0
    for container in containers:
        for row in range(n_rows):
            log_q = sum(loglik[tag][row] for tag in group(container, containment))
            peak = log_q.max()
            log_likelihood += peak + np.log(np.exp(log_q - peak).sum())
            log_likelihood -= np.log(trace.model.n_states)
    return OracleResult(
        containment, posteriors, weights, evidence, iterations, log_likelihood
    )


def critical_region(
    tracks: Mapping[EPC, np.ndarray],
    epochs: Sequence[int],
    width: int = 60,
    stride: int | None = None,
    margin_threshold: float = 10.0,
) -> tuple[int, int] | None:
    """§4.1: the latest ``width``-epoch window in which the best
    candidate's summed point evidence beats the second best's by more
    than ``margin_threshold``, as ``(start, end)``; None if no window
    does or there are fewer than two candidates."""
    if len(tracks) < 2:
        return None
    stride = stride or max(width // 2, 1)
    epochs = np.asarray(epochs)
    first, last = int(epochs[0]), int(epochs[-1])
    found = None
    for start in range(first, last + 1, stride):
        inside = (epochs >= start) & (epochs < start + width)
        if not inside.any():
            continue
        sums = sorted(float(track[inside].sum()) for track in tracks.values())
        if sums[-1] - sums[-2] > margin_threshold:
            found = (start, min(start + width, last + 1))
    return found
