"""A literal ``SEQ(A+)`` duration matcher — the pattern blocks' oracle.

SASE's Kleene-plus pattern as the paper's Query 1 writes it (§2,
Appendix B)::

    Pattern SEQ(A+)
    Where A[i].tag_id = A[1].tag_id and A[A.len].time > A[1].time + d

read one partition at a time: a run opens on the first A of a
partition and grows with every further A; a reset (the query's
negative condition) or a silence longer than ``max_gap`` between two
A's breaks it, and the next A opens a fresh run. A run fires once,
on the A whose time exceeds the run's first time by more than the
duration; later A's extend it without firing again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable

__all__ = ["Run", "seq_a_plus"]


@dataclass
class Run:
    first: int
    last: int
    values: list[float] = field(default_factory=list)
    fired: bool = False


def seq_a_plus(
    tuples: Iterable[tuple[int, Hashable, str, float]],
    duration: int,
    max_gap: int | None = None,
    max_values: int = 64,
) -> tuple[list[tuple], dict[Hashable, tuple]]:
    """Match ``(time, key, action, value)`` tuples in arrival order;
    ``action`` is ``"push"`` (an A) or ``"reset"``.

    Returns the alerts ``(key, first, last, values)`` in firing order
    and, per partition that ever saw an A, its final state as
    ``(stage, first, last, values)`` — stage 0 after a break, 1 inside
    a run, 2 once the run fired.
    """
    runs: dict[Hashable, Run | None] = {}
    alerts: list[tuple] = []
    for time, key, action, value in tuples:
        run = runs.get(key)
        if action == "reset":
            if key in runs:
                runs[key] = None
            continue
        if run is not None and max_gap is not None and time > run.last + max_gap:
            run = None
        if run is None:
            run = runs[key] = Run(first=time, last=time)
        run.last = time
        if len(run.values) < max_values:
            run.values.append(float(value))
        if not run.fired and run.last > run.first + duration:
            run.fired = True
            alerts.append((key, run.first, run.last, tuple(run.values)))
    states = {
        key: (0, 0, 0, []) if run is None
        else (2 if run.fired else 1, run.first, run.last, list(run.values))
        for key, run in runs.items()
    }
    return alerts, states
