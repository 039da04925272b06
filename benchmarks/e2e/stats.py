"""Small statistics and failure accounting shared by the benchmark files."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from statistics import median  # noqa: F401  (re-exported)
from typing import Sequence

import numpy as np

#: percentiles a report may quote, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 80.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def highest_percentile(n_samples: int, beyond: int = 10) -> float | None:
    """The highest ladder percentile with at least ``beyond`` samples
    above it — quoting anything higher would describe fewer than
    ``beyond`` observations. ``None`` when even the median has not."""
    best = None
    for q in PERCENTILE_LADDER:
        # in per-mille, so that 10 000 samples beyond p99.9 count as 10
        if n_samples * (1000 - round(q * 10)) >= beyond * 1000:
            best = q
    return best


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (the driver's steadiness measure). Below four values
    quartiles mean little and the full range stands in; with fewer than
    two there is no spread to speak of."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        low, high = min(values), max(values)
    else:
        low, _, high = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(high - low) / abs(mid) if mid else 0.0


@dataclass
class Failures:
    """Failed operations counted against the operations attempted.

    A failure here is the program breaking its own contract — a reading
    lost on the way in, a query refused outside the plan, an answer that
    differs from the oracle, a replica that is not byte-identical. Any
    of them makes the run incorrect and the command exit non-zero. (Missed or spurious alerts are inference quality and
    are scored by ``alert_f1`` instead.)
    """

    attempted: int = 0
    failed: int = 0
    #: kind -> [attempted, failed]
    by_class: dict[str, list[int]] = field(default_factory=dict)
    messages: list[str] = field(default_factory=list)

    def attempt(self, kind: str, count: int = 1) -> None:
        self.attempted += count
        self.by_class.setdefault(kind, [0, 0])[0] += count

    def add(self, kind: str, count: int, message: str) -> None:
        self.failed += count
        self.by_class.setdefault(kind, [0, 0])[1] += count
        # The first failure of each kind is named; the rest are counted.
        if not any(m.startswith(f"[{kind}]") for m in self.messages):
            self.messages.append(f"[{kind}] {message}")

    @property
    def correct(self) -> bool:
        return self.failed == 0
