"""Compare two result files of the end-to-end benchmark, row by row.

    python3 benchmarks/e2e/compare.py base.json change.json

For every workload and every end-to-end metric the change's median is
set against the base's, as a ratio with its base, under a bound.
BENCHMARK.json's bounds have to cover each metric's spread over ten
*different* seeds (the benchmark driver's steadiness test), and
different seeds are different inputs. When both files ran the same seed
and run length the inputs are identical and the ISSUE 11 bounds apply
instead, where they are tighter:

* timings, throughputs and memory — 10 %;
* the *exact* metrics (accuracy, F1, bytes) — 0: they are then pure
  functions of the same inputs.

Verdicts:

* ``REGRESSION`` — worse than the base by more than the bound, or the
  workload or metric is missing from the change (a crashed run);
* ``unresolved`` — within the bound, but either side's own run-to-run
  spread (``run.py --repeat``) is wider than the bound, so "unchanged"
  cannot be claimed;
* ``ok`` — within the bound, and no measured spread wider than it.

A higher share of failed operations is a regression whatever the
timings say. Exit status is non-zero on any regression.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from stats import spread  # noqa: E402

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")

#: bound on a timing between two runs of the same inputs.
SAME_INPUTS_TIMING_BOUND = 0.10

#: results that are a pure function of the generated inputs.
EXACT = frozenset(
    {
        "containment_accuracy_pct",
        "alert_f1",
        "wire_bytes_per_kreading",
        "archive_bytes_per_epoch",
    }
)


def worsening(base: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``base``, as a share of base
    (negative = better)."""
    if base == 0:
        return 0.0 if change == 0 else float("inf")
    delta = (change - base) / abs(base)
    return delta if better == "lower" else -delta


def failed_share(workload: dict) -> tuple[int, int]:
    failed = sum(run["failed"] for run in workload["runs"])
    attempted = sum(run["attempted"] for run in workload["runs"])
    return failed, attempted


def compare(base: dict, change: dict, spec: dict) -> tuple[list[str], int]:
    same_inputs = (base.get("seed"), base.get("seconds")) == (
        change.get("seed"), change.get("seconds"),
    )
    lines = [
        f"{'workload':<18} {'metric':<26} {'base':>12} {'change':>12} "
        f"{'change/base':>11} {'bound':>6}  verdict"
    ]
    regressions = 0
    for name in (w["name"] for w in spec["workloads"]):
        a, b = base["workloads"].get(name), change["workloads"].get(name)
        if b is None:
            lines.append(f"{name:<18} REGRESSION (workload missing from the change)")
            regressions += 1
            continue
        if a is None:
            lines.append(f"{name:<18} new (no base to compare with)")
            continue
        for entry in spec["end_to_end"]:
            metric = entry["name"]
            bound = entry["bound"]
            if same_inputs:
                bound = 0.0 if metric in EXACT else min(bound, SAME_INPUTS_TIMING_BOUND)
            left, right = a["end_to_end"].get(metric), b["end_to_end"].get(metric)
            if right is None:
                lines.append(f"{name:<18} {metric:<26} REGRESSION (missing from the change)")
                regressions += 1
                continue
            if left is None:
                lines.append(f"{name:<18} {metric:<26} new (no base to compare with)")
                continue
            worse = worsening(left["value"], right["value"], entry["better"])
            noise = max(spread(left["samples"]), spread(right["samples"]))
            if worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif noise > bound:
                verdict = f"unresolved (spread {noise:.1%} > bound)"
            else:
                verdict = "ok"
            ratio = right["value"] / left["value"] if left["value"] else float("nan")
            lines.append(
                f"{name:<18} {metric:<26} {left['value']:>12.6g} {right['value']:>12.6g} "
                f"{ratio:>10.3f}x {bound:>6.0%}  {verdict}"
            )
        (fa, na), (fb, nb) = failed_share(a), failed_share(b)
        share_a = fa / na if na else 0.0
        # No attempted operation at all is a run that never reported.
        share_b = fb / nb if nb else 1.0
        verdict = "ok"
        if share_b > share_a:
            verdict = "REGRESSION"
            regressions += 1
        lines.append(
            f"{name:<18} {'failed_ops_pct':<26} {100 * share_a:>12.6g} {100 * share_b:>12.6g} "
            f"{'':>11} {'0%':>6}  {verdict} ({fa}/{na} -> {fb}/{nb})"
        )
    return lines, regressions


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(args[0]) as fh:
        base = json.load(fh)
    with open(args[1]) as fh:
        change = json.load(fh)
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    lines, regressions = compare(base, change, spec)
    print("\n".join(lines))
    if regressions:
        print(f"{regressions} regression(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
