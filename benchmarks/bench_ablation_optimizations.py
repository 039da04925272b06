"""Ablations (ours) — the design choices the paper's method rests on.

1. Appendix A.3 optimizations: candidate pruning and group memoization
   — measure their effect on inference time and containment accuracy.
2. Smoothing over containment (the paper's core idea): compare object
   location error when objects inherit their inferred container's
   posterior vs per-object (solo) location estimation.
"""

import time


from _common import emit_table, pct

from repro.core.likelihood import TraceWindow
from repro.core.rfinfer import InferenceConfig, RFInfer
from repro.metrics.accuracy import containment_error_rate, location_error_rate
from repro.sim.supplychain import SupplyChainParams, simulate


def run_ablation():
    result = simulate(
        SupplyChainParams(
            horizon=1500,
            items_per_case=12,
            injection_period=200,
            main_read_rate=0.7,
            seed=55,
        )
    )
    window = TraceWindow.from_range(result.trace, 0, 1500)
    configs = {
        "full (pruning+memoize)": InferenceConfig(),
        "no pruning": InferenceConfig(candidate_pruning=False),
        "no memoization": InferenceConfig(memoize=False),
        "neither": InferenceConfig(candidate_pruning=False, memoize=False),
    }
    opt_rows = []
    outputs = {}
    for name, config in configs.items():
        started = time.perf_counter()
        out = RFInfer(window, config).run()
        elapsed = time.perf_counter() - started
        err = containment_error_rate(result.truth, out.containment, 1499)
        opt_rows.append([name, f"{elapsed:.2f}s", pct(err), out.iterations])
        outputs[name] = out

    # Smoothing-over-containment ablation: solo location estimates.
    base = outputs["full (pruning+memoize)"]
    smoothed_err = location_error_rate(result.truth, base, 0)
    solo = RFInfer(window, InferenceConfig()).run()
    solo.containment = {obj: None for obj in solo.containment}
    solo._location_cache.clear()
    solo_err = location_error_rate(result.truth, solo, 0, tags=result.truth.items())
    smooth_rows = [
        ["smoothing over containment", pct(smoothed_err)],
        ["per-object (solo) estimation", pct(solo_err)],
    ]
    return opt_rows, smooth_rows


def test_ablation(benchmark):
    opt_rows, smooth_rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    emit_table(
        "Ablation: A.3 optimizations",
        ["configuration", "time", "containment error", "iterations"],
        opt_rows,
    )
    emit_table(
        "Ablation: item location smoothing",
        ["method", "location error"],
        smooth_rows,
    )
    as_float = lambda s: float(s.rstrip("%"))
    seconds = lambda s: float(s.rstrip("s"))
    # The optimizations must not cost accuracy or time vs the naive
    # configuration. (At this scale pruning also *helps* accuracy: it
    # keeps EM away from poor local optima that full candidate sets
    # reach from cold initializations — consistent with App. A.3's
    # "effective ... without affecting the accuracy".)
    full_row, neither_row = opt_rows[0], opt_rows[-1]
    assert seconds(full_row[1]) <= seconds(neither_row[1])
    assert as_float(full_row[2]) <= as_float(neither_row[2]) + 0.5
    # Smoothing over containment must not be worse than solo estimates.
    assert as_float(smooth_rows[0][1]) <= as_float(smooth_rows[1][1]) + 0.5
