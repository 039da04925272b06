"""Figure 5(d) — RFINFER vs SMURF* on the lab traces T1…T8.

The physical lab is replaced by trace generation with the measured
profiles of Appendix C.2 (see :mod:`repro.sim.lab`).
Expected shape: RFINFER containment error ≤ ~6% on stable traces
(T1–T4) and ≤ ~13% with containment changes (T5–T8); SMURF* is several
times worse throughout; location errors follow the same ordering.
"""

from _common import emit_table, pct

from repro.baselines.smurf_star import SmurfStar
from repro.core.likelihood import TraceWindow
from repro.core.rfinfer import RFInfer
from repro.metrics.accuracy import containment_error_rate, location_error_rate
from repro.sim.lab import LAB_PROFILES, generate_lab_trace

EVAL_EPOCH = 690  # just before the cases exit


def run_all_traces():
    rows = []
    for name in sorted(LAB_PROFILES):
        lab = generate_lab_trace(name, seed=3)
        smurf = SmurfStar(lab.trace).run()
        smurf_cont = containment_error_rate(
            lab.truth, smurf.containment, EVAL_EPOCH, lab.truth.items()
        )
        smurf_loc = smurf.location_error(lab.truth, 0, 0, EVAL_EPOCH)
        window = TraceWindow.from_range(lab.trace, 0, lab.trace.horizon)
        rf = RFInfer(window).run()
        rf_cont = containment_error_rate(lab.truth, rf.containment, EVAL_EPOCH)
        rf_loc = location_error_rate(lab.truth, rf, 0)
        rows.append(
            [name, pct(smurf_cont), pct(smurf_loc), pct(rf_cont), pct(rf_loc)]
        )
    return rows


def test_fig5d_lab_traces(benchmark):
    rows = benchmark.pedantic(run_all_traces, rounds=1, iterations=1)
    emit_table(
        "Figure 5(d) lab traces",
        ["trace", "SMURF* cont", "SMURF* loc", "RFINFER cont", "RFINFER loc"],
        rows,
    )
    as_float = lambda s: float(s.rstrip("%"))
    for row in rows:
        # RFINFER no worse than SMURF* on containment, everywhere.
        assert as_float(row[3]) <= as_float(row[1]) + 1e-9
    # Stable traces stay under ~6%, change traces under ~15%.
    for row in rows[:4]:
        assert as_float(row[3]) <= 8.0
    for row in rows[4:]:
        assert as_float(row[3]) <= 15.0
