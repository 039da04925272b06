"""Cold-chain monitoring: the paper's Query 1 end to end.

A warehouse stores frozen products in freezer cases on freezer shelves.
Someone misplaces a few items into room-temperature cases. The pipeline:

  raw RFID readings ──► streaming RFINFER ──► object events
  temperature sensors ───────────────────────► sensor stream
                      Q1: alert if a frozen product sits outside a
                          freezer at > 0 °C for the exposure duration

Alerts computed on the *inferred* event stream are scored against the
alerts a perfect (ground-truth) stream produces.

Run:  python examples/cold_chain_monitoring.py
"""

from repro.core.events import events_from_truth
from repro.core.service import ServiceConfig, StreamingInference
from repro.metrics.fmeasure import match_alerts
from repro.queries.q1 import FreezerExposureQuery
from repro.workloads.scenarios import cold_chain_scenario

EXPOSURE = 300  # epochs outside a freezer before alerting (paper: 6 h)


def run_q1(events, scenario):
    query = FreezerExposureQuery(scenario.catalog, exposure_duration=EXPOSURE)
    # One batch: both streams in time order, sensors first at equal times.
    query.push_batch(events, scenario.sensor_stream(0))
    return query


def main() -> None:
    scenario = cold_chain_scenario(
        seed=11, read_rate=0.85, n_exposures=4, n_short_exposures=1
    )
    print(f"{len(scenario.truth.items())} products, "
          f"{len(scenario.catalog.freezer_cases)} freezer cases; "
          f"injected exposures: {[(str(t), o) for t, o, _ in scenario.exposures]}")

    # Streaming inference every 300 s with critical-region truncation.
    service = StreamingInference(
        scenario.trace,
        ServiceConfig(run_interval=300, recent_history=600, truncation="cr",
                      emit_events=True, event_period=5),
    )
    service.run_until(scenario.horizon)
    print(f"inference produced {len(service.events):,} object events")

    truth_query = run_q1(events_from_truth(scenario.truth, scenario.horizon,
                                           period=5), scenario)
    inferred_query = run_q1(sorted(service.events, key=lambda e: e.time), scenario)

    print("\nground-truth alerts:")
    for alert in truth_query.alerts:
        print(f"  {alert.key} exposed since t={alert.start_time}, "
              f"alert at t={alert.end_time}")
    print("alerts from inferred stream:")
    for alert in inferred_query.alerts:
        temps = ", ".join(f"{t:.1f}" for t in alert.values[:5])
        print(f"  {alert.key} alert at t={alert.end_time} (temps: {temps}, ...)")

    fm = match_alerts(inferred_query.alert_pairs(), truth_query.alert_pairs(),
                      tolerance=310)
    print(f"\nprecision={fm.precision:.2f} recall={fm.recall:.2f} F1={fm.f1:.2f}")


if __name__ == "__main__":
    main()
