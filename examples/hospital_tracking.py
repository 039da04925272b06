"""Hospital asset tracking: misplaced equipment and path deviations.

The paper's §1 motivates RFID inference with a hospital that tags
medical equipment. This example runs two of the intro's query classes
on a simulated deployment:

* a *containment anomaly monitor* — change-point detection flags
  equipment moved into the wrong cart ("misplaced objects... as they
  occur"), and
* a *tracking query* — "report any pallet that has deviated from its
  intended path" over a multi-ward deployment.

Run:  python examples/hospital_tracking.py
"""

from repro.core.events import ObjectEvent
from repro.core.service import ServiceConfig, StreamingInference
from repro.metrics.fmeasure import change_detection_fmeasure
from repro.queries.tracking import PathDeviationQuery
from repro.sim.supplychain import SupplyChainParams, simulate
from repro.sim.tags import TagKind
from repro.sim.warehouse import WarehouseParams


def misplaced_equipment() -> None:
    """Wards = shelves; carts = cases; devices = items."""
    result = simulate(
        SupplyChainParams(
            horizon=1800,
            items_per_case=10,     # devices per cart
            cases_per_pallet=4,
            injection_period=240,
            main_read_rate=0.8,
            n_shelves=6,           # six storage areas
            anomaly_interval=90,   # a device is misplaced every ~90 s
            seed=31,
        )
    )
    service = StreamingInference(
        result.trace,
        ServiceConfig(run_interval=300, recent_history=600, truncation="cr",
                      change_detection=True, change_threshold=80.0,
                      emit_events=False),
    )
    service.run_until(1800)
    print(f"injected misplacements : {len(result.truth.changes)}")
    print(f"raised alerts          : {len(service.changes)}")
    for change in service.changes[:5]:
        target = change.new_container if change.new_container else "<removed>"
        print(f"  t={change.time:4d}  {change.tag} moved "
              f"{change.old_container} -> {target}  (score {change.score:.0f})")
    fm = change_detection_fmeasure(result.truth.changes, service.changes,
                                   tolerance=600)
    print(f"precision={fm.precision:.2f} recall={fm.recall:.2f} F1={fm.f1:.2f}")


def path_deviation() -> None:
    """Carts are routed ward 0 → 1 → 2; flag any that stray."""
    result = simulate(
        SupplyChainParams(
            n_warehouses=3,
            horizon=2400,
            items_per_case=6,
            cases_per_pallet=3,
            injection_period=300,
            main_read_rate=0.85,
            warehouse=WarehouseParams(shelf_dwell_mean=300, shelf_dwell_jitter=40),
            seed=32,
        )
    )
    carts = result.truth.cases()
    # Every cart is supposed to follow 0 → 1 → 2; pretend the odd ones
    # were only cleared for wards 0 → 1 to create deviations.
    routes = {
        cart: (0, 1, 2) if cart.serial % 2 == 0 else (0, 1)
        for cart in carts
    }
    query = PathDeviationQuery(routes)
    # Feed ground-truth site visits (a deployment would feed inferred
    # events; see examples/cold_chain_monitoring.py for that wiring),
    # one batch per ward.
    for site, trace in enumerate(result.traces):
        query.push_batch([
            ObjectEvent(reading.time, reading.tag, site, reading.reader, None)
            for reading in trace.readings
            if reading.tag.kind is TagKind.CASE
        ])
    print(f"\ncarts monitored        : {len(routes)}")
    print(f"deviation alerts       : {len(query.alerts)}")
    for alert in query.alerts[:5]:
        print(f"  t={alert.time:4d}  {alert.tag} showed up at ward {alert.site}, "
              f"route allowed {alert.expected}")


def main() -> None:
    print("== misplaced equipment (containment anomalies) ==")
    misplaced_equipment()
    print("\n== path deviation tracking ==")
    path_deviation()


if __name__ == "__main__":
    main()
