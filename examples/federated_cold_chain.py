"""Federated cold-chain monitoring: declarative queries over two sites.

Two sites, one cold chain. Frozen items are exposed (moved out of their
freezer cases) at site 0; midway through the trace every case travels
to site 1. Every query here is a *declarative spec* compiled into each
site's shared operator engine:

* **q1 / q2** — the paper's exposure monitors (§2, §5.4). Registered
  together they share one frozen-product filter, one latest-temperature
  window, and one events × temperature join per site (multi-query
  optimization, §4.2) — the ledger's operator gauges show it.
* **dwell** — a dwell-time violation monitor (new scenario, zero new
  runtime code: just a spec in ``repro.workloads.monitors``).
* **colocation** — a co-location breach monitor: frozen goods sharing
  a storage location with incompatible ("dry") goods for too long.

When the goods arrive at site 1, the runtime migrates the objects'
collapsed inference state (§4.1) *and* every compiled plan's per-object
automaton state (Appendix B) through the uniform QueryState protocol —
so an exposure run that started at site 0 can still fire at site 1.

Sites run concurrently on two OS worker processes (``ProcessTransport``);
the result is bit-identical to the deterministic in-process transport.

Run:  python examples/federated_cold_chain.py
"""

from repro.core.service import ServiceConfig
from repro.queries.q1 import FreezerExposureQuery
from repro.queries.q2 import TemperatureExposureQuery
from repro.runtime import Cluster, ProcessTransport
from repro.workloads.monitors import ColocationBreachQuery, DwellTimeQuery
from repro.workloads.scenarios import cold_chain_scenario


def main() -> None:
    scenario = cold_chain_scenario(
        seed=7,
        n_sites=2,
        n_freezer_cases=6,
        n_room_cases=3,
        items_per_case=6,
        n_exposures=4,
        horizon=1500,
        site_leave_time=700,
    )
    exposed = {tag for tag, _, back in scenario.exposures if back is None}
    print("sites:", len(scenario.traces), " exposed items:", sorted(map(str, exposed)))

    config = ServiceConfig(
        run_interval=300,
        recent_history=600,
        truncation="cr",
        emit_events=True,
        event_period=5,
    )
    with ProcessTransport(n_workers=2) as transport:
        cluster = Cluster(scenario.traces, config, transport=transport)
        # Four declarative queries per site, compiled into one shared
        # engine. Q1/Q2 share their entire local sub-plan.
        cluster.add_query(
            "q1",
            lambda site: FreezerExposureQuery(scenario.catalog, exposure_duration=300),
        )
        cluster.add_query(
            "q2",
            lambda site: TemperatureExposureQuery(scenario.catalog, exposure_duration=400),
        )
        cluster.add_query("dwell", lambda site: DwellTimeQuery(max_dwell=500))
        cluster.add_query(
            "colocation",
            lambda site: ColocationBreachQuery(
                scenario.catalog, conflicts=(("frozen", "dry"),), duration=100
            ),
        )
        cluster.set_sensor_streams(
            {site: scenario.sensor_stream(site) for site in range(len(scenario.traces))}
        )
        cluster.run(scenario.horizon)

        ledger = cluster.network
        print(
            f"\ncompiled operators: {ledger.plan_operators_built} built, "
            f"{ledger.plan_operators_shared} reused via multi-query sharing"
        )

        for node in cluster.nodes:
            q2 = node.queries["q2"]
            print(f"\nsite {node.site} exposure alerts (q2):")
            for alert in q2.alerts:
                print(
                    f"  {alert.key} exposed {alert.start_time}..{alert.end_time} "
                    f"({len(alert.values)} readings)"
                )
            dwell = node.queries["dwell"]
            print(f"site {node.site} dwell violations: {len(dwell.violations())}")
            breaches = node.queries["colocation"].breaches()
            print(f"site {node.site} co-location breaches: {len(breaches)}")
            for tag, _, place, time in breaches[:4]:
                print(f"  {tag} next to incompatible goods at place {place}, t={time}")

        print("\nwire traffic by kind:")
        for kind in sorted(ledger.bytes_by_kind):
            print(
                f"  {kind:<15} {ledger.messages_by_kind[kind]:>4} msgs "
                f"{ledger.bytes_by_kind[kind]:>7,} B"
            )
        migrated = [m for m in cluster.migrations if m.tag in exposed]
        print(f"\nexposed-item state hand-offs: {len(migrated)}")
        print(f"containment error: {cluster.containment_error(scenario.truth):.2%}")


if __name__ == "__main__":
    main()
