"""Distributed supply chain: state migration across three warehouses.

Pallets flow through a chain of three warehouses. Each site runs its
own inference; when objects reach the next site, their collapsed
inference state (a few candidate weights — not raw readings) follows
them via the Object Naming Service. The example compares:

* ``none``       — no state transfer (each site starts cold),
* ``collapsed``  — the paper's CR/collapsed-state migration,
* ``centralized``— every raw reading shipped (gzip) to one server.

Each strategy runs as a :class:`~repro.runtime.Cluster`: sites are
message-reactive nodes, and migrations travel as one centroid-compressed
bundle per (src, dst) pair per interval. The per-link transport ledger
printed at the end is the site-to-site traffic breakdown.

Run:  python examples/distributed_supply_chain.py
"""

from repro.core.service import ServiceConfig
from repro.distributed.centralized import CentralizedDeployment
from repro.runtime import Cluster
from repro.sim.supplychain import SupplyChainParams, simulate
from repro.sim.warehouse import WarehouseParams


def main() -> None:
    result = simulate(
        SupplyChainParams(
            n_warehouses=3,
            horizon=2400,
            items_per_case=8,
            cases_per_pallet=4,
            injection_period=300,
            main_read_rate=0.8,
            warehouse=WarehouseParams(shelf_dwell_mean=400, shelf_dwell_jitter=50),
            seed=21,
        )
    )
    print("readings per site:", [f"{len(t):,}" for t in result.traces])
    config = ServiceConfig(run_interval=300, recent_history=600,
                           truncation="cr", emit_events=False)

    clusters = {}
    for strategy in ("none", "collapsed"):
        cluster = clusters[strategy] = Cluster(result.traces, config, strategy=strategy)
        cluster.run(result.params.horizon)
        print(f"\nstrategy={strategy!r}:")
        print(f"  containment error : {cluster.containment_error(result.truth):.2%}")
        print(f"  bytes on the wire : {cluster.communication_bytes():,}")
        print(f"  migrations        : {len(cluster.migrations)}")
        if cluster.migrations:
            avg = sum(m.bytes_sent for m in cluster.migrations) / len(cluster.migrations)
            print(f"  avg state size    : {avg:.1f} B/object")

    central = CentralizedDeployment(result, config)
    central.run()
    print("\nstrategy='centralized':")
    print(f"  containment error : {central.containment_error():.2%}")
    print(f"  bytes on the wire : {central.communication_bytes():,} (gzip'd raw readings)")

    # Per-link breakdown of the CR deployment (site -2 is the ONS).
    print("\nper-link traffic (collapsed strategy):")
    for src, dst, msgs, nbytes in clusters["collapsed"].network.per_link_rows():
        print(f"  {src:>2} -> {dst:>2}: {msgs:>4} msgs, {nbytes:>7,} B")


if __name__ == "__main__":
    main()
