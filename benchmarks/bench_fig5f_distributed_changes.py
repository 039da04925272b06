"""Figure 5(f) — distributed inference error vs containment-change interval.

Same three-warehouse chain as Fig. 5(e) with anomalies injected at a
varying interval. Expected shape: as in 5(e), None is worst and CR
tracks the centralized method across all change frequencies.
"""

from _common import emit_table, pct

from repro.core.service import ServiceConfig
from repro.distributed.centralized import CentralizedDeployment
from repro.runtime import Cluster
from repro.sim.supplychain import SupplyChainParams, simulate
from repro.sim.warehouse import WarehouseParams

INTERVALS = [30, 60, 120]


def run_sweep():
    config = ServiceConfig(
        run_interval=300,
        recent_history=600,
        truncation="cr",
        change_detection=True,
        change_threshold=80.0,
        emit_events=False,
    )
    rows = []
    for interval in INTERVALS:
        result = simulate(
            SupplyChainParams(
                n_warehouses=3,
                horizon=2400,
                items_per_case=8,
                cases_per_pallet=4,
                injection_period=300,
                main_read_rate=0.8,
                anomaly_interval=interval,
                warehouse=WarehouseParams(shelf_dwell_mean=400, shelf_dwell_jitter=50),
                seed=45,
            )
        )
        cells = [interval]
        for strategy in ("none", "collapsed"):
            cluster = Cluster(result.traces, config, strategy=strategy)
            cluster.run(result.params.horizon)
            cells.append(pct(cluster.containment_error(result.truth)))
        central = CentralizedDeployment(result, config)
        central.run()
        cells.append(pct(central.containment_error()))
        rows.append(cells)
    return rows


def test_fig5f_distributed_changes(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    emit_table(
        "Figure 5(f) distributed error vs change interval",
        ["interval", "None", "CR", "Centralized"],
        rows,
    )
    as_float = lambda s: float(s.rstrip("%"))
    for row in rows:
        none_err, cr_err, _ = map(as_float, row[1:])
        assert cr_err <= none_err + 1.0
