"""Figure 5(e) — distributed inference error vs read rate.

Three-warehouse chain (paper: 10 warehouses, 0.32 M items — scaled to
~500 items). Expected shape: the no-state-transfer method ("None") has
the highest error; the collapsed/CR migration tracks the centralized
method closely at every read rate.
"""

from _common import emit_table, pct

from repro.core.service import ServiceConfig
from repro.distributed.centralized import CentralizedDeployment
from repro.runtime import Cluster
from repro.sim.supplychain import SupplyChainParams, simulate
from repro.sim.warehouse import WarehouseParams

READ_RATES = [0.6, 0.7, 0.8, 0.9]


def chain(rr: float):
    return simulate(
        SupplyChainParams(
            n_warehouses=3,
            horizon=2400,
            items_per_case=8,
            cases_per_pallet=4,
            injection_period=300,
            main_read_rate=rr,
            warehouse=WarehouseParams(shelf_dwell_mean=400, shelf_dwell_jitter=50),
            seed=44,
        )
    )


def run_sweep():
    config = ServiceConfig(
        run_interval=300, recent_history=600, truncation="cr", emit_events=False
    )
    rows = []
    for rr in READ_RATES:
        result = chain(rr)
        cells = [rr]
        for strategy in ("none", "collapsed"):
            cluster = Cluster(result.traces, config, strategy=strategy)
            cluster.run(result.params.horizon)
            cells.append(pct(cluster.containment_error(result.truth)))
        central = CentralizedDeployment(result, config)
        central.run()
        cells.append(pct(central.containment_error()))
        rows.append(cells)
    return rows


def test_fig5e_distributed_read_rate(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    emit_table(
        "Figure 5(e) distributed error vs read rate",
        ["RR", "None", "CR", "Centralized"],
        rows,
    )
    as_float = lambda s: float(s.rstrip("%"))
    for row in rows:
        none_err, cr_err, central_err = map(as_float, row[1:])
        assert cr_err <= none_err + 1e-9  # CR no worse than None
        assert cr_err <= central_err + 4.0  # CR close to centralized
