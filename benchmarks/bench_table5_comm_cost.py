"""Table 5 — communication cost: Centralized vs None vs CR migration.

Expected shape: None ships nothing; CR ships collapsed weights only
(tens of bytes per migration); the centralized approach ships every raw
reading (gzip-compressed) and costs orders of magnitude more. The gap
widens with trace volume — the paper's 4-hour, 0.32 M-item run shows
~3 orders of magnitude; this scaled run shows the same ordering with a
smaller ratio, plus the per-reading/per-migration unit costs that the
extrapolation rests on.

Two extensions over the bare table:

* **Migration bundling delta** — the runtime batches migrations into
  one centroid-compressed bundle per ``(src, dst)`` pair per interval
  (§4.2) instead of one message per object. With the path-tracking
  query registered (so per-object query state migrates too), the sweep
  reports migrated ``inference-state + query-state`` bytes for the
  per-tag baseline vs the batched runtime and prints the saving.
* **Per-link breakdown** — the transport ledger's ``(src, dst)``
  counters, printed for the highest read rate.
* **Fault overhead** — the same federated run over a seeded
  :class:`~repro.runtime.faults.FaultyTransport`: per-kind data bytes
  are byte-identical to the reliable run (the at-least-once layer's
  invariant) and the cost of surviving the lossy network shows up as
  its own ``retransmit``/``ack`` ledger kinds.

``BENCH_HORIZON`` (env) shrinks the trace for CI smoke runs.
"""

import os

from _common import emit_table

from repro.core.service import ServiceConfig
from repro.distributed.centralized import CentralizedDeployment
from repro.distributed.network import FAULT_OVERHEAD_KINDS
from repro.queries.tracking import PathDeviationQuery
from repro.runtime import Cluster, FaultPlan, FaultyTransport, ProcessTransport
from repro.sim.supplychain import SupplyChainParams, simulate
from repro.sim.warehouse import WarehouseParams

READ_RATES = [0.6, 0.7, 0.8, 0.9]
HORIZON = int(os.environ.get("BENCH_HORIZON", "2400"))
MIGRATED_KINDS = ("inference-state", "query-state")
CHAOS_SEED = 17


def make_chain(rr: float):
    return simulate(
        SupplyChainParams(
            n_warehouses=3,
            horizon=HORIZON,
            items_per_case=8,
            cases_per_pallet=4,
            injection_period=300,
            main_read_rate=rr,
            warehouse=WarehouseParams(shelf_dwell_mean=400, shelf_dwell_jitter=50),
            seed=50,
        )
    )


def run_federated(result, config, batch: bool, transport=None):
    """A cluster with the tracking query registered, batched or per-tag."""
    routes = {tag: (0, 1, 2) for tag in result.truth.tags()}
    cluster = Cluster(result.traces, config, batch_migrations=batch, transport=transport)
    cluster.add_query("path", lambda site: PathDeviationQuery(routes))
    cluster.run(HORIZON)
    migrated = sum(cluster.network.bytes_by_kind[k] for k in MIGRATED_KINDS)
    return cluster, migrated


def run_sweep():
    config = ServiceConfig(
        run_interval=300, recent_history=600, truncation="cr", emit_events=False
    )
    query_config = ServiceConfig(
        run_interval=300,
        recent_history=600,
        truncation="cr",
        emit_events=True,
        event_period=60,
    )
    rows = []
    bundling_rows = []
    link_rows = []
    for rr in READ_RATES:
        result = make_chain(rr)
        central = CentralizedDeployment(result, config)
        central.run(HORIZON)
        none_cluster = Cluster(result.traces, config, strategy="none")
        none_cluster.run(HORIZON)
        cr_cluster = Cluster(result.traces, config, strategy="collapsed")
        cr_cluster.run(HORIZON)
        rows.append(
            [
                rr,
                f"{central.communication_bytes():,}",
                f"{none_cluster.communication_bytes():,}",
                f"{cr_cluster.communication_bytes():,}",
                f"{central.communication_bytes() / max(cr_cluster.communication_bytes(), 1):.1f}x",
            ]
        )
        per_tag_cluster, per_tag_bytes = run_federated(result, query_config, batch=False)
        batched_cluster, batched_bytes = run_federated(result, query_config, batch=True)
        saved = per_tag_bytes - batched_bytes
        bundling_rows.append(
            [
                rr,
                f"{per_tag_bytes:,}",
                f"{batched_bytes:,}",
                f"{saved:,}",
                f"{100.0 * saved / max(per_tag_bytes, 1):.1f}%",
                batched_cluster.containment_error(result.truth)
                == per_tag_cluster.containment_error(result.truth),
            ]
        )
        if rr == READ_RATES[-1]:
            link_rows = [
                [f"{src} -> {dst}", msgs, f"{nbytes:,}"]
                for src, dst, msgs, nbytes in batched_cluster.network.per_link_rows()
            ]
            fault_rows = fault_overhead_rows(result, query_config, batched_cluster)
            worker_rows = sharded_worker_rows(result, query_config, batched_cluster)
    return rows, bundling_rows, link_rows, fault_rows, worker_rows


def fault_overhead_rows(result, config, reliable_cluster):
    """Table 5d: the reliable run vs the same run over a chaos plan."""
    faulty_cluster, _ = run_federated(
        result,
        config,
        batch=True,
        transport=FaultyTransport(FaultPlan.chaos(CHAOS_SEED)),
    )
    reliable = reliable_cluster.network
    faulty = faulty_cluster.network
    kinds = sorted(set(reliable.bytes_by_kind) | set(faulty.bytes_by_kind))
    rows = [
        [
            kind,
            f"{reliable.bytes_by_kind[kind]:,}",
            f"{faulty.bytes_by_kind[kind]:,}",
            "overhead" if kind in FAULT_OVERHEAD_KINDS else "data",
        ]
        for kind in kinds
    ]
    rows.append(
        [
            "total",
            f"{reliable.total_bytes():,}",
            f"{faulty.total_bytes():,}",
            f"+{faulty.fault_overhead_bytes():,} fault overhead",
        ]
    )
    assert faulty.data_bytes_by_kind() == reliable.data_bytes_by_kind()
    assert faulty.bytes_by_kind["retransmit"] > 0
    assert faulty_cluster.containment_error(
        result.truth
    ) == reliable_cluster.containment_error(result.truth)
    return rows


def sharded_worker_rows(result, config, reliable_cluster):
    """Table 5e: the same run sharded across OS worker processes.

    Per-kind bytes must match the in-process run exactly (zero-copy
    handoff through the same codecs); the new rows are the ledger's
    per-worker shard gauges — sites hosted, bytes delivered into and
    originated out of each worker — plus the rebalance count.
    """
    with ProcessTransport(n_workers=2) as transport:
        sharded_cluster, _ = run_federated(
            result, config, batch=True, transport=transport
        )
        rows = [
            [f"worker {w}", sites, f"{b_in:,}", f"{b_out:,}"]
            for w, sites, b_in, b_out in sharded_cluster.network.worker_rows()
        ]
        rows.append(["rebalances", sharded_cluster.network.rebalances, "", ""])
    assert dict(sharded_cluster.network.bytes_by_kind) == dict(
        reliable_cluster.network.bytes_by_kind
    )
    return rows


def test_table5_comm_cost(benchmark):
    rows, bundling_rows, link_rows, fault_rows, worker_rows = benchmark.pedantic(
        run_sweep, rounds=1, iterations=1
    )
    emit_table(
        "Table 5 communication cost (bytes)",
        ["RR", "Centralized", "None", "CR", "Centralized/CR"],
        rows,
    )
    emit_table(
        "Table 5b migration bundling (inference+query state bytes)",
        ["RR", "per-tag", "batched", "saved", "saved%", "same error"],
        bundling_rows,
    )
    emit_table(
        "Table 5c per-link traffic at top RR (batched; -2 = ONS)",
        ["link", "messages", "bytes"],
        link_rows,
    )
    emit_table(
        f"Table 5d fault overhead at top RR (chaos seed {CHAOS_SEED})",
        ["kind", "reliable", "faulty", "class"],
        fault_rows,
    )
    emit_table(
        "Table 5e per-worker shard gauges at top RR (2 OS workers)",
        ["worker", "sites", "bytes in", "bytes out"],
        worker_rows,
    )
    # Both workers hosted sites and moved bytes through the shard plane.
    gauge_rows = worker_rows[:-1]
    assert len(gauge_rows) == 2
    for _, sites, b_in, b_out in gauge_rows:
        assert sites >= 1 or int(str(b_in).replace(",", "")) > 0
    for row in rows:
        central = int(row[1].replace(",", ""))
        none = int(row[2].replace(",", ""))
        cr = int(row[3].replace(",", ""))
        assert none == 0
        assert cr < central / 3  # CR is a small fraction of centralized
    for row in bundling_rows:
        per_tag = int(row[1].replace(",", ""))
        batched = int(row[2].replace(",", ""))
        assert batched < per_tag  # bundling + centroid compression pays
        assert row[5] is True  # identical inference results either way
