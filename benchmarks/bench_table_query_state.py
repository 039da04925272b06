"""§5.4 table — Q1/Q2 answer quality and query-state size w/ and w/o
centroid sharing, plus migrated-state accounting.

A cold-chain deployment runs inference, feeds the inferred event stream
to Q1 (hybrid: containment + location + temperature) and Q2 (location
only), and scores alerts against the ground-truth stream. At the
storage area's hand-off point the per-object automaton states are
serialized raw and with centroid-based sharing (grouped by container,
as §4.2 prescribes).

Each cell also reports the per-query migrated-state bytes (the sum of
every monitored object's ``export_state`` payload). That the compiled
plans migrate the same bytes as the hand-written queries is asserted by
``tests/test_query_plans.py``, not here.

Expected shape: F-measures rise with the read rate and Q2 ≥ Q1 (Q2
avoids the noisier containment estimate); sharing shrinks state several
fold. Each cell also reports what encoding one container's bundle costs
(mean and worst milliseconds) — informational, not gated.

Standalone usage (the CI smoke gate)::

    PYTHONPATH=src python benchmarks/bench_table_query_state.py --smoke \\
        --output BENCH_query_state.ci.json \\
        --baseline BENCH_query_state.json --max-drift 0.10

Regenerate the committed baseline after an intentional change (full
mode, so the smoke point and the other read rates are all recorded)::

    PYTHONPATH=src python benchmarks/bench_table_query_state.py \\
        --output BENCH_query_state.json
"""

import os
import sys
import time
from collections import defaultdict

from _common import bench_cli, emit_table, load_baseline

from repro.core.events import events_from_truth
from repro.core.service import ServiceConfig, StreamingInference
from repro.distributed.sharing import centroid_compress
from repro.metrics.fmeasure import match_alerts
from repro.queries.q1 import FreezerExposureQuery
from repro.queries.q2 import TemperatureExposureQuery
from repro.streams.state import encode_pattern_state
from repro.workloads.scenarios import cold_chain_scenario

READ_RATES = [0.6, 0.7, 0.8, 0.9]
TOLERANCE = 310  # one inference interval of answer latency


def run_query(query, events, scenario):
    query.push_batch(events, scenario.sensor_stream(0))
    return query


def state_sizes(query, service, scenario):
    """Raw vs centroid-shared automaton state, grouped by container.

    §4.2 migrates the query state of *every* monitored object leaving a
    storage area (most automata are in identical quiescent states —
    that similarity is exactly what centroid sharing exploits), grouped
    by the objects' shared container.
    """
    groups = defaultdict(dict)
    for tag in sorted(scenario.catalog.frozen_items):
        state = query.pattern.state_of(tag)
        container = service.containment_at(tag)
        groups[container][tag] = encode_pattern_state(state)
    raw = sum(len(s) for g in groups.values() for s in g.values())
    shared, encode_ms = 0, []
    for states in groups.values():
        began = time.perf_counter()
        shared += centroid_compress(states).byte_size()
        encode_ms.append(1e3 * (time.perf_counter() - began))
    return raw, shared, encode_ms


def migrated_bytes(query, scenario):
    """Total per-object migration payload (QueryState ``export_state``)."""
    total = 0
    for tag in sorted(scenario.catalog.frozen_items):
        data = query.export_state(tag)
        if data is not None:
            total += len(data)
    return total


def run_cell(rr: float):
    # Few room cases so exposures cluster: exposed items sharing a case
    # also share the temperature history their states collect — the
    # commonality centroid sharing exploits (§4.2).
    scenario = cold_chain_scenario(
        seed=51,
        read_rate=rr,
        n_freezer_cases=8,
        n_room_cases=3,
        items_per_case=8,
        n_exposures=6,
        horizon=1200,
    )
    service = StreamingInference(
        scenario.trace,
        ServiceConfig(
            run_interval=300,
            recent_history=600,
            truncation="cr",
            emit_events=True,
            event_period=5,
        ),
    )
    service.run_until(scenario.horizon)
    truth_events = events_from_truth(scenario.truth, scenario.horizon, period=5)
    inferred_events = sorted(service.events, key=lambda e: e.time)

    out = {}
    for name, factory in (
        ("Q1", lambda: FreezerExposureQuery(scenario.catalog, 300)),
        ("Q2", lambda: TemperatureExposureQuery(scenario.catalog, 400)),
    ):
        truth_q = run_query(factory(), truth_events, scenario)
        inferred_q = run_query(factory(), inferred_events, scenario)
        fm = match_alerts(
            inferred_q.alert_pairs(), truth_q.alert_pairs(), tolerance=TOLERANCE
        )
        # Migrated bytes first: state_sizes probes via state_of, which
        # materializes quiescent partitions and would inflate exports.
        compiled_migrated = migrated_bytes(inferred_q, scenario)
        raw, shared, encode_ms = state_sizes(inferred_q, service, scenario)
        out[name] = {
            "read_rate": rr,
            "f1": fm.f1,
            "raw": raw,
            "shared": shared,
            "bundles": len(encode_ms),
            "encode_ms_mean": round(sum(encode_ms) / len(encode_ms), 3),
            "encode_ms_max": round(max(encode_ms), 3),
            "migrated_compiled": compiled_migrated,
        }
    return out


def run_sweep(rates=READ_RATES):
    table = {"Q1": [], "Q2": []}
    for rr in rates:
        cell = run_cell(rr)
        for name in ("Q1", "Q2"):
            table[name].append(cell[name])
    return table


def emit(table, rates):
    rows = []
    for name in ("Q1", "Q2"):
        cells = table[name]
        rows.append([f"{name} F-m.(%)"] + [f"{100 * c['f1']:.1f}" for c in cells])
        rows.append([f"{name} state w/o share(B)"] + [str(c["raw"]) for c in cells])
        rows.append([f"{name} state w. share(B)"] + [str(c["shared"]) for c in cells])
        rows.append(
            [f"{name} encode ms/bundle (max)"]
            + [f"{c['encode_ms_mean']:.2f} ({c['encode_ms_max']:.2f})" for c in cells]
        )
        rows.append(
            [f"{name} migrated compiled(B)"]
            + [str(c["migrated_compiled"]) for c in cells]
        )
    emit_table(
        "Sec 5.4 query accuracy and state sharing",
        ["metric"] + [f"RR={rr}" for rr in rates],
        rows,
    )


# -- standalone CLI (CI smoke gate) ----------------------------------------


def build_payload(smoke: bool) -> dict:
    rates = READ_RATES[:1] if smoke else READ_RATES
    table = run_sweep(rates)
    emit(table, rates)
    return {
        "schema_version": 1,
        "bench": "query_state",
        "smoke": smoke,
        "read_rates": rates,
        "queries": table,
    }


def check_drift(payload: dict, baseline_path: str, budget: float) -> list[str]:
    """Migrated-byte and shared-byte comparison against the baseline.

    Byte totals are deterministic given the seeded scenario, but
    inference is floating-point: platform differences can shift which
    events materialize and therefore how many pattern pushes collect
    values. The migrated-byte gate allows ``budget`` relative drift.
    Centroid sharing may not get worse at all: ``shared`` must not
    exceed the baseline's, scaled by ``raw`` where the platform moved
    the raw bytes (same raw bytes: not one byte more).
    """
    baseline = load_baseline(baseline_path)
    base = {
        (name, cell["read_rate"]): cell
        for name, cells in baseline["queries"].items()
        for cell in cells
    }
    failures = []
    for name, cells in payload["queries"].items():
        for cell in cells:
            key = (name, cell["read_rate"])
            if key not in base:
                failures.append(
                    f"{name}@RR={cell['read_rate']}: no baseline point in "
                    f"{baseline_path}; regenerate the committed baseline"
                )
                continue
            if cell["shared"] * base[key]["raw"] > base[key]["shared"] * cell["raw"]:
                failures.append(
                    f"{name}@RR={cell['read_rate']}: shared state "
                    f"{cell['shared']} B of {cell['raw']} B raw, baseline "
                    f"{base[key]['shared']} B of {base[key]['raw']} B"
                )
            expected = base[key]["migrated_compiled"]
            got = cell["migrated_compiled"]
            if expected == 0:
                continue
            drift = abs(got - expected) / expected
            if drift > budget:
                failures.append(
                    f"{name}@RR={cell['read_rate']}: migrated bytes {got} "
                    f"drift {drift:.1%} from baseline {expected} "
                    f"(budget {budget:.0%})"
                )
    return failures


def main(argv=None) -> int:
    return bench_cli(
        argv,
        doc=__doc__,
        build_payload=build_payload,
        check=check_drift,
        budget_flag="--max-drift",
        budget_default=0.10,
        budget_help="allowed relative drift in migrated bytes vs baseline",
        gate_ok="query-state gate: within budget (shared <= baseline)",
    )


# -- pytest-benchmark entry point ------------------------------------------


def test_query_state_table(benchmark):
    smoke = os.environ.get("BENCH_SMOKE") == "1"
    rates = READ_RATES[:1] if smoke else READ_RATES
    table = benchmark.pedantic(lambda: run_sweep(rates), rounds=1, iterations=1)
    emit(table, rates)
    for name in ("Q1", "Q2"):
        cells = table[name]
        if not smoke:
            # F-measure healthy at high read rates.
            assert cells[-1]["f1"] >= 0.6
        for cell in cells:
            # Sharing shrinks every cell's state.
            assert cell["shared"] < cell["raw"]


if __name__ == "__main__":
    sys.exit(main())
