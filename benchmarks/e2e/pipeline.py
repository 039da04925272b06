"""One run of a workload through the whole pipeline, timed and verified.

    sim vendor feeds -> edge (run_ingest: EdgeNodes -> IngestGateway)
      -> runtime.Cluster stepping one boundary at a time
         (core inference + queries/streams monitors + archive appends
          + replica catch-up)
      -> serving frontend queries (interleaved with the boundaries)

**Load model.** The streams are a deterministic replay pushed as fast as
the pipeline accepts them, from this one process; queries are a closed
loop with one client (``QueryFrontend`` executes in the caller's
thread). Only ``chain-migration`` starts other processes (its
``ProcessTransport`` workers).

A run returns three kinds of numbers: timings (differ run to run),
exact results (a pure function of the generated inputs — two runs of the
same seed must agree on every one of them, which ``compare.py`` holds
them to) and failure counts.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from time import perf_counter

import numpy as np

from repro.archive import encode_archive
from repro.edge import run_ingest
from repro.serving import Backpressure, HistoryRequest

from stats import Failures, percentile
from tracing import LAYERS, Tracer, install, pull_worker_traces
from workloads import INTERVAL, Deployment, Inputs, QuerySlice, Workload

#: every n-th interactive query is re-answered directly from the
#: primaries' history services and compared (a 2 % sample).
ORACLE_EVERY = 50

#: a stage a layer metric depends on should run at least this long or
#: its numbers are mostly noise.
MIN_STAGE_SECONDS = 2.0

#: ledger kinds that are inter-site traffic (Table 5), by metric suffix.
WIRE_KINDS = {
    "inference_state": ("inference-state",),
    "query_state": ("query-state",),
    "migrate_request": ("migrate-request",),
    "ons": ("ons-lookup", "ons-update"),
    "fault_overhead": ("ack", "retransmit"),
}

_POINT_KINDS = ("location", "containment", "provenance")


@dataclass
class RunResult:
    timing: dict[str, float] = field(default_factory=dict)
    exact: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    stages: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    spans: dict[str, dict[str, float]] = field(default_factory=dict)
    failures: Failures = field(default_factory=Failures)


# -- the query oracle -----------------------------------------------------------


def oracle_answer(cluster, request: HistoryRequest) -> tuple:
    """What the frontend must return for ``request``: each primary's
    ``HistoryService`` asked directly, merged by the documented rules
    (point kinds: the freshest non-empty site; range kinds: all sites'
    rows pooled in canonical order)."""
    answers = {node.site: node.history.answer(request) for node in cluster.nodes}
    kind = request.kind
    if kind in _POINT_KINDS:
        best_site, best = None, None
        for site in sorted(answers):
            answer = answers[site]
            if answer.rows and (best is None or answer.last_update > best.last_update):
                best_site, best = site, answer
        return (kind, best_site, best.rows if best is not None else ())
    pooled = [(site,) + tuple(row) for site in sorted(answers) for row in answers[site].rows]
    if kind == "trajectory":
        pooled.sort(key=lambda row: (row[1], row[0], row[2], row[3]))
    else:
        pooled.sort()
    return (kind, None, tuple(pooled))


def _same_answer(result, want: tuple) -> bool:
    return (result.kind, result.site, tuple(tuple(r) for r in result.rows)) == (
        want[0], want[1], tuple(tuple(r) for r in want[2]),
    )


# -- readings identity ----------------------------------------------------------


def reading_mismatches(rebuilt, originals) -> tuple[int, str | None]:
    """Readings missing from or extra in the gateway-rebuilt traces."""
    bad, first = 0, None
    if len(rebuilt) != len(originals):
        return sum(len(t) for t in originals), f"{len(rebuilt)} traces for {len(originals)} sites"
    for got, want in zip(rebuilt, originals):
        if (
            got.tag_table == want.tag_table
            and np.array_equal(got.times, want.times)
            and np.array_equal(got.tag_ids, want.tag_ids)
            and np.array_equal(got.readers, want.readers)
        ):
            continue
        have = set(zip(got.times.tolist(), (got.tag_table[i] for i in got.tag_ids), got.readers.tolist()))
        need = set(zip(want.times.tolist(), (want.tag_table[i] for i in want.tag_ids), want.readers.tolist()))
        diff = have ^ need
        bad += len(diff)
        if first is None and diff:
            first = f"site {want.site}: reading {min(diff, key=repr)}"
    return bad, first


# -- the run --------------------------------------------------------------------


class _Span:
    """``with _Span(tracer, name)``: a driver-made span (no-op untraced)."""

    def __init__(self, tracer: Tracer | None, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self) -> None:
        if self.tracer is not None:
            self.tracer.begin(self.name)

    def __exit__(self, *exc: object) -> None:
        if self.tracer is not None:
            self.tracer.end()


def vm_hwm_mb(pid: int | str = "self") -> float:
    """A process's resident-set high-water mark (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def run_once(
    workload: Workload, seed: int, seconds: float, workdir: str, traced: bool
) -> RunResult:
    """Generate the inputs, push them through the pipeline, verify."""
    out = RunResult()
    others = set(multiprocessing.active_children())
    had_tracker = resource_tracker._resource_tracker._pid is not None
    tracer = Tracer(dump_dir=workdir) if traced else None
    patches = install(tracer, INTERVAL) if tracer is not None else None
    deployment: Deployment | None = None
    try:
        started = perf_counter()
        inputs = workload.generate(seed, seconds)
        setup = perf_counter() - started

        # -- ingest: vendor lines -> gateway-rebuilt traces -----------------
        measure_from = perf_counter()
        with _Span(tracer, "edge.stage"):
            rebuilt, report = run_ingest(
                inputs.traces, INTERVAL, os.path.join(workdir, "ingest"),
                plan=inputs.edge_plan,
            )
        ingest_wall = perf_counter() - measure_from
        edge_disk = _edge_disk_bytes(os.path.join(workdir, "ingest"))

        started = perf_counter()
        deployment = workload.wire(inputs, rebuilt, workdir)
        wiring = perf_counter() - started
        setup += wiring

        # -- federation steps with the serving slices between them -----------
        steps, queries = _run_boundaries(deployment, inputs, tracer, out.failures)
        measured = perf_counter() - measure_from - wiring - queries.oracle_seconds

        # Workers are still alive here: their trace and their memory
        # high-water marks are read before anything closes.
        workers = pull_worker_traces(tracer, deployment.cluster) if tracer else None
        worker_rss = sum(
            vm_hwm_mb(child.pid) for child in multiprocessing.active_children()
        )

        _verify_and_score(workload, inputs, rebuilt, report, deployment, out)
        readings = report.readings
        step_wall = float(np.sum(steps))
        out.timing.update(
            setup_s=setup,
            pipeline_readings_per_s=readings / (ingest_wall + step_wall),
            interval_latency_p50_s=percentile(steps, 50),
            interval_latency_max_s=float(np.max(steps)),
            query_qps=queries.served / queries.wall,
            query_latency_p50_ms=percentile(queries.latencies, 50) * 1e3,
            query_latency_p99_ms=percentile(queries.latencies, 99) * 1e3,
        )
        out.samples.update(
            readings=readings,
            boundaries=len(steps),
            queries=queries.served,
            query_latencies=len(queries.latencies),
            oracle_checks=queries.oracle_checks,
            shed_planned=queries.shed_planned,
        )
        out.stages.update(
            setup_s=setup, ingest_s=ingest_wall, federation_s=step_wall,
            serving_s=queries.wall, measured_s=measured,
        )
        if tracer is not None:
            out.layer = _layer_metrics(
                tracer, workers, report, deployment, inputs, out, queries, edge_disk
            )
            out.spans = tracer.table()
            out.spans.update(
                {f"worker:{name}": row for name, row in workers.table().items()}
            )
        out.timing["peak_rss_mb"] = vm_hwm_mb() + worker_rss
    finally:
        if patches is not None:
            patches.restore()
        if deployment is not None:
            deployment.cluster.close()
        stop_processes(others, had_tracker)
    return out


def stop_processes(others: set, had_tracker: bool) -> None:
    """Stop, and wait for, every process this run started: workers the
    cluster's close did not get to (it was never wired, or a worker
    ignored its stop), then the resource tracker the workers shared.
    ``others`` (children alive before the run) and a tracker that was
    already running belong to the caller and stay."""
    for child in set(multiprocessing.active_children()) - others:
        child.kill()
        child.join()
    if not had_tracker:
        resource_tracker._resource_tracker._stop()


@dataclass
class _QueryLog:
    latencies: list[float] = field(default_factory=list)
    wall: float = 0.0
    served: int = 0
    shed_planned: int = 0
    oracle_checks: int = 0
    oracle_seconds: float = 0.0


def _run_boundaries(
    deployment: Deployment, inputs: Inputs, tracer: Tracer | None, failures: Failures
) -> tuple[list[float], _QueryLog]:
    cluster, frontend = deployment.cluster, deployment.frontend
    by_boundary: dict[int, list[QuerySlice]] = {}
    for piece in inputs.queries:
        by_boundary.setdefault(piece.after, []).append(piece)
    steps: list[float] = []
    log = _QueryLog()
    for boundary in range(INTERVAL, inputs.horizon + 1, INTERVAL):
        if tracer is not None:
            tracer.boundary = boundary
        started = perf_counter()
        with _Span(tracer, "runtime.step"):
            cluster.run(boundary)
            if deployment.notify_frontend:
                for node in cluster.nodes:
                    frontend.note_append(node.site, boundary)
        steps.append(perf_counter() - started)
        for piece in by_boundary.get(boundary, ()):
            _run_slice(cluster, frontend, piece, log, failures)
    return steps, log


def _run_slice(cluster, frontend, piece: QuerySlice, log: _QueryLog, failures: Failures) -> None:
    if piece.batch:
        count = len(piece.requests)
        started = perf_counter()
        try:
            frontend.execute_many(piece.requests, tenant=piece.tenant)
            shed = False
        except Backpressure:
            shed = True
        log.wall += perf_counter() - started
        if shed and piece.shed:
            log.shed_planned += count  # the planned outcome: not an attempt
            return
        failures.attempt("queries", count)
        if shed or piece.shed:
            failures.add(
                "queries", count,
                f"batch of {count} after boundary {piece.after} was "
                f"{'shed' if shed else 'admitted'}, planned the opposite",
            )
        if not shed:
            log.served += count
        return
    for request in piece.requests:
        started = perf_counter()
        try:
            result = frontend.execute(request, piece.tenant)
        except Backpressure as exc:
            log.wall += perf_counter() - started
            failures.attempt("queries")
            failures.add("queries", 1, f"{request} rejected: {exc}")
            continue
        elapsed = perf_counter() - started
        log.latencies.append(elapsed)
        log.wall += elapsed
        log.served += 1
        failures.attempt("queries")
        if log.served % ORACLE_EVERY == 0:
            started = perf_counter()
            want = oracle_answer(cluster, request)
            if not _same_answer(result, want):
                failures.add(
                    "queries", 1,
                    f"{request}: frontend answered {result}, primaries say {want}",
                )
            log.oracle_checks += 1
            log.oracle_seconds += perf_counter() - started


def _edge_disk_bytes(root: str) -> dict[str, int]:
    """Bytes the edge spools and the gateway WAL left on disk."""
    sizes = {"spool": 0, "wal": 0}
    for directory, _, files in os.walk(root):
        key = "wal" if os.path.basename(directory) == "gateway" else "spool"
        for name in files:
            sizes[key] += os.path.getsize(os.path.join(directory, name))
    return sizes


def _verify_and_score(
    workload: Workload, inputs: Inputs, rebuilt, report, deployment: Deployment,
    out: RunResult,
) -> None:
    """Identity checks, alert scoring and the exact result metrics."""
    cluster, failures = deployment.cluster, out.failures
    bad, first = reading_mismatches(rebuilt, inputs.traces)
    failures.attempt("readings", report.readings)
    if bad:
        failures.add("readings", bad, first or "rebuilt traces differ")

    predicted = workload.predicted_alerts(inputs, cluster)
    expected = inputs.expected_alerts
    allowed = expected if inputs.allowed_alerts is None else inputs.allowed_alerts
    # Alert quality is a metric (alert_f1), not a failed operation: a
    # missed alert is the inference being wrong about the world, not the
    # program breaking its own contract.
    missed, spurious = expected - predicted, predicted - allowed
    precision = 1.0 - len(spurious) / len(predicted) if predicted else 1.0
    recall = 1.0 - len(missed) / len(expected) if expected else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0

    started = perf_counter()
    primary_bytes = {node.site: encode_archive(node.archive) for node in cluster.nodes}
    encode_seconds = perf_counter() - started
    for replica in deployment.replicas:
        failures.attempt("replicas")
        blob, want = encode_archive(replica.archive), primary_bytes[replica.primary]
        if blob != want:
            offset = next(
                (i for i, (a, b) in enumerate(zip(blob, want)) if a != b),
                min(len(blob), len(want)),
            )
            failures.add(
                "replicas", 1,
                f"replica {replica.site_id} ({len(blob)} bytes) differs from primary "
                f"{replica.primary} ({len(want)} bytes) at byte {offset}",
            )

    ledger = cluster.network
    wire = sum(
        ledger.bytes_by_kind[kind] for kinds in WIRE_KINDS.values() for kind in kinds
    )
    error = cluster.containment_error(inputs.truth)
    out.exact.update(
        containment_accuracy_pct=100.0 * (1.0 - error),
        containment_error_pct=100.0 * error,
        alert_f1=f1,
        wire_bytes_per_kreading=1000.0 * wire / report.readings,
        archive_bytes_per_epoch=sum(map(len, primary_bytes.values())) / inputs.horizon,
        archive_rows=float(sum(node.archive.row_count() for node in cluster.nodes)),
        alerts_missed=float(len(missed)),
        alerts_spurious=float(len(spurious)),
        alerts_raised=float(sum(
            len(query.alerts) for node in cluster.nodes for query in node.queries.values()
        )),
    )
    out.stages["archive_encode_s"] = encode_seconds


# -- per-layer metrics ----------------------------------------------------------


def _layer_metrics(
    tracer: Tracer, workers: Tracer, report, deployment: Deployment, inputs: Inputs,
    out: RunResult, queries: _QueryLog, edge_disk: dict[str, int],
) -> dict[str, float]:
    """Every ``per_layer`` metric of BENCHMARK.json, from one traced run.

    Busy seconds are span *self* times. Sites hosted on workers report
    through ``workers`` (their busy seconds overlap in wall time, so on
    ``chain-migration`` core/queries/archive seconds are CPU-side sums).
    """
    cluster, frontend = deployment.cluster, deployment.frontend
    ledger = cluster.network
    measured = out.stages["measured_s"]
    m: dict[str, float] = {}

    def busy(*prefixes: str) -> float:
        return tracer.self_seconds(*prefixes) + workers.self_seconds(*prefixes)

    def counter(name: str) -> float:
        return tracer.counters.get(name, 0.0) + workers.counters.get(name, 0.0)

    # sim / edge
    edges, gateway = report.edge_stats, report.gateway_stats
    m["sim.feed_emit_busy_s"] = busy("sim.feed_emit")
    m["edge.stage_wall_s"] = out.stages["ingest_s"]
    m["edge.node.ingest_line_busy_s"] = busy("edge.node.ingest_line")
    m["edge.node.pump_busy_s"] = busy("edge.node.pump", "edge.node.handle")
    m["edge.gateway.handle_busy_s"] = busy("edge.gateway.handle")
    m["edge.gateway.seal_busy_s"] = busy("edge.gateway.seal")
    m["edge.gateway.build_traces_s"] = busy("edge.gateway.build_traces")
    m["edge.recovery_busy_s"] = busy("edge.recovery")
    m["edge.lines_in"] = sum(e["lines"] for e in edges)
    m["edge.junk_lines"] = sum(e["parse_errors"] for e in edges)
    m["edge.batches_sent"] = sum(e["sends"] for e in edges)
    m["edge.retransmits"] = sum(e["retransmits"] for e in edges)
    m["edge.duplicate_batches"] = gateway["duplicate_batches"]
    m["edge.late_readings"] = gateway["late_readings"]
    m["edge.recovery_rounds"] = report.recovery_rounds or 0
    m["edge.pump_rounds"] = report.pump_rounds
    m["edge.max_pending_readings"] = max(e["max_pending_readings"] for e in edges)
    m["edge.max_staged_readings"] = gateway["max_staged_readings"]
    m["edge.wire_bytes"] = counter("edge.wire_bytes")
    m["edge.spool_bytes"] = edge_disk["spool"]
    m["edge.wal_bytes"] = edge_disk["wal"]
    received = counter("edge.batches_received")
    m["edge.useful_batch_ratio"] = gateway["batches_applied"] / received if received else 0.0

    # core
    run_at = busy("core.run_at")
    m["core.run_at_busy_s"] = run_at
    m["core.runs"] = tracer.count("core.run_at") + workers.count("core.run_at")
    m["core.window_rows"] = counter("core.window_rows")
    m["core.events_emitted"] = sum(
        total
        for source in (tracer, workers)
        for name, total in source.peaks.items()
        if name.startswith("core.events_emitted.")
    )
    phases = 0.0
    for phase in ("detector", "window", "prune", "e_step", "m_step", "evidence",
                  "changes", "cr", "events"):
        m[f"core.phase.{phase}_s"] = counter(f"core.phase.{phase}")
        phases += m[f"core.phase.{phase}_s"]
    m["core.unattributed_s"] = run_at - phases
    tags = counter("core.pruned_tags") + counter("core.full_tags")
    m["core.pruned_tag_ratio"] = counter("core.pruned_tags") / tags if tags else 0.0

    # queries (+ streams)
    m["queries.feed_busy_s"] = busy("queries.feed")
    m["queries.tuples_in"] = m["core.events_emitted"] + sum(
        map(len, (inputs.sensors or {}).values())
    )
    m["queries.alerts_out"] = out.exact["alerts_raised"]
    m["queries.operators_built"] = ledger.plan_operators_built
    m["queries.operators_shared"] = ledger.plan_operators_shared

    # runtime (+ distributed)
    m["runtime.step_wall_s"] = out.stages["federation_s"]
    m["runtime.step_self_s"] = tracer.self_seconds("runtime.step")
    m["runtime.route_busy_s"] = busy("runtime.route")
    m["runtime.handle.migrate_request_s"] = busy("runtime.handle.migrate_request")
    m["runtime.handle.inference_state_s"] = busy("runtime.handle.inference_state")
    m["runtime.handle.query_state_s"] = busy("runtime.handle.query_state")
    m["runtime.handoff_busy_s"] = busy("runtime.handoff")
    m["runtime.checkpoint_busy_s"] = busy("runtime.checkpoint")
    for suffix, kinds in WIRE_KINDS.items():
        m[f"runtime.bytes.{suffix}"] = sum(ledger.bytes_by_kind[k] for k in kinds)
    m["runtime.messages"] = sum(
        ledger.messages_by_kind[k] for kinds in WIRE_KINDS.values() for k in kinds
    )
    migrations = cluster.migrations
    m["runtime.migrations"] = len(migrations)
    raw = sum(event.bytes_sent for event in migrations)
    m["runtime.bundle_ratio"] = m["runtime.bytes.inference_state"] / raw if raw else 0.0
    m["runtime.rpc.call_wall_s"] = tracer.total_seconds("runtime.rpc.call")
    m["runtime.rpc.cast_wall_s"] = tracer.total_seconds("runtime.rpc.cast")
    m["runtime.rpc.flush_wall_s"] = tracer.self_seconds("runtime.rpc.flush")
    stats = getattr(cluster.transport, "worker_stats", lambda: [])()
    cpu = [s["busy_cpu_seconds"] for s in stats]
    m["runtime.worker_busy_cpu_max_s"] = max(cpu, default=0.0)
    m["runtime.worker_busy_skew"] = max(cpu) / min(cpu) if cpu and min(cpu) > 0 else 0.0
    m["runtime.parent_wait_s"] = tracer.self_seconds("runtime.rpc")

    # archive
    archives = [node.archive for node in cluster.nodes]
    m["archive.ingest_busy_s"] = busy("archive.ingest")
    m["archive.rows"] = out.exact["archive_rows"]
    m["archive.segments_sealed"] = sum(
        len(log.segments)
        for archive in archives
        for log in (archive.location, archive.containment, archive.belief,
                    archive.events, archive.alerts)
    )
    m["archive.encode_s"] = out.stages["archive_encode_s"]
    tiers = [tier.stats for tier in deployment.tiers]
    loads = sum(t.loads for t in tiers)
    hits = sum(t.cache_hits for t in tiers)
    m["archive.tier.busy_s"] = busy("archive.tier")
    m["archive.tier.spills"] = sum(t.spills for t in tiers)
    m["archive.tier.loads"] = loads
    m["archive.tier.hit_ratio"] = hits / (hits + loads) if hits + loads else 0.0
    m["archive.tier.corruptions"] = sum(t.corruptions for t in tiers)
    m["archive.replica.catchup_busy_s"] = busy("archive.replica")
    m["archive.replica.bytes_applied"] = sum(r.stats.bytes_applied for r in deployment.replicas)
    m["archive.replica.full_resyncs"] = sum(r.stats.full_resyncs for r in deployment.replicas)
    m["archive.replica.max_lag_boundaries"] = tracer.peaks.get(
        "archive.replica.max_lag_boundaries", 0.0
    )

    # serving
    m["serving.execute_busy_s"] = busy("serving.execute")
    m["serving.history_answer_busy_s"] = busy("serving.history_answer")
    m["serving.site_serve_busy_s"] = busy("serving.site_serve", "serving.replica_serve")
    for kind in ("location", "containment", "trajectory", "provenance", "dwell", "alerts"):
        m[f"serving.kind.{kind}_s"] = tracer.total_seconds(f"serving.execute.{kind}")
        m[f"serving.kind.{kind}_n"] = tracer.count(f"serving.execute.{kind}")
    m["serving.cache_hit_ratio"] = frontend.stats.hit_rate()
    m["serving.retransmits"] = frontend.stats.retransmits
    m["serving.rejected"] = frontend.stats.rejected
    m["serving.shed_planned"] = queries.shed_planned
    m["serving.bytes"] = sum(
        count for kind, count in ledger.bytes_by_kind.items() if kind.startswith("history-")
    )

    # harness: where the measured wall went. Hosted sites' busy time is
    # inside the parent's rpc waits, so the parent view is the wall view.
    roots = tracer.total_seconds("edge.stage", "runtime.step") + sum(
        agg[1] for name, agg in tracer.spans.items()
        if name.startswith("serving.execute")
    )
    m["trace.unaccounted_pct"] = 100.0 * max(0.0, measured - roots) / measured
    for layer in LAYERS:
        m[f"trace.share.{layer}_pct"] = 100.0 * tracer.self_seconds(layer + ".") / measured
    m["trace.worker_busy_s"] = sum(agg[2] for agg in workers.spans.values())
    # quality numbers that can legitimately be 0 (so cannot be bounded
    # end-to-end metrics) ride along here.
    m["containment_error_pct"] = out.exact["containment_error_pct"]
    m["failed_ops_pct"] = 100.0 * out.failures.failed / max(1, out.failures.attempted)
    return m


def stage_warnings(stages: dict[str, float], workload: str) -> list[str]:
    """The sizing guard: name stages too short to carry layer metrics."""
    return [
        f"{workload}: stage {stage} ran {seconds:.2f}s (< {MIN_STAGE_SECONDS:.0f}s); "
        "its layer metrics are mostly noise — resize the workload in a benchmark issue"
        for stage, seconds in stages.items()
        if stage in ("ingest_s", "federation_s", "serving_s") and seconds < MIN_STAGE_SECONDS
    ]
