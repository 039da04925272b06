"""Span tracing for the traced benchmark run, from the benchmark's own files.

The traced run wraps the layers' public entry points (class attributes
are swapped for timing wrappers while a run lasts and restored after),
so nothing under ``src/`` changes and ``repro.obs`` is not involved.

A span is a named interval with a parent (the span open when it began).
A span's *self time* is its duration minus the part its child spans
cover; a layer's busy seconds are the self times of its spans, so the
busy seconds of all layers add up to the wall the root spans cover and
nothing is counted twice. Spans are folded into per-name aggregates
(count, inclusive seconds, self seconds) as they close — the hot
wrappers fire several million times per run — and the
aggregate table is what the benchmark writes out when it ends.

Sites hosted on ``ProcessTransport`` workers inherit the wrappers and
the tracer by fork. Once the run's last query is answered the driver
asks every hosted site for its (empty) retransmit list; a worker
answers by writing its aggregates to a file in the work directory, and
the parent merges those files (see :func:`pull_worker_traces`).
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable


#: the tracer whose wrappers are installed in this process, if any.
_active: "Tracer | None" = None


def _reset_in_child() -> None:
    # A forked worker starts from the parent's aggregates and open spans;
    # it must report only its own.
    if _active is not None:
        _active.reset()


# At-fork hooks cannot be removed, so there is exactly one, for whichever
# tracer is active when the fork happens.
os.register_at_fork(after_in_child=_reset_in_child)


class Tracer:
    """Nested spans folded into per-name aggregates, plus counters."""

    def __init__(self, dump_dir: str | None = None) -> None:
        #: name -> [count, inclusive seconds, self seconds]
        self.spans: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        #: high-water marks (merged with max, not sum).
        self.peaks: dict[str, float] = defaultdict(float)
        #: open spans: [name, start, seconds covered by closed children]
        self._stack: list[list[Any]] = []
        self.pid = os.getpid()
        self.dump_dir = dump_dir
        #: the boundary the cluster is stepping to (set by the driver).
        self.boundary = 0

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.peaks.clear()
        self._stack.clear()

    def begin(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def end(self) -> float:
        """Close the innermost span; returns its duration."""
        now = perf_counter()
        name, start, covered = self._stack.pop()
        duration = now - start
        agg = self.spans[name]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def add(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def peak(self, name: str, value: float) -> None:
        if value > self.peaks[name]:
            self.peaks[name] = value

    # -- reading the aggregates ------------------------------------------

    def self_seconds(self, *prefixes: str) -> float:
        """Summed self time of every span whose name starts with a prefix."""
        return sum(
            agg[2] for name, agg in self.spans.items() if name.startswith(prefixes)
        )

    def total_seconds(self, *prefixes: str) -> float:
        """Summed inclusive time (only meaningful for non-nesting names)."""
        return sum(
            agg[1] for name, agg in self.spans.items() if name.startswith(prefixes)
        )

    def count(self, *prefixes: str) -> int:
        return int(
            sum(agg[0] for name, agg in self.spans.items() if name.startswith(prefixes))
        )

    def table(self) -> dict[str, dict[str, float]]:
        return {
            name: {"count": int(agg[0]), "total_s": agg[1], "self_s": agg[2]}
            for name, agg in sorted(self.spans.items())
        }

    # -- worker processes -------------------------------------------------

    def in_worker(self) -> bool:
        return os.getpid() != self.pid

    def dump_worker(self) -> None:
        """Write this worker's aggregates where the parent will find them."""
        if self.dump_dir is None:
            return
        path = os.path.join(self.dump_dir, f"trace-worker-{os.getpid()}.json")
        payload = {
            "spans": {name: list(agg) for name, agg in self.spans.items()},
            "counters": dict(self.counters),
            "peaks": dict(self.peaks),
        }
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)

    def merge_workers(self) -> "Tracer":
        """A tracer holding the summed aggregates of every worker dump."""
        merged = Tracer()
        if self.dump_dir is None:
            return merged
        for entry in sorted(os.listdir(self.dump_dir)):
            if not entry.startswith("trace-worker-") or not entry.endswith(".json"):
                continue
            with open(os.path.join(self.dump_dir, entry)) as fh:
                payload = json.load(fh)
            for name, agg in payload["spans"].items():
                mine = merged.spans[name]
                for i in range(3):
                    mine[i] += agg[i]
            for name, value in payload["counters"].items():
                merged.counters[name] += value
            for name, value in payload["peaks"].items():
                merged.peak(name, value)
        return merged


def pull_worker_traces(tracer: Tracer, cluster) -> Tracer:
    """The summed aggregates of the workers hosting ``cluster``'s sites,
    as of now (an empty tracer when no site is hosted)."""
    if cluster.transport.hosts_sites:
        for node in cluster.nodes:
            cluster.transport.site_call(node.site, "retransmit_unacked")
    return tracer.merge_workers()


NameFn = Callable[[Any, tuple], str]
AfterFn = Callable[[Tracer, Any, tuple, Any], None]


class Patches:
    """Install timing wrappers on class attributes; restore them after."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[type, str, Any]] = []

    def wrap(
        self,
        cls: type,
        method: str,
        name: str | NameFn,
        after: AfterFn | None = None,
    ) -> None:
        """Time ``cls.method`` as span ``name``.

        ``name`` may be a function of ``(self, args)`` (e.g. the kind of
        the envelope being handled); ``after(tracer, self, args, result)``
        runs once the span has closed, for counts taken at the same
        boundary the time is.
        """
        original = cls.__dict__[method]
        tracer = self.tracer
        fixed = name if isinstance(name, str) else None

        def wrapper(self, *args, **kwargs):
            tracer.begin(fixed if fixed is not None else name(self, args))
            try:
                result = original(self, *args, **kwargs)
            finally:
                tracer.end()
            if after is not None:
                after(tracer, self, args, result)
            return result

        wrapper.__name__ = method
        wrapper.__wrapped__ = original
        self._saved.append((cls, method, original))
        setattr(cls, method, wrapper)

    def restore(self) -> None:
        global _active
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)
        if _active is self.tracer:
            _active = None


#: span-name prefix -> layer (package) the time is charged to.
LAYERS = ("sim", "edge", "core", "queries", "runtime", "archive", "serving")

#: ledger kinds of envelopes a site handles, as span-name suffixes.
_HANDLE_SPANS = {
    "migrate-request": "runtime.handle.migrate_request",
    "inference-state": "runtime.handle.inference_state",
    "query-state": "runtime.handle.query_state",
    "ack": "runtime.handle.ack",
    "history-request": "serving.site_serve",
    "replica-fetch": "archive.replica.serve",
}


def install(tracer: Tracer, interval: int) -> Patches:
    """Wrap every layer's public entry points. Call before any pipeline
    object is built: handlers are registered as bound methods, which
    pick the wrapper up only if it is already on the class."""
    from repro.archive.store import SiteArchive
    from repro.archive.tiers import DiskTier
    from repro.core.service import StreamingInference
    from repro.distributed.ons import ObjectNamingService
    from repro.edge.gateway import IngestGateway
    from repro.edge.node import EdgeNode
    from repro.runtime.node import SiteNode
    from repro.runtime.process import ProcessTransport
    from repro.serving.frontend import QueryFrontend
    from repro.serving.history import HistoryService
    from repro.serving.replica import ArchiveReplica
    from repro.sim.vendor import VendorFeed

    global _active
    _active = tracer
    patches = Patches(tracer)
    wrap = patches.wrap

    # sim + edge: the ingest stage.
    wrap(VendorFeed, "emit_until", "sim.feed_emit")
    wrap(EdgeNode, "ingest_line", "edge.node.ingest_line")
    wrap(EdgeNode, "pump", "edge.node.pump")
    wrap(EdgeNode, "handle", "edge.node.handle")
    wrap(EdgeNode, "crash", "edge.recovery.edge")
    wrap(
        IngestGateway,
        "handle",
        "edge.gateway.handle",
        after=lambda t, gw, args, _: (
            t.add("edge.batches_received"),
            t.add("edge.wire_bytes", len(args[0].payload)),
        ),
    )
    wrap(IngestGateway, "advance", "edge.gateway.seal")
    wrap(IngestGateway, "finalize", "edge.gateway.seal")
    wrap(IngestGateway, "build_traces", "edge.gateway.build_traces")
    wrap(IngestGateway, "restart", "edge.recovery.gateway")

    # core + queries + archive append: one site tick.
    def after_run(t: Tracer, service, args, record) -> None:
        # Running total per site; summed over sites when reported.
        t.peak(
            f"core.events_emitted.{service.site}",
            service.events_truncated + len(service.events),
        )
        t.add("core.window_rows", record.window_rows)
        t.add("core.pruned_tags", record.pruned_tags)
        t.add("core.full_tags", record.full_tags)
        for phase, seconds in record.phase_seconds.items():
            t.add(f"core.phase.{phase}", seconds)

    wrap(StreamingInference, "run_at", "core.run_at", after=after_run)
    wrap(SiteNode, "advance_to", "queries.feed")
    wrap(SiteArchive, "ingest_service", "archive.ingest")
    wrap(SiteArchive, "ingest_alerts", "archive.ingest")
    wrap(DiskTier, "store", "archive.tier.store")
    wrap(DiskTier, "load", "archive.tier.load")

    # runtime: routing, message handling, hand-off, checkpoints.
    wrap(SiteNode, "poll_arrivals", "runtime.route.poll")
    wrap(ObjectNamingService, "lookup", "runtime.route.ons")
    wrap(ObjectNamingService, "update", "runtime.route.ons")
    wrap(SiteNode, "send", "runtime.route.send")
    wrap(
        SiteNode,
        "handle",
        lambda node, args: _HANDLE_SPANS.get(args[0].kind, "runtime.handle.other"),
    )
    wrap(SiteNode, "flush_query_handoffs", "runtime.handoff")

    def after_retransmit(t: Tracer, node, args, _) -> None:
        if t.in_worker():
            t.dump_worker()

    # Never called by a reliable transport's barrier, and a no-op when
    # nothing is unacked: the op the driver uses to collect the trace.
    wrap(SiteNode, "retransmit_unacked", "runtime.route.retransmit", after=after_retransmit)
    wrap(SiteNode, "snapshot", "runtime.checkpoint")
    wrap(SiteNode, "restore", "runtime.checkpoint")
    wrap(SiteNode, "reset", "runtime.checkpoint")
    wrap(
        ProcessTransport,
        "site_call",
        lambda transport, args: f"runtime.rpc.call.{args[1]}",
    )
    wrap(
        ProcessTransport,
        "site_cast",
        lambda transport, args: f"runtime.rpc.cast.{args[1]}",
    )
    wrap(ProcessTransport, "flush", "runtime.rpc.flush")

    # archive replication.
    def catchup_name(replica, args) -> str:
        lag = (tracer.boundary - replica.archive.last_boundary) / interval
        tracer.peak("archive.replica.max_lag_boundaries", lag)
        return "archive.replica.catchup"

    wrap(ArchiveReplica, "catch_up", catchup_name)
    wrap(
        ArchiveReplica,
        "handle",
        lambda replica, args: (
            "serving.replica_serve"
            if args[0].kind == "history-request"
            else "archive.replica.apply"
        ),
    )

    # serving: the frontend and the per-site history service.
    def after_execute(t: Tracer, frontend, args, result) -> None:
        t.add(f"serving.kind.{args[0].kind}_n")

    wrap(
        QueryFrontend,
        "execute",
        lambda frontend, args: f"serving.execute.{args[0].kind}",
        after=after_execute,
    )
    wrap(QueryFrontend, "execute_many", "serving.execute.batch")
    wrap(HistoryService, "answer", "serving.history_answer")
    return patches
