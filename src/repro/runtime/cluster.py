"""The federation orchestrator: periodic ticks + message-driven migration.

:class:`Cluster` replaces the old lockstep ``for``-loop deployment with
an explicit event-driven schedule per inference interval:

1. **Route** — in deterministic site order, each node's fresh arrivals
   (objects first read during the elapsed interval) are resolved
   through the ONS, and one ``migrate-request`` per ``(dst, src)`` pair
   is sent. The previous sites respond with **batched**
   ``inference-state``/``query-state`` bundles (centroid-compressed,
   §4.2) which the arrival site absorbs — all via transport messages.
   A flush between sites keeps multi-hop chains ordered, so sharded
   and in-process runs are bit-identical.
2. **Tick** — every node's inference run for the boundary is dispatched
   onto its site's execution context (concurrently across OS workers
   under :class:`~repro.runtime.process.ProcessTransport`) and
   barriered.
   The run that covers an object's arrival readings therefore already
   holds its migrated priors (§4.1). Local query processing (new object
   events × sensor readings) happens inside the tick, on the node's own
   context.
3. **Hand-off** — query-automaton state owed from this interval's
   migrations is sent now (Appendix B): the origin's tick has just
   processed the departing objects' final local events, so the
   automaton state is final; the destination merges it with any partial
   match formed from the objects' first local events.
4. **Snapshot** — the global containment estimate is recorded for the
   error metrics.

The site-serial routing phase is cheap (dictionary work and small
payloads); the expensive inference runs are what parallelize.

**Fault tolerance.** Every barrier is a *reliable* barrier: on an
unreliable transport (:class:`~repro.runtime.faults.FaultyTransport`)
the cluster keeps flushing and retransmitting each node's unacked
envelopes until every sequenced message is acknowledged, so by the end
of each phase all data has actually been applied regardless of drops,
duplicates, delays, or reordering. :meth:`Cluster.crash` /
:meth:`Cluster.recover` schedule a site dying mid-interval and
rejoining from its last per-boundary checkpoint
(:meth:`~repro.runtime.node.SiteNode.snapshot`); both must land inside
the same interval — a site still down when the next boundary's
processing starts raises, because its tick cannot be skipped without
changing results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Literal, Mapping, Sequence

import numpy as np

from repro.core.service import ServiceConfig, StreamingInference
from repro.distributed.ons import ObjectNamingService
from repro.metrics.accuracy import containment_error_rate
from repro.obs import get_telemetry
from repro.runtime.envelope import MIGRATE_REQUEST, Envelope, MigrationEvent, encode_tag_list
from repro.runtime.node import SiteNode
from repro.runtime.transport import InProcessTransport, Transport
from repro.sim.tags import EPC, TagKind
from repro.sim.trace import GroundTruth, Trace

__all__ = ["Cluster", "ClusterSnapshot"]

MigrationStrategy = Literal["none", "collapsed"]


@dataclass
class ClusterSnapshot:
    """Global containment estimate at one interval boundary."""

    time: int
    containment: dict[EPC, EPC | None]
    known: set[EPC] = field(default_factory=set)


class Cluster:
    """Runs one :class:`SiteNode` per trace over a pluggable transport."""

    #: fallback cap on retransmit rounds per barrier, used when the
    #: transport does not advertise its own convergence bound (see
    #: ``FaultyTransport.sync_round_limit``). Hitting the limit means
    #: the transport genuinely cannot deliver some envelope.
    MAX_SYNC_ROUNDS = 64

    def __init__(
        self,
        traces: Sequence[Trace],
        config: ServiceConfig | None = None,
        strategy: MigrationStrategy = "collapsed",
        transport: Transport | None = None,
        batch_migrations: bool = True,
        migration_listener: Callable[[int, int, list[EPC], int], None] | None = None,
    ) -> None:
        if strategy not in ("none", "collapsed"):
            raise ValueError(f"unknown migration strategy {strategy!r}")
        self.config = config or ServiceConfig(emit_events=False)
        self.strategy = strategy
        self.transport = transport if transport is not None else InProcessTransport()
        self.network = self.transport.ledger
        self.ons = ObjectNamingService(self.network)
        self.batch_migrations = batch_migrations
        self.migration_listener = migration_listener
        self.nodes = [
            SiteNode(trace, self.config, batch_migrations=batch_migrations)
            for trace in traces
        ]
        for node in self.nodes:
            node.bind(self.transport)
        #: whether site state lives in worker processes: if so, the
        #: cluster drives every node through named ops (RPC) instead of
        #: direct method calls, and pulls worker state back at the end.
        self._hosted = bool(getattr(self.transport, "hosts_sites", False))
        self._ops = {node.site: self._site_ops_for(node) for node in self.nodes}
        if self._hosted:
            for site, ops in self._ops.items():
                self.transport.host_site(site, ops)
        self._current_site: dict[EPC, int] = {}
        self.snapshots: list[ClusterSnapshot] = []
        self.last_boundary = 0
        # -- fault-tolerance state ------------------------------------------
        #: query factories, kept so a crashed site can rebuild instances.
        self._query_factories: dict[str, Callable[[int], Any]] = {}
        #: scheduled (time, order, op, site) crash/recover events.
        self._fault_events: list[tuple[int, int, str, int]] = []
        self._fault_cursor = 0
        #: latest per-site checkpoints (taken each boundary while fault
        #: events are scheduled; see :meth:`checkpoint_all`).
        self._checkpoints: dict[int, bytes] = {}
        self._down: set[int] = set()
        #: attached serving frontends, notified after each boundary's
        #: archive appends (epoch-tagged cache invalidation).
        self._frontends: list[Any] = []
        #: attached archive read replicas, caught up after each
        #: boundary's appends (incremental segment deltas).
        self._replicas: list[Any] = []

    def _site_ops_for(self, node: SiteNode) -> dict[str, Callable]:
        """The named-op table the cluster drives one site through.

        On an ordinary transport these run in-process (see
        :meth:`_site_call` — identical to the old direct calls); on a
        site-hosting transport the table crosses into a worker at fork
        time and the same names are invoked by RPC. Bound methods and
        lambdas are fine: the table is registered *before* the fork and
        crosses by inheritance, never by pickle.
        """
        site = node.site
        return {
            # transport rebinding at fork time (worker outbox shim)
            "attach": node.rebind_transport,
            # interval schedule
            "poll_arrivals": node.poll_arrivals,
            "send": node.send,
            "advance_to": node.advance_to,
            "flush_query_handoffs": node.flush_query_handoffs,
            # reliable barrier
            "unacked_count": lambda: len(node.unacked_envelopes()),
            "retransmit_unacked": node.retransmit_unacked,
            # fault tolerance / rebalancing (checkpoint path)
            "snapshot": node.snapshot,
            "restore": node.restore,
            "reset_fresh": lambda: node.reset(self._fresh_queries(site)),
            # observation
            "containment_probe": lambda tags: {
                tag: node.service.containment.get(tag) for tag in tags
            },
            "seen": lambda: set(node.seen),
            "archive_boundary": lambda: node.archive.last_boundary,
        }

    def _site_call(self, site: int, op: str, *args: object) -> object:
        """Run one named op against ``site``, wherever its state lives."""
        if self._hosted:
            return self.transport.site_call(site, op, *args)
        return self._ops[site][op](*args)

    # -- registration ------------------------------------------------------

    @property
    def services(self) -> list[StreamingInference]:
        return [node.service for node in self.nodes]

    def add_query(self, name: str, factory: Callable[[int], Any]) -> None:
        """Instantiate one continuous query per site (``factory(site)``)."""
        self._query_factories[name] = factory
        for node in self.nodes:
            node.add_query(name, factory(node.site))

    def set_sensor_streams(self, streams: Mapping[int, Iterable[Any]]) -> None:
        """Attach per-site sensor streams consumed by the queries."""
        by_site = {node.site: node for node in self.nodes}
        for site, readings in streams.items():
            by_site[site].set_sensor_stream(readings)

    def attach_frontend(self, frontend: Any) -> None:
        """Wire a :class:`~repro.serving.frontend.QueryFrontend` in.

        The frontend registers on the cluster's transport (scatter-
        gather targets every site) and is notified after each boundary's
        archive appends so its epoch-tagged result cache invalidates.
        """
        frontend.bind(self.transport, [node.site for node in self.nodes])
        self._frontends.append(frontend)
        for node in self.nodes:
            frontend.note_append(
                node.site, self._site_call(node.site, "archive_boundary")
            )

    def attach_replica(self, replica: Any) -> None:
        """Wire a parent-resident :class:`~repro.serving.replica.ArchiveReplica`.

        The replica registers on the cluster's transport, catches up
        immediately (its primary serves ``replica-fetch`` envelopes),
        and is re-synced after every boundary's archive appends — so
        its answers track the primary with at most one boundary of lag
        during an interval and zero lag between intervals. Replicas
        hosted on transport workers are wired by hand instead (register
        + ``host_site`` before the fork).
        """
        replica.bind(self.transport)
        self._replicas.append(replica)
        replica.catch_up()

    # -- the interval schedule ---------------------------------------------

    def run(self, horizon: int) -> None:
        """Advance every site to ``horizon``, one interval at a time."""
        interval = self.config.run_interval
        tel = get_telemetry()
        for boundary in range(self.last_boundary + interval, horizon + 1, interval):
            # Crashes/recoveries scheduled inside the elapsed interval
            # take effect before the boundary's processing begins.
            self._apply_fault_events(boundary)
            # Route first: objects that arrived during the elapsed
            # interval get their migrated state absorbed *before* the
            # run that covers their arrival readings (§4.1 — the new
            # site retrieves state when the object reaches it).
            with tel.span("federation", "route", boundary=boundary):
                for node in self.nodes:
                    fresh = self._site_call(
                        node.site, "poll_arrivals", boundary - interval, boundary
                    )
                    self._route_arrivals(node, fresh, boundary)
                    self._sync()
            # Then tick every site — concurrently under a process
            # transport; the runs are independent given routed state.
            with tel.span("federation", "tick", boundary=boundary):
                for node in self.nodes:
                    if self._hosted:
                        self.transport.site_cast(node.site, "advance_to", boundary)
                    else:
                        self.transport.dispatch(
                            node.site, partial(node.advance_to, boundary)
                        )
                self._sync()
            # Finally hand off query state owed from this interval's
            # migrations: the origin's tick just processed the objects'
            # final local events, so the automaton state is now final.
            with tel.span("federation", "handoff", boundary=boundary):
                for node in self.nodes:
                    self._site_call(node.site, "flush_query_handoffs", boundary)
                    self._sync()
            self.snapshots.append(self._snapshot(boundary))
            for frontend in self._frontends:
                for node in self.nodes:
                    frontend.note_append(
                        node.site, self._site_call(node.site, "archive_boundary")
                    )
            with tel.span("archive", "replica.catchup", boundary=boundary):
                for replica in self._replicas:
                    replica.catch_up()
            self.last_boundary = boundary
            if self._fault_cursor < len(self._fault_events):
                # Checkpoints are only needed while crash/recover events
                # are still ahead; once the last one has been applied,
                # per-boundary serialization would be pure waste.
                with tel.span("federation", "checkpoint", boundary=boundary):
                    self.checkpoint_all()
            # Between intervals — at barrier quiescence — a sharded
            # transport may reassign logical sites across its workers.
            rebalance = getattr(self.transport, "maybe_rebalance", None)
            if rebalance is not None:
                rebalance()
            # Also at quiescence: pull worker-side telemetry deltas back
            # over the pipe plane. Out-of-band by construction — this
            # command is only ever issued when telemetry is enabled and
            # only between intervals, so a telemetry-off run's transport
            # command stream is byte-identical to pre-telemetry builds.
            if tel.enabled:
                collect = getattr(self.transport, "collect_telemetry", None)
                if collect is not None:
                    collect(tel)
        if self._hosted:
            self._sync_back()

    def _sync(self) -> None:
        """The reliable barrier: flush, then retransmit until acked.

        On a reliable transport this is a single flush. On a lossy one,
        each round re-sends every node's unacked envelopes and flushes
        again (advancing the fault plan's delay rounds), so the barrier
        returns only once every sequenced message has provably been
        applied — delivery faults can reorder work *within* a phase but
        never leak messages across phases.
        """
        self.transport.flush()
        if self.transport.reliable:
            return
        limit = getattr(self.transport, "sync_round_limit", self.MAX_SYNC_ROUNDS)
        for _ in range(limit):
            if not any(
                self._site_call(node.site, "unacked_count") for node in self.nodes
            ):
                return
            for node in self.nodes:
                self._site_call(node.site, "retransmit_unacked")
            self.transport.flush()
        raise RuntimeError(
            f"at-least-once delivery did not converge in {limit} "
            "rounds — the fault plan never lets some envelope through"
        )

    def _route_arrivals(self, node: SiteNode, fresh: list[EPC], boundary: int) -> None:
        if not fresh:
            return
        site = node.site
        by_source: dict[int, list[EPC]] = {}
        for tag in fresh:
            if self.strategy == "none":
                self._current_site[tag] = site
                continue
            previous = self.ons.lookup(tag, site)
            self.ons.update(tag, site)
            self._current_site[tag] = site
            if previous is not None and previous != site:
                by_source.setdefault(previous, []).append(tag)
        if self.strategy != "collapsed":
            return
        for src, tags in sorted(by_source.items()):
            self._site_call(
                site,
                "send",
                Envelope(site, src, MIGRATE_REQUEST, encode_tag_list(tags), boundary),
            )
            if self.migration_listener is not None:
                self.migration_listener(src, site, tags, boundary)

    # -- crash/recover scheduling -------------------------------------------

    def crash(self, site: int, time: int) -> None:
        """Schedule ``site`` to crash at stream time ``time``.

        The crash takes effect at the next boundary whose interval
        contains ``time``: the node loses *all* volatile state (service,
        query automata, arrival/delivery cursors), exactly as a process
        restart would. Pair it with :meth:`recover` inside the same
        interval so the site is back before its next tick.
        """
        self._schedule_fault(site, time, "crash")

    def recover(self, site: int, time: int) -> None:
        """Schedule ``site`` to restart from its last checkpoint at ``time``."""
        self._schedule_fault(site, time, "recover")

    def _schedule_fault(self, site: int, time: int, op: str) -> None:
        if site not in {node.site for node in self.nodes}:
            raise ValueError(f"unknown site {site}")
        if time <= self.last_boundary:
            raise ValueError(
                f"cannot schedule {op} at t={time}: boundary {self.last_boundary} "
                "already processed"
            )
        self._fault_events.append((time, len(self._fault_events), op, site))
        self._fault_events.sort()
        if self.last_boundary and not self._checkpoints:
            # Faults scheduled mid-session: state only mutates inside
            # run(), so the nodes still hold exactly their state at
            # last_boundary — capture it now or a recovery landing in
            # the very next interval would have nothing to restore.
            self.checkpoint_all()

    def _apply_fault_events(self, boundary: int) -> None:
        by_site = {node.site: node for node in self.nodes}
        while (
            self._fault_cursor < len(self._fault_events)
            and self._fault_events[self._fault_cursor][0] <= boundary
        ):
            _, _, op, site = self._fault_events[self._fault_cursor]
            self._fault_cursor += 1
            assert site in by_site
            if op == "crash":
                if site in self._down:
                    raise RuntimeError(f"site {site} is already down")
                get_telemetry().record_state(
                    "federation", "site.crash", site=site, boundary=boundary
                )
                self._site_call(site, "reset_fresh")
                self._down.add(site)
            else:
                if site not in self._down:
                    raise RuntimeError(f"site {site} is not down; cannot recover")
                get_telemetry().record_state(
                    "federation", "site.recover", site=site, boundary=boundary
                )
                checkpoint = self._checkpoints.get(site)
                if checkpoint is not None:
                    self._site_call(site, "restore", checkpoint)
                elif self.last_boundary:
                    # Recovering without a checkpoint is only sound
                    # before the first boundary (initial state *is* the
                    # time-zero state); afterwards it would silently
                    # resume with amnesia and corrupt results.
                    raise RuntimeError(
                        f"no checkpoint to recover site {site} from at "
                        f"boundary {boundary}"
                    )
                self._down.discard(site)
        if self._down:
            raise RuntimeError(
                f"sites {sorted(self._down)} are still down at boundary {boundary}; "
                "schedule recover() within the same interval as the crash"
            )

    def _fresh_queries(self, site: int) -> dict[str, Any]:
        return {name: factory(site) for name, factory in self._query_factories.items()}

    def _sync_back(self) -> None:
        """Pull every worker-hosted site's state into the parent replicas.

        Callers read results straight off the nodes after a run (query
        alerts, archives, history, migration records, service changes) —
        state that lives in the workers on a hosting transport. A site
        checkpoint captures all of it, so the end-of-run pull is the
        same bit-exact snapshot/restore path crash recovery and shard
        rebalancing use: reset each parent replica with fresh query
        instances (restore assumes empty automata), then restore the
        worker's checkpoint into it.
        """
        for node in self.nodes:
            data = self._site_call(node.site, "snapshot")
            node.reset(self._fresh_queries(node.site))
            node.restore(data)

    def checkpoint_all(self) -> dict[int, bytes]:
        """Checkpoint every site's full state; returns the snapshots.

        Taken automatically at each interval boundary once any crash or
        recovery is scheduled, so :meth:`recover` always restores from
        the most recent boundary.
        """
        for node in self.nodes:
            self._checkpoints[node.site] = self._site_call(node.site, "snapshot")
        return dict(self._checkpoints)

    def fault_overhead_bytes(self) -> int:
        """Bytes spent on retransmits + acks (0 on reliable transports)."""
        return self.network.fault_overhead_bytes()

    def _snapshot(self, time: int) -> ClusterSnapshot:
        by_site: dict[int, list[EPC]] = {}
        for tag, site in self._current_site.items():
            by_site.setdefault(site, []).append(tag)
        merged: dict[EPC, EPC | None] = {}
        known: set[EPC] = set()
        for site in sorted(by_site):
            tags = by_site[site]
            merged.update(self._site_call(site, "containment_probe", tags))
            known.update(tags)
        if self.strategy == "none":
            # Without ONS traffic, ownership falls to the latest seen set.
            for node in self.nodes:
                known.update(self._site_call(node.site, "seen"))
        return ClusterSnapshot(time, merged, known)

    # -- metrics -----------------------------------------------------------

    @property
    def migrations(self) -> list[MigrationEvent]:
        """All tag-level hand-offs, in global (time, dst, src) order."""
        merged = [m for node in self.nodes for m in node.migrations_in]
        merged.sort(key=lambda m: (m.time, m.dst, m.src, m.tag))
        return merged

    def containment_error(self, truth: GroundTruth) -> float:
        """Mean containment error across interval snapshots.

        Each snapshot is scored over the items any site has seen by
        then, against the ground truth just before the snapshot time
        (clamped at 0 for a degenerate time-0 snapshot).
        """
        scores = []
        for snap in self.snapshots:
            items = [t for t in snap.known if t.kind is TagKind.ITEM]
            if not items:
                continue
            at_time = max(snap.time - 1, 0)
            scores.append(
                containment_error_rate(truth, snap.containment, at_time, items)
            )
        return float(np.mean(scores)) if scores else 0.0

    def detected_changes(self):
        """Change points pooled across sites."""
        out = []
        for node in self.nodes:
            out.extend(node.service.changes)
        return out

    def communication_bytes(self) -> int:
        return self.network.total_bytes()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
