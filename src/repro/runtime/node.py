"""One site of the federation: inference service + local queries.

A :class:`SiteNode` owns one :class:`~repro.core.service.StreamingInference`
plus the site's registered continuous queries, and *reacts to messages*
instead of being driven by direct calls: a ``migrate-request`` makes it
export and send state, an ``inference-state``/``query-state`` envelope
makes it absorb state. The only locally-driven entry points are
:meth:`advance_to` (the periodic inference tick, dispatched by the
cluster onto this site's execution context) and :meth:`poll_arrivals`
(reading the site's own antennas).

Every handler and tick runs in this node's own execution domain (the
caller's thread, or the OS worker hosting the site under
:class:`~repro.runtime.process.ProcessTransport`), so node state is
single-writer without locks.

**At-least-once delivery.** Every data envelope a node sends carries a
per-``(src, dst)`` link sequence number; the receiver dedups on it, so
replaying a ``migrate-request`` / ``inference-state`` / ``query-state``
envelope is idempotent on any transport. When the bound transport is
*unreliable* (``transport.reliable`` is ``False``) the node additionally
keeps an unacked outbox and acknowledges every delivered data envelope;
the cluster retransmits unacked envelopes at each barrier until the
outbox drains. The result: a lossy, duplicating, reordering network
yields bit-identical inference and query results — only the ledger's
``retransmit``/``ack`` overhead kinds differ.

**Crash recovery.** :meth:`snapshot` serializes everything a site needs
to resume exactly where it was — inference state, per-object query
automaton state, arrival/sensor cursors, delivery cursors, and the
historical archive — and :meth:`restore` rebuilds the node from it (see
:mod:`repro.runtime.checkpoint` for the wire format).

**History.** Each tick's inference output (events, containment
snapshot, posterior top-k, fresh query alerts) is appended to the
site's :class:`~repro.archive.store.SiteArchive`; a ``history-request``
envelope makes the node answer a time-travel query against it through
its :class:`~repro.serving.history.HistoryService`.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Iterable, Mapping

from repro.archive import SiteArchive
from repro.archive.replication import decode_replica_fetch, encode_archive_delta
from repro.core.collapsed import CollapsedState
from repro.core.service import ServiceConfig, StreamingInference
from repro.runtime.envelope import (
    ACK,
    HISTORY_REQUEST,
    HISTORY_RESPONSE,
    INFERENCE_STATE,
    MIGRATE_REQUEST,
    QUERY_STATE,
    REPLICA_FETCH,
    REPLICA_SEGMENTS,
    Envelope,
    MigrationEvent,
    decode_ack,
    decode_query_bundle,
    decode_single_query_state,
    decode_state_bundle,
    decode_tag_list,
    encode_ack,
    encode_query_bundle,
    encode_single_query_state,
    encode_state_bundle,
)
from repro.obs import get_telemetry
from repro.queries.compiler import QueryEngine
from repro.runtime.router import QueryRouter
from repro.runtime.transport import Transport
from repro.serving.history import HistoryService
from repro.serving.wire import (
    HistoryResponse,
    decode_history_request,
    encode_history_response,
)
from repro.sim.tags import EPC
from repro.sim.trace import Trace

__all__ = ["SiteNode"]


def _is_empty_state(state: CollapsedState) -> bool:
    return (
        not state.weights
        and state.container is None
        and state.changed_at is None
    )


class SiteNode:
    """Event-driven runtime for one site."""

    def __init__(
        self,
        trace: Trace,
        config: ServiceConfig | None = None,
        batch_migrations: bool = True,
    ) -> None:
        self.trace = trace
        self.site = trace.site
        self.config = config
        self.service = StreamingInference(trace, config)
        self.batch_migrations = batch_migrations
        self.queries: dict[str, Any] = {}
        #: the site's shared operator runtime: every registered query is
        #: compiled into it, with identical local sub-plans instantiated
        #: once; each boundary's batch enters it once, not once per query.
        self.engine = QueryEngine()
        self.router = QueryRouter(self.queries)
        #: append-only history of this site's inference output, fed at
        #: every boundary; the serving layer's historical queries read it.
        self.archive = SiteArchive(self.site)
        self.history = HistoryService(self.archive)
        #: tags this site has ever observed (arrival detection).
        self.seen: set[EPC] = set()
        #: state hand-offs absorbed *into* this node (tag-level record).
        self.migrations_in: list[MigrationEvent] = []
        #: query-state exports owed after the next tick: (requester, tags).
        self._pending_handoffs: list[tuple[int, list[EPC]]] = []
        self._transport: Transport | None = None
        self._sensors: list[Any] = []
        self._sensor_pos = 0
        self._event_pos = 0
        # -- at-least-once delivery state (per-link) -----------------------
        #: next outgoing sequence number per destination site.
        self._link_tx: dict[int, int] = {}
        #: sequence numbers already applied, per source site (dedup).
        self._link_rx: dict[int, set[int]] = {}
        #: sent-but-unacknowledged envelopes keyed (dst, seq); only
        #: populated on unreliable transports (reliable ones never lose
        #: an envelope, so acks would be pure overhead).
        self._unacked: dict[tuple[int, int], Envelope] = {}
        #: duplicate deliveries suppressed by the dedup layer.
        self.duplicates_dropped = 0

    # -- wiring ---------------------------------------------------------

    def bind(self, transport: Transport) -> None:
        """Register this node as the recipient of its site's envelopes."""
        self._transport = transport
        transport.register(self.site, self.handle)

    def rebind_transport(self, transport: Transport) -> None:
        """Swap the transport this node sends through, *without*
        re-registering its handler.

        Worker processes use this after the fork: the inherited binding
        points at the parent-side transport object, but worker-side
        sends must go to the worker's outbox shim instead (anything
        duck-typing ``send``/``reliable`` is accepted)."""
        self._transport = transport

    # -- crash recovery ---------------------------------------------------

    def reset(self, queries: Mapping[str, Any] | None = None) -> None:
        """Simulate a process restart: drop every piece of volatile state.

        The trace (durable storage), sensor stream, and transport
        binding survive — a restarted site re-reads those — but the
        inference service, cursors, and delivery state do not. Pass
        fresh ``queries`` instances to replace the registered ones (the
        cluster rebuilds them from its registered factories); without
        them the existing instances stay registered. Either way the
        shared query engine is rebuilt and every query is recompiled into
        it with empty automata — a restart loses query state like any
        other volatile state; :meth:`restore` repopulates it from the
        checkpoint.
        """
        self.service = StreamingInference(self.trace, self.config)
        if queries is not None:
            self.queries.clear()
            self.queries.update(queries)
        self.engine = QueryEngine()
        for query in self.queries.values():
            # Rebinds don't re-count the ledger's operator gauges: the
            # site's registered plans are unchanged, only rebuilt.
            self._bind_query(query, account=False)
        self.archive = SiteArchive(self.site)
        self.history = HistoryService(self.archive)
        self.seen = set()
        self.migrations_in = []
        self._pending_handoffs = []
        self._sensor_pos = 0
        self._event_pos = 0
        self._link_tx = {}
        self._link_rx = {}
        self._unacked = {}
        self.duplicates_dropped = 0

    def snapshot(self) -> bytes:
        """Serialize this site's full volatile state (see
        :mod:`repro.runtime.checkpoint` for the format)."""
        from repro.runtime.checkpoint import encode_site_checkpoint

        return encode_site_checkpoint(self)

    def restore(self, data: bytes) -> None:
        """Rebuild state from a :meth:`snapshot` taken at a boundary.

        Resets first (without touching query instances), then
        repopulates the service, cursors, delivery state, and each
        registered query from the checkpoint.
        """
        from repro.runtime.checkpoint import restore_site_checkpoint

        self.reset()
        restore_site_checkpoint(self, data)

    def add_query(self, name: str, query: Any) -> None:
        """Register a continuous query.

        The query must be a declarative facade (a
        :class:`~repro.queries.compiler.DeclarativeQuery`: it exposes a
        ``spec`` and ``bind``); it is compiled into the site's shared
        :class:`QueryEngine`, where identical local sub-plans across
        queries are instantiated once, and its per-object state migrates
        through the :class:`~repro.queries.protocol.QueryState` hooks.
        Anything else raises :class:`TypeError`.
        """
        if getattr(query, "spec", None) is None or not callable(
            getattr(query, "bind", None)
        ):
            raise TypeError(
                f"query {name!r} ({type(query).__name__}) is not declarative: "
                "a site runs only compiled plans (a spec and bind)"
            )
        self.queries[name] = query
        self._bind_query(query)

    def _bind_query(self, query: Any, account: bool = True) -> None:
        """Compile a declarative query into the shared engine and, for
        first-time registrations, surface the sharing gauges in the
        communication ledger (crash-recovery rebinds pass
        ``account=False`` so one site never counts its plans twice)."""
        built_before = self.engine.operators_built
        shared_before = self.engine.operators_shared
        query.bind(self.engine)
        if account and self._transport is not None:
            ledger = self._transport.ledger
            ledger.plan_operators_built += (
                self.engine.operators_built - built_before
            )
            ledger.plan_operators_shared += (
                self.engine.operators_shared - shared_before
            )

    def set_sensor_stream(self, readings: Iterable[Any]) -> None:
        """Provide this site's (time-sorted) sensor stream for queries."""
        self._sensors = sorted(readings, key=lambda r: r.time)
        self._sensor_pos = 0

    # -- local drivers ----------------------------------------------------

    def poll_arrivals(self, lo: int, hi: int) -> list[EPC]:
        """Tags first observed by this site's readers in ``[lo, hi)``."""
        fresh = sorted(set(self.trace.tags_read_in(lo, hi)) - self.seen)
        self.seen.update(fresh)
        return fresh

    def advance_to(self, boundary: int) -> None:
        """One inference tick: run RFINFER, hand the run's event batch
        to the queries, then append it to the historical archive.

        Under a memory budget the boundary ends by truncating the
        service's retained per-run state — after the archive (the spill
        target) has ingested it."""
        record = self.service.run_at(boundary)
        if self.service.online is not None and self._transport is not None:
            self._transport.ledger.note_pruning(
                self.site, record.pruned_tags, record.full_tags
            )
        started = time.perf_counter()
        self._feed_queries(boundary)
        record.phase_seconds["queries"] = time.perf_counter() - started
        started = time.perf_counter()
        self._feed_archive()
        record.phase_seconds["archive"] = time.perf_counter() - started
        tel = get_telemetry()
        if tel.enabled:
            tel.emit_span(
                "site", "queries", record.phase_seconds["queries"],
                site=self.site, boundary=boundary,
            )
            tel.emit_span(
                "archive", "append", record.phase_seconds["archive"],
                site=self.site, boundary=boundary,
                archived_boundary=self.archive.last_boundary,
            )
        self.service.truncate_history()

    def _feed_archive(self) -> None:
        """Capture this boundary's inference output and fresh alerts.

        Iteration is in sorted-query-name order (and the archive ingests
        service state in sorted-tag order), so the archive is a pure
        function of the site's post-tick state — a crash-recovered site
        rebuilds the identical history.
        """
        self.archive.ingest_service(self.service)
        for name in sorted(self.queries):
            alerts = getattr(self.queries[name], "alerts", None)
            if alerts is not None:
                self.archive.ingest_alerts(name, alerts)

    def _feed_queries(self, boundary: int) -> None:
        """Hand the boundary's new tuples — the run's event columns and
        the interval's sensor readings — to the registered queries as
        **one batch**: the shared engine runs its local plane columnar
        and reproduces the time-ordered merge (sensors first at equal
        timestamps) by arrival rank, so no tuple is built for it.
        """
        events, self._event_pos = self.service.events_since(self._event_pos)
        hi = self._sensor_pos
        while hi < len(self._sensors) and self._sensors[hi].time < boundary:
            hi += 1
        sensors = self._sensors[self._sensor_pos : hi]
        self._sensor_pos = hi
        if self.queries and (events or sensors):
            self.engine.push_batch(events, sensors)

    # -- message handling ---------------------------------------------------

    def handle(self, env: Envelope) -> None:
        """React to one delivered envelope.

        Sequenced envelopes pass the at-least-once layer first: an
        ``ack`` retires its outbox entry, and a data sequence number
        already applied is dropped (and re-acked — the original ack may
        have been lost), so duplicated delivery never double-applies
        inference state or re-fires query alerts.
        """
        if env.kind == ACK:
            self._unacked.pop((env.src, decode_ack(env.payload)), None)
            return
        if env.seq:
            seen = self._link_rx.setdefault(env.src, set())
            if env.seq in seen:
                self.duplicates_dropped += 1
                self._ack(env)
                return
            seen.add(env.seq)
        self._dispatch(env)
        if env.seq:
            self._ack(env)

    def _dispatch(self, env: Envelope) -> None:
        if env.kind == MIGRATE_REQUEST:
            self._serve_migration(env.src, decode_tag_list(env.payload), env.time)
        elif env.kind == INFERENCE_STATE:
            self._absorb_inference(env)
        elif env.kind == QUERY_STATE:
            self._absorb_query_state(env)
        elif env.kind == HISTORY_REQUEST:
            self._serve_history(env)
        elif env.kind == REPLICA_FETCH:
            self._serve_replication(env)
        else:
            raise ValueError(f"site {self.site}: unknown message kind {env.kind!r}")

    def _ack(self, env: Envelope) -> None:
        """Acknowledge a delivered data envelope (lossy transports only)."""
        transport = self._require_transport()
        if transport.reliable:
            return
        transport.send(
            Envelope(
                self.site, env.src, ACK, encode_ack(env.seq), env.time, seq=env.seq
            )
        )

    def _require_transport(self) -> Transport:
        if self._transport is None:
            raise RuntimeError(f"site {self.site} is not bound to a transport")
        return self._transport

    def _send(self, env: Envelope) -> None:
        """Stamp the next per-link sequence number and transmit.

        On an unreliable transport the stamped envelope is also parked
        in the unacked outbox; the cluster's barrier retransmits it
        until the destination's ack arrives.
        """
        transport = self._require_transport()
        seq = self._link_tx.get(env.dst, 0) + 1
        self._link_tx[env.dst] = seq
        env = replace(env, seq=seq)
        if not transport.reliable:
            self._unacked[(env.dst, seq)] = env
        transport.send(env)

    def send(self, env: Envelope) -> None:
        """Send one data envelope originating at this site (sequenced)."""
        if env.src != self.site:
            raise ValueError(f"site {self.site} cannot send as site {env.src}")
        self._send(env)

    def unacked_envelopes(self) -> list[Envelope]:
        """Sent-but-unacked envelopes, in deterministic (dst, seq) order."""
        return [self._unacked[key] for key in sorted(self._unacked)]

    def retransmit_unacked(self) -> int:
        """Re-send every unacked envelope; returns how many were re-sent."""
        pending = self.unacked_envelopes()
        transport = self._require_transport()
        for env in pending:
            transport.send(env)
        return len(pending)

    def _serve_migration(self, requester: int, tags: list[EPC], time: int) -> None:
        """Ship inference state now; owe query state after the next tick.

        Inference state must reach the requester *before* its run over
        the arrival interval (§4.1: the migrated weights seed local
        inference). Query-automaton state is freshest *after* this
        site's own run over the departure interval (that run feeds the
        object's final local events to the queries), so it follows in
        the post-tick hand-off phase and merges with whatever partial
        match the new site has formed meanwhile.
        """
        tel = get_telemetry()
        with tel.span(
            "federation", "migrate.export",
            src=self.site, dst=requester, boundary=time,
        ) as span:
            self._export_migration(requester, tags, time, span)
        if self.queries:
            self._pending_handoffs.append((requester, tags))

    def _export_migration(
        self, requester: int, tags: list[EPC], time: int, span
    ) -> None:
        exported = self.service.export_states(tags)
        # An empty state (no weights, no container, no change floor)
        # carries zero information — absorbing it is a no-op — so both
        # modes drop it instead of shipping dead bytes. `migrations`
        # therefore records state actually shipped, identically in
        # batched and per-tag mode.
        states = {
            tag: state.to_bytes()
            for tag, state in exported.items()
            if not _is_empty_state(state)
        }
        span.set(requested=len(tags), shipped=len(states))
        if not states:
            pass
        elif self.batch_migrations:
            self._send(
                Envelope(
                    self.site, requester, INFERENCE_STATE,
                    encode_state_bundle(states), time,
                )
            )
        else:
            for tag in sorted(states):
                self._send(
                    Envelope(self.site, requester, INFERENCE_STATE, states[tag], time)
                )

    def flush_query_handoffs(self, time: int) -> None:
        """Send owed query state (called by the cluster after the tick)."""
        pending, self._pending_handoffs = self._pending_handoffs, []
        tel = get_telemetry()
        for requester, tags in pending:
            per_query = self.router.export(tags)
            if not per_query:
                continue
            with tel.span(
                "federation", "handoff.export",
                src=self.site, dst=requester, boundary=time,
            ) as span:
                if self.batch_migrations:
                    payloads = [encode_query_bundle(per_query)]
                else:
                    payloads = [
                        encode_single_query_state(name, tag, per_query[name][tag])
                        for name in sorted(per_query)
                        for tag in sorted(per_query[name])
                    ]
                for payload in payloads:
                    self._send(
                        Envelope(self.site, requester, QUERY_STATE, payload, time)
                    )
                if tel.enabled:
                    exported = [
                        state
                        for states in per_query.values()
                        for state in states.values()
                    ]
                    span.set(
                        states=len(exported),
                        raw_bytes=sum(map(len, exported)),
                        wire_bytes=sum(map(len, payloads)),
                    )

    def _serve_history(self, env: Envelope) -> None:
        """Answer one historical query against the site's archive.

        Requests are idempotent reads and arrive unsequenced: the
        frontend retransmits until the response lands and dedups on the
        request id, so re-serving a duplicate is harmless — no outbox
        or ack involvement (see :mod:`repro.serving.frontend`). The
        response is likewise unsequenced and accounted under its own
        ledger kind.
        """
        tel = get_telemetry()
        with tel.span("serving", "history.serve", site=self.site) as span:
            request = decode_history_request(env.payload)
            answer = self.history.answer(request)
            span.set(request_id=request.request_id, kind=answer.kind)
            response = HistoryResponse(
                request_id=request.request_id,
                site=self.site,
                as_of=self.archive.last_boundary,
                kind=answer.kind,
                last_update=answer.last_update,
                rows=answer.rows,
            )
            self._require_transport().send(
                Envelope(
                    self.site, env.src, HISTORY_RESPONSE,
                    encode_history_response(response), env.time,
                )
            )

    def _serve_replication(self, env: Envelope) -> None:
        """Answer a read replica's catch-up fetch with an archive delta.

        Like history requests, fetches are idempotent and unsequenced:
        the replica keeps re-fetching (with a fresh fetch id and its
        current cursor) until a delta applies, so a lost response just
        costs one more round. A cursor from before a compaction (or a
        primary restart) falls back to a full-resync delta — see
        :mod:`repro.archive.replication`.
        """
        tel = get_telemetry()
        with tel.span(
            "archive", "replica.serve", site=self.site, dst=env.src
        ) as span:
            fetch_id, cursor = decode_replica_fetch(env.payload)
            delta = encode_archive_delta(self.archive, cursor, fetch_id)
            span.set(fetch_id=fetch_id, delta_bytes=len(delta))
            self._require_transport().send(
                Envelope(self.site, env.src, REPLICA_SEGMENTS, delta, env.time)
            )

    def _absorb_inference(self, env: Envelope) -> None:
        tel = get_telemetry()
        with tel.span(
            "federation", "migrate.absorb",
            src=env.src, dst=self.site, seq=env.seq, boundary=env.time,
        ) as span:
            if self.batch_migrations:
                raw = decode_state_bundle(env.payload)
                arrivals = [
                    (CollapsedState.from_bytes(raw[tag]), len(raw[tag]))
                    for tag in sorted(raw)
                ]
            else:
                arrivals = [(CollapsedState.from_bytes(env.payload), len(env.payload))]
            span.set(states=len(arrivals), payload_bytes=len(env.payload))
            for state, size in arrivals:
                self.service.absorb_state(state)
                self.migrations_in.append(
                    MigrationEvent(state.tag, env.src, self.site, env.time, size)
                )

    def _absorb_query_state(self, env: Envelope) -> None:
        if self.batch_migrations:
            self.router.apply_bundle(decode_query_bundle(env.payload))
        else:
            name, tag, data = decode_single_query_state(env.payload)
            self.router.apply(name, tag, data)
