"""Compiling query specs into shared, migratable operator plans.

The :class:`QueryEngine` is one site's operator runtime. Registering a
:class:`~repro.queries.spec.QuerySpec` lowers it into a DAG of
push-based incremental operators (:mod:`repro.streams.operators`) and
returns a :class:`CompiledPlan` — the uniform handle the rest of the
system talks to:

* **multi-query optimization** — operators are hash-consed on their
  structural signature, so identical local sub-plans across registered
  queries (Q1/Q2's frozen-product filter, temperature window, and
  events × latest-temperature join) are instantiated exactly once and
  shared; the engine counts built vs shared instances and the site
  runtime surfaces the totals in the communication ledger;
* **plan placement** — each plan splits into per-site *local* operators
  (filters, windows, joins: they stay put) and *global* pattern blocks
  (``SEQ(A+)`` automata, route conformance) whose per-object state
  migrates with the objects (Appendix B);
* **a uniform state protocol** — every compiled plan implements
  :class:`~repro.queries.protocol.QueryState`:
  ``export_state``/``import_state`` move one object's automaton state
  between sites on the byte formats Table 5 accounts, and
  ``snapshot_state``/``restore_state`` serialize the whole plan
  (automata, alert logs, window relations) for site checkpoints. The
  wire layouts are the ones the original hand-written queries
  established, so compiled plans are byte-compatible with them —
  the equivalence suite asserts it bit for bit.

**Two ways in.** :meth:`QueryEngine.push` dispatches one tuple through
the operator DAG and defines what a plan computes.
:meth:`QueryEngine.push_batch` takes a whole boundary's tuples — the
inference run's event columns plus the interval's sensor readings —
and computes the same thing (alerts and their order, migration and
checkpoint bytes, window tables) with the local plane as numpy column
operations and the global blocks fed only the rows that can change
them; :mod:`repro.queries.batch` has the execution model. The site
runtime uses the batch form.

**Join timing.** When a join's probe side and its window's build side
share an upstream operator (the co-location monitor joins events
against the latest event per storage location), window updates are
wired at :data:`~repro.streams.operators.WINDOW_UPDATE_PRIORITY` so a
tuple probes the relation *as of the previous instant* before being
folded in — CQL's pre-update ``[Now]`` semantics, deterministic
regardless of registration order.
"""

from __future__ import annotations

import struct
from operator import attrgetter
from typing import Any, Callable, Hashable, Iterable, NamedTuple

from repro._util.encoding import ByteReader, ByteWriter
from repro.core.events import EventLog, ObjectEvent
from repro.queries.batch import STREAM_SCHEMAS, BatchProgram, EpcCodes, row_type
from repro.queries.spec import (
    JoinLatest,
    KleeneDuration,
    Latest,
    Node,
    QuerySpec,
    RouteConformance,
    Stream,
    Where,
)
from repro.sim.sensors import SensorReading
from repro.sim.tags import EPC, read_epc, write_epc
from repro.streams.operators import (
    WINDOW_UPDATE_PRIORITY,
    Filter,
    LatestByKey,
    NowJoin,
    Operator,
)
from repro.streams.pattern import KleeneDurationPattern
from repro.streams.state import (
    decode_pattern_state,
    encode_pattern_state,
    read_pattern_state,
    snapshot_pattern,
    restore_pattern,
    write_pattern_state,
)

__all__ = [
    "QueryEngine",
    "CompiledPlan",
    "CompiledPattern",
    "RouteAutomaton",
    "DeclarativeQuery",
    "DeviationAlert",
    "STREAM_TYPES",
]

#: stream name → tuple type the runtime feeds it with.
STREAM_TYPES: dict[str, type] = {
    name: row for name, (row, _) in STREAM_SCHEMAS.items()
}


def _getter(fields: tuple[str, ...]) -> Callable[[Any], Hashable]:
    """Attribute getter: scalar for one field, tuple for several."""
    return attrgetter(*fields) if len(fields) > 1 else attrgetter(fields[0])


class _SourceOp(Operator):
    """Entry point of one named stream; forwards every pushed tuple."""

    def push(self, item: Any) -> None:
        self.emit(item)


# -- global blocks ---------------------------------------------------------


class CompiledPattern:
    """One compiled ``SEQ(A+)`` block: automaton + state codecs.

    Partition keys are the object tag alone (Q1/Q2) or a composite
    ``(tag, int, ...)`` whose first component is the tag (the dwell
    monitor). Migration is keyed by tag: simple-key patterns use the
    raw Table-5 wire format the hand-written queries established;
    composite-key patterns frame every partition belonging to the tag.
    """

    def __init__(self, node: KleeneDuration) -> None:
        self.node = node
        self.key_fn = _getter(node.key)
        self.time_fn = attrgetter(node.time)
        self.simple_key = len(node.key) == 1
        self.pattern = KleeneDurationPattern(
            key_fn=self.key_fn,
            time_fn=self.time_fn,
            value_fn=attrgetter(node.value),
            duration=node.duration,
            max_values=node.max_values,
            max_gap=node.max_gap,
        )

    # -- wiring ---------------------------------------------------------

    def on_reset(self, item: Any) -> None:
        """A run-break tuple: discard the partition's partial match."""
        self.pattern.reset_key(self.key_fn(item), self.time_fn(item))

    # -- answers ---------------------------------------------------------

    @property
    def alerts(self) -> list:
        return self.pattern.alerts

    def alert_pairs(self) -> list[tuple[Hashable, int]]:
        return [(alert.key, alert.end_time) for alert in self.pattern.alerts]

    @property
    def states(self) -> dict:
        return self.pattern.states

    # -- per-object migration (QueryState) --------------------------------

    def _partitions_of(self, tag: EPC) -> list:
        return sorted(key for key in self.pattern.states if key[0] == tag)

    def export_key_state(self, tag: EPC) -> bytes | None:
        if self.simple_key:
            state = self.pattern.export_state(tag)
            return None if state is None else encode_pattern_state(state)
        partitions = self._partitions_of(tag)
        if not partitions:
            return None
        writer = ByteWriter()
        writer.varint(len(partitions))
        for key in partitions:
            for component in key[1:]:
                writer.svarint(component)
            write_pattern_state(writer, self.pattern.states[key])
        return writer.getvalue()

    def absorb_key_state(self, tag: EPC, data: bytes) -> None:
        if self.simple_key:
            self.pattern.absorb_state(tag, decode_pattern_state(data))
            return
        arity = len(self.node.key) - 1
        reader = ByteReader(data)
        try:
            for _ in range(reader.varint()):
                components = tuple(reader.svarint() for _ in range(arity))
                state = read_pattern_state(reader)
                self.pattern.absorb_state((tag, *components), state)
        except (EOFError, struct.error, IndexError) as exc:
            raise ValueError(f"malformed pattern partition bundle: {exc}") from exc

    # -- checkpoint section (QueryState) ----------------------------------

    def _write_key(self, writer: ByteWriter, key: Hashable) -> None:
        if self.simple_key:
            write_epc(writer, key)
        else:
            write_epc(writer, key[0])
            for component in key[1:]:
                writer.svarint(component)

    def _read_key(self, reader: ByteReader) -> Hashable:
        if self.simple_key:
            return read_epc(reader)
        tag = read_epc(reader)
        return (tag, *(reader.svarint() for _ in range(len(self.node.key) - 1)))

    def write_snapshot(self, writer: ByteWriter) -> None:
        writer.blob(snapshot_pattern(self.pattern, write_key=self._write_key))

    def read_snapshot(self, reader: ByteReader) -> None:
        restore_pattern(self.pattern, reader.blob(), read_key=self._read_key)


class DeviationAlert(NamedTuple):
    """An object observed off its intended route."""

    tag: EPC
    time: int
    site: int
    expected: tuple[int, ...]


class _RouteProgress:
    """Per-object tracking state (migrates with the object)."""

    __slots__ = ("position", "deviated", "history")

    def __init__(
        self, position: int = 0, deviated: bool = False,
        history: list[int] | None = None,
    ) -> None:
        self.position = position
        self.deviated = deviated
        self.history = history if history is not None else []

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _RouteProgress)
            and (self.position, self.deviated, self.history)
            == (other.position, other.deviated, other.history)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"_RouteProgress({self.position}, {self.deviated}, {self.history})"
        )


class RouteAutomaton(Operator):
    """The tracking query's global block: route conformance per object.

    Raises one alert the first time an object shows up at a site that
    is neither the current nor the next step of its intended route.
    State and alert wire formats are the ones the hand-written
    :class:`PathDeviationQuery` established.
    """

    def __init__(self, node: RouteConformance) -> None:
        super().__init__()
        self.routes: dict[EPC, tuple[int, ...]] = dict(node.routes)
        self.progress: dict[EPC, _RouteProgress] = {}
        self.alerts: list[DeviationAlert] = []
        self._tag = attrgetter(node.key)
        self._time = attrgetter(node.time)
        self._site = attrgetter(node.site)

    def push(self, event: Any) -> None:
        tag = self._tag(event)
        route = self.routes.get(tag)
        if route is None:
            return
        state = self.progress.setdefault(tag, _RouteProgress())
        if state.deviated:
            return
        site = self._site(event)
        if not state.history or state.history[-1] != site:
            state.history.append(site)
        if state.position < len(route) and site == route[state.position]:
            return  # still at the expected site
        if state.position + 1 < len(route) and site == route[state.position + 1]:
            state.position += 1  # advanced to the next expected site
            return
        state.deviated = True
        expected = route[state.position : state.position + 2]
        alert = DeviationAlert(tag, self._time(event), site, expected)
        self.alerts.append(alert)
        self.emit(alert)

    def path_of(self, tag: EPC) -> list[int]:
        """Sites visited so far (the "list the path taken" query)."""
        state = self.progress.get(tag)
        return list(state.history) if state is not None else []

    # -- answers ---------------------------------------------------------

    def alert_pairs(self) -> list[tuple[Hashable, int]]:
        return [(alert.tag, alert.time) for alert in self.alerts]

    @property
    def states(self) -> dict:
        return self.progress

    # -- per-object migration (QueryState) --------------------------------

    def export_key_state(self, tag: EPC) -> bytes | None:
        state = self.progress.get(tag)
        if state is None:
            return None
        writer = ByteWriter()
        writer.varint(state.position)
        writer.varint(1 if state.deviated else 0)
        writer.varint(len(state.history))
        for site in state.history:
            writer.varint(site)
        return writer.getvalue()

    def absorb_key_state(self, tag: EPC, data: bytes) -> None:
        """Merge migrated route progress with any local observations.

        The previous site's history precedes anything seen locally, so
        its sites are prepended; progress keeps the furthest position
        and an established deviation stays established.
        """
        reader = ByteReader(data)
        try:
            position = reader.varint()
            deviated = bool(reader.varint())
            history = [reader.varint() for _ in range(reader.varint())]
        except EOFError as exc:
            raise ValueError(f"malformed route state: {exc}") from exc
        state = self.progress.setdefault(tag, _RouteProgress())
        state.position = max(state.position, position)
        state.deviated = state.deviated or deviated
        merged = list(history)
        for site in state.history:
            if not merged or merged[-1] != site:
                merged.append(site)
        state.history = merged

    # -- checkpoint section (QueryState) ----------------------------------

    def write_snapshot(self, writer: ByteWriter) -> None:
        writer.varint(len(self.progress))
        for tag in sorted(self.progress):
            state = self.progress[tag]
            write_epc(writer, tag)
            writer.varint(state.position)
            writer.varint(1 if state.deviated else 0)
            writer.varint(len(state.history))
            for site in state.history:
                writer.svarint(site)
        writer.varint(len(self.alerts))
        for alert in self.alerts:
            write_epc(writer, alert.tag)
            writer.varint(alert.time)
            writer.svarint(alert.site)
            writer.varint(len(alert.expected))
            for site in alert.expected:
                writer.svarint(site)

    def read_snapshot(self, reader: ByteReader) -> None:
        progress: dict[EPC, _RouteProgress] = {}
        for _ in range(reader.varint()):
            tag = read_epc(reader)
            position = reader.varint()
            deviated = bool(reader.varint())
            history = [reader.svarint() for _ in range(reader.varint())]
            progress[tag] = _RouteProgress(position, deviated, history)
        alerts: list[DeviationAlert] = []
        for _ in range(reader.varint()):
            tag = read_epc(reader)
            time = reader.varint()
            site = reader.svarint()
            expected = tuple(reader.svarint() for _ in range(reader.varint()))
            alerts.append(DeviationAlert(tag, time, site, expected))
        self.progress = progress
        self.alerts = alerts


# -- the compiled plan -----------------------------------------------------


class CompiledPlan:
    """One registered query, lowered onto (possibly shared) operators.

    Implements the :class:`~repro.queries.protocol.QueryState` protocol
    uniformly for every spec: migration moves per-object state of the
    plan's *global* blocks; checkpoints serialize each stateful
    operator's self-delimiting section in a fixed order (global blocks
    in declaration order, then windows in spec-traversal order) — for
    Q1/Q2/tracking that is exactly the hand-written byte layout.
    """

    def __init__(
        self,
        spec: QuerySpec,
        global_ops: list,
        windows: list[LatestByKey],
        labels: dict[str, Any],
    ) -> None:
        self.spec = spec
        self.name = spec.name
        self.global_ops = global_ops
        self.windows = windows
        self.stateful = list(global_ops) + list(windows)
        self.labels = labels

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledPlan({self.name!r}, {len(self.global_ops)} global, "
            f"{len(self.windows)} windows)"
        )

    # -- answers ---------------------------------------------------------

    @property
    def alerts(self) -> list:
        if len(self.global_ops) == 1:
            return self.global_ops[0].alerts
        return [alert for op in self.global_ops for alert in op.alerts]

    def alert_pairs(self) -> list[tuple[Hashable, int]]:
        return [pair for op in self.global_ops for pair in op.alert_pairs()]

    def active_states(self) -> dict:
        """Per-object automaton states currently held (for sharing)."""
        out: dict = {}
        for op in self.global_ops:
            out.update(op.states)
        return out

    # -- QueryState: per-object migration ---------------------------------

    def export_state(self, tag: EPC) -> bytes | None:
        """Serialize one object's global-block state for migration."""
        if len(self.global_ops) == 1:
            return self.global_ops[0].export_key_state(tag)
        writer = ByteWriter()
        any_state = False
        for op in self.global_ops:
            raw = op.export_key_state(tag)
            if raw is None:
                writer.varint(0)
            else:
                any_state = True
                writer.varint(1)
                writer.blob(raw)
        return writer.getvalue() if any_state else None

    def import_state(self, tag: EPC, data: bytes) -> None:
        """Absorb a migrated state (merging with local partial state)."""
        if len(self.global_ops) == 1:
            self.global_ops[0].absorb_key_state(tag, data)
            return
        reader = ByteReader(data)
        try:
            for op in self.global_ops:
                if reader.varint():
                    op.absorb_key_state(tag, reader.blob())
        except (EOFError, struct.error, IndexError) as exc:
            raise ValueError(f"malformed plan state bundle: {exc}") from exc

    # -- QueryState: site checkpoints -------------------------------------

    def snapshot_state(self) -> bytes:
        writer = ByteWriter()
        for op in self.stateful:
            op.write_snapshot(writer)
        return writer.getvalue()

    def restore_state(self, data: bytes) -> None:
        reader = ByteReader(data)
        try:
            for op in self.stateful:
                op.read_snapshot(reader)
        except ValueError:
            raise
        except (EOFError, struct.error, IndexError) as exc:
            raise ValueError(f"malformed plan snapshot: {exc}") from exc


# -- the engine ------------------------------------------------------------


class QueryEngine:
    """One site's operator runtime: registry, sharing, dispatch."""

    def __init__(self) -> None:
        #: structural signature → live operator instance.
        self._ops: dict[tuple, Any] = {}
        self.sources: dict[str, _SourceOp] = {}
        #: registered stream tuple type → source operator.
        self._by_type: dict[type, _SourceOp] = {}
        #: exact pushed type → resolved source (isinstance semantics,
        #: like the stream scheduler; ``None`` caches a miss).
        self._dispatch: dict[type, _SourceOp | None] = {}
        self.plans: dict[str, CompiledPlan] = {}
        #: every ``(spec node, operator)`` lowered so far, parents first
        #: — what :class:`~repro.queries.batch.BatchProgram` lays out.
        self.plan_steps: list[tuple[Node, Any]] = []
        #: EPC ↔ int codes of the batch path's tag-valued columns.
        self.codes = EpcCodes()
        self._program: BatchProgram | None = None
        #: operator instances actually created.
        self.operators_built = 0
        #: cross-query cache hits (a later registration reusing an
        #: operator an earlier one built) — the multi-query optimization
        #: counter the ledger surfaces.
        self.operators_shared = 0

    def register(self, spec: QuerySpec) -> CompiledPlan:
        """Lower ``spec`` onto the engine's shared operator pool."""
        plan = _PlanBuilder(self).build(spec)
        self.plans[spec.name] = plan
        self._program = None  # laid out again on the next batch
        return plan

    def operator_of(self, node: Node) -> Any:
        """The (shared) operator instance ``node`` was lowered onto."""
        return self._ops[node.signature()]

    def push(self, item: Any) -> None:
        """Dispatch one stream tuple to its source operator (once,
        regardless of how many plans consume the stream).

        Dispatch is by exact type with a cached isinstance fallback,
        so subclasses of a stream's tuple type reach the stream — the
        same semantics hand-written queries get from the scheduler's
        per-type routes. Tuples matching no registered stream are
        dropped.
        """
        kind = type(item)
        try:
            source = self._dispatch[kind]
        except KeyError:
            source = next(
                (
                    src
                    for base, src in self._by_type.items()
                    if issubclass(kind, base)
                ),
                None,
            )
            self._dispatch[kind] = source
        if source is not None:
            source.emit(item)

    def push_batch(
        self,
        events: "EventLog | Iterable[ObjectEvent]",
        sensors: Iterable[SensorReading] = (),
    ) -> None:
        """Dispatch one batch of both streams — each in time order —
        to every registered plan at once.

        Equivalent, bit for bit (alerts and their order, every plan's
        migration and checkpoint bytes, window tables), to merging the
        two streams by time, sensors first at equal timestamps, and
        pushing the tuples through :meth:`push` one by one; but the local plane
        runs as numpy column operations and the scalar global blocks see
        only the rows that can change them (see
        :mod:`repro.queries.batch`). ``events`` may be the inference
        service's columnar :class:`~repro.core.events.EventLog` or any
        sequence of event tuples.
        """
        if self._program is None:
            self._program = BatchProgram(self)
        self._program.push(events, sensors)


class _PlanBuilder:
    """One registration pass: instantiates, wires, and records ops."""

    def __init__(self, engine: QueryEngine) -> None:
        self.engine = engine
        #: signatures that existed before this registration began —
        #: hits against them are cross-query sharing.
        self._preexisting = set(engine._ops)
        self.global_ops: list = []
        self.windows: list[LatestByKey] = []
        self._window_ids: set[int] = set()

    def build(self, spec: QuerySpec) -> CompiledPlan:
        self._instantiate(spec.output)
        labels = {
            label: self._instantiate(node) for label, node in spec.labels.items()
        }
        return CompiledPlan(spec, self.global_ops, self.windows, labels)

    def _instantiate(self, node: Node) -> Any:
        signature = node.signature()
        op = self.engine._ops.get(signature)
        if op is not None:
            if signature in self._preexisting:
                self.engine.operators_shared += 1
                self._preexisting.discard(signature)  # count once per plan
            self._record(node, op)
            # A cached node's entire sub-DAG is necessarily cached too;
            # walk it anyway (without rewiring) so this plan records
            # every window/global block it transitively consumes — its
            # checkpoint must cover shared state it depends on — and so
            # the sharing gauge counts the whole reused sub-plan.
            for child in self._children(node):
                self._instantiate(child)
            return op
        op = self._create(node)
        self.engine._ops[signature] = op
        self.engine.plan_steps.append((node, op))
        self.engine.operators_built += 1
        self._record(node, op)
        return op

    @staticmethod
    def _children(node: Node) -> tuple[Node, ...]:
        if isinstance(node, (Where, Latest, RouteConformance)):
            return (node.source,)
        if isinstance(node, JoinLatest):
            return (node.source, node.window)
        if isinstance(node, KleeneDuration):
            return (node.source, *node.resets)
        return ()

    def _record(self, node: Node, op: Any) -> None:
        if isinstance(node, Latest) and id(op) not in self._window_ids:
            self._window_ids.add(id(op))
            self.windows.append(op)
        elif isinstance(node, (KleeneDuration, RouteConformance)):
            if op not in self.global_ops:
                self.global_ops.append(op)

    def _create(self, node: Node) -> Any:
        if isinstance(node, Stream):
            if node.name not in STREAM_TYPES:
                raise ValueError(f"unknown stream {node.name!r}")
            source = _SourceOp()
            self.engine.sources[node.name] = source
            self.engine._by_type[STREAM_TYPES[node.name]] = source
            self.engine._dispatch.clear()  # new stream may claim cached misses
            return source
        if isinstance(node, Where):
            parent = self._instantiate(node.source)
            op = Filter(node.predicate)
            parent.subscribe(op)
            return op
        if isinstance(node, Latest):
            parent = self._instantiate(node.source)
            op = LatestByKey(_getter(node.key), codec=node.codec)
            # Updates run after same-instant join probes ([Now] is
            # evaluated against the pre-update relation).
            parent.subscribe(op, priority=WINDOW_UPDATE_PRIORITY)
            return op
        if isinstance(node, JoinLatest):
            parent = self._instantiate(node.source)
            window = self._instantiate(node.window)
            row = row_type(tuple(name for name, _ in node.select))
            plan = []
            for _, path in node.select:
                side, _, field = path.partition(".")
                if side not in ("left", "right") or not field:
                    raise ValueError(f"malformed projection path {path!r}")
                plan.append((side == "left", field))

            def combine(left: Any, right: Any, _plan=tuple(plan), _row=row):
                return _row(
                    *(
                        getattr(left if is_left else right, field)
                        for is_left, field in _plan
                    )
                )

            op = NowJoin(window, _getter(node.probe), combine)
            parent.subscribe(op)
            return op
        if isinstance(node, KleeneDuration):
            parent = self._instantiate(node.source)
            block = CompiledPattern(node)
            parent.subscribe(block.pattern)
            for reset_node in node.resets:
                self._instantiate(reset_node).subscribe(block.on_reset)
            return block
        if isinstance(node, RouteConformance):
            parent = self._instantiate(node.source)
            op = RouteAutomaton(node)
            parent.subscribe(op)
            return op
        raise ValueError(f"unknown spec node {type(node).__name__}")


# -- facade base -----------------------------------------------------------


class DeclarativeQuery:
    """Base facade: a spec compiled standalone, re-bindable into a
    site's shared engine.

    Constructed, the query owns a private :class:`QueryEngine` so it
    can be driven directly (``on_event``/``on_sensor``) by schedulers,
    benchmarks, and tests. A :class:`~repro.runtime.node.SiteNode`
    instead calls :meth:`bind` to recompile the spec into the site's
    shared engine — multi-query optimization happens there — and from
    then on drives the engine, not the facade. The facade keeps
    answering through whatever plan it is currently bound to.
    """

    def __init__(self, spec: QuerySpec) -> None:
        self.spec = spec
        self._engine = QueryEngine()
        self._plan = self._engine.register(spec)

    def bind(self, engine: QueryEngine) -> CompiledPlan:
        """Recompile into ``engine`` (dropping any standalone state)."""
        self._plan = engine.register(self.spec)
        self._engine = engine
        return self._plan

    @property
    def plan(self) -> CompiledPlan:
        return self._plan

    # -- stream handlers (standalone driving) ------------------------------

    def on_event(self, event: ObjectEvent) -> None:
        self._engine.push(event)

    def on_sensor(self, reading: SensorReading) -> None:
        self._engine.push(reading)

    # -- answers ---------------------------------------------------------

    @property
    def alerts(self) -> list:
        return self._plan.alerts

    def alert_pairs(self) -> list[tuple[Hashable, int]]:
        return self._plan.alert_pairs()

    def active_states(self) -> dict:
        return self._plan.active_states()

    # -- QueryState (delegated) -------------------------------------------

    def export_state(self, tag: EPC) -> bytes | None:
        return self._plan.export_state(tag)

    def import_state(self, tag: EPC, data: bytes) -> None:
        self._plan.import_state(tag, data)

    def snapshot_state(self) -> bytes:
        return self._plan.snapshot_state()

    def restore_state(self, data: bytes) -> None:
        self._plan.restore_state(data)
