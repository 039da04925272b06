"""The tuple-at-a-time operator DAG — the compiled plans' oracle.

A spec lowered onto push-based operators: every tuple walks the DAG
depth first, each operator forwarding what it derives to its
subscribers. This is the direct reading of the CQL text the columnar
executor (:meth:`QueryEngine.push_batch
<repro.queries.compiler.QueryEngine.push_batch>`) must reproduce bit
for bit — alerts and their order, migration and checkpoint bytes,
window tables.

* :class:`Operator` — subscription with priorities: lower priorities
  see each tuple first, ties keep subscription order;
* :class:`Filter`, :class:`Window` (the ``[Partition By k Rows 1]``
  update), :class:`NowJoin` (``S [Now] ⋈ R``);
* :func:`merge_by_time` / :class:`StreamScheduler` — the time-ordered
  merge of several streams, stable at equal times;
* :class:`ScalarEngine` — a spec lowered with hash-consed operators,
  one tuple at a time through :meth:`ScalarEngine.push`.

**Join timing.** Window updates subscribe at
:data:`WINDOW_UPDATE_PRIORITY`, after a join probing the same upstream
tuple: the probe reads the relation as of the previous instant (CQL's
pre-update ``[Now]``).

The global blocks (``SEQ(A+)`` automata, route conformance), the window
relation and the state codecs are shared with ``src/``; nothing here
comes from :mod:`repro.queries.batch`.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from functools import lru_cache
from operator import attrgetter
from typing import Any, Callable, Hashable, Iterable, Iterator

from repro.core.events import ObjectEvent
from repro.queries.compiler import CompiledPattern, CompiledPlan, RouteAutomaton
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
from repro.streams.operators import LatestByKey

__all__ = [
    "WINDOW_UPDATE_PRIORITY",
    "Operator",
    "Filter",
    "Window",
    "NowJoin",
    "merge_by_time",
    "StreamScheduler",
    "ScalarEngine",
    "drive",
]

#: priority window updates subscribe at (after default-0 subscribers),
#: giving join probes the pre-update relation at equal instants.
WINDOW_UPDATE_PRIORITY = 1

#: stream name → the tuple type pushed into it.
STREAM_TYPES = {"events": ObjectEvent, "sensors": SensorReading}


class Operator:
    """Push-based subscription: ``emit`` calls every sink in
    (priority, subscription) order."""

    def __init__(self) -> None:
        self._subscribers: list[tuple[int, int, Callable[[Any], None]]] = []

    def subscribe(self, sink: Callable[[Any], None], priority: int = 0) -> None:
        self._subscribers.append((priority, len(self._subscribers), sink))
        self._subscribers.sort(key=lambda entry: entry[:2])

    def emit(self, item: Any) -> None:
        for _, _, sink in self._subscribers:
            sink(item)

    def push(self, item: Any) -> None:
        self.emit(item)


class Filter(Operator):
    """Forward tuples satisfying a predicate."""

    def __init__(self, predicate: Callable[[Any], bool]) -> None:
        super().__init__()
        self.predicate = predicate

    def push(self, item: Any) -> None:
        if self.predicate(item):
            self.emit(item)


class Window(Operator, LatestByKey):
    """A ``[Partition By key Rows 1]`` relation updated tuple by tuple:
    each pushed tuple replaces its key's row, then passes through."""

    def __init__(self, key_fn: Callable[[Any], Hashable], codec: Any = None) -> None:
        Operator.__init__(self)
        LatestByKey.__init__(self, key_fn, codec)

    def push(self, item: Any) -> None:
        self.table[self.key_fn(item)] = item
        self.emit(item)


class NowJoin(Operator):
    """``S [Now] ⋈ R``: each stream tuple probes a relation and, on a
    hit, emits ``combine(stream_tuple, relation_row)``."""

    def __init__(
        self,
        table: LatestByKey,
        probe_key: Callable[[Any], Hashable],
        combine: Callable[[Any, Any], Any],
    ) -> None:
        super().__init__()
        self.table = table
        self.probe_key = probe_key
        self.combine = combine

    def push(self, item: Any) -> None:
        match = self.table.lookup(self.probe_key(item))
        if match is not None:
            self.emit(self.combine(item, match))


def merge_by_time(*streams: Iterable[Any]) -> Iterator[Any]:
    """Merge time-sorted streams. Stable: at equal times an earlier
    argument's tuples come first, and each stream keeps its order —
    ``merge_by_time(sensors, events)`` puts a reading before the events
    of its epoch."""
    return heapq.merge(*streams, key=lambda item: item.time)


class StreamScheduler:
    """Drive handlers over merged streams, by tuple type (isinstance)."""

    def __init__(self) -> None:
        self._routes: list[tuple[type, Callable[[Any], None]]] = []

    def route(self, kind: type, handler: Callable[[Any], None]) -> "StreamScheduler":
        self._routes.append((kind, handler))
        return self

    def run(self, *streams: Iterable[Any]) -> int:
        count = 0
        for item in merge_by_time(*streams):
            for kind, handler in self._routes:
                if isinstance(item, kind):
                    handler(item)
            count += 1
        return count


def drive(query: Any, events: Iterable[Any], sensors: Iterable[Any] = ()) -> Any:
    """Feed a hand-written query (``on_event``/``on_sensor``) the merged
    streams, sensors first at equal times."""
    scheduler = StreamScheduler().route(ObjectEvent, query.on_event)
    on_sensor = getattr(query, "on_sensor", None)
    if on_sensor is not None:
        scheduler.route(SensorReading, on_sensor)
    scheduler.run(sensors, events)
    return query


def _getter(fields: tuple[str, ...]) -> Callable[[Any], Hashable]:
    return attrgetter(*fields) if len(fields) > 1 else attrgetter(fields[0])


@lru_cache(maxsize=None)
def _row_type(names: tuple[str, ...]) -> type:
    return namedtuple("Row", names)


class ScalarEngine:
    """Specs lowered onto one pool of shared push operators.

    Operators are hash-consed on the node signature, so a sub-plan two
    registered specs have in common is built once and every tuple
    passes it once. Registration returns the same
    :class:`~repro.queries.compiler.CompiledPlan` handle the columnar
    engine returns, over this engine's operators.
    """

    def __init__(self) -> None:
        self._ops: dict[tuple, Any] = {}
        self.sources: dict[type, Operator] = {}
        self.plans: dict[str, CompiledPlan] = {}

    def register(self, spec: QuerySpec) -> CompiledPlan:
        global_ops: list = []
        windows: list = []

        def record(node: Node, op: Any) -> None:
            if isinstance(node, Latest) and not any(op is w for w in windows):
                windows.append(op)
            elif isinstance(node, (KleeneDuration, RouteConformance)):
                if not any(op is g for g in global_ops):
                    global_ops.append(op)

        def instantiate(node: Node) -> Any:
            op = self._ops.get(node.signature())
            if op is None:
                op = self._ops[node.signature()] = self._create(node, instantiate)
                record(node, op)
                return op
            record(node, op)
            # A shared node's sub-DAG exists already; walk it so the
            # plan records every window and block it depends on.
            for child in _children(node):
                instantiate(child)
            return op

        instantiate(spec.output)
        labels = {label: instantiate(node) for label, node in spec.labels.items()}
        plan = self.plans[spec.name] = CompiledPlan(spec, global_ops, windows, labels)
        return plan

    def operator_of(self, node: Node) -> Any:
        return self._ops[node.signature()]

    def push(self, item: Any) -> None:
        """One tuple into the stream its type belongs to."""
        for kind, source in self.sources.items():
            if isinstance(item, kind):
                source.push(item)

    def _create(self, node: Node, instantiate: Callable[[Node], Any]) -> Any:
        if isinstance(node, Stream):
            source = Operator()
            self.sources[STREAM_TYPES[node.name]] = source
            return source
        if isinstance(node, Where):
            op = Filter(node.predicate)
            instantiate(node.source).subscribe(op.push)
            return op
        if isinstance(node, Latest):
            parent = instantiate(node.source)
            op = Window(_getter(node.key), codec=node.codec)
            parent.subscribe(op.push, priority=WINDOW_UPDATE_PRIORITY)
            return op
        if isinstance(node, JoinLatest):
            parent = instantiate(node.source)
            window = instantiate(node.window)
            row = _row_type(tuple(name for name, _ in node.select))
            plan = tuple(
                (path.startswith("left."), path.partition(".")[2])
                for _, path in node.select
            )

            def combine(left: Any, right: Any) -> Any:
                return row(
                    *(getattr(left if is_left else right, f) for is_left, f in plan)
                )

            op = NowJoin(window, _getter(node.probe), combine)
            parent.subscribe(op.push)
            return op
        if isinstance(node, KleeneDuration):
            parent = instantiate(node.source)
            block = CompiledPattern(node)
            parent.subscribe(block.pattern.push)
            for reset in node.resets:
                instantiate(reset).subscribe(block.on_reset)
            return block
        if isinstance(node, RouteConformance):
            parent = instantiate(node.source)
            automaton = RouteAutomaton(node)
            parent.subscribe(automaton.push)
            return automaton
        raise ValueError(f"unknown spec node {type(node).__name__}")


def _children(node: Node) -> tuple[Node, ...]:
    if isinstance(node, (Where, Latest, RouteConformance)):
        return (node.source,)
    if isinstance(node, JoinLatest):
        return (node.source, node.window)
    if isinstance(node, KleeneDuration):
        return (node.source, *node.resets)
    return ()
