"""Push-based relational stream operators (CQL subset).

Each operator receives tuples via :meth:`push` and forwards derived
tuples to its subscribers. This tuple-at-a-time form *defines* the
semantics, and is what hand-wired pipelines and
:meth:`QueryEngine.push <repro.queries.compiler.QueryEngine.push>`
drive; a site's runtime does not feed compiled plans this way. It hands
each boundary's tuples to
:meth:`QueryEngine.push_batch <repro.queries.compiler.QueryEngine.push_batch>`,
which evaluates ``Filter``/``LatestByKey``/``NowJoin`` sub-plans as
column operations over the whole batch (:mod:`repro.queries.batch`) and
must reproduce, bit for bit, what pushing the tuples through these
operators one by one would have produced — window tables included. The
subset implemented here is what the paper's monitoring queries use:

* ``Filter`` / ``Map`` — stateless selection and projection;
* ``LatestByKey`` — the ``[Partition By k Rows 1]`` window: a relation
  holding the newest tuple per key;
* ``NowJoin`` — the ``[Now]`` window joined against such a relation
  (each arriving stream tuple probes the table, Rstream semantics).

**Subscription priorities.** ``subscribe`` takes an optional integer
priority; lower priorities see each tuple first, ties preserve
subscription order. The plan compiler uses this to give ``[Now]`` join
probes CQL's pre-update semantics when the probe side and the build
side of a join share an upstream operator: joins subscribe at the
default priority 0, window *updates* at :data:`WINDOW_UPDATE_PRIORITY`,
so a tuple probes the relation as of the previous instant before being
folded into it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generic, Hashable, TypeVar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro._util.encoding import ByteReader, ByteWriter
    from repro.streams.state import RowCodec

T = TypeVar("T")
U = TypeVar("U")

__all__ = [
    "Operator",
    "Filter",
    "Map",
    "LatestByKey",
    "NowJoin",
    "WINDOW_UPDATE_PRIORITY",
]

#: priority window updates subscribe at (after default-0 subscribers),
#: giving join probes the pre-update relation at equal instants.
WINDOW_UPDATE_PRIORITY = 1


class Operator(Generic[T]):
    """Base class wiring push-based subscription."""

    def __init__(self) -> None:
        #: (priority, sequence, sink) kept sorted; sequence breaks ties
        #: by subscription order.
        self._subscribers: list[tuple[int, int, Callable[[Any], None]]] = []
        self._sub_seq = 0

    def subscribe(
        self, sink: "Operator | Callable[[Any], None]", priority: int = 0
    ) -> "Operator":
        """Register a downstream operator (or plain callable)."""
        target = sink.push if isinstance(sink, Operator) else sink
        self._subscribers.append((priority, self._sub_seq, target))
        self._sub_seq += 1
        self._subscribers.sort(key=lambda entry: entry[:2])
        return self

    def emit(self, item: Any) -> None:
        for _, _, sink in self._subscribers:
            sink(item)

    def push(self, item: T) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class Filter(Operator[T]):
    """Forward tuples satisfying a predicate."""

    def __init__(self, predicate: Callable[[T], bool]) -> None:
        super().__init__()
        self.predicate = predicate

    def push(self, item: T) -> None:
        if self.predicate(item):
            self.emit(item)


class Map(Operator[T]):
    """Forward a derived tuple for every input tuple."""

    def __init__(self, fn: Callable[[T], U]) -> None:
        super().__init__()
        self.fn = fn

    def push(self, item: T) -> None:
        self.emit(self.fn(item))


class LatestByKey(Operator[T]):
    """``[Partition By key Rows 1]``: newest tuple per key, as a table.

    When built by the plan compiler the window carries a
    :class:`~repro.streams.state.RowCodec` so site checkpoints can
    serialize the relation exactly (rows sorted by key); a window built
    by hand stays checkpoint-free until one is attached.
    """

    def __init__(
        self,
        key_fn: Callable[[T], Hashable],
        codec: "RowCodec | None" = None,
    ) -> None:
        super().__init__()
        self.key_fn = key_fn
        self.codec = codec
        self.table: dict[Hashable, T] = {}

    def push(self, item: T) -> None:
        self.table[self.key_fn(item)] = item
        self.emit(item)

    def lookup(self, key: Hashable) -> T | None:
        return self.table.get(key)

    def __len__(self) -> int:
        return len(self.table)

    # -- checkpoint hooks (QueryState sections) -----------------------------

    def write_snapshot(self, writer: "ByteWriter") -> None:
        """Append the relation to a checkpoint: count, then rows in
        sorted key order (the wire layout Q1's hand-written snapshot
        established)."""
        if self.codec is None:
            raise ValueError("window has no row codec; cannot checkpoint")
        writer.varint(len(self.table))
        for key in sorted(self.table):
            self.codec.write(writer, self.table[key])

    def read_snapshot(self, reader: "ByteReader") -> None:
        """Inverse of :meth:`write_snapshot` (replaces the table)."""
        if self.codec is None:
            raise ValueError("window has no row codec; cannot restore")
        table: dict[Hashable, T] = {}
        for _ in range(reader.varint()):
            row = self.codec.read(reader)
            table[self.key_fn(row)] = row
        self.table = table


class NowJoin(Operator[T]):
    """``S [Now] ⋈ R``: each stream tuple probes a table and, if the
    probe succeeds, emits ``combine(stream_tuple, table_tuple)``."""

    def __init__(
        self,
        table: LatestByKey,
        probe_key: Callable[[T], Hashable],
        combine: Callable[[T, Any], Any],
        where: Callable[[T, Any], bool] | None = None,
    ) -> None:
        super().__init__()
        self.table = table
        self.probe_key = probe_key
        self.combine = combine
        self.where = where

    def push(self, item: T) -> None:
        match = self.table.lookup(self.probe_key(item))
        if match is None:
            return
        if self.where is not None and not self.where(item, match):
            return
        self.emit(self.combine(item, match))
