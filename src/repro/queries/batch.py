"""Columnar execution of a site's compiled plans over one batch.

:meth:`QueryEngine.push_batch <repro.queries.compiler.QueryEngine.push_batch>`
hands a boundary's tuples — the inference run's event columns and the
interval's sensor readings — to :class:`BatchProgram`, which computes
exactly what pushing the same tuples one at a time would, without
touching most of them in Python:

* **Arrival rank.** The two streams merge by time, sensors before
  events at equal time (the stream engine's tie-break); a tuple's
  position in that merge is its *rank*. Every operator's output over
  the batch is a :class:`Rows`: columns plus the rank of the source
  tuple each row came from.
* **The local plane is numpy.** ``Where`` is a boolean mask
  (:meth:`Predicate.mask <repro.queries.spec.Predicate.mask>`, cached
  per input by signature so ``Where(x, P)`` and ``Where(x, Not(P))``
  evaluate ``P`` once; catalog predicates run once per distinct tag).
  ``JoinLatest`` is a sort-merge as-of join: a probe row matches the
  latest build row of its key that arrived before it — at equal rank
  the probe comes first whenever the tuple-at-a-time DAG would visit
  the join before the window update, which the compiler's subscription
  priorities guarantee for a shared upstream — else the row the window
  carried in from earlier batches. ``Latest`` keeps only each key's
  last row, written to the window table once the batch is done.
* **Global blocks stay scalar** and see only the rows that can change
  them, in arrival order (ties in DAG visit order): a ``SEQ(A+)`` block
  gets its push rows plus the reset rows of objects that hold state or
  are pushed in this batch; a route automaton gets each object's first
  row and its site changes.
* **Fallback.** A predicate without a columnar ``mask`` is evaluated on
  materialized rows, and a subscriber the compiler did not wire (a
  plain callable on a plan operator) is fed materialized rows — for
  that operator only.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.core.events import EventLog, ObjectEvent, change_rows
from repro.queries.spec import (
    JoinLatest,
    KleeneDuration,
    Latest,
    Predicate,
    RouteConformance,
    Stream,
    Where,
)
from repro.sim.sensors import SensorReading
from repro.sim.tags import EPC

__all__ = ["BatchProgram", "EpcCodes", "Rows", "STREAM_SCHEMAS", "row_type"]

#: stream name → (tuple type the runtime feeds it with, column kinds).
#: At equal timestamps tuples of an earlier stream arrive first (the
#: stream engine's tie-break: sensors before the events that probe them).
STREAM_SCHEMAS: dict[str, tuple[type, dict[str, str]]] = {
    "sensors": (
        SensorReading,
        {"time": "int", "site": "int", "sensor": "int", "temp": "float"},
    ),
    "events": (
        ObjectEvent,
        {"time": "int", "tag": "epc", "site": "int", "place": "int", "container": "epc"},
    ),
}

#: combined keys stay below this so mixed-radix products fit an int64.
_KEY_LIMIT = 2**62


@lru_cache(maxsize=None)
def row_type(names: tuple[str, ...]) -> type:
    """Cached output-row type for one join projection."""
    return namedtuple("Row", names)


class EpcCodes:
    """Engine-wide EPC ↔ int code table; ``None`` is code ``-1``.

    Codes exist so EPC-valued columns are plain int64 arrays that
    compare, sort and join like any other; they never leave the engine.
    """

    def __init__(self) -> None:
        self.epcs: list[EPC] = []
        self._codes: dict[EPC | None, int] = {None: -1}

    def encode(self, values: Iterable[EPC | None]) -> np.ndarray:
        codes, epcs = self._codes, self.epcs
        out = []
        for value in values:
            code = codes.get(value)
            if code is None:
                code = codes[value] = len(epcs)
                epcs.append(value)
            out.append(code)
        return np.array(out, dtype=np.int64)

    def decode(self, codes: np.ndarray) -> list[EPC | None]:
        table = [*self.epcs, None]  # code -1 reads the trailing None
        return [table[code] for code in codes.tolist()]


class Rows:
    """One operator's output over a batch: named columns plus ranks.

    ``kinds`` names each column ``"int"``, ``"float"`` or ``"epc"`` (an
    int64 column of :class:`EpcCodes` codes); ``make`` builds the row
    object a tuple-at-a-time push would have carried, from one value
    per column in column order.
    """

    __slots__ = ("rank", "cols", "kinds", "make", "codes", "_objects", "_masks")

    def __init__(
        self,
        rank: np.ndarray,
        cols: dict[str, np.ndarray],
        kinds: dict[str, str],
        make: Callable[..., Any],
        codes: EpcCodes,
    ) -> None:
        self.rank = rank
        self.cols = cols
        self.kinds = kinds
        self.make = make
        self.codes = codes
        self._objects: list | None = None
        self._masks: dict[tuple, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.rank)

    def take(self, index: np.ndarray) -> "Rows":
        """The rows a boolean mask or an index array selects."""
        return Rows(
            self.rank[index],
            {name: col[index] for name, col in self.cols.items()},
            self.kinds,
            self.make,
            self.codes,
        )

    def values(self, field: str, index: np.ndarray | None = None) -> list:
        """One column (optionally only ``index`` rows) as Python values."""
        col = self.cols[field] if index is None else self.cols[field][index]
        return self.codes.decode(col) if self.kinds[field] == "epc" else col.tolist()

    def objects(self) -> list:
        """The rows as the tuples a one-at-a-time push would carry."""
        if self._objects is None:
            self._objects = list(map(self.make, *(self.values(f) for f in self.cols)))
        return self._objects

    def mask_of(self, predicate: Predicate) -> np.ndarray:
        """``predicate`` over these rows, evaluated once per signature."""
        signature = predicate.signature()
        mask = self._masks.get(signature)
        if mask is None:
            mask = self._masks[signature] = predicate.mask(self)
        return mask

    def map_distinct(
        self, field: str, fn: Callable[[Any], Any], dtype: type = bool
    ) -> np.ndarray:
        """``fn(value)`` per row of one column, calling ``fn`` once per
        distinct value (catalog lookups by tag)."""
        col = self.cols[field]
        if self.kinds[field] != "epc":
            distinct, inverse = np.unique(col, return_inverse=True)
            results = [fn(value) for value in distinct.tolist()]
            return np.array(results, dtype=dtype)[inverse]
        # Codes are dense, so "which occur" is a table scatter, not a sort.
        table = [*self.codes.epcs, None]
        present = np.zeros(len(table), dtype=bool)
        present[col] = True
        lookup = np.zeros(len(table), dtype=dtype)
        for code in np.flatnonzero(present).tolist():
            lookup[code] = fn(table[code])
        return lookup[col]


def _stream_columns(name: str, items: Any, codes: EpcCodes) -> dict[str, np.ndarray]:
    """One stream's batch as columns: an inference :class:`EventLog`
    is taken column by column, anything else as a sequence of row
    tuples."""
    _, kinds = STREAM_SCHEMAS[name]
    if isinstance(items, EventLog):
        parts: dict[str, list[np.ndarray]] = {field: [] for field in kinds}
        for batch in items.batches:
            table = codes.encode([*batch.epcs, None])  # container -1 reads the None
            parts["time"].append(batch.time)
            parts["tag"].append(table[batch.tag])
            parts["site"].append(batch.site)
            parts["place"].append(batch.place)
            parts["container"].append(table[batch.container])
        return {
            field: np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
            for field, pieces in parts.items()
        }
    items = list(items)
    cols = {}
    for field, kind in kinds.items():
        values = [getattr(item, field) for item in items]
        if kind == "epc":
            cols[field] = codes.encode(values)
        else:
            cols[field] = np.array(values, dtype=np.int64 if kind == "int" else np.float64)
    return cols


def _row_keys(columns: Sequence[np.ndarray]) -> np.ndarray:
    """One int64 per row; two rows agree on it iff they agree on every
    column (mixed radix over each column's value range, re-densified
    through ``np.unique`` whenever a range or the product gets wide)."""

    def dense(values: np.ndarray) -> tuple[np.ndarray, int]:
        if values.dtype.kind == "i":
            low, high = int(values.min()), int(values.max())
            if high - low < 2**31:
                return values - low, high - low + 1
        values = np.unique(values, return_inverse=True)[1]
        return values, int(values.max()) + 1

    if len(columns[0]) == 0:
        return np.empty(0, dtype=np.int64)
    key, total = dense(columns[0])
    for column in columns[1:]:
        values, span = dense(column)
        if total * span >= _KEY_LIMIT:
            key, total = dense(key)
        key, total = key * span + values, total * span
    return key


def _latest_before(
    key: np.ndarray,
    probe_rank: np.ndarray,
    build_rank: np.ndarray,
    build_first: bool,
) -> np.ndarray:
    """For each probe row, the index of the latest build row with its
    key that arrived before it (``-1``: none in this batch).

    ``key`` holds the probe rows' keys followed by the build rows'. At
    equal rank (one source tuple on both sides) the probe precedes the
    build row unless ``build_first``.
    """
    n_probe, n_build = len(probe_rank), len(build_rank)
    total = n_probe + n_build
    # Each row's position in the rank-ordered merge of the two sides.
    position = np.empty(total, dtype=np.int64)
    position[:n_probe] = np.arange(n_probe) + np.searchsorted(
        build_rank, probe_rank, side="right" if build_first else "left"
    )
    position[n_probe:] = np.arange(n_build) + np.searchsorted(
        probe_rank, build_rank, side="left" if build_first else "right"
    )
    arrival = np.empty(total, dtype=np.int64)
    arrival[position] = np.arange(total)
    order = arrival[np.argsort(key[arrival], kind="stable")]  # by (key, arrival)
    sorted_key = key[order]
    is_build = order >= n_probe
    slots = np.arange(total)
    new_key = np.ones(total, dtype=bool)
    new_key[1:] = sorted_key[1:] != sorted_key[:-1]
    group_start = np.maximum.accumulate(np.where(new_key, slots, 0))
    last_build = np.maximum.accumulate(np.where(is_build, slots, -1))
    found = last_build >= group_start
    match = np.where(found, order[np.maximum(last_build, 0)] - n_probe, -1)
    out = np.empty(n_probe, dtype=np.int64)
    out[order[~is_build]] = match[~is_build]
    return out


class BatchProgram:
    """An engine's operator DAG, laid out for batch execution.

    Built from the engine's ``(node, operator)`` pairs in creation
    order (parents first). ``visit`` gives every wired subscription its
    position in the depth-first walk a single pushed tuple takes
    through the DAG — what orders same-rank calls into a global block,
    and a join probe against its window's same-rank update.
    """

    def __init__(self, engine: Any) -> None:
        self.engine = engine
        self.steps: list[tuple[Any, Any]] = list(engine.plan_steps)
        op_of = engine.operator_of
        #: (id(parent op), id(receiver), method) -> the local operator
        #: behind a wired subscription (None: a global block's input).
        wired: dict[tuple[int, int, str], Any] = {}
        for node, op in self.steps:
            if isinstance(node, (Where, Latest, JoinLatest)):
                wired[(id(op_of(node.source)), id(op), "push")] = op
            elif isinstance(node, RouteConformance):
                wired[(id(op_of(node.source)), id(op), "push")] = None
            elif isinstance(node, KleeneDuration):
                wired[(id(op_of(node.source)), id(op.pattern), "push")] = None
                for reset in node.resets:
                    wired[(id(op_of(reset)), id(op), "on_reset")] = None
        self.visit: dict[tuple[int, int, str], int] = {}
        #: id(op) -> subscribers the compiler did not wire.
        self.foreign: dict[int, list[Callable[[Any], None]]] = {}

        def walk(op: Any) -> None:
            for _, _, target in op._subscribers:
                edge = (
                    id(op),
                    id(getattr(target, "__self__", None)),
                    getattr(target, "__name__", ""),
                )
                if edge not in wired:
                    self.foreign.setdefault(id(op), []).append(target)
                    continue
                self.visit[edge] = len(self.visit)
                if wired[edge] is not None:
                    walk(wired[edge])

        for node, op in self.steps:
            if isinstance(node, Stream):
                walk(op)

    # -- one batch ----------------------------------------------------------

    def push(self, events: Any, sensors: Any) -> None:
        """Execute every registered plan over one batch: each stream's
        tuples in time order, the two merged by time with sensors first
        at equal time."""
        codes = self.engine.codes
        sensors = _stream_columns("sensors", sensors, codes)
        events = _stream_columns("events", events, codes)
        # Rank = position in the stable merge of the two streams.
        ranks = {
            "sensors": np.arange(len(sensors["time"]))
            + np.searchsorted(events["time"], sensors["time"], side="left"),
            "events": np.arange(len(events["time"]))
            + np.searchsorted(sensors["time"], events["time"], side="right"),
        }
        feeds = {}
        for name, cols in (("sensors", sensors), ("events", events)):
            make, kinds = STREAM_SCHEMAS[name]
            feeds[name] = Rows(ranks[name], cols, kinds, make, codes)
        op_of = self.engine.operator_of
        out: dict[int, Rows] = {}
        updates: list[tuple[Any, Rows, tuple[str, ...]]] = []
        blocks: list[tuple[Any, Any]] = []
        for node, op in self.steps:
            if isinstance(node, Stream):
                rows = feeds[node.name]
            elif isinstance(node, Where):
                source = out[id(op_of(node.source))]
                rows = source.take(source.mask_of(node.predicate))
            elif isinstance(node, Latest):
                rows = out[id(op_of(node.source))]
                updates.append((op, rows, node.key))
            elif isinstance(node, JoinLatest):
                rows = self._join(node, op, out)
            else:
                blocks.append((node, op))
                continue
            out[id(op)] = rows
            for sink in self.foreign.get(id(op), ()):
                for item in rows.objects():
                    sink(item)
        # Global blocks read no local state, so running them after the
        # local plane equals interleaving them with it.
        for node, op in blocks:
            if isinstance(node, KleeneDuration):
                self._run_pattern(node, op, out)
            else:
                self._run_route(node, op, out[id(op_of(node.source))])
        # Joins probed the tables as carried in; fold the batch in now:
        # only each key's last row survives a Rows-1 window.
        for op, rows, key in updates:
            if len(rows) == 0:
                continue
            keys = _row_keys([rows.cols[field] for field in key])
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            last = np.ones(len(order), dtype=bool)
            last[:-1] = keys[1:] != keys[:-1]
            for item in rows.take(np.sort(order[last])).objects():
                op.table[op.key_fn(item)] = item

    def _join(self, node: JoinLatest, op: Any, out: dict[int, Rows]) -> Rows:
        """``source [Now] ⋈ window`` over the batch (see module docs)."""
        op_of = self.engine.operator_of
        window = op_of(node.window)
        probe = out[id(op_of(node.source))]
        build = out[id(window)]
        n_probe = len(probe)
        key = _row_keys(
            [
                np.concatenate([probe.cols[mine], build.cols[theirs]])
                for mine, theirs in zip(node.probe, node.window.key)
            ]
        )
        update_edge = (id(op_of(node.window.source)), id(window), "push")
        probe_edge = (id(op_of(node.source)), id(op), "push")
        match = _latest_before(
            key,
            probe.rank,
            build.rank,
            build_first=self.visit[update_edge] < self.visit[probe_edge],
        )
        in_batch = match >= 0
        # Probes nothing in the batch answers fall back to the table
        # carried in: one lookup per distinct key.
        carried = np.flatnonzero(~in_batch)
        hits: list = []
        hit_of = np.empty(0, dtype=np.int64)
        if len(carried) and window.table:
            _, first, hit_of = np.unique(
                key[carried], return_index=True, return_inverse=True
            )
            fields = [probe.values(field, carried[first]) for field in node.probe]
            lookups = zip(*fields) if len(fields) > 1 else fields[0]
            hits = [window.lookup(value) for value in lookups]
            answered = np.array([hit is not None for hit in hits])[hit_of]
            carried, hit_of = carried[answered], hit_of[answered]
        else:
            carried = carried[:0]
        keep = in_batch.copy()
        keep[carried] = True
        cols: dict[str, np.ndarray] = {}
        kinds: dict[str, str] = {}
        for name, path in node.select:
            side, _, field = path.partition(".")
            if side == "left":
                cols[name], kinds[name] = probe.cols[field][keep], probe.kinds[field]
                continue
            kind = kinds[name] = build.kinds[field]
            col = np.empty(n_probe, dtype=build.cols[field].dtype)
            col[in_batch] = build.cols[field][match[in_batch]]
            if len(carried):
                values = [None if hit is None else getattr(hit, field) for hit in hits]
                if kind == "epc":
                    table = self.engine.codes.encode(values)
                else:
                    table = np.array(
                        [0 if value is None else value for value in values],
                        dtype=col.dtype,
                    )
                col[carried] = table[hit_of]
            cols[name] = col[keep]
        return Rows(probe.rank[keep], cols, kinds, row_type(tuple(cols)), self.engine.codes)

    def _run_pattern(self, node: KleeneDuration, block: Any, out: dict[int, Rows]) -> None:
        """Feed one ``SEQ(A+)`` block the rows that can change it."""
        op_of = self.engine.operator_of
        pattern = block.pattern
        source = op_of(node.source)
        pushes = out[id(source)]
        inputs = [(pushes, self.visit[(id(source), id(pattern), "push")], pattern.push)]
        if node.resets:
            # A reset only matters for a partition that holds state: one
            # carried in, or one a push of this batch creates. Partition
            # keys lead with the object, so filter on that column.
            lead = node.key[0]
            held = [key if block.simple_key else key[0] for key in pattern.states]
            if pushes.kinds[lead] == "epc":
                held = self.engine.codes.encode(held)
            live = np.concatenate([pushes.cols[lead], np.asarray(held, dtype=pushes.cols[lead].dtype)])
            for reset in node.resets:
                parent = op_of(reset)
                rows = out[id(parent)]
                inputs.append(
                    (
                        rows.take(np.isin(rows.cols[lead], live)),
                        self.visit[(id(parent), id(block), "on_reset")],
                        block.on_reset,
                    )
                )
        _call_in_arrival_order(inputs)

    def _run_route(self, node: RouteConformance, automaton: Any, rows: Rows) -> None:
        """Feed a route automaton each monitored object's first row and
        its site changes — repeats of the previous site are no-ops."""
        rows = rows.take(rows.map_distinct(node.key, automaton.routes.__contains__))
        rows = rows.take(change_rows(rows.cols[node.key], rows.cols[node.site]))
        for item in rows.objects():
            automaton.push(item)


def _call_in_arrival_order(
    inputs: list[tuple[Rows, int, Callable[[Any], None]]]
) -> None:
    """Call each input's sink on its rows, all inputs interleaved by
    arrival rank (same-rank rows in DAG visit order)."""
    if len(inputs) == 1:
        rows, _, sink = inputs[0]
        for item in rows.objects():
            sink(item)
        return
    rank = np.concatenate([rows.rank for rows, _, _ in inputs])
    visit = np.concatenate([np.full(len(rows), edge) for rows, edge, _ in inputs])
    calls = [(sink, item) for rows, _, sink in inputs for item in rows.objects()]
    for index in np.lexsort((visit, rank)).tolist():
        sink, item = calls[index]
        sink(item)
