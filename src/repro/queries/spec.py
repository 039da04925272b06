"""Declarative query specs: the CQL+SEQ AST compiled plans are built from.

A monitoring query is no longer a hand-written class; it is a *spec* —
a small AST mirroring the paper's query syntax (§2, Appendix B) —
handed to the :mod:`repro.queries.compiler`:

* :class:`Stream` — a named input stream (``events``, ``sensors``);
* :class:`Where` — a ``Where`` clause over one stream (declarative
  :class:`Predicate` values, so identical clauses are recognizably
  identical across queries);
* :class:`Latest` — the ``[Partition By k Rows 1]`` window;
* :class:`JoinLatest` — ``S [Now] ⋈ R`` against such a window, with a
  declarative projection (``Select Rstream(...)``);
* :class:`KleeneDuration` — the global ``Pattern SEQ(A+)`` block with a
  minimum-span firing condition and explicit run-break inputs;
* :class:`RouteConformance` — the tracking query's per-object route
  automaton (§1), the second global block kind.

Every node carries a structural :meth:`~Node.signature`. Two nodes with
equal signatures compute the same thing, which is what lets the
compiler's multi-query optimizer instantiate a shared sub-plan once per
site (§4.2's shared local processing): Q1 and Q2 registered together
share one frozen-product filter, one temperature window, and one
events × latest-temperature join. Context objects (the product catalog,
route tables) participate by identity — two specs share sub-plans only
when they reference the *same* catalog.

The split the paper's Appendix B prescribes falls out of the node
kinds: everything below a global block (:class:`KleeneDuration`,
:class:`RouteConformance`) is per-site local processing whose operators
stay put; the global blocks hold per-object automaton state that
migrates with the objects.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

from repro.sim.tags import EPC, TagKind
from repro.streams.state import RowCodec

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.queries.batch import Rows
    from repro.workloads.catalog import ProductCatalog

__all__ = [
    "Node",
    "Stream",
    "Where",
    "Latest",
    "JoinLatest",
    "KleeneDuration",
    "RouteConformance",
    "QuerySpec",
    "Predicate",
    "Compare",
    "Not",
    "And",
    "IsFrozenProduct",
    "ContainerIsFreezer",
    "KindIs",
    "TypeConflict",
]


def _sig(value: Any) -> Any:
    """Signature of one node field.

    Nodes and codecs contribute their structural signature; context
    objects (catalogs, route tables — anything unhashable) contribute
    their identity, so sharing only unifies sub-plans built over the
    same live object.
    """
    if isinstance(value, (Node, Predicate)):
        return value.signature()
    if isinstance(value, RowCodec):
        return value.signature()
    if isinstance(value, tuple):
        return tuple(_sig(v) for v in value)
    try:
        hash(value)
    except TypeError:
        return ("id", id(value))
    return value


class _Signed:
    """Shared ``signature()``: class name + per-field signatures."""

    def signature(self) -> tuple:
        fields = getattr(self, "__dataclass_fields__", {})
        return (type(self).__name__,) + tuple(
            _sig(getattr(self, name)) for name in fields
        )


# -- predicates ------------------------------------------------------------


class Predicate(_Signed):
    """A declarative boolean clause evaluated on one tuple.

    ``mask`` is the clause's columnar form — one boolean per row of a
    batch (:class:`~repro.queries.batch.Rows`). A subclass that does not
    override it inherits the fallback: the rows are materialized and
    ``__call__`` runs on each.
    """

    def __call__(self, item: Any) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def mask(self, rows: "Rows") -> np.ndarray:
        return np.fromiter(
            (bool(self(item)) for item in rows.objects()), dtype=bool, count=len(rows)
        )


_OPS: dict[str, Callable[[Any, Any], bool]] = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
}


@dataclass(frozen=True)
class Compare(Predicate):
    """``field <op> value`` — e.g. ``Compare("temp", ">", 0.0)``."""

    field: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def __call__(self, item: Any) -> bool:
        return _OPS[self.op](getattr(item, self.field), self.value)

    def mask(self, rows: "Rows") -> np.ndarray:
        if rows.kinds[self.field] == "epc" or not isinstance(self.value, (int, float)):
            return super().mask(rows)
        return _OPS[self.op](rows.cols[self.field], self.value)


@dataclass(frozen=True, eq=False)
class Not(Predicate):
    """Negation of an inner predicate."""

    inner: Predicate

    def __call__(self, item: Any) -> bool:
        return not self.inner(item)

    def mask(self, rows: "Rows") -> np.ndarray:
        return ~rows.mask_of(self.inner)


@dataclass(frozen=True, eq=False)
class And(Predicate):
    """Conjunction of clauses (empty conjunction is true)."""

    clauses: tuple[Predicate, ...]

    def __call__(self, item: Any) -> bool:
        return all(clause(item) for clause in self.clauses)

    def mask(self, rows: "Rows") -> np.ndarray:
        out = np.ones(len(rows), dtype=bool)
        for clause in self.clauses:
            out &= rows.mask_of(clause)
        return out


@dataclass(frozen=True, eq=False)
class IsFrozenProduct(Predicate):
    """Catalog join: the tuple's tag names a frozen product (§2)."""

    catalog: ProductCatalog
    field: str = "tag"

    def __call__(self, item: Any) -> bool:
        return self.catalog.is_frozen_product(getattr(item, self.field))

    def mask(self, rows: "Rows") -> np.ndarray:
        return rows.map_distinct(self.field, self.catalog.is_frozen_product)


@dataclass(frozen=True, eq=False)
class ContainerIsFreezer(Predicate):
    """Q1's ``R.container IsA 'freezer'`` clause."""

    catalog: ProductCatalog
    field: str = "container"

    def __call__(self, item: Any) -> bool:
        return self.catalog.is_freezer(getattr(item, self.field))

    def mask(self, rows: "Rows") -> np.ndarray:
        return rows.map_distinct(self.field, self.catalog.is_freezer)


@dataclass(frozen=True)
class KindIs(Predicate):
    """The tuple's tag is of one packaging level (case, item, pallet)."""

    kind: TagKind
    field: str = "tag"

    def __call__(self, item: Any) -> bool:
        tag: EPC = getattr(item, self.field)
        return tag.kind is self.kind

    def mask(self, rows: "Rows") -> np.ndarray:
        return rows.map_distinct(self.field, lambda tag: tag.kind is self.kind)


@dataclass(frozen=True, eq=False)
class TypeConflict(Predicate):
    """Two tags on one tuple carry incompatible product types.

    ``conflicts`` is a frozenset of unordered type pairs (each pair a
    frozenset of two type names). The co-location monitor uses it to
    flag e.g. ``{"frozen", "chemical"}`` sharing a storage location.
    """

    catalog: ProductCatalog
    conflicts: frozenset
    left: str = "tag"
    right: str = "other"

    def __call__(self, item: Any) -> bool:
        a = getattr(item, self.left)
        b = getattr(item, self.right)
        if a == b:
            return False
        pair = frozenset(
            (self.catalog.product_type(a), self.catalog.product_type(b))
        )
        return pair in self.conflicts

    def mask(self, rows: "Rows") -> np.ndarray:
        # Product types as small ints (one catalog lookup per distinct
        # tag), then one conflict-table lookup per row.
        names: dict[str, int] = {}

        def type_id(tag: EPC) -> int:
            return names.setdefault(self.catalog.product_type(tag), len(names))

        left = rows.map_distinct(self.left, type_id, dtype=np.int64)
        right = rows.map_distinct(self.right, type_id, dtype=np.int64)
        table = np.array(
            [[frozenset((a, b)) in self.conflicts for b in names] for a in names],
            dtype=bool,
        ).reshape(len(names), len(names))
        different = rows.cols[self.left] != rows.cols[self.right]
        return different & table[left, right]


# -- plan nodes ------------------------------------------------------------


class Node(_Signed):
    """Base class for spec AST nodes."""


@dataclass(frozen=True)
class Stream(Node):
    """A named input stream; the runtime feeds ``events`` (inferred
    :class:`~repro.core.events.ObjectEvent`) and ``sensors``
    (:class:`~repro.sim.sensors.SensorReading`)."""

    name: str


@dataclass(frozen=True, eq=False)
class Where(Node):
    """Forward source tuples satisfying a predicate."""

    source: Node
    predicate: Predicate


@dataclass(frozen=True, eq=False)
class Latest(Node):
    """``source [Partition By key Rows 1]`` — newest tuple per key.

    ``codec`` describes the row layout so site checkpoints can
    serialize the relation; windows referenced only transiently may
    omit it.
    """

    source: Node
    key: tuple[str, ...]
    codec: RowCodec | None = None


@dataclass(frozen=True, eq=False)
class JoinLatest(Node):
    """``source [Now] ⋈ window`` with a declarative projection.

    ``probe`` names the stream-tuple fields matched against the
    window's partition key. ``select`` is the Rstream projection: a
    tuple of ``(output_field, "left.x" | "right.y")`` pairs building
    the joined output row.
    """

    source: Node
    window: Latest
    probe: tuple[str, ...]
    select: tuple[tuple[str, str], ...]


@dataclass(frozen=True, eq=False)
class KleeneDuration(Node):
    """The global ``Pattern SEQ(A+)`` block (Appendix B).

    Qualifying tuples arrive from ``source``; tuples from any
    ``resets`` node break the partition's run (the pattern's negative
    condition). ``key`` partitions the automaton — a single field for
    per-object patterns (Q1/Q2's ``tag``), a composite for e.g. the
    dwell monitor's ``(tag, site, place)``; the *first* component must
    be the object tag, because that is what migration is keyed by.
    """

    source: Node
    key: tuple[str, ...]
    time: str
    value: str
    duration: int
    resets: tuple[Node, ...] = ()
    max_values: int = 64
    max_gap: int | None = None


@dataclass(frozen=True, eq=False)
class RouteConformance(Node):
    """The tracking query's global block: per-object route progress.

    ``routes`` maps monitored tags to their intended site sequence;
    the automaton raises one alert the first time an object shows up
    at a site that is neither the current nor the next step.
    """

    source: Node
    routes: Mapping[EPC, tuple[int, ...]]
    key: str = "tag"
    time: str = "time"
    site: str = "site"


@dataclass(eq=False)
class QuerySpec(_Signed):
    """One continuous query: a name, one global block, named handles.

    ``output`` is the query's global pattern block (its alerts are the
    query's answers). ``labels`` names interesting nodes so facades and
    tests can reach the compiled operator instances (e.g. Q1 labels its
    temperature window ``temperature`` and its pattern ``pattern``).
    """

    name: str
    output: Node
    labels: dict[str, Node] = field(default_factory=dict)
