"""The ``[Partition By key Rows 1]`` window relation (CQL subset).

A compiled plan's windows are :class:`LatestByKey` relations: the newest
tuple per key, held as a table. The columnar executor
(:mod:`repro.queries.batch`) probes them with :meth:`LatestByKey.lookup`
and folds each batch into :attr:`LatestByKey.table` once the batch is
done; site checkpoints serialize them through the snapshot hooks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Hashable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro._util.encoding import ByteReader, ByteWriter
    from repro.streams.state import RowCodec

__all__ = ["LatestByKey"]


class LatestByKey:
    """``[Partition By key Rows 1]``: newest tuple per key, as a table.

    When built by the plan compiler the window carries a
    :class:`~repro.streams.state.RowCodec` so site checkpoints can
    serialize the relation exactly (rows sorted by key); a window
    without one cannot be checkpointed.
    """

    def __init__(
        self,
        key_fn: Callable[[Any], Hashable],
        codec: "RowCodec | None" = None,
    ) -> None:
        self.key_fn = key_fn
        self.codec = codec
        self.table: dict[Hashable, Any] = {}

    def lookup(self, key: Hashable) -> Any | None:
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
        table: dict[Hashable, Any] = {}
        for _ in range(reader.varint()):
            row = self.codec.read(reader)
            table[self.key_fn(row)] = row
        self.table = table
