"""Driving continuous queries over merged, time-ordered streams.

Local query processing consumes the inference-produced object event
stream together with sensor streams (Fig. 3). The scheduler merges any
number of already-sorted streams by timestamp and pushes each tuple to
the interested queries — a minimal but faithful stand-in for a CQL
engine's shared scheduler.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Iterator

__all__ = ["StreamScheduler", "merge_by_time"]


def merge_by_time(*streams: Iterable[Any]) -> Iterator[Any]:
    """Merge time-sorted streams into one time-sorted stream.

    Tie-break contract (explicit, relied upon by callers): the merge is
    *stable*. At equal timestamps, tuples from an earlier argument
    stream precede tuples from a later one, and tuples within one
    stream keep their original order. The site runtime merges
    ``(sensors, events)`` so same-epoch sensor readings land in window
    tables before the object events that probe them — literally for
    hand-written queries, and as the arrival *rank* the batch query
    engine (:mod:`repro.queries.batch`) orders its columns by.
    """
    return heapq.merge(*streams, key=lambda item: item.time)


class StreamScheduler:
    """Routes merged tuples to per-type handlers.

    Dispatch is O(handlers actually interested), not O(registered
    routes): the first tuple of each exact type resolves its handler
    list by one isinstance-compatible scan (``issubclass``, so
    subclasses still match routes registered on a base class) and the
    result is cached in a kind → handlers map; every later tuple of
    that type is a dictionary hit.
    """

    def __init__(self) -> None:
        self._routes: list[tuple[type, Callable[[Any], None]]] = []
        self._dispatch: dict[type, tuple[Callable[[Any], None], ...]] = {}

    def route(self, kind: type, handler: Callable[[Any], None]) -> "StreamScheduler":
        """Send tuples of ``kind`` (isinstance semantics) to ``handler``."""
        self._routes.append((kind, handler))
        # A new route may match types already cached; rebuild lazily.
        self._dispatch.clear()
        return self

    def handlers_for(self, kind: type) -> tuple[Callable[[Any], None], ...]:
        """The cached handler chain for one exact tuple type."""
        handlers = self._dispatch.get(kind)
        if handlers is None:
            handlers = tuple(
                handler for route_kind, handler in self._routes
                if issubclass(kind, route_kind)
            )
            self._dispatch[kind] = handlers
        return handlers

    def run(self, *streams: Iterable[Any]) -> int:
        """Drain the merged streams; returns tuples processed."""
        count = 0
        dispatch = self._dispatch
        for item in merge_by_time(*streams):
            kind = type(item)
            handlers = dispatch.get(kind)
            if handlers is None:
                handlers = self.handlers_for(kind)
            for handler in handlers:
                handler(item)
            count += 1
        return count
