"""Pluggable message transports for the site runtime.

A :class:`Transport` moves :class:`~repro.runtime.envelope.Envelope`\\ s
between registered site handlers and schedules per-site work. Every
delivered byte is accounted through a shared
:class:`~repro.distributed.network.Network` ledger (per-kind *and*
per-link), so Table 5's communication-cost breakdown is independent of
which transport runs the cluster.

* :class:`InProcessTransport` — synchronous delivery on the caller's
  thread. Deterministic by construction; preserves the semantics (and
  byte accounting) of the original lockstep deployment.
* :class:`~repro.runtime.process.ProcessTransport` — sites sharded
  across forked OS workers (``hosts_sites = True``), driven through
  named site operations; bit-identical to the in-process run.

Both are *reliable* (every accepted send is delivered exactly once, in
per-link order). :class:`~repro.runtime.faults.FaultyTransport`
wraps either one and injects seeded drop/duplicate/delay/reorder faults
per link; it advertises ``reliable = False``, which switches the
:class:`~repro.runtime.node.SiteNode` at-least-once layer on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Mapping

from repro.distributed.network import Network
from repro.runtime.envelope import Envelope

__all__ = ["Transport", "InProcessTransport"]

Handler = Callable[[Envelope], None]


class Transport(ABC):
    """Delivery of envelopes plus per-site work scheduling."""

    #: whether every accepted :meth:`send` is guaranteed to reach its
    #: handler exactly once. Lossy decorators set this to ``False``,
    #: which makes nodes keep an unacked outbox and emit acks.
    reliable: bool = True

    #: whether registered site state lives in a different execution
    #: domain than the caller (worker processes). When ``True`` the
    #: cluster must drive sites through :meth:`site_call` /
    #: :meth:`site_cast` named operations instead of direct method
    #: calls or closures — closures cannot cross a process boundary.
    hosts_sites: bool = False

    def __init__(self, ledger: Network | None = None) -> None:
        self.ledger = ledger if ledger is not None else Network()

    # -- site hosting (process-parallel transports) ------------------------

    def host_site(self, site: int, ops: Mapping[str, Callable]) -> None:
        """Hand over ``site``'s named operations for remote execution.

        Only meaningful on transports with ``hosts_sites = True``; the
        ops table must be registered *before* the transport spawns its
        workers (everything crosses the fork by inheritance, so
        unpicklable closures and query factories are fine).
        """
        raise NotImplementedError(f"{type(self).__name__} does not host sites")

    def site_call(self, site: int, op: str, *args: object) -> object:
        """Run a named op in ``site``'s domain and return its result."""
        raise NotImplementedError(f"{type(self).__name__} does not host sites")

    def site_cast(self, site: int, op: str, *args: object) -> None:
        """Schedule a named op in ``site``'s domain without waiting.

        Completion is observed at the next :meth:`flush` barrier; casts
        to distinct workers run concurrently (this is the parallel tick
        path)."""
        raise NotImplementedError(f"{type(self).__name__} does not host sites")

    @abstractmethod
    def register(self, site: int, handler: Handler) -> None:
        """Attach ``handler`` as the recipient of envelopes for ``site``."""

    @abstractmethod
    def send(self, env: Envelope) -> None:
        """Account for ``env`` and deliver it to its destination handler.

        Sends to a destination with no registered handler (e.g. the ONS
        ledger site) are accounted and dropped.
        """

    @abstractmethod
    def deliver(self, env: Envelope) -> None:
        """Hand ``env`` to its destination handler *without* accounting.

        The seam lossy decorators use: they do their own (fault-aware)
        ledger accounting at send time, then route surviving copies
        through the wrapped transport's delivery machinery.
        """

    @abstractmethod
    def dispatch(self, site: int, fn: Callable[[], None]) -> None:
        """Run ``fn`` in ``site``'s execution context."""

    @abstractmethod
    def flush(self) -> None:
        """Block until all sent envelopes and dispatched work — including
        any follow-up messages they triggered — have been processed."""

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release transport resources (worker processes, pipes)."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class InProcessTransport(Transport):
    """Synchronous delivery on the caller's thread (deterministic)."""

    def __init__(self, ledger: Network | None = None) -> None:
        super().__init__(ledger)
        self._handlers: dict[int, Handler] = {}

    def register(self, site: int, handler: Handler) -> None:
        if site in self._handlers:
            raise ValueError(f"site {site} already registered")
        self._handlers[site] = handler

    def send(self, env: Envelope) -> None:
        self.ledger.send(env.src, env.dst, env.kind, env.payload)
        self.deliver(env)

    def deliver(self, env: Envelope) -> None:
        handler = self._handlers.get(env.dst)
        if handler is not None:
            handler(env)

    def dispatch(self, site: int, fn: Callable[[], None]) -> None:
        fn()

    def flush(self) -> None:
        pass  # everything already ran synchronously
