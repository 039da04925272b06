"""Event-driven site runtime (§4, Fig. 3).

The federation is a set of :class:`~repro.runtime.node.SiteNode`\\ s
exchanging typed :class:`~repro.runtime.envelope.Envelope` messages over
a pluggable :class:`~repro.runtime.transport.Transport`, orchestrated by
a :class:`~repro.runtime.cluster.Cluster`:

* :mod:`repro.runtime.envelope` — the message protocol: ONS traffic,
  migrate requests, batched (centroid-compressed) inference- and
  query-state bundles;
* :mod:`repro.runtime.transport` — the transport interface and
  deterministic in-process delivery;
* :mod:`repro.runtime.process` — process-parallel shared-nothing
  execution: logical sites sharded across forked OS workers, with
  shared-memory handoff for bulk payloads and a ledger-driven shard
  rebalancer;
* :mod:`repro.runtime.node` — one site's inference service + continuous
  queries, reacting to messages;
* :mod:`repro.runtime.router` — federated query routing: per-object
  automaton state migrates alongside inference state;
* :mod:`repro.runtime.cluster` — the interval schedule (tick → route →
  snapshot) replacing the old lockstep loop;
* :mod:`repro.runtime.faults` — seeded per-link fault injection
  (drop/duplicate/delay/reorder) over any transport;
* :mod:`repro.runtime.checkpoint` — the site checkpoint format behind
  :meth:`SiteNode.snapshot`/:meth:`SiteNode.restore` and
  :meth:`Cluster.crash`/:meth:`Cluster.recover` (the historical archive
  rides inside it).

Each node also feeds a per-site :class:`~repro.archive.store.SiteArchive`
at every boundary and answers ``history-request`` envelopes from the
serving layer (:mod:`repro.serving`) against it — attach a
:class:`~repro.serving.frontend.QueryFrontend` with
:meth:`Cluster.attach_frontend` for federated time-travel queries.
"""

from repro.runtime.cluster import Cluster, ClusterSnapshot
from repro.runtime.envelope import Envelope, MigrationEvent
from repro.runtime.faults import FaultPlan, FaultyTransport, LinkFaults
from repro.runtime.node import SiteNode
from repro.runtime.process import ProcessTransport, WorkerDied
from repro.runtime.router import QueryRouter
from repro.runtime.transport import InProcessTransport, Transport

__all__ = [
    "Cluster",
    "ClusterSnapshot",
    "Envelope",
    "FaultPlan",
    "FaultyTransport",
    "InProcessTransport",
    "LinkFaults",
    "MigrationEvent",
    "ProcessTransport",
    "WorkerDied",
    "QueryRouter",
    "SiteNode",
    "Transport",
]
