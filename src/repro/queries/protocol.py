"""The uniform query-state protocol (§4.2, Appendix B).

Every continuous query the runtime manages — a compiled plan behind a
declarative facade — speaks :class:`QueryState`. It replaces
the old ad-hoc per-query byte codecs with one contract the
:class:`~repro.runtime.router.QueryRouter`, the
:class:`~repro.runtime.node.SiteNode` migration bundles, and
:mod:`repro.runtime.checkpoint` all consume generically:

* ``export_state(tag)`` / ``import_state(tag, data)`` — *migration*:
  one object's global-block automaton state, on the compact (float32)
  wire format Table 5 accounts and centroid sharing
  (:mod:`repro.distributed.sharing`) diffs. ``export_state`` returns
  ``None`` when the query holds nothing for the object; ``import_state``
  must *merge* with local partial state, because the new site may have
  processed the object's first local events before the hand-off lands.
* ``snapshot_state()`` / ``restore_state(data)`` — *checkpoints*: the
  query's complete state (automata, alert logs, window relations) with
  float64 exactness, because a restored site must reproduce
  bit-identical results to the run that never crashed.

Malformed input to either decoder raises :class:`ValueError`, like
every other wire format in this repository.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.sim.tags import EPC

__all__ = ["QueryState"]


@runtime_checkable
class QueryState(Protocol):
    """State hooks a query exposes to the distributed runtime."""

    def export_state(self, tag: EPC) -> bytes | None:
        """Serialize one object's migratable state (``None``: nothing)."""
        ...

    def import_state(self, tag: EPC, data: bytes) -> None:
        """Merge one object's migrated state into local state."""
        ...

    def snapshot_state(self) -> bytes:
        """Serialize the query's complete state for a site checkpoint."""
        ...

    def restore_state(self, data: bytes) -> None:
        """Rebuild complete state from :meth:`snapshot_state` output."""
        ...
