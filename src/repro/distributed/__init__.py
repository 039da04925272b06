"""Distributed inference and query processing (§4, Fig. 3).

Each site runs inference and query processing on its local streams;
when an object moves between sites its inference state (collapsed
co-location weights) and query state (pattern automaton state) migrate.
The multi-site orchestrator itself is :class:`repro.runtime.Cluster`;
this package holds the pieces it is built from, plus the baseline:

* :mod:`repro.distributed.network` — the cost ledger with per-kind and
  per-link byte accounting (Table 5's communication costs);
* :mod:`repro.distributed.ons` — the Object Naming Service locating an
  object's previous site;
* :mod:`repro.distributed.tagmem` — writable tag memory (migration
  strategy iii);
* :mod:`repro.distributed.sharing` — centroid-based query-state sharing;
* :mod:`repro.distributed.centralized` — the centralized baseline that
  ships gzip-compressed raw readings to one processing site.
"""

from repro.distributed.centralized import CentralizedDeployment
from repro.distributed.network import Network
from repro.distributed.ons import ObjectNamingService
from repro.distributed.sharing import SharedStateBundle, centroid_compress
from repro.distributed.tagmem import TagMemory

__all__ = [
    "CentralizedDeployment",
    "Network",
    "ObjectNamingService",
    "SharedStateBundle",
    "TagMemory",
    "centroid_compress",
]
