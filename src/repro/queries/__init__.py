"""The paper's monitoring queries (§2, §5.4), as compiled plans.

Queries are written as declarative specs (:mod:`repro.queries.spec` —
select/window/join-latest/filter/pattern blocks mirroring the paper's
CQL+SEQ syntax) and lowered by :mod:`repro.queries.compiler` into a
DAG of incremental operators with multi-query sharing, uniform state
migration, and generic checkpointing (:mod:`repro.queries.protocol`).

* :mod:`repro.queries.q1` — Query 1: alert when a frozen product sits
  outside a freezer at room temperature for the exposure duration
  (hybrid query: containment + location + temperature).
* :mod:`repro.queries.q2` — Query 2: alert when a frozen product is
  exposed to temperature above a threshold for a duration (location
  only, §5.4).
* :mod:`repro.queries.tracking` — a tracking query: report pallets/cases
  deviating from their intended path (§1's tracking query class).

The compiled plans are the only query executor; the pre-compiler
hand-written queries they are held byte-identical to live in
``tests/oracles/queries.py``.

Further monitors (dwell-time violations, co-location breaches) live in
:mod:`repro.workloads.monitors` — each is a spec, not a subsystem.
"""

from repro.queries.compiler import CompiledPlan, DeclarativeQuery, QueryEngine
from repro.queries.protocol import QueryState
from repro.queries.q1 import FreezerExposureQuery
from repro.queries.q2 import TemperatureExposureQuery
from repro.queries.spec import QuerySpec
from repro.queries.tracking import PathDeviationQuery

__all__ = [
    "CompiledPlan",
    "DeclarativeQuery",
    "FreezerExposureQuery",
    "PathDeviationQuery",
    "QueryEngine",
    "QuerySpec",
    "QueryState",
    "TemperatureExposureQuery",
]
