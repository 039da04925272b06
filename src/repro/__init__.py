"""repro — Distributed inference and query processing for RFID tracking.

A from-scratch reproduction of Cao, Sutton, Diao, Shenoy (PVLDB 2011).
Subpackages:

* :mod:`repro.core` — RFINFER inference, change points, truncation,
  collapsed state, the streaming service, hierarchical containment.
* :mod:`repro.sim` — warehouses, readers, supply chains, lab traces.
* :mod:`repro.baselines` — SMURF and SMURF*.
* :mod:`repro.queries` / :mod:`repro.streams` — CQL-style continuous
  queries with SEQ pattern matching (Q1, Q2, tracking), compiled from
  declarative specs and run one batch at a time
  (``QueryEngine.push_batch``); ``repro.streams`` holds their windows,
  automata and state codecs.
* :mod:`repro.runtime` — the event-driven federation: site nodes,
  pluggable transports, batched state migration, query routing.
* :mod:`repro.archive` / :mod:`repro.serving` — per-site append-only
  history of inference output, and the query frontend serving
  historical (time-travel) queries over it by scatter-gather.
* :mod:`repro.distributed` — cost ledger, ONS, tag memory, centroid
  sharing, and the deployment facades over the runtime.
* :mod:`repro.metrics` — error rates, F-measures, cost accounting.
* :mod:`repro.workloads` — Table-2 workloads, catalogs, and scenarios.

Quickstart::

    from repro.sim.supplychain import simulate
    from repro.core import RFInfer, TraceWindow

    result = simulate(n_warehouses=1, horizon=1200, seed=7)
    window = TraceWindow.from_range(result.trace, 0, 1200)
    inference = RFInfer(window).run()
"""

__version__ = "0.1.0"
