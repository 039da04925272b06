"""Slow, literal reference implementations — one per layer.

``src/`` ships exactly one executor per layer. Each module here is the
readable reference that executor is checked against: written for
clarity rather than speed, and importing nothing from the fast path it
checks.

* :mod:`oracles.algorithm1` — RFINFER (Algorithm 1, App. A.1) and the
  critical-region search (§4.1) as per-epoch loops over the equations.
* :mod:`oracles.dag` — the query layer's tuple-at-a-time operator DAG,
  the semantics the columnar executor (``QueryEngine.push_batch``)
  reproduces bit for bit.
* :mod:`oracles.queries` — the hand-written Q1/Q2/tracking queries the
  compiled plans are held byte-identical to (their windows are
  :class:`oracles.dag.Window` operators).
* :mod:`oracles.sase` — a literal ``SEQ(A+)`` duration matcher for the
  pattern blocks' boundary semantics.
"""
