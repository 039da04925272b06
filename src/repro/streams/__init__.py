"""Stream-processing building blocks shared by every compiled plan.

The paper's query processor is CQL [2] extended with SASE-style pattern
matching [1] (§2, §4.2, Appendix B). The plans themselves are compiled
and executed by :mod:`repro.queries`; this package holds the state they
keep:

* :mod:`repro.streams.operators` — the ``[Partition By k Rows 1]``
  window relation;
* :mod:`repro.streams.pattern` — the ``SEQ(A+)`` Kleene-plus automaton
  with per-partition (per-object) state;
* :mod:`repro.streams.state` — compact per-object query-state encoding
  used for state migration, centroid sharing and checkpoints.
"""

from repro.streams.operators import LatestByKey
from repro.streams.pattern import KleeneDurationPattern, PatternAlert, PatternState
from repro.streams.state import decode_pattern_state, encode_pattern_state

__all__ = [
    "KleeneDurationPattern",
    "LatestByKey",
    "PatternAlert",
    "PatternState",
    "decode_pattern_state",
    "encode_pattern_state",
]
