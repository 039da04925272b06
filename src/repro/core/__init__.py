"""The paper's primary contribution: RFINFER and its companions.

* :mod:`repro.core.likelihood` — log-likelihood plumbing over a window
  of epochs (Eq. 1–4 of the paper, vectorized).
* :mod:`repro.core.candidates` — co-location counting and candidate
  pruning (Appendix A.3).
* :mod:`repro.core.rfinfer` — the RFINFER EM algorithm (§3.2,
  Algorithm 1) in optimized form, the only inference executor; its
  slow reference is ``tests/oracles/algorithm1.py``.
* :mod:`repro.core.evidence` — point/cumulative evidence of co-location
  (Eq. 7, Fig. 4).
* :mod:`repro.core.changepoint` — GLR change-point detection with
  offline threshold calibration (§3.3, Appendix A.2).
* :mod:`repro.core.online` — streaming (BOCPD-style) change detection,
  the stability gate that lets stable tags skip the EM hot path, and
  the memory budget for bounded long streams.
* :mod:`repro.core.truncation` — critical-region history truncation
  (§4.1).
* :mod:`repro.core.collapsed` — collapsed inference state for state
  migration (§4.1).
* :mod:`repro.core.service` — the streaming inference service that runs
  RFINFER periodically and emits the object event stream (Fig. 3).
"""

from repro.core.changepoint import ChangePointDetector, calibrate_threshold
from repro.core.collapsed import CollapsedState
from repro.core.events import ObjectEvent
from repro.core.likelihood import TraceWindow, WindowCache
from repro.core.online import MemoryBudget, OnlineChangeDetector, OnlineConfig
from repro.core.rfinfer import InferenceConfig, RFInfer, RFInferResult
from repro.core.service import ServiceConfig, StreamingInference
from repro.core.truncation import CriticalRegion, find_critical_regions

__all__ = [
    "ChangePointDetector",
    "CollapsedState",
    "CriticalRegion",
    "InferenceConfig",
    "MemoryBudget",
    "ObjectEvent",
    "OnlineChangeDetector",
    "OnlineConfig",
    "RFInfer",
    "RFInferResult",
    "ServiceConfig",
    "StreamingInference",
    "TraceWindow",
    "WindowCache",
    "calibrate_threshold",
    "find_critical_regions",
]
