"""The LATEST methodology: GPU frequency switching latency measurement.

Public entry points:

* :class:`~repro.core.config.LatestConfig` — campaign configuration
  mirroring the LATEST tool's CLI (frequencies, RSE threshold, min/max
  measurement counts, device index).
* the three-phase methodology: phase 1
  (:func:`~repro.core.phase1.run_phase1`) characterizes every frequency
  and validates pairs (Algorithm 1), phase 2 runs the switch benchmark
  with synchronized timers, phase 3 evaluates per-SM detection with the
  two-standard-deviation criterion (Algorithm 2), and
  :func:`~repro.core.campaign.measure_pair` repeats phases 2+3 per pair,
  followed by adaptive DBSCAN outlier filtering (Algorithm 3).  Whole
  campaigns run through :func:`repro.run_campaign` (the execution
  engine, :mod:`repro.exec`).
* :func:`~repro.core.wakeup.estimate_wakeup_latency` — the wake-up
  estimation procedure of Sec. V.
"""

from repro.core.axis import AXES, MeasurementAxis, axis_by_name
from repro.core.campaign import measure_pair, probe_windows
from repro.core.config import LatestConfig
from repro.core.journal import (
    CampaignJournal,
    ShutdownGuard,
    campaign_fingerprint,
)
from repro.core.phase1 import FrequencyCharacterization, Phase1Result, run_phase1
from repro.core.phase2 import RawSwitchData, run_switch_benchmark
from repro.core.phase3 import SwitchEvaluation, evaluate_switch
from repro.core.results import CampaignResult, PairKey, PairResult
from repro.core.wakeup import WakeupEstimate, estimate_wakeup_latency

__all__ = [
    "AXES",
    "MeasurementAxis",
    "axis_by_name",
    "LatestConfig",
    "CampaignJournal",
    "ShutdownGuard",
    "campaign_fingerprint",
    "measure_pair",
    "probe_windows",
    "run_phase1",
    "Phase1Result",
    "FrequencyCharacterization",
    "run_switch_benchmark",
    "RawSwitchData",
    "evaluate_switch",
    "SwitchEvaluation",
    "CampaignResult",
    "PairResult",
    "PairKey",
    "estimate_wakeup_latency",
    "WakeupEstimate",
]
