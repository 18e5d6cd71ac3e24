"""Campaign execution engine: deterministic parallel pair measurement.

A campaign decomposes into independent per-pair measurement jobs once
phase 1 (characterization) and the probe stage have run: each job gets a
replica of the campaign machine built from its blueprint with a
deterministic per-pair seed stream, so results are bit-identical for any
worker count — one process or a pool.

Dispatch contract
-----------------
The shared campaign payload (config, blueprint, phase-1 statistics, probe
estimate, epoch) ships to each worker process exactly once through the
pool initializer; jobs themselves are three numbers.  Jobs are submitted
**longest-expected-pair-first** using the probe latencies as a cost model
(:class:`repro.exec.jobs.ProbeCostModel`) — straggler-aware scheduling
that only affects wall clock: results merge by pair index, so neither
submission order nor completion order can influence the
:class:`CampaignResult`.  Worker processes additionally keep a skeleton
cache of deterministic machine-build products (per-pair latency-model
structures) across jobs.

Dispatch is supervised (:class:`repro.exec.jobs.SupervisionPolicy`; the
generic retry/deadline/quarantine loops live in
:mod:`repro.exec.supervise`): crashed or hung workers are rebuilt and
their units retried — bit-identically, because seed streams derive from
grid indices alone — with persistent failures quarantined as recorded
skips.  Campaigns can journal completed pairs durably and resume after
interruption (:mod:`repro.core.journal`), every result and supervision
step is observable on the campaign event stream
(:mod:`repro.core.stream`), and every recovery path is testable under
deterministic fault injection (:mod:`repro.exec.faults`).

::

    from repro import LatestConfig, make_machine, run_campaign

    machine = make_machine("A100", seed=42)
    result = run_campaign(machine, config, workers=4)   # == workers=1
"""

from repro.exec.engine import (
    CampaignExecutor,
    mp_context,
    run_campaign,
    run_pair_job,
)
from repro.exec.faults import FaultAction, FaultInjected, FaultPlan
from repro.exec.jobs import (
    CampaignPayload,
    PairJob,
    PairJobResult,
    ProbeCostModel,
    SupervisionPolicy,
    pair_seed_sequence,
)
from repro.exec.supervise import (
    UnitState,
    quarantine_results,
    run_units_inprocess,
    run_units_pool,
)

__all__ = [
    "CampaignExecutor",
    "CampaignPayload",
    "FaultAction",
    "FaultInjected",
    "FaultPlan",
    "PairJob",
    "PairJobResult",
    "ProbeCostModel",
    "SupervisionPolicy",
    "UnitState",
    "mp_context",
    "pair_seed_sequence",
    "quarantine_results",
    "run_campaign",
    "run_pair_job",
    "run_units_inprocess",
    "run_units_pool",
]
