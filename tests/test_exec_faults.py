"""Deterministic fault injection: every recovery path converges.

The supervision machinery's contract is that a campaign disturbed by
worker crashes, hangs, or raised errors converges to results
bit-identical to an undisturbed run — seed streams derive from grid
indices alone, so a retry re-measures exactly what the fault destroyed.
These tests drive each recovery path with :mod:`repro.exec.faults` and
assert that contract.
"""

from types import SimpleNamespace

import pytest

from repro import make_machine, run_campaign
from repro.errors import ConfigError
from repro.exec import FaultInjected, FaultPlan
from tests.conftest import fast_config
from tests.test_exec_engine import _campaign_fingerprint


def _fault_config(**overrides):
    defaults = dict(retry_backoff_s=0.01, retry_backoff_max_s=0.05)
    defaults.update(overrides)
    return fast_config((705.0, 1095.0, 1410.0), **defaults)


class TestFaultSpecParsing:
    def test_empty_spec_means_no_plan(self):
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("") is None
        assert FaultPlan.parse(" ; ,") is None

    def test_single_action(self):
        plan = FaultPlan.parse("kill@3")
        assert len(plan.actions) == 1
        action = plan.actions[0]
        assert (action.kind, action.index, action.fires) == ("kill", 3, 1)
        assert action.param is None

    def test_fires_and_param(self):
        plan = FaultPlan.parse("raise@2*99;hang@5:30")
        assert plan.actions[0].fires == 99
        assert plan.actions[1].param == 30.0

    def test_mixed_separators(self):
        plan = FaultPlan.parse("kill@0, raise@1; interrupt@2")
        assert [a.kind for a in plan.actions] == ["kill", "raise", "interrupt"]

    def test_malformed_spec_rejected(self):
        with pytest.raises(ConfigError, match="malformed"):
            FaultPlan.parse("kill@")
        with pytest.raises(ConfigError, match="malformed"):
            FaultPlan.parse("kill")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault kind"):
            FaultPlan.parse("explode@3")
        with pytest.raises(ConfigError, match="unknown fault kind"):
            FaultPlan.parse("corrupt@0")

    def test_zero_fires_rejected(self):
        with pytest.raises(ConfigError, match="fire count"):
            FaultPlan.parse("kill@1*0")

    def test_config_validates_spec_eagerly(self):
        with pytest.raises(ConfigError, match="malformed"):
            _fault_config(inject_faults="bogus")

    def test_attempt_gating(self):
        plan = FaultPlan.parse("raise@2")
        with pytest.raises(FaultInjected):
            plan.fire_worker(SimpleNamespace(index=2, attempt=0))
        # A retried job (attempt >= fires) runs clean.
        plan.fire_worker(SimpleNamespace(index=2, attempt=1))
        # Other indices are never touched.
        plan.fire_worker(SimpleNamespace(index=3, attempt=0))

    def test_kill_downgrades_in_process(self):
        plan = FaultPlan.parse("kill@0")
        with pytest.raises(FaultInjected, match="downgraded in-process"):
            plan.fire_worker(SimpleNamespace(index=0, attempt=0), in_process=True)


class TestEngineRecovery:
    """Process-pool and in-process dispatch under injected faults."""

    @pytest.fixture(scope="class")
    def baseline(self):
        machine = make_machine("A100", seed=777)
        return _campaign_fingerprint(
            run_campaign(machine, _fault_config(), workers=1)
        )

    def test_inprocess_kill_retries_bit_identically(self, baseline):
        machine = make_machine("A100", seed=777)
        result = run_campaign(
            machine, _fault_config(inject_faults="kill@0"), workers=1
        )
        assert _campaign_fingerprint(result) == baseline
        retried = [p for p in result.pairs.values() if p.n_retries > 0]
        assert len(retried) == 1
        assert retried[0].n_retries == 1

    def test_pool_worker_crash_recovers(self, baseline):
        machine = make_machine("A100", seed=777)
        result = run_campaign(
            machine, _fault_config(inject_faults="kill@0"), workers=2
        )
        assert _campaign_fingerprint(result) == baseline
        assert any(p.n_retries > 0 for p in result.pairs.values())

    def test_hung_worker_hits_deadline_and_recovers(self, baseline):
        machine = make_machine("A100", seed=777)
        cfg = _fault_config(
            inject_faults="hang@0:60",
            job_timeout_factor=1e-6,
            job_timeout_floor_s=0.5,
        )
        result = run_campaign(machine, cfg, workers=2)
        assert _campaign_fingerprint(result) == baseline
        assert any(p.n_retries > 0 for p in result.pairs.values())

    def test_persistent_failure_quarantined(self):
        machine = make_machine("A100", seed=777)
        cfg = _fault_config(inject_faults="raise@0*99", max_job_retries=1)
        result = run_campaign(machine, cfg, workers=1)
        skipped = [p for p in result.pairs.values() if p.skipped]
        assert len(skipped) == 1
        assert skipped[0].skip_reason.startswith("quarantined after 2")
        assert "FaultInjected" in skipped[0].skip_reason
        assert skipped[0].n_retries == 2
        # The other five pairs are untouched by the quarantine.
        clean = [p for p in result.pairs.values() if not p.skipped]
        assert len(clean) == 5
        assert all(p.measurements for p in clean)

    def test_quarantine_with_zero_retries(self):
        machine = make_machine("A100", seed=777)
        cfg = _fault_config(inject_faults="raise@0", max_job_retries=0)
        result = run_campaign(machine, cfg, workers=1)
        skipped = [p for p in result.pairs.values() if p.skipped]
        assert len(skipped) == 1
        assert skipped[0].skip_reason.startswith("quarantined after 1")

