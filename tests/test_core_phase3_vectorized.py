"""Vectorized phase-3 confirmation vs the scalar reference.

Records real phase-2 measurements from small campaigns (several pairs,
including windows that are too short so every status path is exercised)
and asserts the vectorized :func:`evaluate_switch` reproduces the scalar
per-SM loop *identically*: statuses, latencies, detection indices and
failure reasons.
"""

import numpy as np
import pytest

from repro.core.context import BenchContext
from repro.core.phase1 import run_phase1
from repro.core.phase2 import run_switch_benchmark
from repro.core.phase3 import SmStatus, evaluate_switch
from repro.errors import MeasurementError
from repro.machine import make_machine
from tests.conftest import fast_config
from tests.oracles import evaluate_switch_reference


@pytest.fixture(scope="module")
def recorded_switches():
    """Raw phase-2 fixtures across pairs, models, and window sizes."""
    fixtures = []
    for model, freqs, seed in (
        ("A100", (705.0, 1095.0, 1410.0), 424),
        ("GH200", (705.0, 1410.0, 1875.0), 171),
    ):
        machine = make_machine(model, seed=seed)
        cfg = fast_config(freqs)
        bench = BenchContext(machine, cfg)
        phase1 = run_phase1(bench)
        kernel = phase1.kernel
        for init, target in phase1.valid_pairs:
            # A window long enough to usually capture the switch, and a
            # deliberately short one (SHORT_TAIL / NO_DETECTION paths).
            for iters in (2500, 40):
                try:
                    raw = run_switch_benchmark(bench, init, target, kernel, iters)
                except MeasurementError:
                    continue
                fixtures.append((raw, phase1.stats_for(target), cfg))
    assert len(fixtures) >= 10
    return fixtures


def test_vectorized_equals_reference(recorded_switches):
    reasons = set()
    for raw, target_stats, cfg in recorded_switches:
        vec = evaluate_switch(raw, target_stats, cfg)
        ref = evaluate_switch_reference(raw, target_stats, cfg)
        assert vec.reason == ref.reason
        assert vec.latency_s == ref.latency_s
        assert vec.te_acc == ref.te_acc
        np.testing.assert_array_equal(vec.sm_status, ref.sm_status)
        np.testing.assert_array_equal(
            vec.detection_indices, ref.detection_indices
        )
        np.testing.assert_array_equal(
            vec.per_sm_latency_s, ref.per_sm_latency_s
        )
        assert vec.n_valid_sm == ref.n_valid_sm
        assert vec.window_too_short == ref.window_too_short
        reasons.add(vec.reason)
    # The fixture set must exercise success and at least one failure path.
    assert "ok" in reasons
    assert len(reasons) >= 2


def test_confirmation_failure_path_equivalent(recorded_switches):
    """Force confirmation failures (band around the *initial* frequency)."""
    checked = 0
    for raw, _target, cfg in recorded_switches[:6]:
        machine_stats = _target.scaled(1.5)  # band far from the tail
        vec = evaluate_switch(raw, machine_stats, cfg)
        ref = evaluate_switch_reference(raw, machine_stats, cfg)
        assert vec.reason == ref.reason
        np.testing.assert_array_equal(vec.sm_status, ref.sm_status)
        checked += 1
    assert checked


def test_all_statuses_representable(recorded_switches):
    seen = set()
    for raw, target_stats, cfg in recorded_switches:
        ev = evaluate_switch(raw, target_stats, cfg)
        seen.update(SmStatus(s) for s in np.unique(ev.sm_status))
    assert SmStatus.OK in seen
    assert seen & {SmStatus.NO_DETECTION, SmStatus.SHORT_TAIL, SmStatus.NO_POST_SWITCH}
