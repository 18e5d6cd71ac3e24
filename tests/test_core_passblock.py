"""Bit-identity contract of the batched pass-block pipeline.

The batched per-pair loop (:mod:`repro.core.passblock`) must reproduce the
scalar reference loop exactly — same measurements, same outlier labels,
same CSV bytes, same virtual wall clock — for every block size, including
blocks that end ragged against the stopping rule, window growths that
roll speculation back mid-block, and thermally throttled campaigns.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import make_machine, run_campaign
from repro.core.campaign import measure_pair, probe_windows
from repro.core.context import BenchContext
from repro.core.passblock import plan_block_size
from repro.core.phase1 import run_phase1
from repro.core.phase2 import run_switch_benchmark
from repro.stats.rse import RseStoppingRule
from tests.conftest import fast_config
from tests.test_exec_engine import _campaign_fingerprint


def _csv_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


def _run(machine_factory, cfg, outdir):
    machine = machine_factory()
    result = run_campaign(machine, replace(cfg, output_dir=str(outdir)))
    return result, _csv_bytes(outdir)


_ARCHES = [
    ("A100", (705.0, 1095.0, 1410.0), 2001),
    ("GH200", (705.0, 1410.0, 1980.0), 2002),
    ("RTX6000", (750.0, 1350.0, 1650.0), 2003),
]


class TestBatchedScalarEquivalence:
    @pytest.mark.parametrize("model, freqs, seed", _ARCHES)
    @pytest.mark.parametrize("block", [1, 5, 25])
    def test_grid(self, model, freqs, seed, block, tmp_path):
        """Seeded grid: >= 3 arch profiles x block sizes {1, 5, 25}.

        min/max/check_every are chosen so blocks end ragged (the stop
        count 10 is not a multiple of 25, and the final block before
        max_measurements is shorter than the cap).
        """
        cfg = fast_config(
            freqs,
            min_measurements=6,
            max_measurements=10,
            rse_check_every=4,
            pass_block_size=None,
        )
        factory = lambda: make_machine(model, seed=seed)  # noqa: E731
        ref, ref_csv = _run(factory, cfg, tmp_path / "ref")
        blk, blk_csv = _run(
            factory, replace(cfg, pass_block_size=block), tmp_path / "blk"
        )
        assert _campaign_fingerprint(blk) == _campaign_fingerprint(ref)
        assert blk_csv == ref_csv
        assert blk.wall_virtual_s == ref.wall_virtual_s

    def test_window_growth_rollback(self, tmp_path):
        """A tiny initial window forces growth — the mid-block divergence
        path that rolls speculation back through the ledger."""
        cfg = fast_config(
            (705.0, 1410.0),
            min_measurements=4,
            max_measurements=6,
            switch_window_factor=0.25,
            window_policy="probe-max",
            pass_block_size=None,
        )
        factory = lambda: make_machine("A100", seed=31)  # noqa: E731
        ref, ref_csv = _run(factory, cfg, tmp_path / "ref")
        blk, blk_csv = _run(
            factory, replace(cfg, pass_block_size=25), tmp_path / "blk"
        )
        growthy = [p.n_window_growths for p in ref.pairs.values()]
        assert any(g > 0 for g in growthy), "config failed to force growth"
        assert _campaign_fingerprint(blk) == _campaign_fingerprint(ref)
        assert blk_csv == ref_csv

    def test_thermal_campaign_equivalence(self, tmp_path):
        """Thermal machines exercise the throttle branches eagerly."""
        cfg = fast_config(
            (705.0, 1410.0),
            min_measurements=4,
            max_measurements=8,
            pass_block_size=None,
        )
        factory = lambda: make_machine(  # noqa: E731
            "A100", seed=17, thermal_enabled=True, ambient_c=45.0,
            power_limit_w=320.0,
        )
        ref, ref_csv = _run(factory, cfg, tmp_path / "ref")
        blk, blk_csv = _run(
            factory, replace(cfg, pass_block_size=5), tmp_path / "blk"
        )
        assert _campaign_fingerprint(blk) == _campaign_fingerprint(ref)
        assert blk_csv == ref_csv

    def test_final_clock_state_matches(self):
        """After a pair the machine timeline must be scalar-exact — not
        only the per-pair results — so pairs measured back to back on one
        machine stay identical too."""
        cfg = fast_config(
            (705.0, 1095.0, 1410.0), min_measurements=4, max_measurements=6
        )
        states = []
        for block in (None, 25):
            machine = make_machine("A100", seed=5)
            bench = BenchContext(machine, replace(cfg, pass_block_size=block))
            phase1 = run_phase1(bench)
            probe = probe_windows(bench, phase1)
            for init, target in phase1.valid_pairs:
                measure_pair(bench, init, target, phase1, probe)
            states.append(
                (
                    machine.clock.now,
                    machine.host.rng.random(),
                    machine.devices[0].rng.random(),
                )
            )
        assert states[0] == states[1]


class TestMachineCheckpoint:
    def test_roundtrip_reproduces_draws(self):
        machine = make_machine("A100", seed=9)
        cfg = fast_config((705.0, 1410.0))
        bench = BenchContext(machine, cfg)
        phase1 = run_phase1(bench)
        run_switch_benchmark(bench, 705.0, 1410.0, phase1.kernel, 300)

        cp = machine.checkpoint()
        first = run_switch_benchmark(bench, 705.0, 1410.0, phase1.kernel, 300)
        t_after = machine.clock.now
        machine.restore(cp)
        replay = run_switch_benchmark(bench, 705.0, 1410.0, phase1.kernel, 300)

        assert replay.ts_acc == first.ts_acc
        np.testing.assert_array_equal(
            replay.timestamps.starts, first.timestamps.starts
        )
        np.testing.assert_array_equal(
            replay.timestamps.ends, first.timestamps.ends
        )
        assert machine.clock.now == t_after

    def test_restore_rewinds_dvfs_records(self):
        machine = make_machine("A100", seed=9)
        device = machine.devices[0]
        cfg = fast_config((705.0, 1410.0))
        bench = BenchContext(machine, cfg)
        phase1 = run_phase1(bench)
        cp = machine.checkpoint()
        n_records = len(device.dvfs.records)
        run_switch_benchmark(bench, 705.0, 1410.0, phase1.kernel, 300)
        assert len(device.dvfs.records) > n_records
        machine.restore(cp)
        assert len(device.dvfs.records) == n_records


class TestPlanBlockSize:
    def _rule(self, **kw):
        defaults = dict(
            threshold=0.05, min_measurements=20, max_measurements=60,
            check_every=10,
        )
        defaults.update(kw)
        return RseStoppingRule(**defaults)

    def test_stops_can_only_land_on_block_end(self):
        rule = self._rule()
        n = 0
        while n < rule.max_measurements:
            block = plan_block_size(n, rule, cap=25)
            # No count strictly inside the block may trigger a check.
            for inside in range(n + 1, n + block):
                assert not (
                    inside >= rule.max_measurements
                    or (
                        inside >= rule.min_measurements
                        and inside % rule.check_every == 0
                    )
                ), (n, block, inside)
            n += block
        assert n == rule.max_measurements

    def test_cap_respected(self):
        rule = self._rule(min_measurements=2, check_every=100)
        assert plan_block_size(0, rule, cap=7) == 7

    def test_ragged_final_block(self):
        rule = self._rule(min_measurements=4, max_measurements=9, check_every=4)
        assert plan_block_size(8, rule, cap=25) == 1  # only max-9 left
        assert plan_block_size(4, rule, cap=25) == 4
