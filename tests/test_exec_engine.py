"""Determinism contract of the campaign execution engine.

``run_campaign(..., workers=N)`` must produce an identical
:class:`CampaignResult` for every worker count — same per-pair
measurements, same outlier labels, same CSV bytes — because each pair job
runs on a blueprint replica with a seed stream derived only from the
campaign seed and the pair's index.
"""

from pathlib import Path

import numpy as np
import pytest

from repro import make_machine, run_campaign
from repro.errors import ConfigError
from repro.exec import CampaignExecutor
from repro.exec.jobs import pair_seed_sequence
from repro.machine import Machine
from repro.simtime.clock import VirtualClock
from repro.simtime.host import HostCpu
from tests.conftest import fast_config


def _campaign_fingerprint(result):
    """Everything measurement-relevant, hashable for equality checks."""
    out = []
    for key in sorted(result.pairs):
        p = result.pairs[key]
        out.append(
            (
                key,
                p.skipped,
                p.skip_reason,
                p.n_failed_attempts,
                p.n_throttle_discards,
                p.n_window_growths,
                tuple(
                    (
                        m.latency_s,
                        m.ts_acc,
                        m.te_acc,
                        m.n_valid_sm,
                        m.window_iterations,
                        m.ground_truth_s,
                        m.ground_truth_outlier,
                    )
                    for m in p.measurements
                ),
                tuple(p.outliers.labels.tolist()) if p.outliers else None,
            )
        )
    return tuple(out)


def _engine_config(**overrides):
    defaults = dict(min_measurements=12, max_measurements=16, rse_check_every=6)
    defaults.update(overrides)
    return fast_config((705.0, 1095.0, 1410.0), **defaults)


def _csv_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


class TestWorkerCountInvariance:
    @pytest.fixture(scope="class")
    def results(self, tmp_path_factory):
        out = {}
        for workers in (1, 2, 4):
            outdir = tmp_path_factory.mktemp(f"csv_w{workers}")
            machine = make_machine("A100", seed=90125)
            cfg = _engine_config(output_dir=str(outdir))
            result = run_campaign(machine, cfg, workers=workers)
            out[workers] = (result, _csv_bytes(outdir), machine)
        return out

    def test_measurements_identical_across_worker_counts(self, results):
        base = _campaign_fingerprint(results[1][0])
        assert _campaign_fingerprint(results[2][0]) == base
        assert _campaign_fingerprint(results[4][0]) == base

    def test_csv_bytes_identical_across_worker_counts(self, results):
        base = results[1][1]
        assert base  # CSVs were actually written
        assert results[2][1] == base
        assert results[4][1] == base

    def test_wall_virtual_identical(self, results):
        walls = {results[w][0].wall_virtual_s for w in (1, 2, 4)}
        assert len(walls) == 1
        assert walls.pop() > 0

    def test_driver_clock_advances(self, results):
        for w in (1, 2, 4):
            assert results[w][2].clock.now > 0

    def test_campaign_is_complete(self, results):
        result = results[1][0]
        assert result.n_measured_pairs == 6
        for pair in result.iter_measured():
            assert pair.n_measurements >= 12


class TestEngineSemantics:
    def test_rerun_same_seed_is_reproducible(self):
        cfg = _engine_config()
        a = run_campaign(make_machine("A100", seed=7), cfg, workers=1)
        b = run_campaign(make_machine("A100", seed=7), cfg, workers=1)
        assert _campaign_fingerprint(a) == _campaign_fingerprint(b)

    def test_different_seeds_differ(self):
        cfg = _engine_config()
        a = run_campaign(make_machine("A100", seed=1), cfg, workers=1)
        b = run_campaign(make_machine("A100", seed=2), cfg, workers=1)
        assert _campaign_fingerprint(a) != _campaign_fingerprint(b)

    def test_skipped_pairs_preserved(self):
        machine = make_machine("A100", seed=55)
        cfg = fast_config(
            (1395.0, 1410.0),
            iteration_duration_s=10e-6,
            max_workload_growth=0,
            min_measurements=4,
            max_measurements=6,
        )
        result = run_campaign(machine, cfg, workers=2)
        if result.skipped_pairs:
            assert {
                p.skip_reason for p in result.skipped_pairs
            } == {"statistically-indistinguishable"}

    def test_handmade_machine_rejected(self):
        clock = VirtualClock()
        machine = Machine(
            clock=clock,
            host=HostCpu(clock, rng=np.random.default_rng(0)),
            devices=make_machine("A100", seed=0).devices,
        )
        with pytest.raises(ConfigError):
            CampaignExecutor(machine, _engine_config(), workers=2)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ConfigError):
            CampaignExecutor(make_machine("A100", seed=0), _engine_config(), workers=0)


class TestPairSeedStreams:
    def test_streams_depend_on_index_and_device(self):
        bp = make_machine("A100", seed=123).blueprint
        s = {
            pair_seed_sequence(bp, d, i).generate_state(2).tobytes()
            for d in (0, 1)
            for i in range(8)
        }
        assert len(s) == 16  # all distinct

    def test_streams_are_stable(self):
        bp = make_machine("A100", seed=99).blueprint
        a = pair_seed_sequence(bp, 0, 3).generate_state(4)
        b = pair_seed_sequence(bp, 0, 3).generate_state(4)
        np.testing.assert_array_equal(a, b)


class TestBlueprintReplication:
    def test_build_reproduces_int_seeded_machine(self):
        machine = make_machine("A100", seed=42)
        replica = machine.blueprint.build()
        assert replica.host.rng.random() == make_machine("A100", seed=42).host.rng.random()

    def test_build_reproduces_seedsequence_seeded_machine(self):
        """Spawned SeedSequence seeds must survive the blueprint round
        trip (the spawn_key is part of the stream identity)."""
        seq = np.random.SeedSequence(42).spawn(1)[0]
        machine = make_machine("A100", seed=np.random.SeedSequence(42).spawn(1)[0])
        replica = machine.blueprint.build()
        reference = make_machine("A100", seed=seq)
        assert replica.host.rng.random() == reference.host.rng.random()
        assert (
            replica.devices[0].rng.random() == reference.devices[0].rng.random()
        )

    def test_seedsequence_campaigns_worker_invariant(self):
        cfg = fast_config((705.0, 1410.0), min_measurements=4, max_measurements=6)
        a = run_campaign(
            make_machine("A100", seed=np.random.SeedSequence(5).spawn(2)[1]),
            cfg,
            workers=1,
        )
        b = run_campaign(
            make_machine("A100", seed=np.random.SeedSequence(5).spawn(2)[1]),
            cfg,
            workers=2,
        )
        assert _campaign_fingerprint(a) == _campaign_fingerprint(b)
