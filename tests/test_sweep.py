"""Tests for the device/model sweeps and the oracle governor."""

import pytest

from repro import make_machine
from repro.core.sweep import sweep_devices, sweep_models
from repro.errors import ConfigError
from repro.governor import (
    LatencyAwareGovernor,
    NaiveGovernor,
    OracleGovernor,
    make_phased_application,
    simulate_governor,
)
from tests.conftest import fast_config


class TestSweeps:
    def test_device_sweep(self):
        machine = make_machine("A100", n_gpus=2, seed=21)
        config = fast_config(
            (705.0, 1410.0), min_measurements=4, max_measurements=5
        )
        results = sweep_devices(machine, config)
        assert len(results) == 2
        assert results[0].device_index == 0
        assert results[1].device_index == 1
        # Distinct units: measurements differ.
        a = results[0].pair(705.0, 1410.0).latencies_s(False)
        b = results[1].pair(705.0, 1410.0).latencies_s(False)
        assert not (a[: len(b)] == b[: len(a)]).all()

    def test_device_sweep_identical_for_any_device_subset(self, tmp_path):
        # Each device is measured on its own blueprint replica of the
        # node: sweeping one device alone gives the same CSV bytes and
        # virtual wall clock as sweeping it beside the others.
        def sweep(label, indices):
            out = tmp_path / label
            config = fast_config(
                (705.0, 1410.0),
                min_measurements=4,
                max_measurements=5,
                output_dir=str(out),
            )
            machine = make_machine("A100", n_gpus=2, seed=21)
            results = sweep_devices(machine, config, device_indices=indices)
            return {
                r.device_index: (
                    {
                        path.name: path.read_bytes()
                        for path in sorted(out.glob(f"*gpu{r.device_index}*.csv"))
                    },
                    r.wall_virtual_s,
                )
                for r in results
            }

        both = sweep("both", None)
        assert all(both[index][0] for index in (0, 1))
        assert sweep("only0", [0]) == {0: both[0]}
        assert sweep("only1", [1]) == {1: both[1]}

    def test_device_sweep_validates_indices(self):
        machine = make_machine("A100", seed=21)
        config = fast_config((705.0, 1410.0))
        with pytest.raises(ConfigError):
            sweep_devices(machine, config, device_indices=[5])
        with pytest.raises(ConfigError):
            sweep_devices(machine, config, device_indices=[])

    def test_model_sweep(self):
        configs = {
            "A100": fast_config(
                (705.0, 1410.0), min_measurements=4, max_measurements=5
            ),
            "RTX6000": fast_config(
                (750.0, 1650.0), min_measurements=4, max_measurements=5
            ),
        }
        results = sweep_models(configs, seed=5)
        assert set(results) == {"A100", "RTX6000"}
        assert results["A100"].gpu_name == "A100 SXM-4"
        assert results["RTX6000"].gpu_name == "RTX Quadro 6000"

    def test_empty_model_sweep_rejected(self):
        with pytest.raises(ConfigError):
            sweep_models({})


class TestOracleGovernor:
    def test_oracle_never_worse_than_naive(self):
        from repro.gpusim.spec import GH200
        from tests.test_governor import table

        app = make_phased_application(GH200, n_phases=60, seed=4)
        slow = table(
            freqs=(1260.0, 1305.0, 1980.0),
            default=8e-3,
            overrides={(1980.0, 1260.0): 200e-3, (1305.0, 1260.0): 200e-3},
        )
        naive = simulate_governor(app, NaiveGovernor(slow))
        oracle = simulate_governor(app, OracleGovernor(slow))
        assert oracle.total_energy_j <= naive.total_energy_j * 1.01

    def test_oracle_bounds_latency_aware(self):
        from repro.gpusim.spec import A100_SXM4
        from tests.test_governor import table

        app = make_phased_application(A100_SXM4, n_phases=60, seed=5)
        t = table(default=50e-3)
        aware = simulate_governor(app, LatencyAwareGovernor(t))
        oracle = simulate_governor(app, OracleGovernor(t))
        # The oracle is the reference line: no heuristic governor beats it
        # on the energy-delay product by more than noise.
        edp_oracle = oracle.total_energy_j * oracle.total_time_s
        edp_aware = aware.total_energy_j * aware.total_time_s
        assert edp_oracle <= edp_aware * 1.05
