"""Tests for GPU specifications (paper Table I data)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.gpusim.spec import (
    A100_SXM4,
    GH200,
    RTX_QUADRO_6000,
    GpuSpec,
    lookup_spec,
)


class TestTable1Data:
    """The three specs must carry the paper's Table I values."""

    @pytest.mark.parametrize(
        "spec, arch, sm, mem, fmax, fnom, fmin, steps",
        [
            (RTX_QUADRO_6000, "Turing", 72, 7001, 2100, 1440, 300, 120),
            (A100_SXM4, "Ampere", 108, 1215, 1410, 1095, 210, 81),
            (GH200, "Hopper", 132, 2619, 1980, 1980, 345, 110),
        ],
    )
    def test_table1_row(self, spec, arch, sm, mem, fmax, fnom, fmin, steps):
        assert spec.architecture == arch
        assert spec.sm_count == sm
        assert spec.memory_frequency_mhz == mem
        assert spec.max_sm_frequency_mhz == fmax
        assert spec.nominal_sm_frequency_mhz == fnom
        assert spec.min_sm_frequency_mhz == fmin
        assert spec.sm_frequency_steps == steps

    @pytest.mark.parametrize(
        "spec, driver",
        [
            (RTX_QUADRO_6000, "530.41.03"),
            (A100_SXM4, "550.54.15"),
            (GH200, "545.23.08"),
        ],
    )
    def test_driver_versions(self, spec, driver):
        assert spec.driver_version == driver


class TestClockLadder:
    @pytest.mark.parametrize("spec", [RTX_QUADRO_6000, A100_SXM4, GH200])
    def test_ladder_descending_and_bounded(self, spec):
        clocks = spec.supported_clocks_mhz
        assert clocks[0] == spec.max_sm_frequency_mhz
        assert clocks[-1] == spec.min_sm_frequency_mhz
        assert all(a > b for a, b in zip(clocks, clocks[1:]))

    @pytest.mark.parametrize("spec", [RTX_QUADRO_6000, A100_SXM4, GH200])
    def test_ladder_step_is_15mhz(self, spec):
        clocks = np.asarray(spec.supported_clocks_mhz)
        steps = np.diff(clocks)
        assert np.allclose(steps, -15.0)

    def test_a100_ladder_count_exact(self):
        # (1410-210)/15 + 1 = 81, matching the paper exactly.
        assert len(A100_SXM4.supported_clocks_mhz) == 81

    def test_gh200_ladder_count_exact(self):
        assert len(GH200.supported_clocks_mhz) == 110

    def test_paper_heatmap_frequencies_supported(self):
        # Every frequency in the paper's Fig. 3 GH200 axes is a ladder entry.
        gh200_freqs = [705, 795, 885, 975, 1095, 1170, 1260, 1275, 1290,
                       1350, 1410, 1500, 1665, 1770, 1830, 1875, 1920, 1980]
        ladder = set(GH200.supported_clocks_mhz)
        assert all(float(f) in ladder for f in gh200_freqs)

    def test_nearest_supported_clock(self):
        assert A100_SXM4.nearest_supported_clock(1100.0) == 1095.0

    def test_validate_clock_accepts_ladder(self):
        assert A100_SXM4.validate_clock(705.0) == 705.0

    def test_validate_clock_rejects_off_ladder(self):
        with pytest.raises(ConfigError):
            A100_SXM4.validate_clock(1100.0)



class TestLookup:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("A100", A100_SXM4),
            ("a100", A100_SXM4),
            ("gh200", GH200),
            ("RTX6000", RTX_QUADRO_6000),
            ("rtx_quadro_6000", RTX_QUADRO_6000),
        ],
    )
    def test_lookup_aliases(self, name, expected):
        assert lookup_spec(name) is expected

    def test_lookup_unknown_raises(self):
        with pytest.raises(ConfigError):
            lookup_spec("H100")

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            GpuSpec(
                name="bad",
                architecture="X",
                sm_count=0,
                driver_version="1",
                memory_frequency_mhz=1,
                min_sm_frequency_mhz=100,
                max_sm_frequency_mhz=200,
                nominal_sm_frequency_mhz=150,
                sm_frequency_steps=5,
                idle_sm_frequency_mhz=100,
            )

    def test_inconsistent_range_rejected(self):
        with pytest.raises(ConfigError):
            GpuSpec(
                name="bad",
                architecture="X",
                sm_count=10,
                driver_version="1",
                memory_frequency_mhz=1,
                min_sm_frequency_mhz=300,
                max_sm_frequency_mhz=200,
                nominal_sm_frequency_mhz=250,
                sm_frequency_steps=5,
                idle_sm_frequency_mhz=100,
            )


class TestPowerLimitLadder:
    @pytest.mark.parametrize("spec", [RTX_QUADRO_6000, A100_SXM4, GH200])
    def test_ladder_descending_and_contains_tdp(self, spec):
        ladder = spec.supported_power_limits_w
        assert list(ladder) == sorted(ladder, reverse=True)
        assert spec.tdp_watts in ladder
        assert all(spec.idle_power_watts < w <= spec.tdp_watts for w in ladder)

    def test_nearest_and_validate(self):
        assert A100_SXM4.nearest_supported_power_limit(325.0) == 330.0
        assert A100_SXM4.validate_power_limit(270.0) == 270.0
        with pytest.raises(ConfigError):
            A100_SXM4.validate_power_limit(305.0)

    def test_nearest_vectorized(self):
        got = A100_SXM4.nearest_supported_power_limits(
            np.asarray([401.0, 221.0, 330.0])
        )
        assert list(got) == [400.0, 220.0, 330.0]

    def _spec_with_limits(self, limits):
        return GpuSpec(
            name="bad",
            architecture="X",
            sm_count=10,
            driver_version="1",
            memory_frequency_mhz=1000,
            min_sm_frequency_mhz=100,
            max_sm_frequency_mhz=200,
            nominal_sm_frequency_mhz=150,
            sm_frequency_steps=5,
            idle_sm_frequency_mhz=100,
            tdp_watts=300.0,
            idle_power_watts=50.0,
            power_limits_w=limits,
        )

    def test_limit_at_or_below_idle_power_rejected(self):
        # Such a limit inverts to a 0 MHz sustainable clock and nothing
        # could ever run under it; the simulated driver rejects it like
        # real boards reject -pl below their minimum.
        with pytest.raises(ConfigError):
            self._spec_with_limits((300.0, 50.0))
        with pytest.raises(ConfigError):
            self._spec_with_limits((300.0, 20.0))

    def test_limit_above_tdp_rejected(self):
        with pytest.raises(ConfigError):
            self._spec_with_limits((350.0,))

    def test_valid_ladder_accepted(self):
        spec = self._spec_with_limits((300.0, 200.0, 100.0))
        assert spec.supported_power_limits_w == (300.0, 200.0, 100.0)
