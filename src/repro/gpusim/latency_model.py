"""Stochastic ground-truth model of DVFS switching latency.

The simulated GPU applies a frequency-change request only after a sampled
*switching latency*.  The sample is drawn from a per-(init, target) mixture
distribution defined by an architecture profile
(:mod:`repro.gpusim.arch_profiles`); the mixture structure is what produces
the paper's observations:

* a dominant mode whose left edge is the per-pair best case and whose
  additive right tail produces the worst-case spread,
* optional secondary modes ("clusters", paper Sec. VII-B and Fig. 5) at
  discrete higher levels, up to five per pair on GH200,
* a rare outlier process (driver management pauses, Sec. V-C) that the
  adaptive DBSCAN filtering must remove.

Pair-level structure (mode placement, weights, tail scale) is drawn from a
*deterministic* per-pair RNG seeded by (architecture, device serial, init,
target), so the heatmap patterns are stable across campaigns while each
individual measurement still varies.  The per-device serial component is
what creates the manufacturing variability analysed in paper Figs. 7-9.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Protocol

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "ModeSpec",
    "PairLatencyModel",
    "LatencySample",
    "ArchLatencyProfile",
    "SwitchingLatencyModel",
    "pair_rng",
]


@dataclass(frozen=True)
class ModeSpec:
    """One mixture component: a lognormal mode of the latency distribution.

    ``median_s`` is the mode's median in seconds; ``sigma_log`` the lognormal
    shape parameter; ``weight`` the (unnormalized) mixture weight.
    """

    median_s: float
    sigma_log: float
    weight: float

    def __post_init__(self) -> None:
        if self.median_s <= 0 or self.sigma_log < 0 or self.weight < 0:
            raise ConfigError(f"invalid mode spec: {self}")


@dataclass(frozen=True)
class PairLatencyModel:
    """The full latency distribution for one (init, target) frequency pair.

    ``modes[0]`` is the primary mode; samples from it additionally receive a
    right tail drawn from ``Gamma(tail_shape, tail_scale_s)``, which controls
    the worst-case spread the paper reports as the most valuable quantity.
    """

    modes: tuple[ModeSpec, ...]
    tail_shape: float = 1.4
    tail_scale_s: float = 0.0
    outlier_prob: float = 0.0
    outlier_scale_s: float = 0.1
    outlier_floor_s: float = 0.05

    def __post_init__(self) -> None:
        if not self.modes:
            raise ConfigError("pair model needs at least one mode")
        if self.tail_shape <= 0:
            raise ConfigError("tail_shape must be positive")

    @property
    def weights(self) -> np.ndarray:
        w = np.asarray([m.weight for m in self.modes], dtype=np.float64)
        return w / w.sum()

    @cached_property
    def _cum_weights(self) -> list[float]:
        # cached_property writes straight into __dict__, which bypasses the
        # frozen-dataclass __setattr__ guard — the cache is per instance.
        return np.cumsum(self.weights).tolist()

    def sample(self, rng: np.random.Generator) -> "LatencySample":
        """Draw one switching latency.

        Mode selection inverts the cached cumulative weights with a single
        uniform draw (``bisect_right`` is ``searchsorted(side="right")``)
        — equivalent to (and much cheaper than) a categorical
        ``rng.choice`` per sample.
        """
        idx = min(bisect_right(self._cum_weights, rng.random()), len(self.modes) - 1)
        mode = self.modes[idx]
        latency = mode.median_s * float(
            np.exp(mode.sigma_log * rng.standard_normal())
        )
        if idx == 0 and self.tail_scale_s > 0.0:
            latency += float(rng.gamma(self.tail_shape, self.tail_scale_s))
        is_outlier = False
        if self.outlier_prob > 0.0 and rng.random() < self.outlier_prob:
            latency += self.outlier_floor_s + float(
                rng.exponential(self.outlier_scale_s)
            )
            is_outlier = True
        return LatencySample(
            total_s=latency, mode_index=idx, is_outlier=is_outlier
        )


@dataclass(frozen=True)
class LatencySample:
    """One ground-truth switching-latency draw.

    ``total_s`` covers the span from the driver receiving the request to the
    SM clock being stable at the target frequency.  ``mode_index`` and
    ``is_outlier`` label which mixture component produced the draw so that
    tests can score the methodology's cluster/outlier recovery against
    ground truth.
    """

    total_s: float
    mode_index: int
    is_outlier: bool

    def adaptation_s(self, rng: np.random.Generator, cap_s: float = 0.030) -> float:
        """Duration of the final adaptation ramp within ``total_s``.

        The paper (Sec. IV) notes that during the adaptation period the
        workload runtime "might correspond to any frequency value"; the
        simulator realizes the last 8-22 % of each transition as a short
        staircase of intermediate frequencies, capped at ``cap_s``.
        """
        frac = rng.uniform(0.08, 0.22)
        return float(min(self.total_s * frac, cap_s))


class ArchLatencyProfile(Protocol):
    """Architecture-specific latency behaviour (see arch_profiles)."""

    name: str
    # command transport: CPU -> GPU management processor
    bus_delay_median_s: float
    bus_delay_sigma_log: float
    # wake-up from idle clocks under first load
    wakeup_median_s: float
    wakeup_sigma_log: float

    def pair_model(
        self, init_mhz: float, target_mhz: float, unit_seed: int
    ) -> PairLatencyModel:  # pragma: no cover - protocol
        ...


def pair_rng(
    arch_name: str, unit_seed: int, init_mhz: float, target_mhz: float
) -> np.random.Generator:
    """Deterministic RNG for pair-level distribution structure.

    Seeded from the architecture, the device serial and the frequency pair,
    so the same simulated device always exposes the same per-pair latency
    distribution — a property the real hardware has and that the repetition
    logic of the methodology depends on.  Uses CRC32 rather than ``hash()``
    so the structure is stable across processes (``hash`` is salted by
    PYTHONHASHSEED).
    """
    entropy = [
        zlib.crc32(arch_name.encode("utf-8")),
        int(unit_seed) % (2**32),
        int(round(init_mhz * 16)) % (2**32),
        int(round(target_mhz * 16)) % (2**32),
    ]
    return np.random.default_rng(np.random.SeedSequence(entropy))


class SwitchingLatencyModel:
    """Samples switching latencies and transition shapes for one device.

    Parameters
    ----------
    profile:
        The architecture profile supplying per-pair distributions.
    unit_seed:
        Device-instance serial; distinct serials produce the unit-to-unit
        variation studied in paper Sec. VII-C.
    rng:
        Measurement-level generator (distinct draws per transition).
    """

    def __init__(
        self,
        profile: ArchLatencyProfile,
        unit_seed: int,
        rng: np.random.Generator,
    ) -> None:
        self.profile = profile
        self.unit_seed = unit_seed
        self.rng = rng
        self._pair_cache: dict[tuple[float, float], PairLatencyModel] = {}

    def pair_model(self, init_mhz: float, target_mhz: float) -> PairLatencyModel:
        key = (float(init_mhz), float(target_mhz))
        model = self._pair_cache.get(key)
        if model is None:
            model = self.profile.pair_model(init_mhz, target_mhz, self.unit_seed)
            self._pair_cache[key] = model
        return model

    def use_shared_cache(self, cache: dict) -> None:
        """Adopt an externally owned pair-model cache.

        Pair models are immutable and a pure deterministic function of
        (architecture profile, unit seed, pair), so replica machines of
        the same blueprint can share one cache — the execution engine's
        worker processes keep a per-(architecture, unit-seed) skeleton
        cache alive across jobs instead of re-deriving every pair model
        per replica.
        """
        cache.update(self._pair_cache)
        self._pair_cache = cache

    def sample_transition(
        self, init_mhz: float, target_mhz: float
    ) -> LatencySample:
        return self.pair_model(init_mhz, target_mhz).sample(self.rng)

    def sample_bus_delay(self) -> float:
        """One-way CPU-to-GPU command latency (part of the switching latency)."""
        return self.profile.bus_delay_median_s * float(
            np.exp(self.profile.bus_delay_sigma_log * self.rng.standard_normal())
        )

    def sample_wakeup(self) -> float:
        """Idle-to-locked-clock wake-up latency under first load."""
        return self.profile.wakeup_median_s * float(
            np.exp(self.profile.wakeup_sigma_log * self.rng.standard_normal())
        )
