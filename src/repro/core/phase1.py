"""Phase 1: warm-up, per-frequency characterization, pair validation.

Paper Algorithm 1.  For every benchmark frequency the workload runs in
several kernels — the warm-up kernels stabilize temperature and clocks, the
final kernel's iteration times yield the frequency's mean execution time
and standard deviation.  Every ordered frequency pair is then tested with
the difference confidence interval: pairs whose interval *includes* zero
are statistically indistinguishable and excluded from the benchmark.

(The paper's pseudocode writes the accept condition as ``lbDiff > 0 and
hbDiff < 0``, which is unsatisfiable — an evident typo for the interval
*excluding* zero, i.e. ``lbDiff > 0 or hbDiff < 0``.  We implement the
latter; DESIGN.md records the deviation.)

When requested pairs fail validation, the methodology's remedy applies:
"this phase should be repeated with more workload per iteration" — the
campaign grows ``cycles_per_iteration`` and re-characterizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


from repro.core.config import CONFIDENCE, MAX_WORKLOAD_GROWTH, WORKLOAD_GROWTH_FACTOR
from repro.core.context import BenchContext
from repro.cuda.kernel import MicrobenchmarkKernel
from repro.errors import MeasurementError
from repro.stats.descriptive import SampleStats, summarize
from repro.stats.intervals import difference_ci, two_sigma_band

__all__ = ["FrequencyCharacterization", "Phase1Result", "run_phase1"]


@dataclass(frozen=True)
class FrequencyCharacterization:
    """Iteration-time statistics for one locked swept-axis frequency."""

    freq_mhz: float
    stats: SampleStats
    n_kernels: int

    def band(self, sigmas: float = 2.0) -> tuple[float, float]:
        """The +/- ``sigmas``-standard-deviation acceptance band."""
        return two_sigma_band(self.stats, sigmas)


@dataclass
class Phase1Result:
    """Characterizations plus validated/rejected pairs."""

    characterizations: dict[float, FrequencyCharacterization]
    valid_pairs: list[tuple[float, float]]
    rejected_pairs: list[tuple[float, float]]
    kernel: MicrobenchmarkKernel
    growth_steps: int = 0
    #: frequencies the device could not settle on (power caps make the
    #: locked clock unservable); pairs touching them are skipped
    unreachable: dict[float, str] = field(default_factory=dict)

    def stats_for(self, freq_mhz: float) -> SampleStats:
        try:
            return self.characterizations[float(freq_mhz)].stats
        except KeyError:
            raise MeasurementError(
                f"frequency {freq_mhz:g} MHz was not characterized"
            ) from None

    def is_valid_pair(self, init_mhz: float, target_mhz: float) -> bool:
        return (float(init_mhz), float(target_mhz)) in set(self.valid_pairs)


def characterize_frequency(
    bench: BenchContext, freq_mhz: float, kernel: MicrobenchmarkKernel
) -> FrequencyCharacterization:
    """Run warm-up kernels then the measurement kernel at one frequency.

    Settling first matters: transitions *into* pathological frequency
    bands take hundreds of milliseconds, and characterizing before the
    clock arrived would contaminate the per-frequency statistics every
    later phase depends on.
    """
    cfg = bench.config
    if not bench.settle_swept(freq_mhz):
        raise MeasurementError(
            f"{bench.axis.describe()} did not settle on {freq_mhz:g} "
            f"{bench.axis.unit} during phase 1"
        )
    for _ in range(cfg.warmup_kernels):
        bench.run_filler(cfg.warmup_kernel_duration_s, freq_mhz)
    view = bench.cuda.run(kernel)
    # Only the last kernel's iterations feed the statistics (Algorithm 1
    # line 4-6); earlier kernels absorbed wake-up and settling transients.
    stats = summarize(view.diffs)
    return FrequencyCharacterization(
        freq_mhz=freq_mhz, stats=stats, n_kernels=cfg.warmup_kernels + 1
    )


def validate_pairs(
    characterizations: dict[float, FrequencyCharacterization],
    pairs: list[tuple[float, float]],
    confidence: float,
) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """Split pairs into (valid, rejected) via the difference CI test."""
    valid: list[tuple[float, float]] = []
    rejected: list[tuple[float, float]] = []
    for init, target in pairs:
        a = characterizations[init].stats
        b = characterizations[target].stats
        lb, hb = difference_ci(a, b, confidence)
        if lb > 0.0 or hb < 0.0:
            valid.append((init, target))
        else:
            rejected.append((init, target))
    return valid, rejected


def run_phase1(bench: BenchContext) -> Phase1Result:
    """Characterize all frequencies, growing the workload if needed.

    Frequencies the device cannot settle on (e.g. locked clocks above the
    board power budget) are recorded as unreachable; every pair touching
    them is excluded — the tool's power-throttle skip rule applied at the
    earliest point it can be detected.
    """
    from repro.gpusim.thermal import ThrottleReasons

    cfg = bench.config
    kernel = bench.base_kernel()

    growth = 0
    while True:
        characterizations: dict[float, FrequencyCharacterization] = {}
        unreachable: dict[float, str] = {}
        for f in cfg.frequencies:
            try:
                characterizations[float(f)] = characterize_frequency(
                    bench, f, kernel
                )
            except MeasurementError:
                reasons = bench.handle.current_clocks_throttle_reasons()
                # On the power-cap axis SW_POWER_CAP is the measured
                # signal, not a hazard (axis.benign_throttle); a settle
                # failure there is a plain never-settled.
                power_hazard = (
                    ThrottleReasons.SW_POWER_CAP & ~bench.axis.benign_throttle
                )
                if reasons & power_hazard:
                    unreachable[float(f)] = "power-throttled"
                else:
                    unreachable[float(f)] = "never-settled"

        pairs = [
            (a, b)
            for a, b in cfg.pairs()
            if a not in unreachable and b not in unreachable
        ]
        valid, rejected = validate_pairs(characterizations, pairs, CONFIDENCE)
        if not rejected or growth >= MAX_WORKLOAD_GROWTH:
            return Phase1Result(
                characterizations=characterizations,
                valid_pairs=valid,
                rejected_pairs=rejected,
                kernel=kernel,
                growth_steps=growth,
                unreachable=unreachable,
            )
        # Indistinguishable pairs: grow per-iteration work and retry
        # (paper Sec. IV / Algorithm 1 commentary).
        growth += 1
        kernel = kernel.scaled(iteration_factor=WORKLOAD_GROWTH_FACTOR)
