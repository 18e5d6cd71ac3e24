"""Measurement axes: which clock domain a campaign sweeps.

The paper's methodology (phase 1 distinguishability → probe-sized switch
window → phase 2/3 RSE-driven measurement → DBSCAN labelling) is written
for the SM clock, but nothing in it is SM-specific.  A
:class:`MeasurementAxis` bundles everything the three phases need to know
about one swept clock domain:

* the driver operations — issue a locked-clock request, read the current
  clock back, settle on a frequency under load (phase 1 characterization
  and the phase-2 initial condition),
* the *facet* preparation — locking the complementary domain before the
  campaign (the memory axis measures memory pairs at a locked SM clock,
  mirroring how core×memory grid campaigns lock the memory clock per
  facet),
* the phase-1 distinguishability workload (how memory-bound the
  microbenchmark kernel must be so iteration times respond to the swept
  clock at all),
* probe/window sizing (the expected iteration duration at a swept
  frequency — for the memory axis that is the roofline stall model at the
  locked SM clock),
* naming (CSV prefix, human label, skip-reason strings).

Three axes ship today — :data:`SM_CORE` (the paper's setup, and the
default), :data:`MEMORY` (memory-clock pair switching latency, against
the simulator's ``MemoryLatencyProfile`` ground truth) and
:data:`POWER_CAP` (board power-limit switching latency, against
``PowerCapLatencyProfile``; the swept "frequencies" are limits in watts
and the observable is the sustainable-clock cap the limit enforces).  The
default axis is guaranteed **bit-identical** to the pre-axis pipeline:
every ``SM_CORE`` hook delegates to exactly the calls the hard-coded loop
made, with no extra RNG draws or float operations.

Adding an axis means subclassing :class:`MeasurementAxis`, implementing
the five driver hooks, and registering the instance in :data:`AXES`; the
campaign loop, probe stage, execution engine, CSV layer and analysis
labels all pick it up through the registry.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.gpusim.thermal import ThrottleReasons

__all__ = [
    "MeasurementAxis",
    "SmCoreAxis",
    "MemoryAxis",
    "PowerCapAxis",
    "SM_CORE",
    "MEMORY",
    "POWER_CAP",
    "AXES",
    "axis_by_name",
    "axis_stream_id",
]


class MeasurementAxis:
    """One swept clock domain of the measurement pipeline.

    Subclasses provide the driver-level operations; everything above
    (phases 1-3, probe stage, campaign loop, engine workers) is generic
    over the axis.  ``bench`` arguments are
    :class:`~repro.core.context.BenchContext` instances.
    """

    #: registry/config name (``LatestConfig.axis``)
    name: str
    #: short human label used in messages and report headers
    pretty: str
    #: per-pair CSV file prefix (``swlat`` family, see :mod:`repro.core.csvio`)
    csv_prefix: str
    #: default memory-bound fraction of the benchmark kernel when the
    #: config does not override it (``kernel_memory_intensity``)
    default_kernel_intensity: float
    #: skip reason recorded when this axis's *facet* clock never settles
    facet_fail_reason: str
    #: throttle reasons that are an *expected signal* on this axis rather
    #: than a hazard: the power-cap axis deliberately drives the device
    #: into ``SW_POWER_CAP``, so the campaign's power-throttle skip rule
    #: must ignore it there (and only there)
    benign_throttle: ThrottleReasons = ThrottleReasons.NONE
    #: True when the axis locks the SM clock as its campaign facet (and
    #: therefore supports multi-facet ``locked_sm_mhz`` sweeps)
    locks_sm_facet: bool = False
    #: unit of the swept coordinate (clock domains sweep MHz; the
    #: power-cap axis sweeps watts)
    unit: str = "MHz"

    # -- driver operations --------------------------------------------
    def set_clock(self, bench, freq_mhz: float):
        """Issue the locked-clock request; returns the ground-truth record."""
        raise NotImplementedError

    def settle(self, bench, freq_mhz: float) -> bool:
        """Bring the swept clock to ``freq_mhz`` under sustained load."""
        raise NotImplementedError

    def prepare_facet(self, bench) -> bool:
        """Lock the complementary domain before characterization/measurement.

        Called once per campaign facet (and once per engine pair job, which
        starts from a fresh replica machine).  Returns ``False`` when the
        facet clock cannot be reached — every pair is then skipped with
        :attr:`facet_fail_reason`.
        """
        raise NotImplementedError

    def iteration_duration_s(self, bench, kernel, freq_mhz: float) -> float:
        """Expected duration of one kernel iteration at a swept frequency.

        Monotonically decreasing in ``freq_mhz`` for both shipped axes, so
        window sizing with ``max(init, target)`` never undershoots in time.
        """
        raise NotImplementedError

    def locked_complement_mhz(self, bench) -> "float | None":
        """The complementary clock :meth:`prepare_facet` locks, if any.

        Feeds ``CampaignResult.locked_sm_mhz`` (reports, CLI banner, the
        summary-CSV footer); ``None`` when the axis locks nothing.
        """
        return None

    # -- presentation helpers -----------------------------------------
    @property
    def is_default(self) -> bool:
        return self.name == "sm_core"

    def describe(self) -> str:
        return f"{self.pretty} clock"


class SmCoreAxis(MeasurementAxis):
    """The paper's setup: sweep the SM (graphics) clock.

    Every hook delegates to the exact call the pre-axis pipeline made —
    the default axis stays bit-identical by construction.
    """

    name = "sm_core"
    pretty = "SM"
    csv_prefix = "swlat"
    default_kernel_intensity = 0.30
    #: the SM axis's facet is the (optional) locked memory clock of a
    #: core×memory grid campaign
    facet_fail_reason = "memory-clock-never-settled"

    def set_clock(self, bench, freq_mhz: float):
        return bench.set_frequency(freq_mhz)

    def settle(self, bench, freq_mhz: float) -> bool:
        return bench.settle_on(freq_mhz)

    def prepare_facet(self, bench) -> bool:
        # Legacy campaigns touch nothing; grid campaigns lock their memory
        # facet through the campaign loop's per-facet set_memory_clock.
        return True

    def iteration_duration_s(self, bench, kernel, freq_mhz: float) -> float:
        return kernel.iteration_duration_s(freq_mhz)


class MemoryAxis(MeasurementAxis):
    """Sweep the memory clock at a locked SM clock.

    Memory-clock changes retrain the DRAM interface (one to two orders of
    magnitude slower than an SM PLL relock); the campaign measures them
    through the same phase-1/2/3 machinery, with the SM clock held at
    ``LatestConfig.locked_sm_mhz`` (device maximum when unset) so the only
    thing shaping iteration times is the roofline memory stall.
    """

    name = "memory"
    pretty = "memory"
    csv_prefix = "swlatmem"
    #: memory-bound enough that the stall factor separates neighbouring
    #: P-states well beyond iteration noise, while staying < 1 (a pure
    #: memory workload would make the compute term vanish entirely)
    default_kernel_intensity = 0.70
    facet_fail_reason = "locked-sm-clock-never-settled"
    locks_sm_facet = True

    def set_clock(self, bench, freq_mhz: float):
        return bench.handle.set_memory_locked_clocks(freq_mhz, freq_mhz)

    def settle(self, bench, freq_mhz: float) -> bool:
        """Lock the memory clock and wait (under load) until it settles.

        Delegates to :meth:`BenchContext.set_memory_clock` — one settle
        procedure for the memory domain, whether it is the swept clock or
        a grid campaign's facet.
        """
        return bench.set_memory_clock(freq_mhz)

    def prepare_facet(self, bench) -> bool:
        """Lock and settle the SM clock the whole campaign runs at."""
        return bench.settle_on(bench.facet_sm_mhz())

    def locked_complement_mhz(self, bench) -> float:
        return bench.facet_sm_mhz()

    def iteration_duration_s(self, bench, kernel, freq_mhz: float) -> float:
        """Iteration duration at the locked SM clock, stalled by memory.

        The roofline stall factor is exactly 1.0 at the reference memory
        clock and grows as the memory clock drops, so duration decreases
        monotonically in ``freq_mhz`` — the window-sizing contract.
        """
        from repro.gpusim.sm import memory_stall_factor

        stall = float(
            memory_stall_factor(
                freq_mhz,
                bench.device.spec.memory_frequency_mhz,
                kernel.memory_intensity,
            )
        )
        return kernel.iteration_duration_s(bench.facet_sm_mhz()) * stall


class PowerCapAxis(MeasurementAxis):
    """Sweep the board power limit at a locked SM clock.

    The swept "frequencies" are power limits in watts.  A limit below the
    locked clock's draw caps the sustainable SM clock (the
    ``SW_POWER_CAP`` throttle path), so iteration times respond to the
    enforced limit through the clock itself — the capped-clock roofline.
    Ground truth is the simulator's ``PowerCapLatencyProfile``: the span
    from the limit write to the power controller enforcing the new cap.

    Driving the device into ``SW_POWER_CAP`` is the whole point here, so
    that reason is *benign* on this axis: the campaign's power-throttle
    skip rule (paper Sec. VI) must not abandon pairs over the very signal
    being measured.
    """

    name = "power"
    pretty = "power-limit"
    csv_prefix = "swlatpow"
    #: the cap acts on the SM clock, so the legacy compute-bound workload
    #: already responds to it; no memory-bound bias needed
    default_kernel_intensity = 0.30
    facet_fail_reason = "power-axis-sm-clock-never-settled"
    benign_throttle = ThrottleReasons.SW_POWER_CAP
    locks_sm_facet = True
    unit = "W"

    def set_clock(self, bench, limit_w: float):
        return bench.handle.set_power_limit(limit_w)

    def settle(self, bench, limit_w: float) -> bool:
        """Set the limit and wait (under load) for the cap to be enforced."""
        return bench.set_power_limit(limit_w)

    def prepare_facet(self, bench) -> bool:
        """Lock and settle the SM clock the whole campaign runs at."""
        return bench.settle_on(bench.facet_sm_mhz())

    def locked_complement_mhz(self, bench) -> float:
        return bench.facet_sm_mhz()

    def iteration_duration_s(self, bench, kernel, limit_w: float) -> float:
        """Iteration duration at the clock the limit sustains.

        The capped-clock roofline: the effective SM clock is the locked
        facet clock clipped by the limit's sustainable clock, so duration
        decreases monotonically in ``limit_w`` — the window-sizing
        contract (watts play the role of the swept frequency).
        """
        capped = min(
            bench.facet_sm_mhz(),
            float(bench.device.thermal.sustainable_clock_mhz(limit_w)),
        )
        return kernel.iteration_duration_s(capped)

    def describe(self) -> str:
        return "board power limit"


SM_CORE = SmCoreAxis()
MEMORY = MemoryAxis()
POWER_CAP = PowerCapAxis()

#: axis registry, in declaration order; the position is also the axis's
#: stable id inside engine seed spawn keys — append-only
AXES: dict[str, MeasurementAxis] = {
    SM_CORE.name: SM_CORE,
    MEMORY.name: MEMORY,
    POWER_CAP.name: POWER_CAP,
}


def axis_by_name(name: str) -> MeasurementAxis:
    """Resolve a config/CLI axis name; raises :class:`ConfigError`."""
    try:
        return AXES[name]
    except KeyError:
        raise ConfigError(
            f"unknown measurement axis {name!r}; known: {sorted(AXES)}"
        ) from None


def axis_stream_id(name: str) -> int:
    """The axis's stable position for seed spawn keys (append-only)."""
    try:
        return list(AXES).index(name)
    except ValueError:
        raise ConfigError(f"unknown measurement axis {name!r}") from None
