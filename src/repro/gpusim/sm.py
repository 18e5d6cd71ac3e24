"""Vectorized SM iteration execution.

The microbenchmark kernel of the methodology is an iterative arithmetic
workload: iteration ``k`` on SM ``i`` consumes ``cycles[i, k]`` clock cycles
(mean ``C`` with small multiplicative noise), executed back-to-back at the
instantaneous SM frequency ``f(t)``.

Because ``f(t)`` is piecewise constant (:class:`FrequencyTrajectory`), the
cumulative-cycle function ``G(t) = ∫ f`` is piecewise linear and invertible,
so every iteration boundary can be computed in closed form::

    end[i, k]   = G⁻¹( G(start_i) + Σ_{j<=k} cycles[i, j] )
    start[i, k] = end[i, k-1]                      (back-to-back)

This is exact — iterations that straddle frequency changes are implicitly
split across segments by the piecewise inversion.  The matrix work is one
row-wise cumulative sum and one row-wise inversion: each row is bisected
against the segment boundaries, and each run of iterations inside one
segment maps through one multiply-add.  The per-kernel prelude — segment
compilation, every SM's start integral, the last-boundary inversion —
handles 1-8 segments and a few SMs, so it runs on Python floats, applying
the float64 operations of the array form it replaced.  A scalar reference
implementation is provided for property-based equivalence testing.

Integration is split in two stages so the hot campaign path can defer the
expensive part.  :func:`prepare_integration` consumes the RNG-dependent
inputs (cycle draws) immediately, compiles the trajectory, and computes
only the *last* iteration boundary per SM — enough for the kernel
completion time that drives the machine clock.  The full per-iteration
inversion and the device-view conversion happen lazily in
:meth:`PendingIntegration.ends_true`, which kernels whose timestamps are
never read (filler workloads, rolled-back speculative passes) simply never
call.  The split is bit-exact: the deferred inversion applies the same
elementwise operation sequence to the same cumulative-cycle buffer, so the
materialized last column equals the eagerly computed completion boundary
float for float.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from repro.errors import SimulationError
from repro.gpusim.trajectory import FrequencyTrajectory

__all__ = [
    "KernelTimestamps",
    "PendingIntegration",
    "completion_from_boundaries",
    "integrate_iterations",
    "integrate_iterations_reference",
    "memory_stall_factor",
    "merge_memory_segments",
    "prepare_integration",
    "prepare_integration_from_boundaries",
    "sample_iteration_cycles",
]


def memory_stall_factor(
    mem_freq_mhz: np.ndarray | float,
    mem_ref_mhz: float,
    memory_intensity: float,
) -> np.ndarray | float:
    """Cycle-cost multiplier of running at ``mem_freq_mhz`` vs the reference.

    A roofline-style decomposition: a fraction ``memory_intensity`` of each
    iteration's cycle budget covers memory traffic whose wall time scales
    inversely with the memory clock, the rest is pure compute.  The
    effective SM frequency the integrator should consume cycles at is then
    ``f_sm / stall`` with ``stall = (1 - β) + β * f_ref / f_mem``.  At the
    reference memory clock the factor is *exactly* 1.0 (explicitly pinned —
    ``(1-β)+β`` is not bit-exact in floats), preserving the legacy
    single-memory-clock timeline to the last bit.
    """
    mem_freq_mhz = np.asarray(mem_freq_mhz, dtype=np.float64)
    stall = (1.0 - memory_intensity) + memory_intensity * (
        mem_ref_mhz / mem_freq_mhz
    )
    return np.where(mem_freq_mhz == mem_ref_mhz, 1.0, stall)


def merge_memory_segments(
    tb: np.ndarray,
    f_mhz: np.ndarray,
    mem_tb: np.ndarray,
    mem_f_mhz: np.ndarray,
    memory_intensity: float,
    mem_ref_mhz: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold a memory-clock timeline into SM segments as effective frequencies.

    Inputs are two compiled segment timelines in the
    :meth:`~repro.gpusim.dvfs.DvfsClockDomain.compiled_segments` form
    (boundaries with a trailing ``+inf``, per-segment MHz).  The result is
    the union timeline whose per-segment frequency is the SM clock divided
    by the :func:`memory_stall_factor` of the concurrent memory clock —
    exactly what the piecewise cycle integrator needs for kernels whose
    iteration time responds to both domains.
    """
    t_all, i_sm, i_mem = _union_segment_indices(tb, f_mhz, mem_tb, mem_f_mhz)
    stall = memory_stall_factor(
        np.asarray(mem_f_mhz)[i_mem], mem_ref_mhz, memory_intensity
    )
    return np.append(t_all, np.inf), np.asarray(f_mhz)[i_sm] / stall


def merge_cap_segments(
    tb: np.ndarray,
    f_mhz: np.ndarray,
    cap_tb: np.ndarray,
    cap_mhz: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Clip SM segments from above by a piecewise-constant clock cap.

    Both inputs are compiled segment timelines (boundaries with a trailing
    ``+inf``, per-segment MHz).  The result is the union timeline whose
    per-segment frequency is ``min(f_sm, cap)`` — how a power-limit cap
    (the sustainable-clock image of the limit timeline) shapes the clock
    the integrator consumes cycles at.
    """
    t_all, i_sm, i_cap = _union_segment_indices(tb, f_mhz, cap_tb, cap_mhz)
    return np.append(t_all, np.inf), np.minimum(
        np.asarray(f_mhz)[i_sm], np.asarray(cap_mhz)[i_cap]
    )


def _union_segment_indices(
    tb_a: np.ndarray,
    f_a: np.ndarray,
    tb_b: np.ndarray,
    f_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Union boundary timeline of two compiled segment sets, with the
    per-boundary segment index into each (the shared scaffolding of the
    merge functions above — boundary alignment lives in one place)."""
    t_all = np.union1d(tb_a[:-1], tb_b[:-1])
    i_a = np.clip(np.searchsorted(tb_a, t_all, side="right") - 1, 0, len(f_a) - 1)
    i_b = np.clip(np.searchsorted(tb_b, t_all, side="right") - 1, 0, len(f_b) - 1)
    return t_all, i_a, i_b


@dataclass
class KernelTimestamps:
    """Per-iteration boundaries of one kernel execution, in true time.

    Arrays are ``(n_sm, n_iterations)``.  Use
    :meth:`~KernelTimestamps.as_device_view` to obtain what the host
    actually observes: timestamps read from the quantized GPU timer.
    """

    starts_true: np.ndarray
    ends_true: np.ndarray
    #: True when ``starts_true[:, 1:]`` is exactly ``ends_true[:, :-1]``
    #: (back-to-back iterations, as produced by the integrators).  Lets the
    #: device view convert each boundary once instead of twice.
    back_to_back: bool = False

    def __post_init__(self) -> None:
        if self.starts_true.shape != self.ends_true.shape:
            raise SimulationError("start/end shape mismatch")

    @property
    def n_sm(self) -> int:
        return self.starts_true.shape[0]

    @property
    def n_iterations(self) -> int:
        return self.starts_true.shape[1]

    @property
    def completion_true(self) -> float:
        """True time when the last SM retires its last iteration."""
        return float(self.ends_true[:, -1].max()) if self.ends_true.size else 0.0

    def durations_true(self) -> np.ndarray:
        return self.ends_true - self.starts_true

    def as_device_view(self, gpu_clock) -> "DeviceTimestamps":
        """Convert to GPU-timer readings (offset, drift, 1 us quantization)."""
        ends = gpu_clock.convert_array(self.ends_true)
        if self.back_to_back and self.ends_true.shape[1] > 1:
            # Iteration k starts exactly when k-1 ends, and the conversion
            # is a pure function of the true timestamp — reuse the
            # converted ends instead of converting the same values again.
            starts = np.empty_like(ends)
            starts[:, 0] = gpu_clock.convert_array(self.starts_true[:, 0])
            starts[:, 1:] = ends[:, :-1]
        else:
            starts = gpu_clock.convert_array(self.starts_true)
        return DeviceTimestamps(starts=starts, ends=ends)


@dataclass
class DeviceTimestamps:
    """What the methodology sees: GPU-clock iteration timestamps."""

    starts: np.ndarray
    ends: np.ndarray

    @property
    def diffs(self) -> np.ndarray:
        """Per-iteration execution times as measured by the device timer."""
        return self.ends - self.starts

    @property
    def n_sm(self) -> int:
        return self.starts.shape[0]

    @property
    def n_iterations(self) -> int:
        return self.starts.shape[1]


def sample_iteration_cycles(
    rng: np.random.Generator,
    n_sm: int,
    n_iterations: int,
    cycles_per_iteration: float,
    noise_rel: float,
) -> np.ndarray:
    """Draw the per-iteration cycle-count matrix.

    Multiplicative Gaussian noise models pipeline/issue jitter; the floor at
    1 % of the mean keeps pathological draws physical.
    """
    if n_sm <= 0 or n_iterations <= 0:
        raise SimulationError("need at least one SM and one iteration")
    # In-place evaluation of cycles_per_iteration + (noise * cycles) * z:
    # the draw matrix is the hottest allocation in the simulator, so the
    # scalings reuse it instead of materializing temporaries, and the two
    # scalar factors are folded into one multiply.
    cycles = rng.standard_normal((n_sm, n_iterations))
    cycles *= noise_rel * cycles_per_iteration
    cycles += cycles_per_iteration
    np.maximum(cycles, 0.01 * cycles_per_iteration, out=cycles)
    return cycles


def _compile_trajectory(
    trajectory: FrequencyTrajectory, t0: float
) -> tuple[list[float], list[float], list[float]]:
    """Segment boundary times, frequencies (Hz) and cumulative cycles from t0."""
    segs = list(trajectory.iter_from(t0))
    tb = [float(s.t_start) for s in segs] + [float(segs[-1].t_end)]
    f_hz = [float(s.freq_mhz) * 1e6 for s in segs]
    return tb, f_hz, _cumulative_cycles(tb, f_hz)


def _cumulative_cycles(tb: list[float], f_hz: list[float]) -> list[float]:
    """Cycle integral ``G`` at every segment boundary, ``G(tb[0]) = 0``.

    The final (possibly infinite) segment contributes an infinite capacity.
    Segment lists hold 1-8 entries, so this runs on Python floats: the
    products and the left-to-right running sum are the float64 operations
    ``np.cumsum`` applies.
    """
    if any(f <= 0 for f in f_hz):
        raise SimulationError("non-positive frequency in trajectory")
    seg_cycles = []
    for k, f in enumerate(f_hz):
        span = tb[k + 1] - tb[k]
        seg_cycles.append(math.inf if math.isinf(span) else span * f)
    return [0.0, *accumulate(seg_cycles)]


def _affine_inverse(
    tb: list[float], f_hz: list[float], g: list[float]
) -> tuple[list[float], list[float]]:
    """Per-segment folded inverse ``t = c * inv_f + shift`` of ``G``.

    The per-segment map ``(c - g_j) / f_j + tb_j`` becomes
    ``c * (1/f_j) + (tb_j - g_j / f_j)``: one multiply and one add per
    element.  Both inversions — the scalar last boundary in
    :func:`_prepare_from_compiled` and the row-wise matrix pass in
    :meth:`PendingIntegration.ends_true` — take their constants from here.
    """
    inv_f = [1.0 / f for f in f_hz]
    shift = [t - gj * i for t, gj, i in zip(tb, g, inv_f)]
    return inv_f, shift


@dataclass
class PendingIntegration:
    """Deferred iteration-boundary integration for one kernel.

    Holds the compiled trajectory (boundary times ``tb``, segment
    frequencies ``f_hz``, cumulative cycles ``g``, and the folded inverse
    ``inv_f``/``shift``), the per-SM start times and cycle-integral
    offsets, and the cumulative cycle matrix.  These per-kernel scalars
    are Python float lists.  The last iteration boundary of every SM — all
    the device needs for the completion time — is computed eagerly by
    :func:`prepare_integration`; the full matrix inversion runs only on
    :meth:`ends_true`, which is idempotent (the result is cached, the
    cumulative buffer consumed).
    """

    tb: list[float]
    f_hz: list[float]
    g: list[float]
    inv_f: list[float]
    shift: list[float]
    sm_start_times: list[float]
    g_start: list[float]
    cycles_cum: np.ndarray | None
    last_ends_true: list[float]
    _ends: np.ndarray | None = field(default=None, repr=False)
    _result: KernelTimestamps | None = field(default=None, repr=False)

    @property
    def completion_true(self) -> float:
        """True time when the last SM retires its last iteration."""
        return max(self.last_ends_true)

    @property
    def cycles_shape(self) -> tuple[int, int]:
        """``(n_sm, n_iterations)`` of the pending kernel."""
        buf = self.cycles_cum if self.cycles_cum is not None else self._ends
        assert buf is not None
        return buf.shape

    def _invert(self, c_abs: np.ndarray) -> np.ndarray:
        """Map absolute cycle targets to true times (in place on c_abs).

        Every row of ``c_abs`` is nondecreasing (cumulative cycle rows
        always are), so the segment of each element is found by bisecting
        the row against the segment boundaries — ``O(n_seg log n)``
        lookups per row — and each contiguous run maps through the
        segment's scalar multiply+add (see :func:`_affine_inverse`).
        """
        n_seg = len(self.f_hz)
        inv_f, shift = self.inv_f, self.shift
        if n_seg == 1:
            # Constant-frequency fast path (fillers, post-settle kernels):
            # the inversion is a single linear map.
            c_abs *= inv_f[0]
            c_abs += shift[0]
            return c_abs
        # An element belongs to segment s when it reaches g[s] but not
        # g[s+1] (``bisect_right`` semantics of the last-boundary
        # inversion: boundary-valued elements and elements past the last
        # boundary land in the later/last segment, zero-capacity segments
        # get empty runs).
        inner = np.asarray(self.g[1:n_seg])
        for row in c_abs:
            bounds = row.searchsorted(inner, side="left").tolist()
            bounds.append(row.size)
            prev = 0
            for s in range(n_seg):
                hi = bounds[s]
                if hi > prev:
                    seg = row[prev:hi]
                    seg *= inv_f[s]
                    seg += shift[s]
                    prev = hi
        return c_abs

    def ends_true(self) -> np.ndarray:
        """All iteration-end boundaries (full inversion, cached).

        The pass-block pipeline consumes ends directly — with back-to-back
        iterations every start except the first per SM *is* the previous
        end, so a separate starts matrix never needs building there.
        """
        if self._ends is not None:
            return self._ends
        assert self.cycles_cum is not None, "pending buffers already consumed"
        c_abs = self.cycles_cum
        self.cycles_cum = None  # consumed in place below
        c_abs += np.asarray(self.g_start)[:, None]
        # Cumulative cycle rows are nondecreasing (cycle draws are floored
        # strictly above zero), so the row-bisecting inversion applies.
        self._ends = self._invert(c_abs)
        return self._ends

    def materialize(self) -> KernelTimestamps:
        """Run the full inversion and build the per-iteration boundaries."""
        if self._result is not None:
            return self._result
        ends = self.ends_true()
        starts = np.empty_like(ends)
        starts[:, 0] = self.sm_start_times
        starts[:, 1:] = ends[:, :-1]
        self._result = KernelTimestamps(
            starts_true=starts, ends_true=ends, back_to_back=True
        )
        return self._result


def prepare_integration(
    trajectory: FrequencyTrajectory,
    sm_start_times: np.ndarray,
    cycles: np.ndarray,
) -> PendingIntegration:
    """Stage one of the exact integration: compile, cumsum, last boundary.

    Parameters
    ----------
    trajectory:
        Effective SM frequency over time; must cover every start time and
        extend (possibly to infinity) past the last iteration.
    sm_start_times:
        ``(n_sm,)`` true start time of iteration 0 on each SM (kernel start
        plus block-scheduling stagger).
    cycles:
        ``(n_sm, n_iterations)`` cycle cost of every iteration.
    """
    sm_start_times = np.asarray(sm_start_times, dtype=np.float64)
    cycles = np.asarray(cycles, dtype=np.float64)
    if cycles.ndim != 2 or sm_start_times.shape != (cycles.shape[0],):
        raise SimulationError("shape mismatch between start times and cycles")

    tb, f_hz, g = _compile_trajectory(trajectory, float(sm_start_times.min()))
    return _prepare_from_compiled(tb, f_hz, g, sm_start_times.tolist(), cycles)


def prepare_integration_from_boundaries(
    tb: list[float],
    f_mhz: list[float],
    sm_start_times: list[float],
    cycles: np.ndarray,
    consume: bool = False,
) -> PendingIntegration:
    """Boundary-list twin of :func:`prepare_integration`.

    Consumes the segment form :meth:`DvfsClockDomain.compiled_segments`
    produces (boundary times with trailing ``inf``, per-segment MHz) —
    the hot path skips :class:`FrequencyTrajectory` object churn entirely.
    The MHz→Hz scaling and the cumulative-cycle construction apply the
    exact operations :func:`_compile_trajectory` applies, so both entries
    produce identical floats for identical segments.  ``consume=True``
    cumulates in place into the caller's ``cycles`` buffer (the device
    passes freshly drawn matrices it never rereads).
    """
    f_hz = [f * 1e6 for f in f_mhz]
    return _prepare_from_compiled(
        tb, f_hz, _cumulative_cycles(tb, f_hz), sm_start_times, cycles,
        consume=consume,
    )


def _prepare_from_compiled(
    tb: list[float],
    f_hz: list[float],
    g: list[float],
    sm_start_times: list[float],
    cycles: np.ndarray,
    consume: bool = False,
) -> PendingIntegration:
    cycles = np.asarray(cycles, dtype=np.float64)
    if cycles.ndim != 2 or len(sm_start_times) != cycles.shape[0]:
        raise SimulationError("shape mismatch between start times and cycles")
    g_start = _start_integrals(tb, f_hz, g, sm_start_times)
    cycles_cum = np.cumsum(cycles, axis=1, out=cycles if consume else None)
    inv_f, shift = _affine_inverse(tb, f_hz, g)
    # The last boundary per SM: the same (cum + g_start) then invert
    # sequence the materialized path applies to every column, restricted
    # to the final one — bit-identical to ends[:, -1].
    last_ends = _invert_scalars(
        g, inv_f, shift, cycles_cum[:, -1].tolist(), g_start
    )
    return PendingIntegration(
        tb=tb,
        f_hz=f_hz,
        g=g,
        inv_f=inv_f,
        shift=shift,
        sm_start_times=sm_start_times,
        g_start=g_start,
        cycles_cum=cycles_cum,
        last_ends_true=last_ends,
    )


def _start_integrals(
    tb: list[float], f_hz: list[float], g: list[float], sm_start_times: list[float]
) -> list[float]:
    """Cycle-integral value ``G`` at each SM's start time.

    Like the array form ``searchsorted(tb, t, side="right") - 1`` clipped
    to the last segment, a start before tb[0] indexes -1 (the last
    segment).
    """
    n_seg = len(f_hz)
    g_start = []
    for t in sm_start_times:
        j = 0 if n_seg == 1 else min(bisect_right(tb, t) - 1, n_seg - 1)
        g_start.append(g[j] + (t - tb[j]) * f_hz[j])
    return g_start


def _invert_scalars(
    g: list[float],
    inv_f: list[float],
    shift: list[float],
    cycles: list[float],
    g_start: list[float],
) -> list[float]:
    """True times at which each SM's cycle integral reaches ``g_start +
    cycles`` (one value per SM), by bisection on ``g``."""
    n_seg = len(inv_f)
    ends = []
    for c, gs in zip(cycles, g_start):
        c += gs
        j = 0 if n_seg == 1 else min(bisect_right(g, c) - 1, n_seg - 1)
        ends.append(c * inv_f[j] + shift[j])
    return ends


def completion_from_boundaries(
    tb: list[float],
    f_mhz: list[float],
    sm_start_times: list[float],
    cycle_totals: list[float],
) -> float:
    """True time at which the last SM has spent its cycle total.

    The aggregate-kernel form of :func:`prepare_integration_from_boundaries`
    with one cycle column: the cumulative sum of a single column is the
    column itself, so this is that prelude's completion time, float for
    float, without the array scaffolding.
    """
    f_hz = [f * 1e6 for f in f_mhz]
    g = _cumulative_cycles(tb, f_hz)
    inv_f, shift = _affine_inverse(tb, f_hz, g)
    g_start = _start_integrals(tb, f_hz, g, sm_start_times)
    return max(_invert_scalars(g, inv_f, shift, cycle_totals, g_start))


def integrate_iterations(
    trajectory: FrequencyTrajectory,
    sm_start_times: np.ndarray,
    cycles: np.ndarray,
) -> KernelTimestamps:
    """Exact vectorized integration of iteration boundaries.

    One-shot convenience over :func:`prepare_integration` +
    :meth:`PendingIntegration.materialize` (see module docs).
    """
    return prepare_integration(trajectory, sm_start_times, cycles).materialize()


def integrate_iterations_reference(
    trajectory: FrequencyTrajectory,
    sm_start_times: np.ndarray,
    cycles: np.ndarray,
) -> KernelTimestamps:
    """Scalar reference implementation (one iteration at a time).

    Advances each iteration through trajectory segments by explicit cycle
    accounting.  Used by the property-based tests to validate
    :func:`integrate_iterations`; O(n_sm × n_iter × n_seg), so keep inputs
    small.
    """
    sm_start_times = np.asarray(sm_start_times, dtype=np.float64)
    cycles = np.asarray(cycles, dtype=np.float64)
    n_sm, n_iter = cycles.shape
    segs = list(trajectory.iter_from(float(sm_start_times.min())))
    starts = np.empty((n_sm, n_iter))
    ends = np.empty((n_sm, n_iter))
    for i in range(n_sm):
        t = float(sm_start_times[i])
        for k in range(n_iter):
            starts[i, k] = t
            remaining = float(cycles[i, k])
            while remaining > 0.0:
                seg = next(s for s in segs if s.t_end > t)
                f = seg.freq_hz
                capacity = (seg.t_end - t) * f
                if remaining <= capacity:
                    t += remaining / f
                    remaining = 0.0
                else:
                    remaining -= capacity
                    t = seg.t_end
            ends[i, k] = t
    return KernelTimestamps(starts_true=starts, ends_true=ends)
