"""Two-way (IEEE 1588 / PTP) offset estimation between host and GPU clocks.

The exchange per round::

    t1 = CPU clock at request send
    t2 = GPU clock at request arrival      (after uplink delay d_up)
    t3 = GPU clock at response send
    t4 = CPU clock at response arrival     (after downlink delay d_down)

    offset = ((t2 - t1) + (t3 - t4)) / 2
    delay  = ((t4 - t1) - (t3 - t2)) / 2

The classic estimator is exact when ``d_up == d_down``; path asymmetry
biases the offset by ``(d_up - d_down)/2``.  PCIe register reads are nearly
symmetric, so after taking the minimum-delay round over several exchanges
the residual error is bounded by jitter plus GPU timer quantization — a few
microseconds, negligible against millisecond-scale switching latencies.

The result converts CPU timestamps into the accelerator timebase exactly as
Algorithm 2 line 6 does: ``t_acc = t_cpu - cpu_sync + acc_sync``.

Draw-order contract
-------------------
The handshake consumes the host RNG in one fixed, batched order per call —
uplink jitter ``(rounds, 2)``, spike uniforms ``(rounds, 2)``, spike
magnitudes ``(rounds, 2)``, turnaround uniforms ``(rounds,)`` — rather than
round by round.  Spike magnitudes are always drawn and applied only where
the spike uniform fires, so the number of draws is a pure function of
``rounds``.  This is the canonical entry in the campaign's RNG draw-order
ledger (see DESIGN.md): every measurement path, scalar or pass-block
batched, performs exactly this sequence, which is what keeps the batched
campaign bit-identical to the scalar reference.

The draws stay batched; the arithmetic after them is scalar.  The
transport delays, the true-time grid (a left-to-right running sum, as
``np.cumsum`` adds), the per-round offsets and delays, the minimum-delay
pick and the spread run on Python floats: with 16 rounds, each numpy
call would cost more than the arithmetic it does.  The float operations
are the ones the array form applied elementwise, so the result is
bit-identical.  Only the timer conversion stays an array call, one per
clock domain over the whole grid
(:meth:`~repro.simtime.clock.HardwareClock.convert_array`), which is
cheaper than converting its 49 points one by one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.gpusim.device import GpuDevice
from repro.simtime.host import HostCpu

__all__ = ["PtpLink", "SyncResult", "synchronize_timers"]


@dataclass(frozen=True)
class PtpLink:
    """Transport model for the synchronization handshake.

    ``asymmetry_s`` shifts the uplink/downlink split: the uplink takes
    ``base + asymmetry`` and the downlink ``base - asymmetry`` on average,
    producing the classic un-detectable PTP bias.
    """

    base_delay_s: float = 1.5e-6
    jitter_scale_s: float = 0.4e-6
    asymmetry_s: float = 0.0
    spike_prob: float = 0.01
    spike_scale_s: float = 30e-6

    def sample_delays(
        self, rng: np.random.Generator, rounds: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched uplink/downlink delays for ``rounds`` exchanges.

        Returns ``(up, down)`` arrays of shape ``(rounds,)``.  The draw
        order is fixed (jitter, spike uniforms, spike magnitudes — each
        ``(rounds, 2)`` with up in column 0) so the stream consumption is
        independent of which rounds spike.
        """
        up, down = self._delays(rng, rounds)
        return np.array(up), np.array(down)

    def _delays(
        self, rng: np.random.Generator, rounds: int
    ) -> tuple[list[float], list[float]]:
        """:meth:`sample_delays` as float lists (the handshake's form).

        The three draws are batched; each delay is then base, plus or
        minus the asymmetry, plus the spike magnitude where the spike
        uniform fires, floored at 1 ns — in that order, on Python floats.
        """
        jitter = rng.exponential(self.jitter_scale_s, size=(rounds, 2)).tolist()
        spike_u = rng.random((rounds, 2)).tolist()
        spikes = rng.exponential(self.spike_scale_s, size=(rounds, 2)).tolist()
        base, asym, prob = self.base_delay_s, self.asymmetry_s, self.spike_prob
        up = []
        down = []
        for (j_up, j_down), (u_up, u_down), (s_up, s_down) in zip(
            jitter, spike_u, spikes
        ):
            up.append(max(j_up + base + asym + (s_up if u_up < prob else 0.0), 1e-9))
            down.append(
                max(j_down + base - asym + (s_down if u_down < prob else 0.0), 1e-9)
            )
        return up, down


@dataclass(frozen=True)
class SyncResult:
    """Matched (cpu_sync, acc_sync) reference pair plus quality metadata."""

    cpu_sync: float
    acc_sync: float
    offset: float
    path_delay: float
    rounds: int
    delay_spread: float

    def cpu_to_acc(self, t_cpu: float) -> float:
        """Convert a CPU timestamp into the accelerator timebase."""
        return t_cpu - self.cpu_sync + self.acc_sync

    def acc_to_cpu(self, t_acc: float) -> float:
        return t_acc - self.acc_sync + self.cpu_sync


def synchronize_timers(
    host: HostCpu,
    device: GpuDevice,
    rounds: int = 16,
    link: PtpLink | None = None,
) -> SyncResult:
    """Run ``rounds`` two-way exchanges; keep the minimum-delay round.

    The minimum-delay filter discards rounds inflated by transport spikes
    (the standard PTP servo trick), leaving the offset estimate limited by
    quantization and intrinsic jitter.
    """
    if rounds < 1:
        raise SimulationError("need at least one sync round")
    link = link or PtpLink()
    rng = host.rng

    # All transport draws for the handshake happen up front in the fixed
    # batched order (see the module docstring).  The true-time grid is t0
    # plus the running (left-to-right) sum of the per-leg durations; each
    # clock domain converts the whole grid in one array sweep, and the
    # per-round arithmetic runs on Python floats — 16 rounds are too few
    # to pay for array calls.  The machine clock commits once at the end.
    up, down = link._delays(rng, rounds)
    turnaround = rng.uniform(0.2e-6, 0.6e-6, size=rounds).tolist()

    t0 = host.clock.now
    grid = [t0]
    elapsed = 0.0
    for legs in zip(up, turnaround, down):
        for leg in legs:
            elapsed += leg
            grid.append(elapsed + t0)

    true_t = np.array(grid)
    t_host = host.os_clock.convert_array(true_t).tolist()
    t_gpu = device.gpu_clock.convert_array(true_t).tolist()
    t1s = t_host[0:-1:3]
    offsets = []
    delays = []
    for t1, t2, t3, t4 in zip(t1s, t_gpu[1::3], t_gpu[2::3], t_host[3::3]):
        offsets.append(((t2 - t1) + (t3 - t4)) / 2.0)
        delays.append(((t4 - t1) - (t3 - t2)) / 2.0)
    # Minimum-delay filtering; index() keeps the first minimum, matching
    # the strict-less comparison of the original round-by-round loop.
    best = delays.index(min(delays))

    host.clock.advance_to(grid[-1])
    # The grid bypassed HardwareClock.read() (pure conversions instead);
    # one real read per clock re-arms the monotonic guard and _last_read
    # bookkeeping for later callers, and asserts consistency once per
    # handshake.  No time passes and no draws are consumed.
    host.os_clock.read()
    device.gpu_clock.read()
    return SyncResult(
        cpu_sync=t1s[best],
        acc_sync=t1s[best] + offsets[best],
        offset=offsets[best],
        path_delay=delays[best],
        rounds=rounds,
        delay_spread=max(delays) - min(delays),
    )
