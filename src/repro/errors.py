"""Exception hierarchy shared across the repro library.

The simulated driver stack mirrors the failure modes of the real one: NVML
calls can fail with permission or argument errors, CUDA launches can be
invalid, and the measurement methodology itself can abort a frequency pair
(power throttling, statistically indistinguishable frequencies, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class SimulationError(ReproError):
    """Internal inconsistency in the simulated device or clocks."""


class ClockError(SimulationError):
    """Time ran backwards or a clock was used outside its domain."""


class CudaError(ReproError):
    """CUDA-runtime-like failure (invalid launch, missing sync, ...)."""


class NvmlError(ReproError):
    """NVML-like driver failure.

    Carries a ``code`` attribute mirroring NVML return codes so callers can
    branch on the failure class the way real NVML users do.
    """

    def __init__(self, code: str, message: str = "") -> None:
        self.code = code
        super().__init__(f"{code}: {message}" if message else code)


class MeasurementError(ReproError):
    """The methodology could not produce a valid measurement."""


class PairSkippedError(MeasurementError):
    """A frequency pair was skipped (indistinguishable or power-throttled)."""


class ConfigError(ReproError):
    """Invalid benchmark or simulator configuration."""


class ServiceUnavailable(ReproError):
    """The campaign service cannot accept the request.

    Raised on submit while the service is draining or stopped, and on
    client operations against an unknown campaign id.
    """


class CampaignInterrupted(ReproError):
    """A campaign stopped early on SIGINT/SIGTERM after a graceful drain.

    Raised by journaling campaigns once in-flight jobs have been collected
    and the journal flushed; ``journal_dir`` names the directory a
    follow-up run can resume from (``--resume``).
    """

    def __init__(self, message: str, journal_dir: "str | None" = None) -> None:
        self.journal_dir = journal_dir
        super().__init__(message)
