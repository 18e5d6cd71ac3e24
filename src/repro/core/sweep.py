"""Multi-device campaign sweeps.

The paper's Sec. VII-C benchmarks four A100 units of one Karolina node
with the same configuration.  This module runs a campaign per device and
feeds the variability analysis, plus a convenience for sweeping several
GPU *models* with per-model frequency subsets (how the paper's Table II
was produced).

Both sweeps run their campaigns one after another, each through the
execution engine in-process.  Pair-level :mod:`repro.exec` parallelism
is a per-campaign choice made through ``run_campaign(..., workers=...)``
directly.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import LatestConfig
from repro.core.results import CampaignResult
from repro.errors import ConfigError
from repro.exec.engine import run_campaign
from repro.exec.jobs import SupervisionPolicy
from repro.machine import Machine, make_machine

__all__ = ["sweep_devices", "sweep_models"]


def sweep_devices(
    machine: Machine,
    config: LatestConfig,
    device_indices: list[int] | None = None,
    policy: "SupervisionPolicy | None" = None,
    calibration_cache: "str | None" = None,
    output_dir: "str | None" = None,
) -> list[CampaignResult]:
    """Run the same campaign on several GPUs of one machine.

    Each device gets a config copy with its own ``device_index``; results
    come back in index order, ready for
    :func:`repro.analysis.variability.variability_report`.  ``policy``,
    ``calibration_cache`` and ``output_dir`` are passed to every
    campaign's :func:`~repro.exec.engine.run_campaign`.  All devices
    write their CSVs into the one ``output_dir``: pair and summary file
    names carry the GPU index (``..._gpu<i>.csv``), so they never collide.

    Every device's campaign runs against its own blueprint replica of
    the (freshly built) node, so a device's result does not depend on
    which other devices the sweep measures.
    """
    if device_indices is None:
        device_indices = list(range(len(machine.devices)))
    if not device_indices:
        raise ConfigError("device sweep needs at least one index")
    for index in device_indices:
        machine.device(index)  # validates the index early
    if machine.blueprint is None:
        raise ConfigError("device sweep needs a machine built by make_machine()")
    return [
        run_campaign(
            machine.blueprint.build(),
            replace(config, device_index=i),
            policy=policy,
            calibration_cache=calibration_cache,
            output_dir=output_dir,
        )
        for i in device_indices
    ]


def sweep_models(
    model_configs: dict[str, LatestConfig],
    seed: int = 0,
    hostname: str = "simnode01",
    memory_subsets: dict[str, tuple[float, ...]] | None = None,
) -> dict[str, CampaignResult]:
    """Run one campaign per GPU model (e.g. the paper's three devices).

    ``model_configs`` maps model names (``"A100"``, ``"GH200"``,
    ``"RTX6000"``) to their frequency-subset configurations.  Each model
    gets its own machine derived from ``seed`` so results are independent
    and reproducible.

    ``memory_subsets`` optionally assigns per-model memory-clock subsets
    (each must come from the model's
    :attr:`~repro.gpusim.spec.GpuSpec.supported_memory_clocks_mhz` ladder);
    models not listed keep their config's ``memory_frequencies``.
    """
    if not model_configs:
        raise ConfigError("model sweep needs at least one model")
    if memory_subsets:
        unknown = set(memory_subsets) - set(model_configs)
        if unknown:
            raise ConfigError(
                f"memory_subsets names models not in the sweep: {sorted(unknown)}"
            )
        model_configs = {
            model: (
                replace(cfg, memory_frequencies=tuple(memory_subsets[model]))
                if model in memory_subsets
                else cfg
            )
            for model, cfg in model_configs.items()
        }
    return {
        model: run_campaign(
            make_machine(model, seed=seed + 1000 * offset, hostname=hostname),
            config,
        )
        for offset, (model, config) in enumerate(sorted(model_configs.items()))
    }
