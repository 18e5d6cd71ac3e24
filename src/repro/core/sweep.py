"""Multi-device campaign sweeps.

The paper's Sec. VII-C benchmarks four A100 units of one Karolina node
with the same configuration.  This module runs a campaign per device and
feeds the variability analysis, plus a convenience for sweeping several
GPU *models* with per-model frequency subsets (how the paper's Table II
was produced).

Both sweeps accept ``workers``: ``1`` (the default) runs the campaigns
one after another in-process, a larger count runs one process per
simulated GPU; results are identical either way.  Each campaign runs
through the execution engine in-process (pair-level :mod:`repro.exec`
parallelism is a per-campaign choice made through
``run_campaign(..., workers=...)`` directly).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from repro.core.config import LatestConfig
from repro.core.results import CampaignResult
from repro.errors import ConfigError
from repro.exec.engine import mp_context, run_campaign
from repro.machine import Machine, MachineBlueprint, make_machine

__all__ = ["sweep_devices", "sweep_models"]


def _run_device_campaign(args: tuple[MachineBlueprint, LatestConfig]) -> CampaignResult:
    """Worker entry: rebuild the node and run one device's campaign."""
    blueprint, cfg = args
    return run_campaign(blueprint.build(), cfg)


def _run_model_campaign(
    args: tuple[str, LatestConfig, int, str]
) -> CampaignResult:
    """Worker entry: build one model's machine and run its campaign."""
    model, cfg, seed, hostname = args
    machine = make_machine(model, seed=seed, hostname=hostname)
    return run_campaign(machine, cfg)


def sweep_devices(
    machine: Machine,
    config: LatestConfig,
    device_indices: list[int] | None = None,
    workers: int = 1,
) -> list[CampaignResult]:
    """Run the same campaign on several GPUs of one machine.

    Each device gets a config copy with its own ``device_index`` (and its
    own output directory suffix when CSV output is enabled); results come
    back in index order, ready for
    :func:`repro.analysis.variability.variability_report`.

    Every device's campaign runs against its own blueprint replica of
    the (freshly built) node, so results are deterministic and identical
    for any worker count; ``workers > 1`` runs the devices in separate
    processes.
    """
    if device_indices is None:
        device_indices = list(range(len(machine.devices)))
    if not device_indices:
        raise ConfigError("device sweep needs at least one index")
    for index in device_indices:
        machine.device(index)  # validates the index early
    configs = [replace(config, device_index=i) for i in device_indices]

    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if machine.blueprint is None:
        raise ConfigError("device sweep needs a machine built by make_machine()")
    jobs = [(machine.blueprint, cfg) for cfg in configs]
    if workers == 1 or len(jobs) == 1:
        return [_run_device_campaign(job) for job in jobs]
    with ProcessPoolExecutor(
        max_workers=min(workers, len(jobs)), mp_context=mp_context()
    ) as pool:
        return list(pool.map(_run_device_campaign, jobs))


def sweep_models(
    model_configs: dict[str, LatestConfig],
    seed: int = 0,
    hostname: str = "simnode01",
    workers: int = 1,
    memory_subsets: dict[str, tuple[float, ...]] | None = None,
) -> dict[str, CampaignResult]:
    """Run one campaign per GPU model (e.g. the paper's three devices).

    ``model_configs`` maps model names (``"A100"``, ``"GH200"``,
    ``"RTX6000"``) to their frequency-subset configurations.  Each model
    gets its own machine derived from ``seed`` so results are independent
    and reproducible — which also makes the parallel path (one process per
    model) bit-identical to the sequential one for any ``workers``.

    ``memory_subsets`` optionally assigns per-model memory-clock subsets
    (each must come from the model's
    :attr:`~repro.gpusim.spec.GpuSpec.supported_memory_clocks_mhz` ladder);
    models not listed keep their config's ``memory_frequencies``.
    """
    if not model_configs:
        raise ConfigError("model sweep needs at least one model")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
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
    ordered = sorted(model_configs.items())
    jobs = [
        (model, config, seed + 1000 * offset, hostname)
        for offset, (model, config) in enumerate(ordered)
    ]

    if workers == 1 or len(jobs) == 1:
        results = [_run_model_campaign(job) for job in jobs]
    else:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(jobs)), mp_context=mp_context()
        ) as pool:
            results = list(pool.map(_run_model_campaign, jobs))
    return {model: res for (model, _, _, _), res in zip(jobs, results)}
