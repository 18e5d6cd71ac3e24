"""Shared campaign fixtures for the table/figure reproduction benchmarks.

Campaigns at bench fidelity (8-frequency subsets of the paper's axes,
RSE-driven repetition) are expensive, so each GPU's campaign is built once
per session and shared by every benchmark that reads from it.  Frequency
subsets are taken from the paper's Fig. 3 axes, including the pathological
bands (GH200 1170/1260/1875 MHz; RTX 930/990 and the mid-band plateau).
"""

from __future__ import annotations

import pytest

from repro import LatestConfig, make_machine, run_campaign

#: subsets of the paper's Fig. 3 heatmap axes
BENCH_FREQUENCIES = {
    "A100": (705.0, 840.0, 975.0, 1095.0, 1215.0, 1290.0, 1350.0, 1410.0),
    "GH200": (705.0, 975.0, 1170.0, 1260.0, 1410.0, 1665.0, 1875.0, 1980.0),
    "RTX6000": (750.0, 930.0, 990.0, 1110.0, 1290.0, 1470.0, 1560.0, 1650.0),
}


def bench_config(model: str, **overrides) -> LatestConfig:
    defaults = dict(
        frequencies=BENCH_FREQUENCIES[model],
        record_sm_count=12,
        min_measurements=20,
        max_measurements=60,
        rse_check_every=10,
        warmup_kernels=1,
        warmup_kernel_duration_s=0.08,
        measure_kernel_duration_s=0.12,
        delay_iterations=250,
        confirm_iterations=250,
        probe_window_s=0.5,
        settle_chunk_s=0.10,
    )
    defaults.update(overrides)
    return LatestConfig(**defaults)


@pytest.fixture(scope="session")
def a100_campaign():
    machine = make_machine("A100", seed=20_250_701)
    return run_campaign(machine, bench_config("A100"))


@pytest.fixture(scope="session")
def gh200_campaign():
    machine = make_machine("GH200", seed=20_250_702)
    return run_campaign(machine, bench_config("GH200"))


@pytest.fixture(scope="session")
def rtx_campaign():
    machine = make_machine("RTX6000", seed=20_250_703)
    return run_campaign(machine, bench_config("RTX6000"))


@pytest.fixture(scope="session")
def all_campaigns(rtx_campaign, a100_campaign, gh200_campaign):
    """Paper order: RTX Quadro 6000, A100, GH200."""
    return [rtx_campaign, a100_campaign, gh200_campaign]


#: reduced frequency sets for the deep (n~110 per pair) cluster campaigns;
#: the paper's cluster statistics come from "several hundreds" of
#: measurements per pair, which is what keeps dense latency tails in one
#: DBSCAN cluster
CLUSTER_FREQUENCIES = {
    "A100": (705.0, 885.0, 1065.0, 1215.0, 1410.0),
    "GH200": (705.0, 975.0, 1260.0, 1410.0, 1665.0, 1980.0),
    "RTX6000": (750.0, 930.0, 1110.0, 1290.0, 1560.0, 1650.0),
}


@pytest.fixture(scope="session")
def cluster_campaigns():
    """Deep campaigns (fixed 110 measurements/pair) for Sec. VII-B."""
    results = []
    for model, seed in (("RTX6000", 31), ("A100", 32), ("GH200", 33)):
        machine = make_machine(model, seed=20_250_710 + seed)
        cfg = bench_config(
            model,
            frequencies=CLUSTER_FREQUENCIES[model],
            record_sm_count=8,
            min_measurements=110,
            max_measurements=110,
            rse_check_every=110,
        )
        results.append(run_campaign(machine, cfg))
    return results


@pytest.fixture(scope="session")
def a100_unit_campaigns():
    """Four A100 units on one node (paper Sec. VII-C, Figs. 7-9)."""
    from repro.core.sweep import sweep_devices

    frequencies = (705.0, 885.0, 1065.0, 1215.0, 1350.0, 1410.0)
    machine = make_machine("A100", n_gpus=4, seed=20_250_704)
    cfg = bench_config(
        "A100",
        frequencies=frequencies,
        min_measurements=15,
        max_measurements=40,
    )
    return sweep_devices(machine, cfg)


def print_paper_vs_measured(title: str, rows: list[tuple[str, float, float]]):
    """Uniform paper-vs-measured comparison block used by the benches."""
    print(f"\n=== {title} ===")
    print(f"{'quantity':<42} {'paper':>12} {'measured':>12}")
    for label, paper, measured in rows:
        print(f"{label:<42} {paper:>12.3f} {measured:>12.3f}")
