"""E-F5/E-F6: Figs. 5-6 — per-pair switching-latency scatter structure.

Fig. 5 shows a GH200 pair (1770 -> 1260 MHz) whose repeated measurements
form multiple distinct clusters; Fig. 6 shows the common case of one large
cluster with a few scattered outliers.  This bench measures one
pathological and one normal pair deeply (fixed measurement count) and
validates the cluster structure plus the silhouette-score criterion of
Sec. VII-B (score > 0.4 for multi-cluster pairs).
"""

import numpy as np

from repro import LatestConfig, make_machine
from repro.analysis.clusters import scatter_data
from repro.clustering.silhouette import silhouette_score
from repro.core.campaign import measure_pair, probe_windows
from repro.core.context import BenchContext
from repro.core.phase1 import run_phase1


def _measure_single_pair(model, freqs, pair, seed, n=120):
    machine = make_machine(model, seed=seed)
    config = LatestConfig(
        frequencies=freqs,
        record_sm_count=10,
        min_measurements=n,
        max_measurements=n,
        rse_check_every=n,
        warmup_kernels=1,
        warmup_kernel_duration_s=0.08,
        measure_kernel_duration_s=0.12,
        probe_window_s=0.5,
    )
    bench = BenchContext(machine, config)
    phase1 = run_phase1(bench)
    probe = probe_windows(bench, phase1)
    return measure_pair(bench, pair[0], pair[1], phase1, probe)


def _print_scatter(pair):
    data = scatter_data(pair)
    labels = data["label"]
    print(
        f"\npair {pair.init_mhz:g}->{pair.target_mhz:g} MHz: "
        f"{pair.n_measurements} measurements, {pair.n_clusters} clusters, "
        f"{int((labels == -1).sum())} outliers"
    )
    for c in range(pair.n_clusters):
        values = data["latency_ms"][labels == c]
        print(
            f"  cluster {c}: n={values.size:3d} "
            f"median={np.median(values):8.2f} ms "
            f"[{values.min():8.2f}, {values.max():8.2f}]"
        )


def test_fig5_multi_cluster_pair(benchmark):
    """A GH200 transition into the 1260 MHz special band (the paper's
    Fig. 5 pair is 1770->1260)."""
    pair = benchmark.pedantic(
        _measure_single_pair,
        args=("GH200", (1770.0, 1260.0), (1770.0, 1260.0), 42),
        rounds=1,
        iterations=1,
    )
    _print_scatter(pair)
    assert pair.n_measurements == 120
    assert pair.n_clusters >= 2
    data = scatter_data(pair)
    score = silhouette_score(data["latency_ms"], data["label"])
    print(f"  silhouette score: {score:.3f}")
    assert score > 0.4  # the paper's minimum for multi-cluster pairs
    # Cluster levels must be genuinely distinct (not one split mode):
    medians = sorted(
        np.median(data["latency_ms"][data["label"] == c])
        for c in range(pair.n_clusters)
    )
    assert medians[-1] > 3 * medians[0]


def test_fig6_single_cluster_pair(benchmark):
    """A normal GH200 pair: one large cluster plus scattered outliers."""
    pair = benchmark.pedantic(
        _measure_single_pair,
        args=("GH200", (1305.0, 1845.0), (1305.0, 1845.0), 43),
        rounds=1,
        iterations=1,
    )
    _print_scatter(pair)
    data = scatter_data(pair)
    labels = data["label"]
    sizes = [int((labels == c).sum()) for c in range(pair.n_clusters)]
    # One dominant cluster holding the bulk of the measurements.
    assert max(sizes) > 0.7 * pair.n_measurements
    # Outliers stay a small fraction.
    assert (labels == -1).mean() < 0.15
