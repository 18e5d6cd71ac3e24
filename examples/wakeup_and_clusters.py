#!/usr/bin/env python3
"""Wake-up latency estimation and per-pair cluster structure.

Two smaller procedures from the paper:

* Sec. V wake-up estimation: how long after an idle period does the GPU
  reach its locked clock?  Estimated by comparing first-kernel iteration
  times against the last kernel's statistics.
* Sec. VII-B cluster structure: repeated measurements of one pathological
  GH200 pair form multiple switching-latency clusters (Fig. 5); a normal
  pair forms a single cluster with a few outliers (Fig. 6).

Run:  python examples/wakeup_and_clusters.py
"""

import numpy as np

from repro import LatestConfig, make_machine
from repro.analysis.clusters import scatter_data
from repro.clustering.silhouette import silhouette_score
from repro.core.campaign import measure_pair, probe_windows
from repro.core.context import BenchContext
from repro.core.phase1 import run_phase1
from repro.core.wakeup import estimate_wakeup_latency


def main() -> None:
    machine = make_machine("GH200", seed=99)

    # --- wake-up estimation --------------------------------------------
    estimate = estimate_wakeup_latency(machine, freq_mhz=1410.0)
    print(
        f"wake-up to {estimate.freq_mhz:g} MHz: {estimate.wakeup_s * 1e3:.1f} ms "
        f"(stabilized at iteration {estimate.stabilization_iteration}; first "
        f"iterations up to {estimate.slowdown_factor:.1f}x slower than steady "
        "state)"
    )

    # --- cluster structure of one pathological pair --------------------
    config = LatestConfig(
        frequencies=(1410.0, 1875.0),
        record_sm_count=12,
        min_measurements=60,
        max_measurements=60,   # fixed count: we want the full scatter
        rse_check_every=60,
    )
    bench = BenchContext(machine, config)
    phase1 = run_phase1(bench)
    probe = probe_windows(bench, phase1)

    for init, target in ((1410.0, 1875.0), (1875.0, 1410.0)):
        pair = measure_pair(bench, init, target, phase1, probe)
        data = scatter_data(pair)
        labels = data["label"]
        n_clusters = pair.n_clusters
        print(
            f"\npair {init:g}->{target:g} MHz: {pair.n_measurements} "
            f"measurements, {n_clusters} cluster(s), "
            f"{int((labels == -1).sum())} outliers"
        )
        for c in range(n_clusters):
            values = data["latency_ms"][labels == c]
            print(
                f"  cluster {c}: n={values.size:3d} around "
                f"{np.median(values):8.2f} ms"
            )
        if n_clusters >= 2:
            score = silhouette_score(data["latency_ms"], labels)
            print(f"  silhouette score: {score:.2f}")


if __name__ == "__main__":
    main()
