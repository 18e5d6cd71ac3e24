#!/usr/bin/env python3
"""A fuller campaign: heatmaps and Table II-style summary for one GPU.

Runs the LATEST methodology over an 8-frequency subset of a chosen GPU
(default RTX Quadro 6000, the most erratic device) and renders the Fig. 3
style min/max heatmaps plus the Table II summary block, writing per-pair
CSVs under ./campaign_output.

Run:  python examples/full_campaign_heatmap.py [A100|GH200|RTX6000]
"""

import sys

from repro import LatestConfig, make_machine, run_campaign
from repro.analysis.heatmap import heatmap_from_campaign
from repro.analysis.render import render_heatmap, render_table2
from repro.analysis.summary import summarize_campaign
from repro.gpusim.spec import lookup_spec

SUBSETS = {
    "RTX Quadro 6000": (750.0, 930.0, 990.0, 1110.0, 1290.0, 1470.0, 1560.0, 1650.0),
    "A100 SXM-4": (705.0, 840.0, 975.0, 1095.0, 1215.0, 1290.0, 1350.0, 1410.0),
    "GH200": (705.0, 975.0, 1170.0, 1260.0, 1410.0, 1665.0, 1875.0, 1980.0),
}


def main() -> None:
    model = sys.argv[1] if len(sys.argv) > 1 else "RTX6000"
    spec = lookup_spec(model)
    frequencies = SUBSETS[spec.name]

    machine = make_machine(model, seed=1234)
    config = LatestConfig(
        frequencies=frequencies,
        record_sm_count=12,
        min_measurements=12,
        max_measurements=30,
        rse_check_every=4,
    )
    print(
        f"running {len(config.pairs())} frequency pairs on simulated "
        f"{spec.name} ..."
    )
    result = run_campaign(machine, config, output_dir="campaign_output")

    print()
    print(render_heatmap(heatmap_from_campaign(result, "min")))
    print()
    print(render_heatmap(heatmap_from_campaign(result, "max")))
    print()
    print(render_table2([summarize_campaign(result)]))
    skipped = result.skipped_pairs
    if skipped:
        print(f"\nskipped pairs: {[(p.key, p.skip_reason) for p in skipped]}")
    print(
        f"\n{result.n_measured_pairs} pairs measured over "
        f"{result.wall_virtual_s:.0f} s of simulated device time; CSVs in "
        "./campaign_output"
    )


if __name__ == "__main__":
    main()
