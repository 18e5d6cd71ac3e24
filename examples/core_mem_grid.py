#!/usr/bin/env python3
"""Core×memory campaign: one latency heatmap facet per memory clock.

Sweeps the SM switching-latency pair grid at every memory P-state of the
chosen GPU (paper Sec. VII names the memory domain as the next measurement
axis).  Phase 1 re-characterizes at each memory clock — the microbenchmark
kernel is partially memory-bound, so iteration times stretch by the
roofline stall factor at reduced memory clocks — and the analysis renders
one Fig. 3-style heatmap plus one Table II block per facet.

Run:  python examples/core_mem_grid.py [A100|GH200|RTX6000] [workers]
"""

import sys

from repro import LatestConfig, make_machine, run_campaign
from repro.analysis.heatmap import heatmaps_by_memory
from repro.analysis.render import render_heatmap, render_table2
from repro.analysis.summary import summarize_by_memory
from repro.gpusim.spec import lookup_spec

SM_SUBSETS = {
    "RTX Quadro 6000": (750.0, 990.0, 1290.0, 1650.0),
    "A100 SXM-4": (705.0, 975.0, 1215.0, 1410.0),
    "GH200": (705.0, 1170.0, 1665.0, 1980.0),
}


def main() -> None:
    model = sys.argv[1] if len(sys.argv) > 1 else "A100"
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    spec = lookup_spec(model)
    memory_clocks = spec.supported_memory_clocks_mhz[:2]

    machine = make_machine(model, seed=1234)
    config = LatestConfig(
        frequencies=SM_SUBSETS[spec.name],
        memory_frequencies=memory_clocks,
        record_sm_count=12,
        min_measurements=10,
        max_measurements=25,
        rse_check_every=5,
    )
    print(
        f"running {len(config.pairs())} SM pairs x "
        f"{len(memory_clocks)} memory clocks on simulated {spec.name}"
        + (f" with {workers} workers ..." if workers > 1 else " ...")
    )
    result = run_campaign(
        machine, config, workers=workers, output_dir="campaign_output_mem"
    )

    for grid in heatmaps_by_memory(result, "max").values():
        print()
        print(render_heatmap(grid))
    for mem, row in summarize_by_memory(result).items():
        print()
        print(f"memory clock {mem:g} MHz:")
        print(render_table2([row]))
    print(
        f"\n{result.n_measured_pairs} grid points measured over "
        f"{result.wall_virtual_s:.0f} s of simulated device time; CSVs in "
        "./campaign_output_mem"
    )


if __name__ == "__main__":
    main()
