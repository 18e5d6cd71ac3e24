#!/usr/bin/env python3
"""Power-cap axis: measure power-limit switching latency end to end.

Sweeps the board power-limit ladder of the chosen GPU through the same
phase-1/2/3 methodology the paper defines for SM clocks: the SM clock is
locked at the device maximum, each power limit caps the sustainable clock
(the ``SW_POWER_CAP`` throttle path), and the campaign measures how long
after ``nvmlDeviceSetPowerManagementLimit`` the new cap is actually
enforced — compared against the simulator's ``PowerCapLatencyProfile``
ground truth, a validation axis real hardware lacks.

Run:  python examples/power_cap_axis.py [A100|GH200|RTX6000] [workers]
"""

import sys

import numpy as np

from repro import LatestConfig, make_machine, run_campaign
from repro.analysis.render import render_table2
from repro.analysis.summary import summarize_campaign
from repro.gpusim.spec import lookup_spec


def main() -> None:
    model = sys.argv[1] if len(sys.argv) > 1 else "A100"
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    spec = lookup_spec(model)
    limits = spec.supported_power_limits_w

    machine = make_machine(model, seed=1234)
    config = LatestConfig(
        frequencies=limits,
        axis="power",
        record_sm_count=12,
        min_measurements=10,
        max_measurements=25,
        rse_check_every=5,
        output_dir="campaign_output_power",
    )
    print(
        f"running {len(config.pairs())} power-limit pairs "
        f"({', '.join(f'{w:g}' for w in limits)} W) on simulated {spec.name}"
        + (f" with {workers} workers ..." if workers > 1 else " ...")
    )
    result = run_campaign(machine, config, workers=workers)

    print(
        f"\nSM clock locked at {result.locked_sm_mhz:g} MHz; each limit "
        "caps the sustainable clock:"
    )
    thermal = machine.devices[0].thermal
    for limit in limits:
        cap = min(
            float(thermal.sustainable_clock_mhz(limit)),
            spec.max_sm_frequency_mhz,
        )
        print(f"  {limit:6g} W -> {cap:7.1f} MHz")

    print()
    for pair in result.iter_measured():
        measured = float(np.median(pair.latencies_s()))
        truth = float(np.nanmedian(pair.ground_truths_s()))
        print(
            f"{pair.init_mhz:6g} -> {pair.target_mhz:6g} W: "
            f"n={pair.n_measurements:3d}  "
            f"median={measured * 1e3:7.2f} ms  "
            f"ground truth={truth * 1e3:7.2f} ms  "
            f"rel err={abs(measured - truth) / truth * 100:5.1f} %"
        )

    print()
    print(render_table2([summarize_campaign(result)]))
    print(
        f"\n{result.n_measured_pairs} pairs measured over "
        f"{result.wall_virtual_s:.0f} s of simulated device time; CSVs in "
        "./campaign_output_power"
    )


if __name__ == "__main__":
    main()
