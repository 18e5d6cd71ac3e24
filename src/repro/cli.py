"""``latest-bench``: command-line interface mirroring the LATEST tool.

Paper Sec. VI: "This benchmark application accepts one mandatory argument -
a comma-separated list of the benchmarked frequencies", plus optional
device index, relative-standard-error threshold, and minimum/maximum
measurement counts.  The simulated-environment extras (GPU model, seed,
recorded-SM count) are grouped separately.

That argument set is defined once, by :func:`add_campaign_arguments`,
and mapped to a campaign once, by :func:`campaign_request`:
``latest-bench`` and ``repro submit`` (:mod:`repro.service.cli`) both
parse it and both build their campaign from the resulting
:class:`~repro.service.requests.CampaignRequest`.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.heatmap import heatmaps_by_memory
from repro.analysis.render import (
    render_facet_grid,
    render_heatmap,
    render_table2,
)
from repro.analysis.summary import summarize_campaign
from repro.core.stream import FacetPrepared, ProgressSink, RecordingSink
from repro.errors import CampaignInterrupted, ReproError
from repro.exec.engine import run_campaign
from repro.service.requests import CampaignRequest

__all__ = ["add_campaign_arguments", "build_parser", "campaign_request", "main"]

#: ``--axis`` choice -> ``LatestConfig.axis``
_AXES = {"sm": "sm_core", "memory": "memory", "power": "power"}
#: what the positional list holds on each axis (error messages)
_AXIS_VALUES = {
    "sm_core": "frequency",
    "memory": "memory frequency",
    "power": "power limit",
}


def add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the flags that define one campaign (the LATEST argument set).

    Shared by ``latest-bench`` and ``repro submit``; read back by
    :func:`campaign_request`.
    """
    parser.add_argument(
        "frequencies",
        help="comma-separated swept-axis values to benchmark: SM clocks "
        "in MHz by default (e.g. 705,1095,1410), memory clocks with "
        "--axis memory, power limits in W with --axis power",
    )
    parser.add_argument(
        "--axis",
        choices=tuple(_AXES),
        default="sm",
        help="actuator to sweep: 'sm' (the paper's setup, default), "
        "'memory' (memory-clock pair switching latency at a locked SM "
        "clock) or 'power' (board power-limit switching latency at a "
        "locked SM clock)",
    )
    parser.add_argument(
        "--locked-sm",
        default=None,
        metavar="MHZ[,MHZ...]",
        help="SM clock a memory- or power-axis campaign locks for its "
        "whole duration (default: the device's maximum SM frequency); a "
        "comma-separated list runs the full pair grid once per locked SM "
        "clock (facet sweep — the transpose of the core×memory grid)",
    )
    parser.add_argument(
        "--memory-frequencies",
        default=None,
        metavar="LIST",
        help="comma-separated memory clocks in MHz to sweep the SM pair "
        "grid over (core×memory campaign; each clock must be on the "
        "device's supported memory ladder); omit for the classic "
        "fixed-memory campaign",
    )
    parser.add_argument(
        "--device", type=int, default=0, help="GPU index (default 0)"
    )
    parser.add_argument(
        "--rse",
        type=float,
        default=0.05,
        help="relative standard error stop threshold (default 0.05)",
    )
    parser.add_argument(
        "--min-measurements",
        type=int,
        default=25,
        help="measurements collected before RSE checks start",
    )
    parser.add_argument(
        "--max-measurements",
        type=int,
        default=200,
        help="hard per-pair measurement cap",
    )
    parser.add_argument(
        "--output-dir",
        default=None,
        help="directory for the per-pair CSV files",
    )
    sim = parser.add_argument_group("simulated environment")
    sim.add_argument(
        "--gpu-model",
        default="A100",
        help="A100 | GH200 | RTX6000 (default A100)",
    )
    sim.add_argument(
        "--n-gpus", type=int, default=1, help="GPUs on the simulated node"
    )
    sim.add_argument("--seed", type=int, default=0, help="simulation seed")
    sim.add_argument(
        "--sm-count",
        type=int,
        default=None,
        help="SMs recorded by the benchmark kernel (default: all)",
    )
    sim.add_argument(
        "--hostname", default="simnode01", help="simulated hostname"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latest-bench",
        description=(
            "Measure GPU SM frequency switching latency on a simulated "
            "CUDA device (reproduction of the LATEST methodology)."
        ),
    )
    add_campaign_arguments(parser)
    parser.add_argument(
        "--kernel-memory-intensity",
        type=float,
        default=None,
        metavar="BETA",
        help="memory-bound fraction of the benchmark kernel in [0, 1); "
        "default: the swept axis's own default (0.30 for --axis sm, "
        "0.70 for --axis memory)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="measure frequency pairs across N worker processes "
        "(default 1: in-process); each pair runs on its own replica "
        "machine, so results are bit-identical for any N",
    )
    parser.add_argument(
        "--calibration-cache",
        default=None,
        metavar="DIR",
        help="persistent per-facet calibration cache: phase-1 and probe "
        "results are stored in DIR keyed by a content fingerprint of "
        "everything that can affect them (config, blueprint, facet, "
        "seed), so a repeated campaign replays its calibrations without "
        "re-measuring — results stay bit-identical to a cold run",
    )
    fault = parser.add_argument_group("fault tolerance")
    fault.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help="record every completed pair to a durable journal in DIR as "
        "it lands; SIGINT/SIGTERM then stop the campaign gracefully "
        "(drain in-flight pairs, flush) instead of losing it, and the run "
        "can be continued with --resume",
    )
    fault.add_argument(
        "--resume",
        action="store_true",
        help="continue the interrupted campaign journaled in --journal "
        "DIR: the journal's config/seed fingerprint is validated, "
        "finished pairs are merged as recorded, and only the rest are "
        "measured — the final results (CSV bytes included) are "
        "bit-identical to an uninterrupted run",
    )
    fault.add_argument(
        "--max-job-retries",
        type=int,
        default=2,
        metavar="N",
        help="worker-level retries per measurement unit before its pairs "
        "are quarantined as recorded skips (default 2)",
    )
    fault.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline of one pair job, at any --workers (a "
        "deadline runs even --workers 1 on a one-process pool); a job "
        "that blows it is treated as hung and retried on a rebuilt pool "
        "(default: no deadlines)",
    )
    fault.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help="deterministic fault injection for testing the recovery "
        "paths: semicolon-separated kind@index[*fires][:param] actions, "
        "kinds kill/hang/raise/interrupt (see repro.exec.faults)",
    )
    parser.add_argument(
        "--heatmaps",
        action="store_true",
        help="print min/max latency heatmaps after the campaign",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write a full markdown campaign report to PATH",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-pair progress"
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="live single-line progress on stderr, driven by the campaign "
        "event stream: pairs done against the grid total, with "
        "measured/replayed/skipped/retried counts as events land",
    )
    parser.add_argument(
        "--stream-csv",
        default=None,
        metavar="DIR",
        help="write each pair's CSV to DIR as its result lands on the "
        "campaign event stream (with --journal, once the journal has "
        "fsync'd it; instead of after the campaign); the "
        "final files are byte-identical to the --output-dir batch writer, "
        "and an interrupted campaign keeps every pair CSV written so far",
    )
    return parser


def parse_frequencies(
    text: str, minimum: int = 2, label: str = "frequency"
) -> tuple[float, ...]:
    """Parse and validate a comma-separated frequency list.

    Rejects non-numeric tokens, non-positive clocks (``nearest_clock``
    would otherwise snap them silently) and duplicates (which produce
    degenerate ``f->f`` self-pairs) with a clear :class:`SystemExit`.
    """
    try:
        freqs = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise SystemExit(f"invalid {label} list: {text!r}")
    if len(freqs) < minimum:
        raise SystemExit(f"need at least {minimum} {label} value(s): {text!r}")
    if any(f <= 0 for f in freqs):
        raise SystemExit(f"{label} values must be positive: {text!r}")
    if len(set(freqs)) != len(freqs):
        raise SystemExit(f"duplicate {label} values: {text!r}")
    return freqs


def campaign_request(
    args: argparse.Namespace, **request_fields
) -> CampaignRequest:
    """The campaign the :func:`add_campaign_arguments` flags describe.

    ``request_fields`` are the request's tenancy fields (``tenant``,
    ``weight``); settings outside the shared flag set are layered on by
    the caller through :meth:`CampaignRequest.build_config` overrides.
    Malformed lists and flags that do not apply to the chosen axis exit
    with a :class:`SystemExit`.
    """
    axis = _AXES[args.axis]
    freqs = parse_frequencies(args.frequencies, label=_AXIS_VALUES[axis])
    if args.memory_frequencies is not None and axis != "sm_core":
        raise SystemExit(
            "--memory-frequencies (core×memory grid facets) only applies "
            "to --axis sm; other axes sweep their own values through "
            "the positional list"
        )
    if args.locked_sm is not None and axis == "sm_core":
        raise SystemExit("--locked-sm only applies to --axis memory/power")
    locked_sm: "float | tuple[float, ...] | None" = None
    if args.locked_sm is not None:
        plan = parse_frequencies(args.locked_sm, minimum=1, label="locked-SM")
        locked_sm = plan[0] if len(plan) == 1 else plan
    mem_freqs = (
        parse_frequencies(
            args.memory_frequencies, minimum=1, label="memory frequency"
        )
        if args.memory_frequencies is not None
        else None
    )
    return CampaignRequest(
        gpu_model=args.gpu_model,
        n_gpus=args.n_gpus,
        seed=args.seed,
        hostname=args.hostname,
        config={
            "frequencies": freqs,
            "axis": axis,
            "locked_sm_mhz": locked_sm,
            "memory_frequencies": mem_freqs,
            "device_index": args.device,
            "rse_threshold": args.rse,
            "min_measurements": args.min_measurements,
            "max_measurements": args.max_measurements,
            "record_sm_count": args.sm_count,
            "output_dir": args.output_dir,
        },
        **request_fields,
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    request = campaign_request(args)
    if args.resume and args.journal is None:
        raise SystemExit("--resume needs --journal DIR")
    try:
        config = request.build_config(
            kernel_memory_intensity=args.kernel_memory_intensity,
            max_job_retries=args.max_job_retries,
            job_timeout_s=args.job_timeout,
            inject_faults=args.inject_faults,
            calibration_cache=args.calibration_cache,
        )
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")
    machine = request.build_machine()
    sinks = []
    if args.progress:
        sinks.append(ProgressSink())
    if args.stream_csv:
        from repro.core.csvio import CsvStreamSink

        sinks.append(CsvStreamSink(args.stream_csv))
    recorder = None
    if args.calibration_cache is not None:
        recorder = RecordingSink()
        sinks.append(recorder)
    try:
        result = run_campaign(
            machine,
            config,
            workers=args.workers,
            journal=args.journal,
            resume=args.resume,
            sinks=tuple(sinks),
        )
    except CampaignInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        if exc.journal_dir is not None:
            print(
                f"resume with: --journal {exc.journal_dir} --resume",
                file=sys.stderr,
            )
        return 130
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if recorder is not None:
        # Every miss is calibrated and then installed.  Deliberately not
        # gated on --quiet: harnesses (the CI cache smoke test among
        # them) grep this line off stderr.
        facets = recorder.of_type(FacetPrepared)
        hits = sum(event.cache_hit for event in facets)
        misses = len(facets) - hits
        print(
            f"calibration cache: {hits} hit(s), {misses} miss(es), "
            f"{misses} installed",
            file=sys.stderr,
        )

    if not args.quiet:
        from repro.core.axis import axis_by_name

        unit = axis_by_name(result.axis).unit
        if result.locked_sm_mhz is not None:
            print(
                f"{result.axis}-axis campaign: {result.swept_label} pairs "
                f"at locked SM {result.locked_sm_mhz:g} MHz"
            )
        elif result.locked_sm_frequencies is not None:
            clocks = ", ".join(f"{f:g}" for f in result.locked_sm_frequencies)
            print(
                f"{result.axis}-axis campaign: {result.swept_label} pairs "
                f"once per locked SM clock ({clocks} MHz)"
            )
        for pair in result.pairs.values():
            if pair.memory_mhz is not None:
                facet = f" @ mem {pair.memory_mhz:7g} MHz"
            elif pair.locked_sm_mhz is not None:
                facet = f" @ SM {pair.locked_sm_mhz:7g} MHz"
            else:
                facet = ""
            if pair.skipped:
                print(
                    f"{pair.init_mhz:7g} -> {pair.target_mhz:7g} {unit}{facet}: "
                    f"skipped ({pair.skip_reason})"
                )
                continue
            stats = pair.stats(without_outliers=True)
            print(
                f"{pair.init_mhz:7g} -> {pair.target_mhz:7g} {unit}{facet}: "
                f"n={pair.n_measurements:4d}  "
                f"min={stats.minimum * 1e3:8.3f} ms  "
                f"mean={stats.mean * 1e3:8.3f} ms  "
                f"max={stats.maximum * 1e3:8.3f} ms  "
                f"clusters={pair.n_clusters}"
            )

    print()
    print(render_table2([summarize_campaign(result)]))
    if args.heatmaps:
        for stat in ("min", "max"):
            grids = heatmaps_by_memory(result, stat)
            if len(grids) == 1:
                print()
                print(render_heatmap(next(iter(grids.values()))))
                continue
            # Faceted campaign: all facets side by side.
            print()
            print(
                f"{result.gpu_name} — {stat} switching latencies [ms] "
                f"(one panel per {result.facet_kind})"
            )
            print(render_facet_grid(grids))
    if args.report:
        from repro.analysis.report import write_campaign_report

        path = write_campaign_report(result, args.report)
        print(f"\nreport written to {path}")
    if args.output_dir:
        print(f"\nCSV files written to {args.output_dir}")
    if args.stream_csv:
        print(f"\nstreamed CSV files written to {args.stream_csv}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
