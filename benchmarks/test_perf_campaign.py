"""Campaign throughput benchmark → BENCH_campaign.json.

Times a small fixed-seed A100 campaign (4 frequencies / 12 pairs at bench
fidelity) several ways — the legacy serial loop, the execution engine
with one worker on the scalar reference loop, the engine on the batched
pass-block pipeline, the pair-parallel SoA tier at batch widths 1/4/12,
and (when the host can honestly run it) the engine with a 4-process pool
— and writes wall seconds plus measurement throughput to
``BENCH_campaign.json`` at the repository root, so later PRs have a
recorded perf baseline to not regress.

``test_perf_floor_gate`` additionally enforces the committed floor in
``benchmarks/perf_floor.json`` on the 1-CPU reference container: the
batched mode failing more than the recorded tolerance below its floor
fails the bench job.  Other hosts record a skip reason instead (same
pattern as ``engine_workers_4``) — their absolute numbers measure the
runner, not the engine.

Honesty rules:

* every mode is timed ``_REPEATS`` times and the **best** wall clock is
  recorded (standard practice — the minimum is the least noise-polluted
  sample of a deterministic workload on a shared container);
* the multi-worker comparison is *skipped with a recorded reason* when
  the host has fewer cores than workers — timing a 4-process pool on a
  1-core container produced the seed's infamous 0.772x "speedup", which
  measured the scheduler, not the engine.

Reference points on the original seed code (single CPU container):
~2.2 s serial, ~230 measurements/s; PR 1 recorded 448.23 meas/s for
``engine_workers_1``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import pytest

from benchmarks.conftest import BENCH_JSON, update_bench_json
from repro import LatestConfig, make_machine, run_campaign

#: committed throughput floors for the reference container
PERF_FLOOR_JSON = Path(__file__).resolve().parent / "perf_floor.json"

_SEED = 42
_FREQUENCIES = (705.0, 975.0, 1215.0, 1410.0)
_REPEATS = 5
#: engine_workers_1 measurements/s recorded by PR 1 (the perf baseline
#: the batched pipeline is scored against)
_BASELINE_ENGINE_1 = 448.23


def _bench_fidelity_config() -> LatestConfig:
    """Pinned copy of the conftest bench fidelity (a perf baseline must
    not drift when the shared fixtures are retuned).

    ``pass_block_size=None`` pins the scalar reference loop; batched
    modes override it explicitly so the comparison axis is visible here.
    """
    return LatestConfig(
        frequencies=_FREQUENCIES,
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
        pass_block_size=None,
    )


def _timed_campaign(
    workers,
    pass_block_size=None,
    journal_root=None,
    sinks_factory=None,
):
    best = None
    for i in range(_REPEATS):
        machine = make_machine("A100", seed=_SEED)
        config = replace(
            _bench_fidelity_config(), pass_block_size=pass_block_size
        )
        # A journal open refuses an existing directory, so each repeat
        # journals into its own (the fsync-per-pair cost is identical).
        journal = None if journal_root is None else str(journal_root / f"r{i}")
        # Fresh sinks per repeat: a sink accumulates state for exactly
        # one campaign stream.
        sinks = () if sinks_factory is None else sinks_factory(i)
        t0 = time.perf_counter()
        result = run_campaign(
            machine, config, workers=workers, journal=journal, sinks=sinks
        )
        wall_s = time.perf_counter() - t0
        if best is None or wall_s < best[0]:
            best = (wall_s, result)
    wall_s, result = best
    n = sum(p.n_measurements for p in result.iter_measured())
    return {
        "wall_s": round(wall_s, 4),
        "n_measurements": n,
        "n_measured_pairs": result.n_measured_pairs,
        "measurements_per_s": round(n / wall_s, 2),
    }, result


def test_campaign_throughput_baseline():
    serial, _ = _timed_campaign(workers=None)
    engine1, _ = _timed_campaign(workers=1)
    batched, _ = _timed_campaign(workers=1, pass_block_size=25)

    # Sanity: every mode measures the full pair grid, and the batched
    # pipelines reproduce the scalar engine's measurement set exactly.
    assert serial["n_measured_pairs"] == 12
    assert engine1["n_measured_pairs"] == 12
    assert batched["n_measured_pairs"] == 12
    assert batched["n_measurements"] == engine1["n_measurements"]

    cpu_count = os.cpu_count() or 1
    if cpu_count >= 4:
        engine4, _ = _timed_campaign(workers=4)
        assert engine4["n_measurements"] == engine1["n_measurements"]
        parallel_speedup = round(engine1["wall_s"] / engine4["wall_s"], 3)
    else:
        engine4 = {
            "skipped": True,
            "reason": (
                f"host has {cpu_count} CPU(s) < 4 workers; a process-pool "
                "timing would measure scheduler contention, not the engine"
            ),
        }
        parallel_speedup = None

    payload = {
        "benchmark": (
            "A100 campaign, 4 frequencies / 12 pairs, bench fidelity; "
            "modes: serial, engine, pass-block batched"
        ),
        "seed": _SEED,
        "frequencies_mhz": list(_FREQUENCIES),
        "cpu_count": cpu_count,
        "timing": f"best of {_REPEATS} runs per mode",
        "serial_legacy": serial,
        "engine_workers_1": engine1,
        "engine_batched_block25": batched,
        "engine_workers_4": engine4,
        "parallel_speedup_vs_engine_1": parallel_speedup,
        "batched_speedup_vs_engine_1": round(
            engine1["wall_s"] / batched["wall_s"], 3
        ),
        "batched_speedup_vs_pr1_baseline": round(
            batched["measurements_per_s"] / _BASELINE_ENGINE_1, 3
        ),
        "baseline_note": (
            f"PR 1 baseline ({_BASELINE_ENGINE_1} meas/s) was recorded on "
            "the 1-CPU reference container; the speedup ratio is only "
            "meaningful on comparable hardware — cross-host runs (CI) "
            "should track measurements_per_s over time instead"
        ),
    }
    update_bench_json(payload)

    # Guardrails rather than tight bounds (CI boxes vary): a campaign
    # should finish in seconds and sustain hundreds of measurements/s.
    assert serial["wall_s"] < 30.0
    assert serial["measurements_per_s"] > 50.0
    assert batched["wall_s"] < 30.0


def test_journal_overhead(tmp_path):
    """Record what the durable journal costs the batched engine mode.

    The journal fsyncs one framed record per completed pair — a fixed
    per-pair cost that should stay a small fraction of the measurement
    wall clock.  Both rows land in ``BENCH_campaign.json`` so the
    trajectory is tracked alongside the other modes.
    """
    plain, plain_result = _timed_campaign(workers=1, pass_block_size=25)
    journaled, journaled_result = _timed_campaign(
        workers=1, pass_block_size=25, journal_root=tmp_path
    )

    # Journaling must not perturb the measurements themselves.
    assert journaled["n_measured_pairs"] == plain["n_measured_pairs"]
    assert journaled["n_measurements"] == plain["n_measurements"]
    assert journaled_result.wall_virtual_s == plain_result.wall_virtual_s

    overhead_pct = round(
        100.0 * (journaled["wall_s"] / plain["wall_s"] - 1.0), 2
    )
    update_bench_json(
        {
            "journal_overhead": {
                "mode": "engine_batched_block25, workers=1",
                "journal_off": plain,
                "journal_on": journaled,
                "overhead_pct": overhead_pct,
                "note": (
                    "per-pair fsync'd append; negative values are run-to-"
                    "run noise on shared containers"
                ),
            }
        }
    )

    # Guardrail, not a tight bound: a per-pair fsync must never dominate
    # a campaign that measures for seconds.
    assert journaled["wall_s"] < 30.0


def test_stream_overhead(tmp_path):
    """Record what attached stream sinks cost the batched engine mode.

    The campaign event stream is the only result path, so "sinks off"
    still dispatches every event to the internal accumulator; "sinks on"
    additionally attaches the three stock consumers — live progress
    (written to an in-memory buffer), incremental per-pair CSV output,
    and an event recorder — the configuration a monitored production
    campaign would run.  Emitting events advances no virtual clock and
    draws no RNG, so the measurements must be untouched; only real time
    may move.  Both rows land in ``BENCH_campaign.json``.
    """
    import io

    from repro.core.csvio import CsvStreamSink
    from repro.core.stream import ProgressSink, RecordingSink

    def sinks_on(i):
        return (
            ProgressSink(out=io.StringIO()),
            CsvStreamSink(tmp_path / f"stream{i}"),
            RecordingSink(),
        )

    off, off_result = _timed_campaign(workers=1, pass_block_size=25)
    on, on_result = _timed_campaign(
        workers=1, pass_block_size=25, sinks_factory=sinks_on
    )

    # Sinks must not perturb the measurements themselves.
    assert on["n_measured_pairs"] == off["n_measured_pairs"]
    assert on["n_measurements"] == off["n_measurements"]
    assert on_result.wall_virtual_s == off_result.wall_virtual_s

    overhead_pct = round(100.0 * (on["wall_s"] / off["wall_s"] - 1.0), 2)
    update_bench_json(
        {
            "stream_overhead": {
                "mode": "engine_batched_block25, workers=1",
                "sinks": "ProgressSink + CsvStreamSink + RecordingSink",
                "sinks_off": off,
                "sinks_on": on,
                "overhead_pct": overhead_pct,
                "note": (
                    "synchronous fan-out per event (progress render, "
                    "atomic per-pair CSV write, list append); negative "
                    "values are run-to-run noise on shared containers"
                ),
            }
        }
    )

    # Guardrail: observability must never dominate measurement time.
    assert on["wall_s"] < 30.0


def test_calibration_cache_speedup(tmp_path):
    """Record what the calibration cache saves a repeat campaign.

    A 3-facet memory-axis campaign at bench fidelity pays three facet
    calibrations (facet clock settle + phase 1 + probe) before any pair
    is measured.  This benchmark times the campaign cold (empty cache —
    a fresh directory per repeat so every cold repeat really installs)
    and warm (every facet replayed from the cache), plus the facet
    calibrations themselves sequentially vs on a process pool, and
    lands all four numbers under ``calibration_cache`` in
    ``BENCH_campaign.json``.  Bit-identity between the variants is a
    guardrail here — the real contract lives in
    ``tests/test_calibcache.py``.
    """
    import pickle
    from concurrent.futures import ProcessPoolExecutor

    from repro.core.stream import FacetPrepared, RecordingSink
    from repro.exec.supervise import mp_context
    from repro.exec.worker import calibrate_facet, worker_calibrate

    facets = (1410.0, 1095.0, 810.0)

    def cache_config(cache_dir):
        return replace(
            _bench_fidelity_config(),
            frequencies=(1215.0, 810.0),
            axis="memory",
            locked_sm_mhz=facets,
            pass_block_size=25,
            calibration_cache=str(cache_dir),
        )

    def timed(cache_dir_for):
        best = None
        for i in range(_REPEATS):
            machine = make_machine("A100", seed=_SEED)
            config = cache_config(cache_dir_for(i))
            sink = RecordingSink()
            t0 = time.perf_counter()
            result = run_campaign(machine, config, workers=1, sinks=(sink,))
            wall_s = time.perf_counter() - t0
            if best is None or wall_s < best[0]:
                flags = [e.cache_hit for e in sink.of_type(FacetPrepared)]
                stats = {"hits": sum(flags), "misses": len(flags) - sum(flags)}
                best = (wall_s, result, stats)
        return best

    cold_wall, cold_result, cold_stats = timed(
        lambda i: tmp_path / f"cold{i}"
    )
    warm_dir = tmp_path / "warm"
    # Populate once, then every timed repeat is fully warm.
    run_campaign(
        make_machine("A100", seed=_SEED), cache_config(warm_dir), workers=1
    )
    warm_wall, warm_result, warm_stats = timed(lambda i: warm_dir)

    # Guardrails: the warm replay must not perturb the campaign.
    assert cold_stats == {"hits": 0, "misses": 3}
    assert warm_stats == {"hits": 3, "misses": 0}
    assert warm_result.wall_virtual_s == cold_result.wall_virtual_s
    assert (
        warm_result.n_measured_pairs == cold_result.n_measured_pairs
    )

    # Facet calibration itself, sequential vs process-pool parallel.
    blueprint = make_machine("A100", seed=_SEED).blueprint
    cal_config = cache_config(tmp_path / "unused")
    cal_args = [
        (blueprint, cal_config, i, facet, 0.0)
        for i, facet in enumerate(facets)
    ]
    t0 = time.perf_counter()
    sequential = [calibrate_facet(*a) for a in cal_args]
    sequential_s = time.perf_counter() - t0

    cpu_count = os.cpu_count() or 1
    if cpu_count >= len(facets):
        t0 = time.perf_counter()
        with ProcessPoolExecutor(
            max_workers=len(facets), mp_context=mp_context()
        ) as pool:
            parallel = list(pool.map(worker_calibrate, cal_args))
        parallel_s = time.perf_counter() - t0
        assert pickle.dumps(parallel) == pickle.dumps(sequential)
        parallel_row = {
            "parallel_pool3_s": round(parallel_s, 4),
            "parallel_speedup": round(sequential_s / parallel_s, 2),
        }
    else:
        parallel_row = {
            "parallel_skipped": (
                f"host has {cpu_count} CPU(s) < {len(facets)} calibration "
                "workers; pool timing would measure the scheduler"
            )
        }

    update_bench_json(
        {
            "calibration_cache": {
                "mode": "engine_batched_block25, workers=1, memory axis, "
                "3 locked-SM facets",
                "cold_wall_s": round(cold_wall, 4),
                "warm_wall_s": round(warm_wall, 4),
                "warm_speedup": round(cold_wall / warm_wall, 2),
                "calibration_fraction_est": round(
                    1.0 - warm_wall / cold_wall, 4
                ),
                "cold_stats": cold_stats,
                "warm_stats": warm_stats,
                "facet_calibration": {
                    "n_facets": len(facets),
                    "sequential_s": round(sequential_s, 4),
                    **parallel_row,
                },
                "note": (
                    "warm runs replay all facet calibrations from the "
                    "cache; calibration_fraction_est is the share of the "
                    "cold wall clock the cache elides"
                ),
            }
        }
    )

    # Guardrail: a warm run must never be slower than cold beyond noise.
    assert warm_wall < cold_wall * 1.10


def test_perf_floor_gate():
    """Fail the bench job when the batched mode regresses below floor.

    Reads the throughput the baseline test just recorded (so running this
    gate alone re-checks the last recorded numbers without re-timing) and
    compares against the committed floor in ``perf_floor.json``.  The
    floor is only meaningful on the 1-CPU reference container it was
    recorded on; other hosts record a skip reason into the bench JSON,
    exactly like ``engine_workers_4``.
    """
    floors = json.loads(PERF_FLOOR_JSON.read_text())
    entry = floors["engine_batched_block25"]
    floor = entry["measurements_per_s_floor"]
    tolerance = floors["tolerance"]

    cpu_count = os.cpu_count() or 1
    if cpu_count != floors["reference_cpu_count"]:
        reason = (
            f"host has {cpu_count} CPU(s); the committed floor "
            f"({floor} meas/s) was recorded on the "
            f"{floors['reference_cpu_count']}-CPU reference container and "
            "would gate runner speed, not the engine"
        )
        update_bench_json(
            {"perf_floor_gate": {"skipped": True, "reason": reason}}
        )
        pytest.skip(reason)

    recorded = json.loads(BENCH_JSON.read_text())
    measured = recorded["engine_batched_block25"]["measurements_per_s"]
    minimum = floor * (1.0 - tolerance)
    update_bench_json(
        {
            "perf_floor_gate": {
                "floor_measurements_per_s": floor,
                "tolerance": tolerance,
                "measured_measurements_per_s": measured,
                "passed": measured >= minimum,
            }
        }
    )
    assert measured >= minimum, (
        f"batched campaign throughput regressed: {measured} meas/s is more "
        f"than {tolerance:.0%} below the committed floor of {floor} meas/s"
    )
