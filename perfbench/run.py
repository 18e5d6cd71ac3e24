"""Repository benchmark: switching-latency campaigns end to end and by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid_gh200 --seed 1 --seconds 20 --trace 0

Workloads (``perfbench/workloads.py``; ``BENCHMARK.json`` says why each
was chosen):

* ``grid_gh200`` — 56 GH200 pairs with RSE-driven measurement counts;
* ``pair_sweep_durable`` — 552 A100 pairs, journal and CSV stream sink;
* ``service_tenants`` — four requests on one two-thread CampaignService.

A run times a fixed number of repetitions, sized from ``--seconds`` and
the workload's nominal repetition time, each on its own machine seed
drawn from ``--seed``: a campaign's cost depends on its seed (window
growth on the pathological bands can make one seed's GH200 grid 1.5x
slower than another's), so ``--trace 0`` sums over the repetitions to
average the seed out of the end-to-end metrics; ``setup_s`` is the
median of several fresh-interpreter set-ups.  ``--trace 1`` first times
one untraced repetition, then traced ones on the same seed (all of
which must give the same result digests), and reports the per-layer
self times (``perfbench/spans.py``), exact work counters, span coverage
and tracing overhead.  Every run checks its results (see ``workloads.py``), prints a
``{"context": ...}`` line with the host calibration microbenchmark,
result digests and failures, and ends with one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The benchmark imports ``repro`` from ``src/`` beside this directory and
exits with code 2 when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: start of a set-up probe: everything after this is repro's set-up
_T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: fresh-interpreter set-ups per untraced run (``setup_s`` is their median)
SETUP_PROBES = 3
SETUP_TIMEOUT_S = 60

#: per-layer self-time metrics: metric name -> span layer (``calibration.s``,
#: reported whole, is the one inclusive time)
LAYER_TIMES = {
    "gpusim.draw_s": "gpusim.draw",
    "gpusim.integrate_s": "gpusim.integrate",
    "gpusim.invert_s": "gpusim.invert",
    "simtime.convert_s": "simtime.convert",
    "phase2.pass_self_s": "phase2.pass",
    "phase3.eval_s": "phase3.eval",
    "passblock.restore_s": "passblock.restore",
    "worker.pair_self_s": "worker.pair",
    "calibcache.s": "calibcache",
    "clustering.dbscan_s": "clustering.dbscan",
    "stream.emit_s": "stream.emit",
    "journal.s": "journal",
    "csvio.write_s": "csvio.write",
    "exec.dispatch_self_s": "exec.dispatch",
    "service.bridge_publish_s": "service.bridge_publish",
}

#: exact work counters; each must repeat between runs of the same seed
LAYER_COUNTS = (
    "gpusim.kernels",
    "gpusim.normals_drawn",
    "gpusim.elements_inverted",
    "simtime.elements_converted",
    "phase2.passes_speculated",
    "phase3.passes_evaluated",
    "passblock.rollbacks",
    "calibration.facets_run",
    "calibcache.hits",
    "calibcache.misses",
    "stream.events",
    "journal.fsyncs",
    "exec.units",
    "service.shards",
)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def host_calibration() -> dict:
    """ns per element of ``standard_normal`` and of a row ``cumsum``.

    The two array operations the simulator's cycle draws are made of, on
    a (12, 50000) matrix; the median of seven timings each.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    shape = (12, 50_000)
    out = np.empty(shape)

    def median_ns(fn) -> float:
        times = []
        for _ in range(7):
            t0 = time.perf_counter_ns()
            fn()
            times.append(time.perf_counter_ns() - t0)
        return statistics.median(times) / out.size

    normal_ns = median_ns(lambda: rng.standard_normal(shape, out=out))
    cumsum_ns = median_ns(lambda: np.cumsum(out, axis=1, out=out))
    return {"normal_ns": normal_ns, "cumsum_ns": cumsum_ns}


def setup_probe(workload) -> float:
    """Child side of ``setup_s``: import + build (+ start) in this process."""
    workdir = WORK / f"setup-{os.getpid()}"
    try:
        workload.setup(1, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return time.perf_counter() - _T_START


def measure_setup(name: str) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--setup-probe"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def rep_seeds(seed: int, n: int) -> list[int]:
    """Machine seeds of a run's repetitions, a pure function of ``seed``."""
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(n)]


def n_reps(workload, seconds: float) -> int:
    return max(2, round(seconds / workload.nominal_rep_s))


def run_untraced(workload, seeds, workdir, budget_s) -> list:
    """One repetition per seed; on a host so slow that ``budget_s`` runs
    out, the remaining seeds are skipped (two repetitions at least)."""
    reps = []
    t0 = time.perf_counter()
    for i, seed in enumerate(seeds):
        if len(reps) >= 2 and time.perf_counter() - t0 > budget_s:
            break
        reps.append(workload.run_rep(seed, workdir / f"rep{i}"))
        shutil.rmtree(workdir / f"rep{i}", ignore_errors=True)
    return reps


def end_to_end_metrics(reps, setup_samples) -> dict:
    """Totals and means over the repetitions (see the module docs)."""
    wall = sum(r.wall_s for r in reps)
    mean = statistics.fmean
    return {
        "measurements_per_s": (sum(r.measurements for r in reps) / wall, "1/s"),
        "pairs_per_s": (sum(r.pairs for r in reps) / wall, "1/s"),
        "campaign_wall_s": (wall / len(reps), "s"),
        "tenant_finish_p50_s": (mean(statistics.median(r.finish_s) for r in reps), "s"),
        "tenant_finish_max_s": (mean(max(r.finish_s) for r in reps), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }


def _layer_sample(tracer, rep) -> dict:
    """Per-layer values of one traced repetition."""
    from spans import UNATTRIBUTED
    from workloads import FLEET_SIZE

    self_s = tracer.self_seconds()
    counts = tracer.counts
    values = {name: self_s.get(layer, 0.0) for name, layer in LAYER_TIMES.items()}
    # Calibration is a phase built from the other layers: report it whole.
    values["calibration.s"] = tracer.inclusive_seconds().get("calibration", 0.0)
    for name in LAYER_COUNTS:
        values[name] = counts.get(name, 0)
    speculated = counts.get("phase2.passes_speculated", 0)
    values["passblock.yield"] = rep.measurements / speculated if speculated else 0.0
    waits = tracer.samples.get("service.queue_wait_s", [])
    values["service.queue_wait_p50_s"] = statistics.median(waits) if waits else 0.0
    values["service.queue_wait_max_s"] = max(waits, default=0.0)
    busy = sum(tracer.samples.get("service.shard_busy_s", []))
    values["service.fleet_busy_ratio"] = busy / (FLEET_SIZE * rep.wall_s) if waits else 0.0
    envelope = tracer.envelope_seconds()
    values["trace.uncovered_share"] = (
        self_s.get(UNATTRIBUTED, 0.0) / envelope if envelope else 0.0
    )
    values["trace.wall_s"] = rep.wall_s
    return values


def run_traced(workload, seed, n, workdir):
    """One untraced repetition, then ``n`` traced ones on the same seed."""
    from spans import Tracer

    baseline = workload.run_rep(seed, workdir / "untraced")
    reps, samples = [baseline], []
    tracer = Tracer()
    tracer.install()
    try:
        for i in range(n):
            tracer.reset()
            rep = workload.run_rep(seed, workdir / f"traced{i}", tracer)
            samples.append(_layer_sample(tracer, rep))
            reps.append(rep)
    finally:
        tracer.uninstall()
    return baseline, reps, samples


def layer_metrics(baseline, samples, host) -> tuple[dict, list]:
    """Median per-layer values; counters must repeat exactly."""
    failures = [
        f"counter {name} differs between traced repetitions"
        for name in LAYER_COUNTS
        if len({s[name] for s in samples}) != 1
    ]
    units = {name: "s" for name in LAYER_TIMES}
    units["calibration.s"] = "s"
    units.update(
        {
            "passblock.yield": "ratio",
            "service.queue_wait_p50_s": "s",
            "service.queue_wait_max_s": "s",
            "service.fleet_busy_ratio": "ratio",
            "trace.uncovered_share": "ratio",
        }
    )
    metrics = {
        name: (statistics.median(s[name] for s in samples), unit)
        for name, unit in units.items()
    }
    metrics.update({name: (samples[0][name], "count") for name in LAYER_COUNTS})
    traced_wall = statistics.median(s["trace.wall_s"] for s in samples)
    metrics["trace.overhead_s"] = (traced_wall - baseline.wall_s, "s")
    # Peak memory swings with how the fleet threads' arrays overlap, so it
    # is a traced-run observation, not a bounded end-to-end metric.
    metrics["process.peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
    )
    metrics["host.normal_ns"] = (host["normal_ns"], "ns")
    metrics["host.cumsum_ns"] = (host["cumsum_ns"], "ns")
    normals = metrics["gpusim.normals_drawn"][0]
    metrics["gpusim.draw_host_ratio"] = (
        metrics["gpusim.draw_s"][0] * 1e9 / normals / host["normal_ns"]
        if normals
        else 0.0,
        "ratio",
    )
    return metrics, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no repro package under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(workload)}))
        return 0

    workdir = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setup_samples = [] if args.trace else measure_setup(workload.name)
        workload.setup(args.seed, workdir)
        workload.warmup(workdir / "warmup")
        host = host_calibration()
        n = n_reps(workload, args.seconds)
        failures: list = []
        if args.trace:
            seed = rep_seeds(args.seed, 1)[0]
            baseline, reps, samples = run_traced(workload, seed, max(2, n - 1), workdir)
            metrics, failures = layer_metrics(baseline, samples, host)
            counters = {name: metrics[name][0] for name in LAYER_COUNTS}
            if any(r.digests != baseline.digests for r in reps):
                failures.append("tracing changed the result digests")
        else:
            reps = run_untraced(
                workload, rep_seeds(args.seed, n), workdir, 1.5 * args.seconds
            )
            metrics = end_to_end_metrics(reps, setup_samples)
            counters = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    # A traced run's counter and digest checks are operations too.
    attempted = sum(r.attempted for r in reps) + (
        len(LAYER_COUNTS) + 1 if args.trace else 0
    )
    failed = sum(r.failed for r in reps) + len(failures)
    for rep in reps:
        failures.extend(rep.failures)
    context = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": len(reps),
        "rep_wall_s": [r.wall_s for r in reps],
        "rep_measurements": [r.measurements for r in reps],
        "host": host,
        "setup_samples_s": setup_samples,
        "failed_ops_ratio": failed / attempted,
        "failures": failures,
        "digests": [r.digests for r in reps],
        "exact_counters": counters,
        "tenant_finish_n": len(reps[0].finish_s),
    }
    print(json.dumps({"context": context}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
