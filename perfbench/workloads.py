"""The benchmark's workloads: inputs from a seed, one timed repetition, checks.

Each workload turns a repetition seed into a campaign (or a set of
service requests), times it, and checks the result:

* every campaign measures its whole pair grid, with no quarantined pair;
* :func:`repro.analysis.validation.score_recovery` puts the median
  relative error against the simulator's ground truth under
  :data:`MAX_MEDIAN_REL_ERROR`;
* ``service_tenants`` also checks that the repeated memory-axis request
  returns CSV bytes and ``wall_virtual_s`` identical to its first
  submission.

A digest of every campaign's CSV bytes and ``wall_virtual_s`` is kept
beside the checks so result drift shows without failing the run.
"""

from __future__ import annotations

import asyncio
import hashlib
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from spans import UNATTRIBUTED

#: recovery-error bound of the correctness check (observed: about 0.03)
MAX_MEDIAN_REL_ERROR = 0.10

#: the bench-fidelity kernel and stopping-rule sizes of ``benchmarks/``
BENCH_FIDELITY = dict(
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

#: GH200 bench subset, pathological 1170/1260/1875 MHz bands included
GH200_FREQUENCIES = (705.0, 975.0, 1170.0, 1260.0, 1410.0, 1665.0, 1875.0, 1980.0)
#: 24 valid A100 SM clocks, 705 + 30 i MHz
A100_LADDER = tuple(705.0 + 30.0 * i for i in range(24))


@dataclass
class Rep:
    """One timed repetition of a workload."""

    wall_s: float
    #: per request, submit (or campaign call) to result
    finish_s: list
    measurements: int = 0
    pairs: int = 0
    #: operations attempted: grid pairs, campaigns and checks
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)


def grid_size(config) -> int:
    """Pairs a campaign measures: every pair on every facet."""
    return len(config.facet_plan()) * len(config.pairs())


def _csv_digest(directory: Path, wall_virtual_s: float) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.csv")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    h.update(float(wall_virtual_s).hex().encode())
    return h.hexdigest()[:16]


def _csv_bytes(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


def _check(rep: Rep, name: str, ok: bool) -> None:
    rep.attempted += 1
    if not ok:
        rep.failed += 1
        rep.failures.append(name)


def _score_campaign(rep: Rep, label: str, result, expected_pairs: int) -> None:
    """Count one finished campaign's pairs, quarantines and checks."""
    from repro.analysis.validation import score_recovery
    from repro.errors import MeasurementError

    rep.attempted += 1 + expected_pairs
    quarantined = sum(
        1
        for pair in result.pairs.values()
        if pair.skipped and (pair.skip_reason or "").startswith("quarantined")
    )
    rep.failed += quarantined
    if quarantined:
        rep.failures.append(f"{label}: {quarantined} quarantined pairs")
    rep.measurements += sum(p.n_measurements for p in result.iter_measured())
    rep.pairs += result.n_measured_pairs
    _check(
        rep,
        f"{label}: measured pairs",
        len(result.pairs) == expected_pairs
        and result.n_measured_pairs == expected_pairs,
    )
    try:
        error = score_recovery(result).overall_median_rel_error
    except MeasurementError:
        error = float("inf")
    _check(rep, f"{label}: recovery error", error < MAX_MEDIAN_REL_ERROR)


class Workload:
    """A named workload; subclasses define the repetition."""

    name = ""
    #: rough wall time of one repetition on a 2-CPU host, to size runs
    nominal_rep_s = 1.0

    def setup(self, seed: int, workdir: Path) -> None:
        """Import the layers this workload uses and build its machines."""
        raise NotImplementedError

    def warmup(self, workdir: Path) -> None:
        """A small run that loads lazy imports before anything is timed."""
        raise NotImplementedError

    def run_rep(self, seed: int, workdir: Path, tracer=None) -> Rep:
        raise NotImplementedError


class _EngineWorkload(Workload):
    """One engine campaign (``workers=1``) per repetition."""

    gpu_model = ""

    def config(self, **overrides):
        raise NotImplementedError

    def expected_pairs(self) -> int:
        return grid_size(self.config())

    def setup(self, seed: int, workdir: Path) -> None:
        from repro import make_machine, run_campaign  # noqa: F401
        import repro.exec.engine  # noqa: F401

        make_machine(self.gpu_model, seed=seed)

    def outputs(self, workdir: Path):
        """``(sinks, journal directory)`` of one campaign."""
        return (), None

    def warmup(self, workdir: Path) -> None:
        from repro import make_machine, run_campaign

        config = self.config(
            frequencies=self.config().frequencies[:2],
            min_measurements=2,
            max_measurements=2,
            rse_check_every=2,
        )
        sinks, journal = self.outputs(workdir)
        run_campaign(
            make_machine(self.gpu_model, seed=1), config, workers=1,
            journal=journal, sinks=sinks,
        )
        shutil.rmtree(workdir, ignore_errors=True)

    def run_rep(self, seed: int, workdir: Path, tracer=None) -> Rep:
        from repro import make_machine, run_campaign
        from repro.core.csvio import write_campaign_csvs

        machine = make_machine(self.gpu_model, seed=seed)
        config = self.config()
        sinks, journal = self.outputs(workdir)
        envelope = nullcontext() if tracer is None else tracer.span(UNATTRIBUTED)
        t0 = time.perf_counter()
        with envelope:
            result = run_campaign(
                machine, config, workers=1, journal=journal, sinks=sinks
            )
        wall_s = time.perf_counter() - t0
        rep = Rep(wall_s=wall_s, finish_s=[wall_s])
        _score_campaign(rep, self.name, result, self.expected_pairs())
        csv_dir = workdir / "csv"
        if not sinks:
            write_campaign_csvs(csv_dir, result)
        rep.digests[self.name] = _csv_digest(csv_dir, result.wall_virtual_s)
        return rep


class GridGh200(_EngineWorkload):
    """Measurement-heavy: 56 GH200 pairs, 20-60 RSE-driven measurements."""

    name = "grid_gh200"
    # Under the 6-7 s a campaign takes, so a 20 s run averages four seeds.
    nominal_rep_s = 5.0
    gpu_model = "GH200"

    def config(self, **overrides):
        from repro import LatestConfig

        kwargs = dict(BENCH_FIDELITY, frequencies=GH200_FREQUENCIES)
        kwargs.update(overrides)
        return LatestConfig(**kwargs)


class PairSweepDurable(_EngineWorkload):
    """Per-pair-overhead heavy: 552 A100 pairs, 4 measurements each,
    journaled and streamed to per-pair CSV files."""

    name = "pair_sweep_durable"
    nominal_rep_s = 2.3
    gpu_model = "A100"

    def config(self, **overrides):
        from repro import LatestConfig

        kwargs = dict(
            BENCH_FIDELITY,
            frequencies=A100_LADDER,
            record_sm_count=4,
            min_measurements=4,
            max_measurements=4,
            rse_check_every=4,
        )
        kwargs.update(overrides)
        return LatestConfig(**kwargs)

    def outputs(self, workdir: Path):
        from repro.core.csvio import CsvStreamSink

        return (CsvStreamSink(workdir / "csv"),), str(workdir / "journal")

    def run_rep(self, seed: int, workdir: Path, tracer=None) -> Rep:
        rep = super().run_rep(seed, workdir, tracer)
        per_pair = self.config().max_measurements
        _check(
            rep,
            f"{self.name}: {per_pair} measurements per pair",
            rep.measurements == per_pair * self.expected_pairs(),
        )
        return rep


#: service_tenants requests: (key, tenant, weight, GPU, seed offset,
#: frequencies, config overrides); "memory" is submitted twice
SERVICE_REQUESTS = (
    ("gh200", "gh", 1.0, "GH200", 0, (705.0, 975.0, 1410.0, 1665.0, 1980.0), {}),
    (
        "memory", "mem", 2.0, "A100", 1, (1215.0, 810.0, 405.0),
        {"axis": "memory", "locked_sm_mhz": [1410.0, 1095.0, 810.0]},
    ),
    ("power", "pow", 0.5, "A100", 2, (400.0, 330.0, 270.0), {"axis": "power"}),
)
FLEET_SIZE = 2
#: a fixed measurement count per pair and probe-sized windows, so the work
#: of the small service campaigns does not swing from seed to seed with
#: the RSE stopping rule or window growth (grid_gh200 measures those)
SERVICE_FIDELITY = dict(
    BENCH_FIDELITY, min_measurements=30, max_measurements=30, rse_check_every=30,
    window_policy="probe-max",
)


class ServiceTenants(Workload):
    """Multi-tenant: one CampaignService, four requests, cold cache."""

    name = "service_tenants"
    nominal_rep_s = 4.0

    def requests(self, seed: int, n_freqs=None, **overrides) -> dict:
        from repro.service.requests import CampaignRequest

        out = {}
        for key, tenant, weight, gpu, offset, freqs, extra in SERVICE_REQUESTS:
            config = dict(SERVICE_FIDELITY, frequencies=list(freqs[:n_freqs]))
            config.update(extra)
            config.update(overrides)
            out[key] = CampaignRequest(
                tenant=tenant, weight=weight, gpu_model=gpu,
                seed=seed + offset, config=config,
            )
        return out

    def _service(self, workdir: Path):
        from repro.service.service import CampaignService

        return CampaignService(
            fleet_size=FLEET_SIZE,
            journal_root=workdir / "journals",
            calibration_cache=str(workdir / "calibration"),
        )

    def setup(self, seed: int, workdir: Path) -> None:
        async def start_stop():
            service = self._service(workdir)
            await service.start()
            await service.stop()

        asyncio.run(start_stop())

    async def _serve(self, requests: dict, workdir: Path):
        from repro.errors import ServiceUnavailable

        service = self._service(workdir)
        await service.start()
        finish: dict = {}

        async def one(key, request):
            submitted = time.perf_counter()
            campaign_id = await service.submit(request)
            try:
                result = await service.result(campaign_id)
            except ServiceUnavailable:
                result = None
            finish[key] = time.perf_counter() - submitted
            return result

        try:
            t0 = time.perf_counter()
            first = {
                key: asyncio.ensure_future(one(key, request))
                for key, request in requests.items()
            }
            # The repeat goes in once the first memory-axis campaign has
            # installed its facets, so it replays every one from the cache.
            await first["memory"]
            repeat = await one("memory_repeat", requests["memory"])
            results = {key: await task for key, task in first.items()}
            results["memory_repeat"] = repeat
            wall_s = time.perf_counter() - t0
        finally:
            await service.stop()
        return wall_s, finish, results

    def warmup(self, workdir: Path) -> None:
        requests = self.requests(
            1, n_freqs=2, min_measurements=2, max_measurements=2, rse_check_every=2
        )
        asyncio.run(self._serve(requests, workdir))
        shutil.rmtree(workdir, ignore_errors=True)

    def run_rep(self, seed: int, workdir: Path, tracer=None) -> Rep:
        from repro.core.csvio import write_campaign_csvs

        requests = self.requests(seed)
        wall_s, finish, results = asyncio.run(self._serve(requests, workdir))
        rep = Rep(wall_s=wall_s, finish_s=list(finish.values()))
        csvs = {}
        for key, result in results.items():
            base = "memory" if key == "memory_repeat" else key
            expected = grid_size(requests[base].build_config())
            if result is None:
                rep.attempted += 1 + expected
                rep.failed += 1
                rep.failures.append(f"{key}: campaign failed")
                continue
            _score_campaign(rep, key, result, expected)
            csv_dir = workdir / "csv" / key
            write_campaign_csvs(csv_dir, result)
            csvs[key] = (_csv_bytes(csv_dir), result.wall_virtual_s)
            rep.digests[key] = _csv_digest(csv_dir, result.wall_virtual_s)
        _check(
            rep,
            "memory_repeat: CSV bytes and wall_virtual_s equal the first",
            "memory" in csvs and csvs.get("memory_repeat") == csvs["memory"],
        )
        return rep


WORKLOADS = {w.name: w for w in (GridGh200(), PairSweepDurable(), ServiceTenants())}
