"""Calibration cache & parallel facet calibration (engine tiers).

Contract under test (see :mod:`repro.core.calibcache` and the engine
module docs): a campaign re-run against a warm calibration cache replays
every facet's phase-1/probe calibration from disk — zero characterization
passes — and still produces results bit-identical (CSV bytes and
``wall_virtual_s`` included) to the cold run, on every measurement axis
and execution tier; multi-facet campaigns additionally calibrate their
facets *in parallel* on cold runs with results provably identical to
sequential execution; and the fingerprint keying the cache changes with
every calibration-affecting input while ignoring execution-only knobs.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_machine, run_campaign
from repro.core.calibcache import (
    CALIB_CACHE_VERSION,
    CalibrationCache,
    FacetCalibration,
    calibration_fingerprint,
)
from repro.core.stream import FacetPrepared, RecordingSink
from repro.errors import CampaignInterrupted
from repro.exec.engine import CampaignExecutor
from repro.exec.jobs import calibration_seed_sequence
from repro.exec.worker import calibrate_facet
from tests.conftest import fast_config
from tests.test_exec_engine import _campaign_fingerprint, _csv_bytes

_AXES = {
    "sm_core": dict(frequencies=(705.0, 1095.0, 1410.0)),
    "memory": dict(frequencies=(1215.0, 810.0, 405.0), axis="memory"),
    "power": dict(frequencies=(400.0, 330.0, 270.0), axis="power"),
}


def _axis_config(axis, **overrides):
    kw = dict(_AXES[axis])
    kw.update(overrides)
    freqs = kw.pop("frequencies")
    return fast_config(freqs, **kw)


#: calibration start time used for keys built outside a campaign
_T0 = 0.0


def _facet_config(**overrides):
    """A 2-facet memory-axis campaign."""
    return fast_config(
        (1215.0, 810.0),
        axis="memory",
        locked_sm_mhz=(1410.0, 810.0),
        **overrides,
    )


def _machine(seed=4242):
    return make_machine("A100", seed=seed)


def _counted(run, machine, config, **kwargs):
    """Run a campaign; return it with its cache (hits, misses).

    Both counts come off the event stream: one ``FacetPrepared`` per
    facet, flagged ``cache_hit`` when the calibration was replayed.
    """
    sink = RecordingSink()
    result = run(machine, config, sinks=(sink,), **kwargs)
    flags = [e.cache_hit for e in sink.of_type(FacetPrepared)]
    return result, (sum(flags), len(flags) - sum(flags))


def _entry(index=0, facet=None):
    return FacetCalibration(
        facet_index=index,
        facet=facet,
        prepared=True,
        phase1=None,
        probe=None,
        fixed_pass_s=1.25,
        elapsed_virtual_s=3.5,
    )


# ---------------------------------------------------------------------------
class TestFingerprint:
    def test_deterministic_across_machine_builds(self):
        cfg = _axis_config("sm_core")
        a = calibration_fingerprint(
            cfg, _machine().blueprint, 0, None, _T0
        )
        b = calibration_fingerprint(
            cfg, _machine().blueprint, 0, None, _T0
        )
        assert a == b

    def test_stable_after_a_campaign_has_run(self):
        # Regression: the GPU spec grows lazily populated lookup memos
        # once a campaign runs; a pickle-based digest leaked that object
        # identity and warm runs in the same process always missed.
        cfg = _axis_config("sm_core")
        before = calibration_fingerprint(
            cfg, _machine().blueprint, 0, None, _T0
        )
        run_campaign(_machine(), cfg, workers=1)
        after = calibration_fingerprint(
            cfg, _machine().blueprint, 0, None, _T0
        )
        assert before == after

    @pytest.mark.parametrize(
        "change",
        [
            dict(frequencies=(705.0, 1410.0)),
            dict(delay_iterations=151),
            dict(probe_window_s=0.5),
            dict(warmup_kernels=2),
            dict(settle_chunk_s=0.04),
        ],
    )
    def test_affecting_field_changes_key(self, change):
        bp = _machine().blueprint
        base = calibration_fingerprint(
            _axis_config("sm_core"), bp, 0, None, _T0
        )
        varied = calibration_fingerprint(
            _axis_config("sm_core", **change), bp, 0, None, _T0
        )
        assert varied != base

    def test_machine_seed_changes_key(self):
        cfg = _axis_config("sm_core")
        assert calibration_fingerprint(
            cfg, _machine(1).blueprint, 0, None, _T0
        ) != calibration_fingerprint(
            cfg, _machine(2).blueprint, 0, None, _T0
        )

    def test_execution_only_knobs_keep_key(self):
        # Worker counts, stopping rules, supervision and output settings
        # provably cannot change phase 1 or the probe; re-tuning them
        # must still hit.
        bp = _machine().blueprint
        base = calibration_fingerprint(
            _axis_config("sm_core"), bp, 0, None, _T0
        )
        varied = _axis_config(
            "sm_core",
            rse_threshold=0.01,
            min_measurements=2,
            max_measurements=64,
            rse_check_every=9,
            output_dir="/tmp/elsewhere",
            max_job_retries=9,
            calibration_cache="/tmp/some/cache",
            throttle_backoff_s=0.5,
            max_consecutive_failures=11,
        )
        assert (
            calibration_fingerprint(varied, bp, 0, None, _T0) == base
        )

    def test_scheme_and_facet_coordinates_are_keyed(self):
        cfg = _facet_config()
        bp = _machine().blueprint
        keys = {
            calibration_fingerprint(cfg, bp, 0, 1410.0, _T0),
            calibration_fingerprint(cfg, bp, 1, 1410.0, _T0),
            calibration_fingerprint(cfg, bp, 0, 810.0, _T0),
            calibration_fingerprint(cfg, bp, 0, None, _T0),
        }
        assert len(keys) == 4

    def test_start_time_is_keyed(self):
        # A replica calibration boots at the campaign's start time, so a
        # reused machine mid-timeline must never share a fresh build's key.
        cfg = _facet_config()
        bp = _machine().blueprint
        fresh = calibration_fingerprint(cfg, bp, 0, 1410.0, bp.start_time)
        assert fresh == calibration_fingerprint(
            cfg, bp, 0, 1410.0, bp.start_time
        )
        assert fresh != calibration_fingerprint(
            cfg, bp, 0, 1410.0, bp.start_time + 1e-9
        )

    @given(
        rse=st.floats(0.01, 0.2),
        cap=st.integers(4, 64),
        retries=st.integers(0, 5),
    )
    @settings(max_examples=15, deadline=None)
    def test_excluded_knobs_never_move_key(self, rse, cap, retries):
        bp = make_machine("A100", seed=4242).blueprint
        base = calibration_fingerprint(
            _axis_config("sm_core"), bp, 0, None, _T0
        )
        varied = _axis_config(
            "sm_core",
            rse_threshold=rse,
            max_measurements=max(cap, 4),
            max_job_retries=retries,
        )
        assert (
            calibration_fingerprint(varied, bp, 0, None, _T0) == base
        )

    @given(extra=st.integers(1, 400))
    @settings(max_examples=15, deadline=None)
    def test_affecting_knobs_always_move_key(self, extra):
        bp = make_machine("A100", seed=4242).blueprint
        base = calibration_fingerprint(
            _axis_config("sm_core"), bp, 0, None, _T0
        )
        varied = _axis_config(
            "sm_core", delay_iterations=150 + extra
        )
        assert (
            calibration_fingerprint(varied, bp, 0, None, _T0) != base
        )


# ---------------------------------------------------------------------------
class TestCacheStore:
    def test_round_trip_across_instances(self, tmp_path):
        key = "k" * 64
        writer = CalibrationCache(tmp_path / "cc")
        writer.install(key, _entry())
        assert CalibrationCache(tmp_path / "cc").get(key) == _entry()

    def test_absent_key_is_a_miss(self, tmp_path):
        cache = CalibrationCache(tmp_path / "cc")
        assert cache.get("a" * 64) is None

    def test_memory_lru_is_bounded_but_disk_is_not(self, tmp_path):
        cache = CalibrationCache(tmp_path / "cc", max_memory_entries=2)
        for i in range(4):
            cache.install(f"key{i}", _entry(index=i))
        assert len(cache._memory) == 2
        # Evicted entries still come back from disk.
        assert cache.get("key0") == _entry(index=0)

    def _install_one(self, tmp_path):
        cache = CalibrationCache(tmp_path / "cc")
        key = "c" * 64
        cache.install(key, _entry())
        return cache, key, cache._path(key)

    @pytest.mark.parametrize(
        "corruption",
        ["truncate", "bitflip", "garbage", "empty"],
    )
    def test_corrupt_entry_is_a_miss_not_an_error(
        self, tmp_path, corruption
    ):
        _, key, path = self._install_one(tmp_path)
        raw = path.read_bytes()
        if corruption == "truncate":
            path.write_bytes(raw[: len(raw) // 2])
        elif corruption == "bitflip":
            mid = len(raw) // 2
            path.write_bytes(
                raw[:mid] + bytes([raw[mid] ^ 0xFF]) + raw[mid + 1 :]
            )
        elif corruption == "garbage":
            path.write_bytes(b"not a calibration entry")
        else:
            path.write_bytes(b"")
        fresh = CalibrationCache(tmp_path / "cc")
        assert fresh.get(key) is None
        # The recomputed entry overwrites the damaged file.
        fresh.install(key, _entry())
        assert CalibrationCache(tmp_path / "cc").get(key) == _entry()

    def test_version_mismatch_is_a_miss(self, tmp_path, monkeypatch):
        cache, key, path = self._install_one(tmp_path)
        import repro.core.calibcache as calibcache

        monkeypatch.setattr(
            calibcache, "CALIB_CACHE_VERSION", CALIB_CACHE_VERSION + 1
        )
        assert CalibrationCache(tmp_path / "cc").get(key) is None

    def test_entry_renamed_under_foreign_key_is_a_miss(self, tmp_path):
        cache, key, path = self._install_one(tmp_path)
        foreign = "d" * 64
        path.rename(cache._path(foreign))
        assert CalibrationCache(tmp_path / "cc").get(foreign) is None

    def test_failed_write_is_swallowed(self, tmp_path, monkeypatch):
        cache = CalibrationCache(tmp_path / "cc")

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("tempfile.mkstemp", boom)
        cache.install("e" * 64, _entry())  # must not raise
        # Not persisted, but still served from memory this run.
        assert cache.get("e" * 64) == _entry()
        assert CalibrationCache(tmp_path / "cc").get("e" * 64) is None


# ---------------------------------------------------------------------------
class TestColdWarmIdentity:
    @pytest.mark.parametrize("axis", sorted(_AXES))
    @pytest.mark.parametrize("workers", [1, 2])
    def test_warm_run_bit_identical(self, axis, workers, tmp_path):
        cache = str(tmp_path / "cc")
        cold_cfg = _axis_config(
            axis,
            calibration_cache=cache,
            output_dir=str(tmp_path / "cold"),
        )
        cold, counts = _counted(
            run_campaign, _machine(), cold_cfg, workers=workers
        )
        assert counts == (0, 1)
        warm_cfg = _axis_config(
            axis,
            calibration_cache=cache,
            output_dir=str(tmp_path / "warm"),
        )
        warm, counts = _counted(
            run_campaign, _machine(), warm_cfg, workers=workers
        )
        assert counts == (1, 0)
        assert _campaign_fingerprint(warm) == _campaign_fingerprint(cold)
        assert warm.wall_virtual_s == cold.wall_virtual_s
        assert _csv_bytes(tmp_path / "warm") == _csv_bytes(tmp_path / "cold")

    @pytest.mark.parametrize("axis", sorted(_AXES))
    def test_warm_run_performs_zero_calibration_passes(
        self, axis, tmp_path, monkeypatch
    ):
        cache = str(tmp_path / "cc")
        run_campaign(
            _machine(), _axis_config(axis, calibration_cache=cache), workers=1
        )

        def bomb(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("calibration re-ran on a warm cache")

        monkeypatch.setattr("repro.exec.engine.run_phase1", bomb)
        monkeypatch.setattr("repro.exec.worker.run_phase1", bomb)
        monkeypatch.setattr("repro.exec.worker.probe_windows", bomb)
        warm, counts = _counted(
            run_campaign,
            _machine(),
            _axis_config(axis, calibration_cache=cache),
            workers=1,
        )
        assert counts == (1, 0)
        assert not any(p.skipped for p in warm.pairs.values())

    def test_multi_facet_warm_run_zero_passes(self, tmp_path, monkeypatch):
        cache = str(tmp_path / "cc")
        cold = run_campaign(
            _machine(11), _facet_config(calibration_cache=cache), workers=1
        )

        def bomb(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("calibration re-ran on a warm cache")

        monkeypatch.setattr("repro.exec.engine.run_phase1", bomb)
        monkeypatch.setattr("repro.exec.worker.run_phase1", bomb)
        monkeypatch.setattr("repro.exec.worker.probe_windows", bomb)
        warm, counts = _counted(
            run_campaign,
            _machine(11),
            _facet_config(calibration_cache=cache),
            workers=1,
        )
        assert counts == (2, 0)
        assert _campaign_fingerprint(warm) == _campaign_fingerprint(cold)
        assert warm.wall_virtual_s == cold.wall_virtual_s

    def test_facet_prepared_events_carry_cache_hit(self, tmp_path):
        cache = str(tmp_path / "cc")
        cold_sink = RecordingSink()
        run_campaign(
            _machine(11),
            _facet_config(calibration_cache=cache),
            workers=1,
            sinks=(cold_sink,),
        )
        warm_sink = RecordingSink()
        run_campaign(
            _machine(11),
            _facet_config(calibration_cache=cache),
            workers=1,
            sinks=(warm_sink,),
        )
        cold_facets = cold_sink.of_type(FacetPrepared)
        warm_facets = warm_sink.of_type(FacetPrepared)
        assert [e.cache_hit for e in cold_facets] == [False, False]
        assert [e.cache_hit for e in warm_facets] == [True, True]
        # The replayed calibrations are the measured ones, verbatim.
        # (Compared by value: a disk round-trip changes pickle's memo
        # topology without changing any field.)
        assert [(e.facet, e.phase1, e.probe) for e in warm_facets] == [
            (e.facet, e.phase1, e.probe) for e in cold_facets
        ]

    def test_cold_run_with_cache_equals_run_without(self, tmp_path):
        with_cache = run_campaign(
            _machine(11),
            _facet_config(calibration_cache=str(tmp_path / "cc")),
            workers=1,
        )
        without = run_campaign(_machine(11), _facet_config(), workers=1)
        assert _campaign_fingerprint(with_cache) == _campaign_fingerprint(
            without
        )
        assert with_cache.wall_virtual_s == without.wall_virtual_s

    def test_warm_pool_cold_then_warm(self, tmp_path):
        cache = str(tmp_path / "cc")
        cold, counts = _counted(
            run_campaign,
            _machine(11),
            _facet_config(calibration_cache=cache),
            workers=2,
        )
        assert counts == (0, 2)
        warm, counts = _counted(
            run_campaign,
            _machine(11),
            _facet_config(calibration_cache=cache),
            workers=2,
        )
        assert counts == (2, 0)
        assert _campaign_fingerprint(warm) == _campaign_fingerprint(cold)
        assert warm.wall_virtual_s == cold.wall_virtual_s

    def test_reused_machine_keys_by_start_time(self, tmp_path):
        # A machine mid-timeline (device sweeps reuse one machine)
        # consults the cache under its own, later start time: it misses
        # the fresh build's entry and measures exactly what an uncached
        # campaign on the same reused machine measures.
        cfg = _axis_config("sm_core", calibration_cache=str(tmp_path / "cc"))
        cached = _machine(11)
        run_campaign(cached, cfg, workers=1)
        reused, counts = _counted(run_campaign, cached, cfg, workers=1)
        assert counts == (0, 1)

        plain = _machine(11)
        run_campaign(plain, _axis_config("sm_core"), workers=1)
        uncached = run_campaign(plain, _axis_config("sm_core"), workers=1)
        assert _campaign_fingerprint(reused) == _campaign_fingerprint(uncached)
        assert reused.wall_virtual_s == uncached.wall_virtual_s


# ---------------------------------------------------------------------------
class TestParallelFacetCalibration:
    def _three_facet_config(self, **overrides):
        return fast_config(
            (1215.0, 810.0),
            axis="memory",
            locked_sm_mhz=(1410.0, 1095.0, 810.0),
            **overrides,
        )

    def test_parallel_equals_sequential(self, tmp_path):
        seq = run_campaign(
            _machine(11), self._three_facet_config(), workers=1
        )
        par = run_campaign(
            _machine(11), self._three_facet_config(), workers=3
        )
        assert _campaign_fingerprint(par) == _campaign_fingerprint(seq)
        assert par.wall_virtual_s == seq.wall_virtual_s

    def test_replica_calibration_is_a_pure_function(self):
        cfg = self._three_facet_config()
        bp = _machine(11).blueprint
        a = calibrate_facet(bp, cfg, 1, 1095.0, 0.5)
        b = calibrate_facet(bp, cfg, 1, 1095.0, 0.5)
        assert pickle.dumps(a) == pickle.dumps(b)

    def test_excluded_knobs_do_not_change_calibration(self):
        # The fingerprint exclusion set is only sound if these knobs
        # genuinely cannot reach phase 1 / the probe.
        bp = _machine(11).blueprint
        base = calibrate_facet(bp, self._three_facet_config(), 0, 1410.0, 0.0)
        varied = calibrate_facet(
            bp,
            self._three_facet_config(
                rse_threshold=0.01,
                min_measurements=2,
                max_measurements=64,
                rse_check_every=7,
                max_job_retries=9,
                throttle_backoff_s=0.9,
                max_consecutive_failures=3,
            ),
            0,
            1410.0,
            0.0,
        )
        assert pickle.dumps(base) == pickle.dumps(varied)

    def test_calibration_seed_streams_are_disjoint(self):
        bp = _machine(11).blueprint
        seen = set()
        for axis in ("sm_core", "memory", "power"):
            for facet_index in range(3):
                seq = calibration_seed_sequence(bp, 0, facet_index, axis)
                seen.add(tuple(seq.spawn_key))
        assert len(seen) == 9

    def test_cost_model_rebuilds_from_cached_data(self, tmp_path):
        # Satellite: the dispatch cost model must come up identically
        # from deserialized cache entries, with no live BenchContext.
        cache = str(tmp_path / "cc")

        def cfg():
            return self._three_facet_config(calibration_cache=cache)

        cold_exec = CampaignExecutor(_machine(11), cfg(), workers=1)
        cold_exec.run()
        warm_exec = CampaignExecutor(_machine(11), cfg(), workers=1)
        warm_exec.run()
        assert warm_exec._fixed_pass_by_facet == cold_exec._fixed_pass_by_facet
        assert set(warm_exec._fixed_pass_by_facet) == {1410.0, 1095.0, 810.0}
        for fixed in warm_exec._fixed_pass_by_facet.values():
            assert fixed > 0.0


# ---------------------------------------------------------------------------
class TestResumeWithWarmCache:
    def test_resume_reuses_cached_calibrations(self, tmp_path, monkeypatch):
        cache = str(tmp_path / "cc")
        journal_dir = tmp_path / "journal"
        golden = run_campaign(
            _machine(11), _facet_config(calibration_cache=cache), workers=1
        )
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                _machine(11),
                _facet_config(
                    calibration_cache=cache, inject_faults="interrupt@2"
                ),
                workers=1,
                journal=journal_dir,
            )

        def bomb(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("calibration re-ran on resume")

        monkeypatch.setattr("repro.exec.engine.run_phase1", bomb)
        monkeypatch.setattr("repro.exec.worker.run_phase1", bomb)
        monkeypatch.setattr("repro.exec.worker.probe_windows", bomb)
        resumed, counts = _counted(
            run_campaign,
            _machine(11),
            _facet_config(calibration_cache=cache),
            workers=1,
            journal=journal_dir,
            resume=True,
        )
        assert counts == (2, 0)
        assert _campaign_fingerprint(resumed) == _campaign_fingerprint(golden)
        assert resumed.wall_virtual_s == golden.wall_virtual_s


# ---------------------------------------------------------------------------
class TestCacheCLI:
    _ARGS = [
        "705,1410",
        "--sm-count", "4",
        "--min-measurements", "4",
        "--max-measurements", "6",
        "--seed", "3",
    ]

    def test_cache_flag_reports_stats_and_routes_to_engine(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        cache = str(tmp_path / "cc")
        args = self._ARGS + [
            "--calibration-cache", cache,
            "--output-dir", str(tmp_path / "cold"),
        ]
        # No --workers: the cache works at the default --workers 1.
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "calibration cache: 0 hit(s), 1 miss(es), 1 installed" in err

        args = self._ARGS + [
            "--calibration-cache", cache,
            "--output-dir", str(tmp_path / "warm"),
        ]
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "calibration cache: 1 hit(s), 0 miss(es), 0 installed" in err
        assert _csv_bytes(tmp_path / "warm") == _csv_bytes(tmp_path / "cold")

    def test_summary_counts_every_facet(self, tmp_path, capsys):
        # A two-facet memory-axis campaign: one cache entry per facet.
        from repro.cli import main

        args = [
            "1215,810",
            "--axis", "memory",
            "--locked-sm", "1410,810",
            "--sm-count", "4",
            "--min-measurements", "4",
            "--max-measurements", "6",
            "--seed", "3",
            "--quiet",
            "--calibration-cache", str(tmp_path / "cc"),
        ]
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "calibration cache: 0 hit(s), 2 miss(es), 2 installed" in err
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "calibration cache: 2 hit(s), 0 miss(es), 0 installed" in err
