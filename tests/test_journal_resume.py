"""Interrupted-then-resumed campaigns reconstruct bit-identical results.

The resume contract: an engine campaign interrupted mid-run (here via the
deterministic ``interrupt@N`` driver fault, which sends a real SIGINT)
and then resumed against its journal produces a
:class:`~repro.core.results.CampaignResult` — CSV bytes and
``wall_virtual_s`` included — equal to an uninterrupted run's, on every
measurement axis.
"""

import pytest

from repro import make_machine, run_campaign
from repro.cli import main
from repro.core.journal import CampaignJournal, campaign_fingerprint
from repro.errors import CampaignInterrupted, ConfigError, MeasurementError
from tests.conftest import fast_config
from tests.test_exec_engine import _campaign_fingerprint, _csv_bytes

_AXES = {
    "sm_core": dict(frequencies=(705.0, 1095.0, 1410.0)),
    "memory": dict(frequencies=(1215.0, 810.0, 405.0), axis="memory"),
    "power": dict(frequencies=(400.0, 330.0, 270.0), axis="power"),
}


def _axis_config(axis, **overrides):
    kw = dict(_AXES[axis])
    freqs = kw.pop("frequencies")
    kw.update(overrides)
    return fast_config(freqs, **kw)


def _machine(seed=4242):
    return make_machine("A100", seed=seed)


class TestInterruptResumeAxes:
    @pytest.mark.parametrize("axis", sorted(_AXES))
    def test_resumed_campaign_bit_identical(self, axis, tmp_path):
        journal_dir = tmp_path / "journal"
        golden_cfg = _axis_config(axis, output_dir=str(tmp_path / "gold"))
        golden = run_campaign(_machine(), golden_cfg, workers=1)
        golden_csv = _csv_bytes(tmp_path / "gold")

        # interrupt@2: SIGINT lands on the driver after the 2nd merged
        # pair; workers=1 checks the guard between units, so the stop
        # point is deterministic.
        with pytest.raises(CampaignInterrupted) as excinfo:
            run_campaign(
                _machine(),
                _axis_config(axis, inject_faults="interrupt@2"),
                workers=1,
                journal=journal_dir,
            )
        assert excinfo.value.journal_dir == str(journal_dir)
        assert "--resume" in str(excinfo.value)

        # The journal holds the pairs finished before the signal.
        recorded = CampaignJournal.open(
            journal_dir,
            campaign_fingerprint(_axis_config(axis), _machine().blueprint),
            resume=True,
        )
        n_recorded = len(recorded.load())
        recorded.close()
        assert 2 <= n_recorded < 6

        resumed_cfg = _axis_config(axis, output_dir=str(tmp_path / "res"))
        resumed = run_campaign(
            _machine(), resumed_cfg, workers=1, journal=journal_dir, resume=True
        )
        assert _campaign_fingerprint(resumed) == _campaign_fingerprint(golden)
        assert resumed.wall_virtual_s == golden.wall_virtual_s
        assert _csv_bytes(tmp_path / "res") == golden_csv


    def test_journaled_campaign_equals_unjournaled(self, tmp_path):
        # The per-pair journal append touches neither the virtual clock
        # nor the RNG streams.
        cfg = _axis_config("sm_core")
        plain = run_campaign(_machine(), cfg, workers=1)
        journaled = run_campaign(
            _machine(), cfg, workers=1, journal=tmp_path / "journal"
        )
        assert _campaign_fingerprint(journaled) == _campaign_fingerprint(plain)
        assert journaled.wall_virtual_s == plain.wall_virtual_s


class TestResumeValidation:
    def _interrupted_journal(self, tmp_path, **cfg_overrides):
        journal_dir = tmp_path / "journal"
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                _machine(),
                _axis_config(
                    "sm_core", inject_faults="interrupt@2", **cfg_overrides
                ),
                workers=1,
                journal=journal_dir,
            )
        return journal_dir

    def test_changed_config_rejected(self, tmp_path):
        journal_dir = self._interrupted_journal(tmp_path)
        with pytest.raises(MeasurementError, match="fingerprint"):
            run_campaign(
                _machine(),
                _axis_config("sm_core", rse_threshold=0.01),
                workers=1,
                journal=journal_dir,
                resume=True,
            )

    def test_changed_seed_rejected(self, tmp_path):
        journal_dir = self._interrupted_journal(tmp_path)
        with pytest.raises(MeasurementError, match="fingerprint"):
            run_campaign(
                _machine(seed=1),
                _axis_config("sm_core"),
                workers=1,
                journal=journal_dir,
                resume=True,
            )

    def test_execution_knobs_may_change_on_resume(self, tmp_path):
        journal_dir = self._interrupted_journal(tmp_path)
        golden = run_campaign(
            _machine(), _axis_config("sm_core"), workers=1
        )
        resumed = run_campaign(
            _machine(),
            _axis_config("sm_core", max_job_retries=9),
            workers=2,
            journal=journal_dir,
            resume=True,
        )
        assert _campaign_fingerprint(resumed) == _campaign_fingerprint(golden)

    def test_fresh_run_refuses_existing_journal(self, tmp_path):
        journal_dir = self._interrupted_journal(tmp_path)
        with pytest.raises(ConfigError, match="already exists"):
            run_campaign(
                _machine(),
                _axis_config("sm_core"),
                workers=1,
                journal=journal_dir,
            )

    def test_resume_without_journal_rejected(self):
        with pytest.raises(ConfigError, match="journal"):
            run_campaign(
                _machine(), _axis_config("sm_core"), workers=1, resume=True
            )


class TestCliResume:
    _ARGS = [
        "705,1410",
        "--sm-count", "4",
        "--min-measurements", "4",
        "--max-measurements", "6",
        "--seed", "3",
        "--workers", "1",
    ]

    def test_interrupt_exits_130_then_resume_succeeds(self, tmp_path, capsys):
        journal = str(tmp_path / "journal")
        code = main(
            self._ARGS
            + ["--journal", journal, "--inject-faults", "interrupt@1"]
        )
        err = capsys.readouterr().err
        assert code == 130
        assert "interrupted" in err
        assert f"--journal {journal} --resume" in err

        code = main(self._ARGS + ["--journal", journal, "--resume"])
        out = capsys.readouterr().out
        assert code == 0
        assert "worst-case latencies" in out

    def test_resume_without_journal_flag_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(self._ARGS + ["--resume"])

    def test_journal_without_workers_routes_to_engine(self, tmp_path, capsys):
        # --journal alone runs at the default --workers 1, so the
        # interrupted campaign is resumable without naming --workers.
        journal = str(tmp_path / "journal")
        no_workers = [a for a in self._ARGS if a not in ("--workers", "1")]
        code = main(
            no_workers + ["--journal", journal, "--inject-faults", "interrupt@1"]
        )
        assert code == 130
        assert f"--journal {journal} --resume" in capsys.readouterr().err
        assert main(no_workers + ["--journal", journal, "--resume"]) == 0


def test_interrupted_error_without_journal_has_no_dir(tmp_path):
    cfg = _axis_config("sm_core", inject_faults="interrupt@2")
    with pytest.raises(CampaignInterrupted) as excinfo:
        run_campaign(_machine(), cfg, workers=1)
    assert excinfo.value.journal_dir is None
