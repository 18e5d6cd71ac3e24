"""Tests for the latest-bench CLI and the campaign flags it shares."""

import re

import pytest

import repro.cli
from repro.cli import build_parser, campaign_request, main, parse_frequencies
from repro.errors import ReproError
from repro.service.cli import build_parser as repro_parser
from repro.service.requests import CampaignRequest


class TestArgumentParsing:
    def test_frequencies_parsed(self):
        assert parse_frequencies("705,1095,1410") == (705.0, 1095.0, 1410.0)

    def test_whitespace_tolerated(self):
        assert parse_frequencies("705, 1095") == (705.0, 1095.0)

    def test_negative_frequency_exits(self):
        with pytest.raises(SystemExit):
            parse_frequencies("705,-1410")

    def test_zero_frequency_exits(self):
        with pytest.raises(SystemExit):
            parse_frequencies("0,1410")

    def test_duplicate_frequencies_exit(self):
        with pytest.raises(SystemExit):
            parse_frequencies("705,1410,705")

    def test_memory_frequency_list_single_allowed(self):
        assert parse_frequencies("1215", minimum=1) == (1215.0,)

    def test_invalid_frequency_exits(self):
        with pytest.raises(SystemExit):
            parse_frequencies("705,abc")

    def test_single_frequency_exits(self):
        with pytest.raises(SystemExit):
            parse_frequencies("705")

    def test_defaults(self):
        args = build_parser().parse_args(["705,1410"])
        assert args.rse == 0.05
        assert args.device == 0
        assert args.gpu_model == "A100"
        assert args.min_measurements == 25
        assert args.max_measurements == 200


class TestMain:
    def test_small_run_exit_zero(self, capsys):
        code = main(
            [
                "705,1410",
                "--sm-count", "4",
                "--min-measurements", "4",
                "--max-measurements", "6",
                "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "worst-case latencies" in out
        assert "705" in out

    def test_heatmap_flag(self, capsys):
        code = main(
            [
                "705,1410",
                "--sm-count", "4",
                "--min-measurements", "4",
                "--max-measurements", "6",
                "--seed", "3",
                "--heatmaps",
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "min switching latencies" in out
        assert "max switching latencies" in out

    def test_memory_frequencies_run(self, tmp_path, capsys):
        out_dir = tmp_path / "csv"
        code = main(
            [
                "705,1410",
                "--memory-frequencies", "1215,810",
                "--sm-count", "4",
                "--min-measurements", "4",
                "--max-measurements", "6",
                "--seed", "3",
                "--heatmaps",
                "--quiet",
                "--output-dir", str(out_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # one heatmap facet per memory clock, labelled
        assert "@ mem 1215 MHz" in out
        assert "@ mem 810 MHz" in out
        names = {p.name for p in out_dir.glob("swlatm_*.csv")}
        assert any("_1215_" in n for n in names)
        assert any("_810_" in n for n in names)

    def test_memory_axis_run(self, tmp_path, capsys):
        out_dir = tmp_path / "csv"
        code = main(
            [
                "1215,810",
                "--axis", "memory",
                "--sm-count", "4",
                "--min-measurements", "4",
                "--max-measurements", "6",
                "--seed", "3",
                "--output-dir", str(out_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "memory-axis campaign" in out
        assert "locked SM 1410 MHz" in out
        names = {p.name for p in out_dir.glob("swlatmem_*.csv")}
        assert names == {
            "swlatmem_1215_810_simnode01_gpu0.csv",
            "swlatmem_810_1215_simnode01_gpu0.csv",
        }

    def test_memory_axis_rejects_grid_facets(self):
        with pytest.raises(SystemExit):
            main(["1215,810", "--axis", "memory", "--memory-frequencies", "810"])

    def test_locked_sm_requires_memory_axis(self):
        with pytest.raises(SystemExit):
            main(["705,1410", "--locked-sm", "1410"])

    def test_power_axis_run(self, tmp_path, capsys):
        out_dir = tmp_path / "csv"
        code = main(
            [
                "400,330",
                "--axis", "power",
                "--sm-count", "4",
                "--min-measurements", "4",
                "--max-measurements", "6",
                "--seed", "3",
                "--output-dir", str(out_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "power-axis campaign" in out
        assert "locked SM 1410 MHz" in out
        assert "400 ->     330 W" in out
        names = {p.name for p in out_dir.glob("swlatpow_*.csv")}
        assert names == {
            "swlatpow_400_330_simnode01_gpu0.csv",
            "swlatpow_330_400_simnode01_gpu0.csv",
        }

    def test_power_axis_positional_limits(self, capsys):
        code = main(
            [
                "400,330",
                "--axis", "power",
                "--sm-count", "4",
                "--min-measurements", "4",
                "--max-measurements", "6",
                "--seed", "3",
                "--quiet",
            ]
        )
        assert code == 0

    def test_power_axis_needs_a_ladder(self):
        with pytest.raises(SystemExit):
            main(["--axis", "power"])

    def test_missing_frequency_list_exits(self):
        with pytest.raises(SystemExit):
            main(["--axis", "memory"])

    def test_locked_sm_facet_sweep_run(self, tmp_path, capsys):
        out_dir = tmp_path / "csv"
        code = main(
            [
                "1215,810",
                "--axis", "memory",
                "--locked-sm", "1410,810",
                "--sm-count", "4",
                "--min-measurements", "2",
                "--max-measurements", "4",
                "--seed", "3",
                "--heatmaps",
                "--output-dir", str(out_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "once per locked SM clock (1410, 810 MHz)" in out
        assert "one panel per locked SM clock" in out
        assert "@ SM 1410 MHz" in out
        names = {p.name for p in out_dir.glob("swlatmemf_*.csv")}
        assert "swlatmemf_1215_810_1410_simnode01_gpu0.csv" in names
        assert "swlatmemf_1215_810_810_simnode01_gpu0.csv" in names

    def test_unsupported_memory_frequency_fails(self, capsys):
        code = main(
            [
                "705,1410",
                "--memory-frequencies", "999",
                "--sm-count", "4",
                "--min-measurements", "4",
                "--max-measurements", "6",
                "--seed", "3",
                "--quiet",
            ]
        )
        assert code == 1
        assert "memory clock" in capsys.readouterr().err

    def test_output_dir_written(self, tmp_path, capsys):
        out_dir = tmp_path / "csv"
        code = main(
            [
                "705,1410",
                "--sm-count", "4",
                "--min-measurements", "4",
                "--max-measurements", "6",
                "--seed", "3",
                "--quiet",
                "--output-dir", str(out_dir),
            ]
        )
        assert code == 0
        assert list(out_dir.glob("swlat_*.csv"))

    def test_gpu_model_selection(self, capsys):
        code = main(
            [
                "750,1650",
                "--gpu-model", "RTX6000",
                "--sm-count", "4",
                "--min-measurements", "4",
                "--max-measurements", "6",
                "--seed", "3",
                "--quiet",
            ]
        )
        assert code == 0
        assert "RTX Quadro 6000" in capsys.readouterr().out

    def test_job_timeout_reaches_policy(self, monkeypatch, capsys):
        import repro.cli

        seen = []
        real = repro.cli.run_campaign

        def spy(machine, config, **kwargs):
            seen.append(kwargs["policy"])
            return real(machine, config, **kwargs)

        monkeypatch.setattr(repro.cli, "run_campaign", spy)
        code = main(
            [
                "705,1410",
                "--sm-count", "4",
                "--min-measurements", "4",
                "--max-measurements", "6",
                "--seed", "3",
                "--quiet",
                "--job-timeout", "2.5",
            ]
        )
        assert code == 0
        assert [policy.job_timeout_s for policy in seen] == [2.5]

    @pytest.mark.parametrize("seconds", ["0", "-1"])
    def test_non_positive_job_timeout_exits(self, seconds):
        with pytest.raises(SystemExit, match="job_timeout_s"):
            main(["705,1410", "--quiet", "--job-timeout", seconds])

    def test_hung_job_is_retried_at_one_worker(self, tmp_path, capsys):
        argv = [
            "705,1410",
            "--sm-count", "4",
            "--min-measurements", "4",
            "--max-measurements", "6",
            "--seed", "3",
            "--quiet",
            "--progress",
            "--workers", "1",
        ]
        clean, hung = tmp_path / "clean", tmp_path / "hung"
        assert main(argv + ["--output-dir", str(clean)]) == 0
        capsys.readouterr()
        code = main(
            argv
            + [
                "--output-dir", str(hung),
                "--inject-faults", "hang@0:4",
                "--job-timeout", "1.5",
            ]
        )
        assert code == 0
        retried = re.findall(r"(\d+) retried", capsys.readouterr().err)
        assert int(retried[-1]) >= 1
        csvs = {p.name: p.read_bytes() for p in sorted(clean.glob("*.csv"))}
        assert csvs
        assert {p.name: p.read_bytes() for p in sorted(hung.glob("*.csv"))} == csvs


def _bench_campaign(monkeypatch, argv):
    """The (machine, config) ``latest-bench argv`` would run."""
    seen = []

    def capture(machine, config, **kwargs):
        seen.append((machine, config))
        raise ReproError("captured")

    monkeypatch.setattr(repro.cli, "run_campaign", capture)
    assert main(argv) == 1
    return seen[0]


class TestSharedCampaignFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["705,1095,1410"],
            [
                "705,1410",
                "--memory-frequencies", "1215,810",
                "--sm-count", "4",
                "--seed", "3",
            ],
            ["1215,810", "--axis", "memory", "--locked-sm", "1095"],
            [
                "1215,810",
                "--axis", "memory",
                "--locked-sm", "1410,810",
                "--rse", "0.1",
                "--min-measurements", "5",
                "--max-measurements", "9",
            ],
            [
                "700,560",
                "--axis", "power",
                "--gpu-model", "GH200",
                "--n-gpus", "2",
                "--device", "1",
                "--hostname", "node7",
                "--output-dir", "out",
            ],
        ],
    )
    def test_submit_sends_the_campaign_latest_bench_runs(
        self, monkeypatch, argv
    ):
        machine, config = _bench_campaign(monkeypatch, argv)
        args = repro_parser().parse_args(["submit", *argv])
        sent = campaign_request(args, tenant=args.tenant, weight=args.weight)
        received = CampaignRequest.from_json(sent.to_json())
        assert received.build_config() == config
        assert received.build_machine().blueprint == machine.blueprint
