"""Tests for CSV persistence and the LATEST naming convention."""

import csv
import io
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_machine, run_campaign
from repro.core.csvio import (
    pair_csv_name,
    parse_pair_csv_name,
    read_pair_csv,
    sanitize_hostname,
    summary_interrupted,
    write_campaign_csvs,
    write_pair_csv,
)
from repro.core.results import (
    OutlierLabels,
    PairResult,
    SwitchingLatencyMeasurement,
)
from repro.core.sweep import sweep_devices
from repro.errors import CampaignInterrupted, MeasurementError
from repro.exec.jobs import SupervisionPolicy
from tests.conftest import fast_config
from tests.test_exec_engine import _csv_bytes


def _measurement(latency_s, gt=None):
    return SwitchingLatencyMeasurement(
        latency_s=latency_s,
        ts_acc=1.25,
        te_acc=1.25 + latency_s,
        n_valid_sm=8,
        window_iterations=400,
        ground_truth_s=gt,
        ground_truth_outlier=False,
    )


class TestNaming:
    def test_convention_fields(self):
        name = pair_csv_name(705.0, 1410.0, "karolina23", 2)
        assert name == "swlat_705_1410_karolina23_gpu2.csv"

    def test_fractional_frequencies(self):
        assert "swlat_1417.5_" in pair_csv_name(1417.5, 705.0, "h", 0)

    def test_memory_coordinate_field(self):
        name = pair_csv_name(705.0, 1410.0, "karolina23", 2, memory_mhz=810.0)
        assert name == "swlatm_705_1410_810_karolina23_gpu2.csv"
        assert parse_pair_csv_name(name) == (705.0, 1410.0, 810.0)

    def test_legacy_name_parses_without_memory(self):
        assert parse_pair_csv_name("swlat_705_1410_karolina23_gpu2.csv") == (
            705.0, 1410.0, None,
        )

    def test_legacy_mem_prefixed_hostname_not_misparsed(self):
        # A pre-extension archive whose (unsanitized) hostname starts with
        # "mem<digits>_" must not be mistaken for a memory-clock field:
        # only the swlatm_ prefix introduces one.
        assert parse_pair_csv_name("swlat_900_1200_mem5_node_gpu0.csv") == (
            900.0, 1200.0, None,
        )

    def test_grid_name_requires_memory_field(self):
        with pytest.raises(MeasurementError):
            parse_pair_csv_name("swlatm_705_1410_karolina23_gpu2.csv")

    def test_hostname_with_underscores_still_parses(self):
        name = pair_csv_name(705.0, 1410.0, "node_a_b", 0)
        # sanitization maps "_" to "-", so the field layout stays unambiguous
        assert parse_pair_csv_name(name) == (705.0, 1410.0, None)


class TestHostnameSanitization:
    def test_path_separators_removed(self):
        assert "/" not in sanitize_hostname("evil/../../etc")
        assert not sanitize_hostname("../../escape").startswith(".")

    def test_safe_hostname_untouched(self):
        assert sanitize_hostname("karolina23.it4i.cz") == "karolina23.it4i.cz"

    def test_empty_falls_back(self):
        assert sanitize_hostname("") == "host"
        assert sanitize_hostname("///") != ""

    def test_write_stays_inside_output_dir(self, tmp_path):
        pair = PairResult(
            init_mhz=705.0, target_mhz=1410.0,
            measurements=[_measurement(0.005)],
        )
        path = write_pair_csv(tmp_path, pair, "../../escape/attempt", 0)
        assert path.parent == tmp_path
        assert path.exists()

    def test_malformed_name_validated_on_read(self, tmp_path):
        bad = tmp_path / "swlat_705_notafreq_gpu0.csv"
        bad.write_text("latency_ms\n1.0\n")
        with pytest.raises(MeasurementError):
            read_pair_csv(bad)


class TestRoundTrip:
    def test_pair_roundtrip(self, small_a100_campaign, tmp_path):
        pair = next(small_a100_campaign.iter_measured())
        path = write_pair_csv(
            tmp_path, pair, small_a100_campaign.hostname, 0
        )
        assert path.exists()
        loaded = read_pair_csv(path)
        assert loaded.init_mhz == pair.init_mhz
        assert loaded.target_mhz == pair.target_mhz
        assert loaded.n_measurements == pair.n_measurements
        np.testing.assert_allclose(
            loaded.latencies_s(without_outliers=False),
            pair.latencies_s(without_outliers=False),
            rtol=1e-6,
        )

    def test_ground_truth_roundtrip(self, small_a100_campaign, tmp_path):
        pair = next(small_a100_campaign.iter_measured())
        path = write_pair_csv(tmp_path, pair, "h", 0)
        loaded = read_pair_csv(path)
        orig = pair.ground_truths_s(without_outliers=False)
        back = loaded.ground_truths_s(without_outliers=False)
        np.testing.assert_allclose(back, orig, rtol=1e-5)

    def test_bad_filename_rejected(self, tmp_path):
        bad = tmp_path / "whatever.csv"
        bad.write_text("latency_ms\n1.0\n")
        with pytest.raises(MeasurementError):
            read_pair_csv(bad)

    def test_outlier_labels_restored(self, small_a100_campaign, tmp_path):
        pair = next(
            p for p in small_a100_campaign.iter_measured()
            if p.outliers is not None
        )
        path = write_pair_csv(tmp_path, pair, "h", 0)
        loaded = read_pair_csv(path)
        assert loaded.outliers is not None
        np.testing.assert_array_equal(
            loaded.outliers.labels, pair.outliers.labels
        )
        np.testing.assert_array_equal(
            loaded.outliers.kept_mask, pair.outliers.kept_mask
        )
        # The docstring promise: outlier filtering works on the round trip.
        np.testing.assert_allclose(
            loaded.latencies_s(without_outliers=True),
            pair.latencies_s(without_outliers=True),
            rtol=1e-6,
        )

    def test_write_read_write_byte_stable(self, small_a100_campaign, tmp_path):
        for pair in small_a100_campaign.iter_measured():
            first = write_pair_csv(tmp_path / "a", pair, "h", 0)
            loaded = read_pair_csv(first)
            second = write_pair_csv(tmp_path / "b", loaded, "h", 0)
            assert first.name == second.name
            assert first.read_bytes() == second.read_bytes()

    def test_empty_pair_roundtrip(self, tmp_path):
        pair = PairResult(init_mhz=705.0, target_mhz=1410.0)
        first = write_pair_csv(tmp_path, pair, "h", 0)
        loaded = read_pair_csv(first)
        assert loaded.n_measurements == 0
        assert loaded.outliers is None
        second = write_pair_csv(tmp_path / "again", loaded, "h", 0)
        assert first.read_bytes() == second.read_bytes()

    def test_memory_coordinate_roundtrip(self, tmp_path):
        pair = PairResult(
            init_mhz=705.0, target_mhz=1410.0, memory_mhz=810.0,
            measurements=[_measurement(0.0052, gt=0.0051)],
        )
        path = write_pair_csv(tmp_path, pair, "h", 0)
        assert path.name.startswith("swlatm_705_1410_810_")
        loaded = read_pair_csv(path)
        assert loaded.memory_mhz == 810.0
        assert loaded.measurements[0].ground_truth_s == pytest.approx(
            0.0051, rel=1e-6
        )


class TestCampaignOutput:
    def test_all_pairs_written(self, small_a100_campaign, tmp_path):
        paths = write_campaign_csvs(tmp_path, small_a100_campaign)
        pair_files = [p for p in paths if p.name.startswith("swlat_")]
        assert len(pair_files) == small_a100_campaign.n_measured_pairs
        summary = [p for p in paths if p.name.startswith("summary_")]
        assert len(summary) == 1

    def test_summary_contents(self, small_a100_campaign, tmp_path):
        write_campaign_csvs(tmp_path, small_a100_campaign)
        summary = tmp_path / "summary_simnode01_gpu0.csv"
        lines = summary.read_text().strip().splitlines()
        assert lines[0].startswith("init_mhz,target_mhz,status")
        assert len(lines) == 1 + len(small_a100_campaign.pairs)

    def test_output_dir_config_writes(self, tmp_path):
        machine = make_machine("A100", seed=31)
        config = fast_config(
            (705.0, 1410.0),
            min_measurements=4,
            max_measurements=6,
        )
        run_campaign(machine, config, output_dir=str(tmp_path / "out"))
        files = list((tmp_path / "out").glob("*.csv"))
        assert len(files) >= 3  # two pairs + summary

    @pytest.mark.parametrize("workers", [1, 2])
    def test_output_dir_equals_batch_writer(self, workers, tmp_path):
        # output_dir streams through CsvStreamSink, the one CSV writer of
        # a running campaign; its files are the batch writer's, byte for
        # byte, at any worker count.
        result = run_campaign(
            make_machine("A100", seed=31),
            fast_config((705.0, 1095.0, 1410.0)),
            workers=workers,
            output_dir=str(tmp_path / "streamed"),
        )
        write_campaign_csvs(tmp_path / "batch", result)
        streamed = _csv_bytes(tmp_path / "streamed")
        assert streamed == _csv_bytes(tmp_path / "batch")
        assert len(streamed) == 7  # six pairs + summary

    def test_device_sweep_output_dir_equals_batch_writer(self, tmp_path):
        # One directory for the whole sweep: file names carry the GPU
        # index, so the devices' CSVs never collide.
        results = sweep_devices(
            make_machine("A100", n_gpus=2, seed=21),
            fast_config((705.0, 1410.0)),
            output_dir=str(tmp_path / "streamed"),
        )
        for result in results:
            write_campaign_csvs(tmp_path / "batch", result)
        streamed = _csv_bytes(tmp_path / "streamed")
        assert streamed == _csv_bytes(tmp_path / "batch")
        assert {"summary_simnode01_gpu0.csv", "summary_simnode01_gpu1.csv"} <= set(
            streamed
        )

    def test_interrupted_output_dir_leaves_marked_summary(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                make_machine("A100", seed=31),
                fast_config((705.0, 1095.0, 1410.0)),
                policy=SupervisionPolicy(inject_faults="interrupt@2"),
                output_dir=str(out),
            )
        [summary] = out.glob("summary_*.csv")
        assert summary_interrupted(summary)
        assert 2 <= len(list(out.glob("swlat_*.csv"))) < 6


_FIELDS = [
    "index", "latency_ms", "ts_acc_s", "te_acc_s", "n_valid_sm",
    "window_iterations", "cluster_label", "is_outlier", "ground_truth_ms",
    "ground_truth_outlier",
]
_seconds = st.floats(-1e6, 1e6, allow_nan=False)
_measurements = st.builds(
    SwitchingLatencyMeasurement,
    latency_s=_seconds,
    ts_acc=_seconds,
    te_acc=_seconds,
    n_valid_sm=st.integers(0, 512),
    window_iterations=st.integers(0, 10**6),
    ground_truth_s=st.none() | _seconds,
    ground_truth_outlier=st.booleans(),
)


@st.composite
def _pairs(draw):
    measurements = draw(st.lists(_measurements, min_size=1, max_size=12))
    k = draw(st.integers(1, 5))
    labels = draw(
        st.none()
        | st.lists(
            st.sampled_from((-1, 0, k)),
            min_size=len(measurements),
            max_size=len(measurements),
        )
    )
    return PairResult(
        init_mhz=705.0,
        target_mhz=1410.0,
        measurements=measurements,
        outliers=(
            None
            if labels is None
            else OutlierLabels(labels=np.asarray(labels, dtype=np.int64))
        ),
    )


def _dictwriter_bytes(pair):
    """The bytes the csv.DictWriter pair writer produced."""
    labels = (
        pair.outliers.labels
        if pair.outliers is not None
        else np.zeros(len(pair.measurements), dtype=int)
    )
    out = io.StringIO(newline="")
    writer = csv.DictWriter(out, fieldnames=_FIELDS)
    writer.writeheader()
    for i, m in enumerate(pair.measurements):
        writer.writerow(
            {
                "index": i,
                "latency_ms": f"{m.latency_s * 1e3:.6f}",
                "ts_acc_s": f"{m.ts_acc:.9f}",
                "te_acc_s": f"{m.te_acc:.9f}",
                "n_valid_sm": m.n_valid_sm,
                "window_iterations": m.window_iterations,
                "cluster_label": int(labels[i]),
                "is_outlier": int(labels[i] == -1),
                "ground_truth_ms": (
                    f"{m.ground_truth_s * 1e3:.6f}"
                    if m.ground_truth_s is not None
                    else ""
                ),
                "ground_truth_outlier": int(m.ground_truth_outlier),
            }
        )
    return out.getvalue().encode()


@settings(max_examples=150, deadline=None)
@given(pair=_pairs())
def test_pair_csv_bytes_match_dictwriter(pair):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_pair_csv(tmp, pair, "h", 0)
        assert path.read_bytes() == _dictwriter_bytes(pair)
