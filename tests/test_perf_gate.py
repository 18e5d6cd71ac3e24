"""The perf gate's verdict on synthetic perfbench result lines.

``tools/perf_gate.py`` is loaded by file path; only its pure
:func:`verdict` runs here (no subprocess, no git).
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "perf_gate.py"
_SPEC = importlib.util.spec_from_file_location("perf_gate", _PATH)
perf_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_gate)

_BASE_METRICS = {"campaign_wall_s": 4.0, "measurements_per_s": 500.0}


def _benchmark(bound=0.25):
    return {
        "workloads": [{"name": "pair_sweep_durable"}],
        "end_to_end": [
            {"name": "measurements_per_s", "better": "higher", "bound": bound},
            {"name": "campaign_wall_s", "better": "lower", "bound": bound},
        ],
    }


def _line(correct=True, attempted=552, failed=0, **overrides):
    values = {**_BASE_METRICS, **overrides}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": "?"} for name, v in values.items()},
    }


def _verdict(change_lines, benchmark=None):
    parent = {"pair_sweep_durable": [_line(), _line(), _line()]}
    change = {"pair_sweep_durable": change_lines}
    return perf_gate.verdict(benchmark or _benchmark(), parent, change)


def _rows(result):
    return {row["metric"]: row for row in result["rows"]}


def test_identical_sides_pass():
    result = _verdict([_line(), _line(), _line()])
    assert result["pass"] and not result["problems"]
    assert {row["ratio"] for row in result["rows"]} == {1.0}


@pytest.mark.parametrize("slower, ok", [(1.30, False), (1.20, True)])
def test_campaign_wall_bound(slower, ok):
    wall = _BASE_METRICS["campaign_wall_s"] * slower
    result = _verdict([_line(campaign_wall_s=wall)] * 3)
    assert result["pass"] is ok
    assert _rows(result)["campaign_wall_s"]["ok"] is ok
    assert _rows(result)["measurements_per_s"]["ok"]


def test_lower_throughput_fails():
    rate = _BASE_METRICS["measurements_per_s"] * 0.70
    result = _verdict([_line(measurements_per_s=rate)] * 3)
    assert not result["pass"]
    assert not _rows(result)["measurements_per_s"]["ok"]
    assert "pair_sweep_durable measurements_per_s" in result["problems"][0]


def test_higher_throughput_passes():
    rate = _BASE_METRICS["measurements_per_s"] * 1.5
    assert _verdict([_line(measurements_per_s=rate)] * 3)["pass"]


def test_median_ignores_one_slow_pair():
    wall = _BASE_METRICS["campaign_wall_s"]
    result = _verdict([_line(campaign_wall_s=w) for w in (wall, 2 * wall, wall)])
    assert result["pass"]


def test_more_failed_operations_fail():
    result = _verdict([_line(), _line(failed=1), _line()])
    assert not result["pass"]
    assert any("failed share" in p for p in result["problems"])


def test_incorrect_change_fails():
    result = _verdict([_line(), _line(correct=False), _line()])
    assert not result["pass"]
    assert any("correct: false" in p for p in result["problems"])


def test_bounds_come_from_the_benchmark_passed_in():
    wall = _BASE_METRICS["campaign_wall_s"] * 1.30
    lines = [_line(campaign_wall_s=wall)] * 3
    assert not _verdict(lines, _benchmark(bound=0.25))["pass"]
    loose = _verdict(lines, _benchmark(bound=0.50))
    assert loose["pass"]
    assert {row["bound"] for row in loose["rows"]} == {0.50}


def test_metric_missing_on_the_change_side_fails():
    line = _line()
    del line["metrics"]["campaign_wall_s"]
    result = _verdict([line] * 3)
    assert not result["pass"]
    assert any("missing" in p for p in result["problems"])
