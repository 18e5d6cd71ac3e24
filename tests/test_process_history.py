"""A campaign's result does not depend on what ran before it in the process.

The determinism spine says a pair result is a pure function of the
blueprint, the config and the grid index.  Module state that outlives a
campaign (GPU-spec memos, replica skeleton caches, fault-plan caches)
must therefore never leak into the next one.  This fixed example runs
campaigns on other models and axes first, then an A100 SM-axis
campaign, and compares that campaign's CSV bytes and ``wall_virtual_s``
with the same campaign run in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro import make_machine, run_campaign
from tests.conftest import fast_config
from tests.test_exec_engine import _csv_bytes

#: the campaigns that run first: (GPU, seed, axis, swept values)
HISTORY = (
    ("GH200", 3, "sm_core", (705.0, 1980.0)),
    ("A100", 4, "memory", (1215.0, 810.0)),
    ("A100", 5, "power", (400.0, 270.0)),
)
#: the campaign compared against a fresh interpreter
FINAL = ("A100", 6, "sm_core", (705.0, 1095.0, 1410.0))

#: run in a fresh interpreter: the final campaign, CSVs to argv[1]
SCRIPT = """
import sys
from repro import LatestConfig, make_machine, run_campaign
result = run_campaign(
    make_machine({gpu!r}, seed={seed}),
    LatestConfig(**{config!r}),
    output_dir=sys.argv[1],
)
print(repr(result.wall_virtual_s))
"""


def _config(axis, values):
    return fast_config(values, axis=axis, min_measurements=2, max_measurements=4)


def test_campaign_after_other_campaigns_equals_a_fresh_process(tmp_path):
    gpu, seed, axis, values = FINAL
    config = _config(axis, values)
    fields = {name: getattr(config, name) for name in config.__dataclass_fields__}
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    fresh = subprocess.run(
        [
            sys.executable,
            "-c",
            SCRIPT.format(gpu=gpu, seed=seed, config=fields),
            str(tmp_path / "fresh"),
        ],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )

    for h_gpu, h_seed, h_axis, h_values in HISTORY:
        run_campaign(make_machine(h_gpu, seed=h_seed), _config(h_axis, h_values))
    result = run_campaign(
        make_machine(gpu, seed=seed), config, output_dir=str(tmp_path / "after")
    )

    assert repr(result.wall_virtual_s) == fresh.stdout.strip()
    assert _csv_bytes(tmp_path / "after") == _csv_bytes(tmp_path / "fresh")
    assert _csv_bytes(tmp_path / "after")
