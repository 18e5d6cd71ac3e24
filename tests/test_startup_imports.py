"""Process guard: no campaign, service or client process loads scipy.

Importing scipy costs more than everything else a repro process loads at
start-up (``scipy.special`` drags in ``numpy.f2py``, ``numpy.testing``
and ``numpy.ma``), yet a campaign needs no scipy function: its critical
values come from the committed table in :mod:`repro.stats.intervals`.
The probe runs in a fresh interpreter, because this test process may
already have imported scipy for the exactness references.  It imports
every entry point, runs a tiny campaign on each measurement axis and
takes one :class:`~repro.service.service.CampaignService` through start,
submit, result and stop before it looks at ``sys.modules``, so a scipy
import deferred to first use fails here too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import asyncio, json, sys
import repro
import repro.cli
import repro.exec.engine
import repro.service.cli
import repro.service.client
import repro.service.service
from repro import LatestConfig, make_machine, run_campaign
from repro.service.requests import CampaignRequest
from repro.service.service import CampaignService

FAST = dict(
    record_sm_count=4, min_measurements=4, max_measurements=8,
    rse_check_every=2, warmup_kernels=1, warmup_kernel_duration_s=0.05,
    measure_kernel_duration_s=0.08, delay_iterations=150,
    confirm_iterations=150, probe_window_s=0.4, settle_chunk_s=0.08,
)
for axis, freqs in (
    ("sm_core", (705.0, 1410.0)),
    ("memory", (1215.0, 810.0)),
    ("power", (400.0, 270.0)),
):
    config = LatestConfig(frequencies=freqs, axis=axis, **FAST)
    result = run_campaign(make_machine("A100", seed=3), config)
    assert result.pairs, axis


async def serve():
    service = CampaignService(fleet_size=1)
    await service.start()
    campaign_id = await service.submit(CampaignRequest(
        seed=5, config=dict(FAST, frequencies=[705.0, 1410.0])
    ))
    result = await service.result(campaign_id)
    await service.stop()
    assert result.pairs


asyncio.run(serve())
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_campaign_service_and_client_processes_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    loaded = json.loads(out.stdout.strip().splitlines()[-1])
    assert loaded == []
