"""Start-up import guard: no entry point pulls in ``scipy.stats``.

Importing ``scipy.stats`` costs more than everything else a repro process
loads at start-up, yet phase 3 needs only four ``scipy.special`` functions
(``stdtrit``, ``ndtri``, ``stdtr``, ``ndtr``).  The guard runs in a fresh
interpreter, because this test process may already have imported
``scipy.stats`` for the exactness references.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
import repro
import repro.analysis.compare
import repro.exec.engine
import repro.service.service
from repro import make_machine

make_machine("GH200", seed=1)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy.stats"))))
"""


def test_entry_points_do_not_import_scipy_stats():
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
        timeout=120,
    )
    loaded = json.loads(out.stdout.strip().splitlines()[-1])
    assert loaded == []
