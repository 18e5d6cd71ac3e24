"""Write the committed critical-value table of ``repro.stats.intervals``.

The methodology's Welch tests run at one confidence level
(``intervals.CONFIDENCE``) and round the dof to ``DOF_DECIMALS`` decimals,
with the normal distribution above ``NORMAL_DOF_CUTOFF``.  Every t
critical value a campaign can ask for is therefore
``scipy.special.stdtrit(k / 10**DOF_DECIMALS, 0.5 + CONFIDENCE / 2)`` for
an integer ``k`` from ``10**DOF_DECIMALS`` (dof 1) to
``NORMAL_DOF_CUTOFF * 10**DOF_DECIMALS``.  This script writes those values
as ``src/repro/stats/critical_values.npy`` (raw float64, loaded at import:
a compressed ``.npz`` would load ten times slower), and the scipy and
numpy versions that made them to ``critical_values.json`` beside it.

    python3 tools/gen_critical_values.py

Rerun it after changing any of the three constants;
``tests/test_stats_critical_values.py`` compares every entry with the
installed scipy.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import scipy
from scipy import special as sc

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.stats import intervals  # noqa: E402

TABLE = Path(intervals.__file__).with_name("critical_values.npy")
META = TABLE.with_suffix(".json")


def main() -> int:
    # every rounded dof of the t branch, in table order
    scale = 10**intervals.DOF_DECIMALS
    keys = np.arange(scale, round(intervals.NORMAL_DOF_CUTOFF * scale) + 1) / scale
    tail = 0.5 + intervals.CONFIDENCE / 2.0
    values = sc.stdtrit(keys, tail)
    np.save(TABLE, values)
    META.write_text(
        json.dumps(
            {
                "function": "scipy.special.stdtrit",
                "tail": tail,
                "first_dof": float(keys[0]),
                "last_dof": float(keys[-1]),
                "entries": int(values.size),
                "scipy": scipy.__version__,
                "numpy": np.__version__,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {values.size} values to {TABLE} (scipy {scipy.__version__})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
