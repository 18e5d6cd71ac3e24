"""Analysis and figure/table reproduction helpers.

Each module maps to artifacts of the paper's evaluation (Sec. VII):

* :mod:`repro.analysis.summary` — Table II (best/worst-case summaries),
* :mod:`repro.analysis.heatmap` — Fig. 3 heatmap grids,
* :mod:`repro.analysis.distributions` — Fig. 4 violin splits,
* :mod:`repro.analysis.clusters` — Sec. VII-B cluster statistics and
  Figs. 5/6 scatter data,
* :mod:`repro.analysis.variability` — Sec. VII-C manufacturing
  variability (Figs. 7-9),
* :mod:`repro.analysis.paper_reference` — the published values we compare
  against,
* :mod:`repro.analysis.render` — plain-text rendering of grids/tables.
"""

from repro.analysis.advisor import RuntimeAdvisor
from repro.analysis.clusters import ClusterReport, cluster_report
from repro.analysis.grid_io import read_grid_csv, write_grid_csv
from repro.analysis.distributions import DirectionSplit, split_by_direction
from repro.analysis.heatmap import (
    HeatmapGrid,
    heatmap_from_campaign,
    heatmaps_by_memory,
)
from repro.analysis.report import campaign_report, write_campaign_report
from repro.analysis.summary import (
    CaseSummary,
    Table2Row,
    summarize_by_memory,
    summarize_campaign,
)
from repro.analysis.validation import RecoveryReport, score_recovery
from repro.analysis.variability import VariabilityReport, variability_report

__all__ = [
    "HeatmapGrid",
    "heatmap_from_campaign",
    "heatmaps_by_memory",
    "Table2Row",
    "CaseSummary",
    "summarize_by_memory",
    "summarize_campaign",
    "DirectionSplit",
    "split_by_direction",
    "ClusterReport",
    "cluster_report",
    "VariabilityReport",
    "variability_report",
    "RuntimeAdvisor",
    "RecoveryReport",
    "score_recovery",
    "campaign_report",
    "write_campaign_report",
    "read_grid_csv",
    "write_grid_csv",
]
