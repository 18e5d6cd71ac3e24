"""Published values from the paper, used for paper-vs-measured comparison.

All latencies in milliseconds.  Source: Table II and Sec. VII of
arXiv:2502.20075.  The reproduction targets the *shape* of these values
(ordering, factors, asymmetries), not exact milliseconds; the suite in
``benchmarks/`` asserts that shape.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PaperCaseSummary",
    "PaperGpuReference",
    "PAPER_TABLE2",
    "PAPER_SINGLE_CLUSTER_SHARE",
    "PAPER_MIN_SILHOUETTE",
    "PAPER_AVG_SILHOUETTE",
    "CPU_TRANSITION_RANGE_MS",
]


@dataclass(frozen=True)
class PaperCaseSummary:
    """One half of Table II (best-case or worst-case row block)."""

    min_ms: float
    min_pair: tuple[float, float]
    mean_ms: float
    max_ms: float
    max_pair: tuple[float, float]


@dataclass(frozen=True)
class PaperGpuReference:
    """Published per-GPU summary (Table II)."""

    name: str
    worst: PaperCaseSummary
    best: PaperCaseSummary


PAPER_TABLE2: dict[str, PaperGpuReference] = {
    "RTX Quadro 6000": PaperGpuReference(
        name="RTX Quadro 6000",
        worst=PaperCaseSummary(
            min_ms=13.249, min_pair=(1650.0, 1560.0),
            mean_ms=81.891,
            max_ms=350.436, max_pair=(930.0, 990.0),
        ),
        best=PaperCaseSummary(
            min_ms=0.558, min_pair=(1650.0, 1560.0),
            mean_ms=73.082,
            max_ms=222.751, max_pair=(750.0, 990.0),
        ),
    ),
    "A100 SXM-4": PaperGpuReference(
        name="A100 SXM-4",
        worst=PaperCaseSummary(
            min_ms=7.413, min_pair=(1350.0, 1260.0),
            mean_ms=15.637,
            max_ms=22.716, max_pair=(1125.0, 795.0),
        ),
        best=PaperCaseSummary(
            min_ms=4.435, min_pair=(1215.0, 1125.0),
            mean_ms=5.007,
            max_ms=5.976, max_pair=(840.0, 705.0),
        ),
    ),
    "GH200": PaperGpuReference(
        name="GH200",
        worst=PaperCaseSummary(
            min_ms=5.554, min_pair=(1980.0, 1605.0),
            mean_ms=23.448,
            max_ms=477.318, max_pair=(1095.0, 1260.0),
        ),
        best=PaperCaseSummary(
            min_ms=4.914, min_pair=(1665.0, 1935.0),
            mean_ms=7.866,
            max_ms=140.352, max_pair=(1665.0, 1920.0),
        ),
    ),
}

#: Sec. VII-B: share of frequency pairs with exactly one latency cluster.
PAPER_SINGLE_CLUSTER_SHARE: dict[str, float] = {
    "GH200": 0.85,
    "A100 SXM-4": 0.96,
    "RTX Quadro 6000": 0.70,
}

#: Sec. VII-B: silhouette score of multi-cluster pairs is always > 0.4;
#: the average over all three GPUs is 0.84.
PAPER_MIN_SILHOUETTE = 0.4
PAPER_AVG_SILHOUETTE = 0.84

#: Sec. VII: modern CPUs complete frequency transitions in microseconds to
#: "units of milliseconds at most"; GPUs take tens to hundreds of ms.
CPU_TRANSITION_RANGE_MS = (0.01, 5.0)
