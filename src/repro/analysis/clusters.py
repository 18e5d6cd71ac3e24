"""Cluster statistics over campaign pairs (paper Sec. VII-B, Figs. 5/6).

The paper reports, per GPU, the share of frequency pairs whose switching
latencies form a single DBSCAN cluster (GH200 85 %, A100 96 %, RTX Quadro
6000 70 %), the maximum cluster count (five, GH200 only), and validates
multi-cluster pairs with the silhouette score (always > 0.4; average 0.84
over the three GPUs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.clustering.silhouette import silhouette_score
from repro.core.results import CampaignResult, PairKey, PairResult
from repro.errors import MeasurementError

__all__ = ["PairClusterInfo", "ClusterReport", "cluster_report", "scatter_data"]


@dataclass(frozen=True)
class PairClusterInfo:
    """Clustering facts for one pair."""

    key: PairKey
    n_clusters: int
    n_outliers: int
    n_measurements: int
    silhouette: float | None  # only defined for >= 2 clusters


@dataclass
class ClusterReport:
    """Aggregate cluster statistics for one campaign."""

    gpu_name: str
    pairs: list[PairClusterInfo] = field(default_factory=list)

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    @property
    def single_cluster_share(self) -> float:
        """Fraction of pairs with exactly one cluster."""
        if not self.pairs:
            raise MeasurementError("no pairs in cluster report")
        singles = sum(1 for p in self.pairs if p.n_clusters == 1)
        return singles / len(self.pairs)

    @property
    def max_clusters(self) -> int:
        return max((p.n_clusters for p in self.pairs), default=0)

    @property
    def multi_cluster_silhouettes(self) -> np.ndarray:
        return np.asarray(
            [p.silhouette for p in self.pairs if p.silhouette is not None]
        )

    @property
    def min_silhouette(self) -> float:
        s = self.multi_cluster_silhouettes
        if s.size == 0:
            raise MeasurementError("no multi-cluster pairs")
        return float(s.min())

    def outlier_share(self) -> float:
        """Overall fraction of measurements labelled as outliers."""
        total = sum(p.n_measurements for p in self.pairs)
        out = sum(p.n_outliers for p in self.pairs)
        return out / total if total else 0.0


def cluster_report(result: CampaignResult) -> ClusterReport:
    """Aggregate DBSCAN outcomes over all measured pairs."""
    report = ClusterReport(gpu_name=result.gpu_name)
    for p in result.iter_measured():
        if p.outliers is None:
            continue
        values = np.asarray([m.latency_s for m in p.measurements])
        labels = p.outliers.labels
        sil = None
        if p.n_clusters >= 2:
            try:
                sil = silhouette_score(values, labels)
            except Exception:
                sil = None
        report.pairs.append(
            PairClusterInfo(
                key=p.key,
                n_clusters=p.n_clusters,
                n_outliers=int(p.outliers.outlier_mask.sum()),
                n_measurements=p.n_measurements,
                silhouette=sil,
            )
        )
    return report


def scatter_data(pair: PairResult) -> dict:
    """Fig. 5/6-style scatter data: measurement index vs latency, labelled.

    Returns arrays ``index``, ``latency_ms``, ``label`` (cluster id, -1 for
    outliers).
    """
    values = np.asarray([m.latency_s for m in pair.measurements]) * 1e3
    labels = (
        pair.outliers.labels
        if pair.outliers is not None
        else np.zeros(values.size, dtype=int)
    )
    return {
        "index": np.arange(values.size),
        "latency_ms": values,
        "label": labels,
        "pair": pair.key,
    }
