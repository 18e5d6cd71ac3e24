"""Density-based clustering (DBSCAN, Ester et al. 1996) from scratch.

Switching-latency samples are one-dimensional, which admits an
O(n log n) neighbourhood search via sorting + binary search; the general
d-dimensional path falls back to blocked brute-force distances.  Both paths
produce identical labels for 1-D inputs (covered by property tests).

Labels follow the sklearn convention: ``-1`` marks noise, clusters are
numbered ``0, 1, ...`` in order of discovery.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

__all__ = ["DbscanResult", "dbscan"]

NOISE = -1
_UNVISITED = -2


@dataclass(frozen=True)
class DbscanResult:
    """Labels plus derived conveniences."""

    labels: np.ndarray
    eps: float
    min_pts: int

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) + 1 if (self.labels >= 0).any() else 0

    @property
    def noise_mask(self) -> np.ndarray:
        return self.labels == NOISE

    @property
    def noise_ratio(self) -> float:
        if self.labels.size == 0:
            return 0.0
        return float(self.noise_mask.mean())

    def cluster_sizes(self) -> list[int]:
        n_clusters = self.n_clusters
        if n_clusters == 0:
            return []
        # One bincount pass instead of one full label scan per cluster.
        counts = np.bincount(
            self.labels[self.labels >= 0], minlength=n_clusters
        )
        return counts.tolist()


def _neighbors_1d(x_sorted: np.ndarray, order: np.ndarray, eps: float):
    """Neighbour lists (in original indexing) for sorted 1-D data.

    The bisection keys ``x ± eps`` can round differently from the exact
    pairwise predicate ``|xi - xj| <= eps`` right at a neighbourhood
    boundary (e.g. ``1.0 + 0.1 == 1.1`` in doubles while
    ``1.1 - 1.0 > 0.1``), so the slices are corrected against the exact
    predicate — keeping this fast path label-equivalent to the
    d-dimensional brute-force distances for any input.
    """
    n = x_sorted.size
    lo = np.searchsorted(x_sorted, x_sorted - eps, side="left")
    hi = np.searchsorted(x_sorted, x_sorted + eps, side="right")
    # Grow/shrink every bound until it matches the exact predicate;
    # rounding puts each within a couple of elements of the true
    # boundary, so the loops converge almost immediately.
    while True:
        grow = (lo > 0) & (
            np.abs(x_sorted - x_sorted[np.maximum(lo - 1, 0)]) <= eps
        )
        if not grow.any():
            break
        lo[grow] -= 1
    while True:
        shrink = (lo < hi) & (
            np.abs(x_sorted - x_sorted[np.minimum(lo, n - 1)]) > eps
        )
        if not shrink.any():
            break
        lo[shrink] += 1
    while True:
        grow = (hi < n) & (
            np.abs(x_sorted[np.minimum(hi, n - 1)] - x_sorted) <= eps
        )
        if not grow.any():
            break
        hi[grow] += 1
    while True:
        shrink = (hi > lo) & (
            np.abs(x_sorted[np.maximum(hi - 1, 0)] - x_sorted) > eps
        )
        if not shrink.any():
            break
        hi[shrink] -= 1

    def neighbors(i_orig: int) -> np.ndarray:
        i_sorted = _inverse[i_orig]
        return order[lo[i_sorted] : hi[i_sorted]]

    # Build the inverse permutation once.
    _inverse = np.empty_like(order)
    _inverse[order] = np.arange(order.size)
    counts = hi - lo
    return neighbors, counts, _inverse


def _neighbors_nd(points: np.ndarray, eps: float):
    """Brute-force neighbour lists for (n, d) data, blocked for memory."""
    n = points.shape[0]
    eps2 = eps * eps
    block = max(1, min(n, int(4e7 // max(n, 1))))
    neighbor_lists: list[np.ndarray] = []
    for s in range(0, n, block):
        chunk = points[s : s + block]
        d2 = ((chunk[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        for row in d2 <= eps2:
            neighbor_lists.append(np.flatnonzero(row))
    counts = np.array([len(nb) for nb in neighbor_lists])

    def neighbors(i: int) -> np.ndarray:
        return neighbor_lists[i]

    return neighbors, counts


def dbscan(points, eps: float, min_pts: int) -> DbscanResult:
    """Run DBSCAN over ``points`` (shape ``(n,)`` or ``(n, d)``).

    A point is *core* when at least ``min_pts`` points (itself included)
    lie within ``eps``; clusters grow from core points by breadth-first
    expansion; border points join the first cluster that reaches them;
    everything else is noise.
    """
    if eps <= 0:
        raise ConfigError(f"eps must be positive, got {eps}")
    if min_pts < 1:
        raise ConfigError(f"min_pts must be >= 1, got {min_pts}")

    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ConfigError("points must be 1-D or 2-D")
    n = pts.shape[0]
    if n == 0:
        return DbscanResult(labels=np.empty(0, dtype=np.int64), eps=eps, min_pts=min_pts)

    if pts.shape[1] == 1:
        x = pts[:, 0]
        order = np.argsort(x, kind="stable")
        neighbors, counts_sorted, inverse = _neighbors_1d(x[order], order, eps)
        counts = counts_sorted[inverse]
    else:
        neighbors, counts = _neighbors_nd(pts, eps)

    core = counts >= min_pts
    labels = np.full(n, _UNVISITED, dtype=np.int64)
    cluster = 0
    for seed in range(n):
        if labels[seed] != _UNVISITED or not core[seed]:
            continue
        labels[seed] = cluster
        queue: deque[int] = deque([seed])
        while queue:
            p = queue.popleft()
            if not core[p]:
                continue
            for q in neighbors(p):
                q = int(q)
                if labels[q] == _UNVISITED or labels[q] == NOISE:
                    newly = labels[q] == _UNVISITED
                    labels[q] = cluster
                    if newly and core[q]:
                        queue.append(q)
        cluster += 1

    labels[labels == _UNVISITED] = NOISE
    return DbscanResult(labels=labels, eps=eps, min_pts=min_pts)
