"""Tests for the from-scratch DBSCAN, including a naive-reference property
check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.dbscan import NOISE, dbscan
from repro.errors import ConfigError


def naive_dbscan_labels(points: np.ndarray, eps: float, min_pts: int):
    """Textbook O(n^2) reference implementation."""
    pts = points.reshape(len(points), -1)
    n = len(pts)
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    neighbors = [np.flatnonzero(d[i] <= eps) for i in range(n)]
    core = np.array([len(nb) >= min_pts for nb in neighbors])
    labels = np.full(n, -2)
    cluster = 0
    for seed in range(n):
        if labels[seed] != -2 or not core[seed]:
            continue
        frontier = [seed]
        labels[seed] = cluster
        while frontier:
            p = frontier.pop()
            if not core[p]:
                continue
            for q in neighbors[p]:
                if labels[q] == -2:
                    labels[q] = cluster
                    if core[q]:
                        frontier.append(q)
        cluster += 1
    labels[labels == -2] = NOISE
    return labels


class TestBasics:
    def test_single_tight_cluster(self):
        x = np.array([1.0, 1.01, 1.02, 0.99, 0.98])
        res = dbscan(x, eps=0.05, min_pts=3)
        assert res.n_clusters == 1
        assert not res.noise_mask.any()

    def test_two_separated_clusters(self):
        x = np.concatenate([np.full(10, 1.0), np.full(10, 100.0)])
        res = dbscan(x, eps=1.0, min_pts=4)
        assert res.n_clusters == 2

    def test_isolated_point_is_noise(self):
        x = np.array([1.0, 1.01, 1.02, 1.03, 50.0])
        res = dbscan(x, eps=0.1, min_pts=3)
        assert res.labels[-1] == NOISE
        assert res.noise_ratio == pytest.approx(0.2)

    def test_all_noise_when_sparse(self):
        x = np.arange(10.0) * 100.0
        res = dbscan(x, eps=1.0, min_pts=3)
        assert res.n_clusters == 0
        assert res.noise_mask.all()

    def test_empty_input(self):
        res = dbscan(np.empty(0), eps=1.0, min_pts=3)
        assert res.labels.size == 0
        assert res.noise_ratio == 0.0

    def test_invalid_eps(self):
        with pytest.raises(ConfigError):
            dbscan([1.0, 2.0], eps=0.0, min_pts=2)

    def test_invalid_min_pts(self):
        with pytest.raises(ConfigError):
            dbscan([1.0, 2.0], eps=1.0, min_pts=0)

    def test_2d_points_supported(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 0.1, (20, 2))
        b = rng.normal(10.0, 0.1, (20, 2))
        res = dbscan(np.vstack([a, b]), eps=1.0, min_pts=4)
        assert res.n_clusters == 2

    def test_cluster_sizes(self):
        x = np.concatenate([np.full(20, 1.0), np.full(5, 100.0)])
        res = dbscan(x, eps=1.0, min_pts=3)
        assert sorted(res.cluster_sizes(), reverse=True)[0] == 20


class TestOrderInvariants:
    def test_labels_permutation_equivalent(self):
        """Cluster membership is stable under input permutation."""
        rng = np.random.default_rng(3)
        x = np.concatenate(
            [rng.normal(0, 0.1, 30), rng.normal(5, 0.1, 30), [100.0]]
        )
        perm = rng.permutation(len(x))
        res_a = dbscan(x, eps=0.5, min_pts=4)
        res_b = dbscan(x[perm], eps=0.5, min_pts=4)
        # Compare partitions: same noise set and same co-membership.
        noise_a = set(np.flatnonzero(res_a.noise_mask))
        noise_b = {perm[i] for i in np.flatnonzero(res_b.noise_mask)}
        assert noise_a == noise_b
        assert res_a.n_clusters == res_b.n_clusters


@given(
    data=st.lists(st.floats(0.0, 100.0), min_size=5, max_size=80),
    eps=st.floats(0.1, 20.0),
    min_pts=st.integers(2, 8),
)
@settings(max_examples=80, deadline=None)
def test_matches_naive_reference(data, eps, min_pts):
    """Partition equivalence with the textbook implementation.

    Cluster *numbering* may differ (border points can legally attach to
    different clusters depending on visit order is avoided here by both
    using first-come seeds in index order), so compare noise masks and
    co-membership matrices.
    """
    x = np.asarray(data)
    ours = dbscan(x, eps=eps, min_pts=min_pts).labels
    ref = naive_dbscan_labels(x, eps, min_pts)
    assert ((ours == NOISE) == (ref == NOISE)).all()
    # Core points' co-membership must agree; border points may differ in
    # which cluster claimed them but never in being clustered.
    same_ours = ours[:, None] == ours[None, :]
    same_ref = ref[:, None] == ref[None, :]
    clustered = ours != NOISE
    # Compare only pairs where both are clustered in both partitions.
    mask = clustered[:, None] & clustered[None, :]
    if mask.any():
        agreement = (same_ours == same_ref)[mask].mean()
        assert agreement > 0.9


@given(st.lists(st.floats(0.0, 1000.0), min_size=3, max_size=60))
@settings(max_examples=60, deadline=None)
def test_noise_points_have_few_neighbors(data):
    """Every noise point's eps-neighbourhood lacks a core point."""
    x = np.asarray(data)
    eps, min_pts = 5.0, 3
    res = dbscan(x, eps=eps, min_pts=min_pts)
    d = np.abs(x[:, None] - x[None, :])
    core = (d <= eps).sum(axis=1) >= min_pts
    for i in np.flatnonzero(res.noise_mask):
        # A noise point is not core and has no core point within eps.
        assert not core[i]
        assert not core[np.abs(x - x[i]) <= eps].any()
