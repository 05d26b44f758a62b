"""Ability profiling: cumulative per-skill success rates clustered over time.

A student's history is cut into fixed-length intervals (20 attempts by
default). After each completed interval the cumulative success rate on
every skill forms a performance vector; k-means over the training
students' vectors defines the profile clusters. Attempts in the first
interval carry the reserved profile 1, later intervals the label of the
nearest centroid (labels 2..K+1).

Each Lloyd round assigns points by a screen: one matrix product gives
|x|^2 - 2 x.c + |c|^2 for every point and centroid, and a point keeps
its argmin only when the best two values differ by more than a bound on
the rounding of that form plus the exact ``((x - c)**2).sum()``. The
remaining points, near-ties and exact ties, are assigned by the exact
distances, so every assignment, and thus every centroid, is the one the
exact distances alone would give (see ``_nearest``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ClusterModel",
    "INITIAL_PROFILE",
    "interval_vectors",
    "train_clusters",
    "assign_profile",
    "profile_labels",
    "save_centroids",
    "load_centroids",
]

INITIAL_PROFILE = 1


def _boundary_vectors(skill, correct, skill_count: int, interval_len: int) -> np.ndarray:
    """Row z is the success rate per skill over the first
    (z + 1) * ``interval_len`` attempts, 0.5 where a skill was never
    attempted: counts per interval, accumulated over intervals. The
    skill code ``skill_count`` (a skill outside the fitted vocabulary) is
    counted in a slot no vector reads.
    """
    intervals = len(skill) // interval_len
    n = intervals * interval_len
    slot = np.arange(n) // interval_len * (skill_count + 1) + skill[:n]
    total, right = (np.bincount(slot, weights=w, minlength=intervals * (skill_count + 1))
                    .reshape(intervals, skill_count + 1).cumsum(axis=0)[:, :-1]
                    for w in (None, correct[:n]))
    vectors = np.full(total.shape, 0.5)
    np.divide(right, total, out=vectors, where=total > 0)
    return vectors


def interval_vectors(skill, correct, skill_count: int,
                     interval_len: int = 20) -> np.ndarray:
    """One cumulative vector per completed interval boundary, one row each.

    ``skill`` and ``correct`` are one student's chronological skill codes
    and 0/1 outcomes. A student with fewer attempts than one full
    interval contributes nothing.
    """
    return _boundary_vectors(skill, correct, skill_count, interval_len)


@dataclass(frozen=True)
class ClusterModel:
    """Fitted centroids, one row per cluster. Immutable and shareable."""

    centroids: np.ndarray

    @property
    def k(self) -> int:
        return len(self.centroids)

    @property
    def dim(self) -> int:
        return self.centroids.shape[1] if self.centroids.ndim == 2 else 0


def _sq_dists(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distances, shape (len(x), len(c))."""
    return ((x[:, None, :] - c) ** 2).sum(axis=2)


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(x)
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = _sq_dists(x, centroids[:1])[:, 0]
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            idx = rng.choice(n, p=probs)
        else:
            idx = rng.integers(n)
        centroids[i] = x[idx]
        d2 = np.minimum(d2, _sq_dists(x, centroids[i:i + 1])[:, 0])
    return centroids


def _nearest(x: np.ndarray, xt: np.ndarray, xx: np.ndarray,
             centroids: np.ndarray) -> np.ndarray:
    """``argmin(_sq_dists(x, centroids), axis=1)``, screened by one GEMM.

    ``xt`` is ``x.T`` in C order and ``xx`` the squared norms of ``x``'s
    rows. ``g = |x|^2 - 2 x.c + |c|^2`` ranks the centroids of every
    row; a row whose best two ``g`` differ by more than ``tol`` keeps
    its ``g`` argmin, and every other row, NaN gaps included, is settled
    by the exact distances, which also break ties to the lowest index.

    ``tol`` covers the rounding of both forms. With u = eps/2,
    S = max|x|^2 + max|c|^2 and the true distance D <= 2S, the three dot
    products in ``g`` are off by at most d*u times |x|^2, 2|x||c| <= S
    and |c|^2, and its two additions by u*2S each, so |g - D| <=
    (d + 2)*eps*S. ``((x - c)**2).sum()`` rounds a difference, a square
    and d - 1 additions of non-negative terms, a relative error of
    (d + 2)*u, so it is off by at most (d + 2)*eps*S too. A gap above
    twice the sum of both, 4*(d + 2)*eps*S, puts the exact distance to
    the ``g`` argmin strictly below that to every other centroid, so the
    two forms pick the same one; ``tol`` doubles that margin to cover
    second-order terms.
    """
    if len(centroids) == 1:
        return np.zeros(len(x), dtype=np.intp)
    cc = (centroids ** 2).sum(axis=1)
    g = xx - 2.0 * (centroids @ xt) + cc[:, None]
    labels = g.argmin(axis=0)
    cols = np.arange(len(x))
    best = g[labels, cols]
    g[labels, cols] = np.inf
    gap = g.min(axis=0) - best
    tol = 8 * (x.shape[1] + 2) * np.finfo(float).eps * (xx.max() + cc.max())
    unsure = ~(gap > tol)
    if unsure.any():
        labels[unsure] = np.argmin(_sq_dists(x[unsure], centroids), axis=1)
    return labels


def _lloyd(x: np.ndarray, centroids: np.ndarray, max_iter: int) -> tuple[np.ndarray, float]:
    k = len(centroids)
    xt = np.ascontiguousarray(x.T)
    xx = (x ** 2).sum(axis=1)
    labels = None
    for _ in range(max_iter):
        new_labels = _nearest(x, xt, xx, centroids)
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
        # revival reads the distances to this assignment's centroids
        d2 = _sq_dists(x, centroids) if np.bincount(labels, minlength=k).min() == 0 else None
        for j in range(k):
            mask = labels == j
            if mask.any():
                centroids[j] = x[mask].mean(axis=0)
            else:
                # revive an empty cluster with the point farthest from
                # its assigned centroid (deterministic)
                worst = int(np.argmax(d2[np.arange(len(x)), labels]))
                centroids[j] = x[worst]
                labels[worst] = j
    wcss = float(_sq_dists(x, centroids).min(axis=1).sum())
    return centroids, wcss


def train_clusters(vectors, k: int = 7, seed: int = 0, restarts: int = 10,
                   max_iter: int = 300) -> ClusterModel:
    """k-means with k-means++ seeding; keeps the lowest-inertia restart.

    Iteration stops when assignments stabilize or after ``max_iter``
    rounds. Fully deterministic for a given seed.
    """
    x = np.asarray(vectors, dtype=float)
    if x.ndim != 2:
        x = np.atleast_2d(x)
    if len(x) < k:
        raise ValueError(f"need at least {k} vectors to form {k} clusters, have {len(x)}")
    rng = np.random.default_rng(seed)
    best_centroids = None
    best_wcss = np.inf
    for _ in range(restarts):
        centroids, wcss = _lloyd(x, _kmeans_pp_init(x, k, rng), max_iter)
        if wcss < best_wcss:
            best_wcss = wcss
            best_centroids = centroids
    return ClusterModel(centroids=best_centroids)


def assign_profile(vector: np.ndarray, model: ClusterModel) -> int:
    """Profile label for one completed-interval vector: 2 + the index of
    the nearest centroid (squared Euclidean, ties to the lowest index), so
    with the reserved first-interval label 1 there are K+1 labels.
    """
    if model.k == 0:
        return INITIAL_PROFILE
    vector = np.asarray(vector, dtype=float)
    if vector.shape[0] != model.dim:
        raise ValueError(f"vector has dimension {vector.shape[0]}, centroids have {model.dim}")
    return INITIAL_PROFILE + 1 + int(np.argmin(_sq_dists(vector[None, :], model.centroids)))


def profile_labels(skill, correct, model: ClusterModel, skill_count: int,
                   interval_len: int = 20) -> np.ndarray:
    """Per-attempt profile label for one student, from the same arrays as
    ``interval_vectors``.

    The label for interval z is computed from attempts in intervals
    1..z-1 only, so it is fixed before any attempt of interval z is
    observed.
    """
    vectors = _boundary_vectors(skill, correct, skill_count, interval_len)
    labels = [INITIAL_PROFILE] + [assign_profile(v, model) for v in vectors]
    return np.repeat(np.array(labels, dtype=int), interval_len)[:len(skill)]


def save_centroids(model: ClusterModel, path: str) -> None:
    """K rows by n-skills matrix, 6-decimal, tab-separated."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in model.centroids:
            fh.write("\t".join(f"{v:.6f}" for v in row) + "\n")


def load_centroids(path: str) -> ClusterModel:
    """Inverse of ``save_centroids``; a malformed row raises ``ValueError``
    naming ``path:lineno``."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rows.append([float(v) for v in line.split("\t")])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if len(rows[-1]) != len(rows[0]):
                raise ValueError(f"{path}:{lineno}: {len(rows[-1])} values, "
                                 f"expected {len(rows[0])}")
    return ClusterModel(centroids=np.array(rows))
