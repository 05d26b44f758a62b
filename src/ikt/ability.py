"""Ability profiling: cumulative per-skill success rates clustered over time.

A student's history is cut into fixed-length intervals (20 attempts by
default). After each completed interval the cumulative success rate on
every skill forms a performance vector; k-means over the training
students' vectors defines the profile clusters. Attempts in the first
interval carry the reserved profile 1, later intervals the label of the
nearest centroid (labels 2..K+1).

``interval_vectors`` and ``profile_labels`` take all students at once:
their rows end to end and each one's row count, the ``Dataset`` layout.

Each Lloyd round assigns points by a screen: one matrix product gives
|x|^2 - 2 x.c + |c|^2 for every point and centroid, and a point keeps
its argmin only when the best two values differ by more than a bound on
the rounding of that form plus the exact ``((x - c)**2).sum()``. The
remaining points, near-ties and exact ties, are assigned by the exact
distances, so every assignment, and thus every centroid, is the one the
exact distances alone would give (see ``_screen``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ClusterModel",
    "INITIAL_PROFILE",
    "interval_vectors",
    "train_clusters",
    "profile_labels",
]

INITIAL_PROFILE = 1


def interval_vectors(skill, correct, lengths, skill_count: int,
                     interval_len: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """One vector per completed interval, and per attempt the row of the
    vector its profile reads (-1 in its student's first interval).

    A student's vector z is their success rate per skill over their
    first (z + 1) * ``interval_len`` attempts, 0.5 where a skill was
    never attempted. One bincount counts every (vector, skill) slot, and
    one running sum down all vectors accumulates them: each student's
    first vector, less the previous student's totals, restarts it, and
    every sum is exact, as counts are whole numbers. The skill code
    ``skill_count`` (outside the fitted vocabulary) fills a slot no
    vector reads.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    intervals = lengths // interval_len
    first = np.cumsum(intervals) - intervals  # each student's first vector
    n, width = int(intervals.sum()), skill_count + 1
    # each attempt's interval within its student, and the vector it counts in
    start = np.repeat(np.cumsum(lengths) - lengths, lengths)
    z = (np.arange(len(skill)) - start) // interval_len
    vector = np.repeat(first, lengths) + z
    complete = z < np.repeat(intervals, lengths)
    slot = vector[complete] * width + skill[complete]
    counts = np.stack([np.bincount(slot, weights=w, minlength=n * width)
                       for w in (None, correct[complete])]).reshape(2, n, width)
    starts = first[intervals > 0]
    counts[:, starts[1:]] -= np.add.reduceat(counts, starts, axis=1)[:, :-1]
    total, right = np.cumsum(counts, axis=1, out=counts)[..., :-1]
    vectors = np.divide(right, total, out=np.full(total.shape, 0.5), where=total > 0)
    return vectors, np.where(z > 0, vector - 1, -1)


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
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        centroids[i] = x[rng.choice(n, p=d2 / total) if total > 0 else rng.integers(n)]
        d2 = np.minimum(d2, ((x - centroids[i]) ** 2).sum(axis=1))
    return centroids


def _screen(x: np.ndarray, k: int):
    """``nearest(centroids)``: ``argmin(_sq_dists(x, centroids), axis=1)``
    for any k centroids, screened by one GEMM.

    ``g = |x|^2 - 2 x.c + |c|^2`` ranks the centroids of every row, in a
    (k, n) buffer kept across rounds and restarts; a row whose best two ``g`` differ
    by more than ``tol`` keeps its ``g`` argmin, and every other row, NaN
    gaps included, is settled by the exact distances, which also break
    ties to the lowest index.

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
    n, d = x.shape
    xt = np.ascontiguousarray(x.T)
    xx = (x ** 2).sum(axis=1)
    xx_max = xx.max()
    scale = 8 * (d + 2) * np.finfo(float).eps
    cols = np.arange(n)
    buffer = np.empty((k, n))

    def nearest(centroids: np.ndarray) -> np.ndarray:
        cc = (centroids ** 2).sum(axis=1)
        g = np.dot(centroids, xt, out=buffer)
        g *= -2.0
        g += xx
        g += cc[:, None]
        labels = g.argmin(axis=0)
        best = g.min(axis=0)
        g[labels, cols] = np.inf
        gap = g.min(axis=0) - best
        tol = scale * (xx_max + cc.max())
        unsure = ~(gap > tol)
        if unsure.any():
            labels[unsure] = np.argmin(_sq_dists(x[unsure], centroids), axis=1)
        return labels

    return nearest


def _revive(x: np.ndarray, centroids: np.ndarray, labels: np.ndarray,
            counts: np.ndarray) -> tuple[np.ndarray, list]:
    """Revive every empty cluster, in cluster order, with the point
    farthest from its assigned centroid (deterministic); returns the
    labels of the rows each mean sums and the (cluster, point) revivals.

    Means are taken in cluster order too, so a moved point stays in the
    sum of an old cluster of lower index; one taken from a higher-index
    cluster leaves its rows (the sentinel label ``k``) and its count.
    ``labels`` and ``counts`` are updated in place.
    """
    k = len(centroids)
    members = labels.copy()
    d2 = _sq_dists(x, centroids)
    far = d2[np.arange(len(x)), labels]
    revived = []
    for j in range(k):
        if counts[j]:
            continue
        worst = int(np.argmax(far))
        old = labels[worst]
        if old > j:
            counts[old] -= 1
            members[worst] = k
        labels[worst] = j
        far[worst] = d2[worst, j]
        revived.append((j, worst))
    return members, revived


def _lloyd(x: np.ndarray, centroids: np.ndarray, max_iter: int,
           nearest) -> tuple[np.ndarray, float]:
    """Lloyd rounds from ``centroids`` (updated in place), assigning by
    ``nearest`` (``_screen(x, k)``), and the within-cluster sum of
    squares of the result.

    A cluster's mean must sum its rows in row order, as
    ``x[labels == j].mean(axis=0)`` does: the rows are gathered once in
    a stable sort of the labels, and ``np.add.reduce`` over a cluster's
    contiguous block of that gather is the same reduction over the same
    rows. Float addition is not associative, so ``np.add.reduceat`` or a
    one-hot matrix product, which sum in other orders, would move
    centroids by an ulp and could change every later assignment.

    The loop ends when an assignment equals the last one, so the final
    labels are the certified nearest labels of the final centroids and
    the WCSS needs only each point's distance to its own centroid. If
    ``max_iter`` runs out first, one more assignment certifies them.
    """
    k = len(centroids)
    labels = None
    for _ in range(max_iter):
        new_labels = nearest(centroids)
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
        counts = np.bincount(labels, minlength=k)
        members, revived = labels, []
        if counts.min() == 0:
            members, revived = _revive(x, centroids, labels, counts)
        # the smallest label type sorts by radix, several times faster
        order = np.argsort(members.astype(np.min_scalar_type(k)), kind="stable")
        rows = x.take(order, axis=0)
        end = 0
        for j, size in enumerate(counts.tolist()):
            start, end = end, end + size
            if size:
                centroids[j] = np.add.reduce(rows[start:end], axis=0) / size
        for j, worst in revived:
            centroids[j] = x[worst]
    else:
        labels = nearest(centroids)
    wcss = float(((x - centroids[labels]) ** 2).sum(axis=1).sum())
    return centroids, wcss


def train_clusters(vectors, k: int = 7, seed: int = 0, restarts: int = 10,
                   max_iter: int = 300) -> ClusterModel:
    """k-means with k-means++ seeding; keeps the lowest-inertia restart.

    Iteration stops when assignments stabilize or after ``max_iter``
    rounds. Fully deterministic for a given seed.
    """
    x = np.atleast_2d(np.asarray(vectors, dtype=float))
    if len(x) < k:
        raise ValueError(f"need at least {k} vectors to form {k} clusters, have {len(x)}")
    rng = np.random.default_rng(seed)
    nearest = _screen(x, k)
    best_centroids, best_wcss = None, np.inf
    for _ in range(restarts):
        centroids, wcss = _lloyd(x, _kmeans_pp_init(x, k, rng), max_iter, nearest)
        if wcss < best_wcss:
            best_centroids, best_wcss = centroids, wcss
    return ClusterModel(centroids=best_centroids)


def profile_labels(skill, correct, lengths, model: ClusterModel, skill_count: int,
                   interval_len: int = 20) -> np.ndarray:
    """Per-attempt profile label for every student, from the same arrays
    as ``interval_vectors``.

    Attempts in a student's first interval carry the reserved label 1;
    the label for interval z > 1 is 2 + the index of the centroid nearest
    (squared Euclidean, ties to the lowest index) the vector of intervals
    1..z-1, so it is fixed before any attempt of interval z is observed
    and there are K+1 labels. Without centroids every attempt keeps the
    label 1; centroids whose dimension is not ``skill_count`` raise
    ``ValueError``.
    """
    if model.k == 0:
        return np.full(len(skill), INITIAL_PROFILE, dtype=int)
    if skill_count != model.dim:
        raise ValueError(f"vectors have dimension {skill_count}, centroids have {model.dim}")
    vectors, index = interval_vectors(skill, correct, lengths, skill_count, interval_len)
    # index -1 reads the extra last label
    labels = np.full(len(vectors) + 1, INITIAL_PROFILE, dtype=int)
    if len(vectors):
        labels[:-1] += 1 + _screen(vectors, model.k)(model.centroids)
    return labels[index]
