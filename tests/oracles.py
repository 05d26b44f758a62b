"""Independent reference implementations used to cross-check the package.

Everything here deliberately takes a different computational route from
the code under test: matrix-form forward passes, exhaustive joint-table
enumeration, Prufer-sequence spanning-tree enumeration, quadratic
pairwise AUC, k-means with every distance taken from the full
point-by-centroid broadcast.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from ikt.tan import Discretizer, TanModel, TanStructure


def forward_oracle(params, seq):
    """2-state forward pass in vector/matrix form.

    Returns (per-step prior trace, total log-likelihood).
    """
    trans = np.array([[1.0, params.t], [0.0, 1.0 - params.t]])
    emit = {1: np.array([1.0 - params.s, params.g]),
            0: np.array([params.s, 1.0 - params.g])}
    dist = np.array([params.l0, 1.0 - params.l0])
    alpha = dist.copy()
    trace = []
    for i, r in enumerate(seq):
        trace.append(dist[0])
        obs = emit[r] * dist
        post = obs / obs.sum()
        dist = trans @ post
        alpha = emit[r] * alpha if i == 0 else emit[r] * (trans @ alpha)
    return np.array(trace), math.log(alpha.sum())


def simulate_bkt(params, n_seq, length, rng):
    """Draw response sequences from the generative two-state process."""
    out = []
    for _ in range(n_seq):
        learned = rng.random() < params.l0
        seq = []
        for _ in range(length):
            p_corr = (1.0 - params.s) if learned else params.g
            seq.append(int(rng.random() < p_corr))
            if not learned and rng.random() < params.t:
                learned = True
        out.append(seq)
    return out


def _kmeans_pp_init(x, k, rng):
    n = len(x)
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            idx = rng.choice(n, p=probs)
        else:
            idx = rng.integers(n)
        centroids[i] = x[idx]
        d2 = np.minimum(d2, ((x - centroids[i]) ** 2).sum(axis=1))
    return centroids


def _lloyd(x, centroids, max_iter):
    k = len(centroids)
    labels = None
    for _ in range(max_iter):
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
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
    d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    wcss = float(d2[np.arange(len(x)), np.argmin(d2, axis=1)].sum())
    return centroids, wcss


def kmeans_oracle(vectors, k, seed, restarts=10, max_iter=300):
    """Centroids of ``ability.train_clusters`` computed with the exact
    broadcast distance in every assignment round: the same k-means++
    seeding, rng draws, restarts, mean update and empty-cluster revival.
    """
    x = np.asarray(vectors, dtype=float)
    rng = np.random.default_rng(seed)
    best_centroids = None
    best_wcss = np.inf
    for _ in range(restarts):
        centroids, wcss = _lloyd(x, _kmeans_pp_init(x, k, rng), max_iter)
        if wcss < best_wcss:
            best_wcss = wcss
            best_centroids = centroids
    return best_centroids


def pairwise_auc(scores, labels):
    """O(n^2) concordant-pair count with half credit for ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def prufer_to_edges(seq, n):
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    heap = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(heap)
    edges = []
    for v in seq:
        leaf = heapq.heappop(heap)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(heap, v)
    a = heapq.heappop(heap)
    b = heapq.heappop(heap)
    edges.append((a, b))
    return edges


def enumerate_spanning_tree_weights(weight):
    """Total weight of every labelled spanning tree (Cayley: n^(n-2))."""
    n = len(weight)
    totals = []
    for seq in itertools.product(range(n), repeat=n - 2):
        totals.append(sum(weight[u][v] for u, v in prufer_to_edges(seq, n)))
    return totals


def joint_oracle(model, evidence):
    """Posterior for full evidence from the exhaustively built joint table.

    Also returns the total probability mass as a validity check.
    """
    feats = model.features
    domains = [list(model.domains[f]) for f in feats]
    total = {0: 0.0, 1: 0.0}
    target = {0: 0.0, 1: 0.0}
    for combo in itertools.product(*domains):
        assign = dict(zip(feats, combo))
        for y in (0, 1):
            p = float(model.class_prior[y])
            for fi, f in enumerate(feats):
                vi = domains[fi].index(assign[f])
                parent = model.structure.parent[f]
                pi = (domains[feats.index(parent)].index(assign[parent])
                      if parent is not None else 0)
                p *= float(model.cpts[f][vi, pi, y])
            total[y] += p
            if all(assign[f] == evidence[f] for f in feats):
                target[y] += p
    posterior = target[1] / (target[0] + target[1])
    return posterior, total[0] + total[1]


def random_tan_model(rng, n_features=4, max_domain=6):
    """Random small classifier with a random evidence tree."""
    feats = tuple(f"f{i}" for i in range(n_features))
    sizes = [int(rng.integers(2, max_domain + 1)) for _ in feats]
    parent = {feats[0]: None}
    for j in range(1, n_features):
        parent[feats[j]] = feats[int(rng.integers(0, j))]
    cpts = {}
    for i, f in enumerate(feats):
        psize = sizes[feats.index(parent[f])] if parent[f] is not None else 1
        arr = rng.random((sizes[i], psize, 2)) + 0.05
        arr /= arr.sum(axis=0, keepdims=True)
        cpts[f] = arr
    prior = rng.random(2) + 0.1
    prior /= prior.sum()
    model = TanModel(
        structure=TanStructure(features=feats, parent=parent),
        domains={f: np.arange(sizes[i]) for i, f in enumerate(feats)},
        class_prior=prior,
        cpts=cpts,
        discretizer=Discretizer(),
        alpha=1.0,
    )
    return model, sizes
