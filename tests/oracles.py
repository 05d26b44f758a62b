"""Independent reference implementations used to cross-check the package.

Everything here deliberately takes a different computational route from
the code under test: matrix-form forward passes, a streaming per-attempt
mastery tracker and feature replay, exhaustive joint-table enumeration,
an explanation read off the probability tables by linear search,
Prufer-sequence spanning-tree enumeration, quadratic pairwise AUC,
k-means with every distance taken from the full point-by-centroid
broadcast, profile labels from per-vector exact sums, a log loader that
checks one row at a time and sorts and codes in plain Python, and a
cleaning pass that looks each row up in sets.
"""

from __future__ import annotations

import csv
import heapq
import itertools
import math
import re
from collections import Counter

import numpy as np

from ikt.dataset import DataFormatError, Dataset, SchemaError, _undecodable_offset
from ikt.tan import (Discretizer, ExplanationRecord, NodeContribution, TanModel,
                     TanStructure)


def forward_oracle(params, seq):
    """2-state forward pass in vector/matrix form.

    Returns (per-step prior trace, total log-likelihood). ``alpha`` is
    rescaled to unit sum after every step and the log of each step's
    normaliser summed, so long sequences do not underflow.
    """
    trans = np.array([[1.0, params.t], [0.0, 1.0 - params.t]])
    emit = {1: np.array([1.0 - params.s, params.g]),
            0: np.array([params.s, 1.0 - params.g])}
    dist = np.array([params.l0, 1.0 - params.l0])
    alpha = dist.copy()
    log_likelihood = 0.0
    trace = []
    for i, r in enumerate(seq):
        trace.append(dist[0])
        obs = emit[r] * dist
        post = obs / obs.sum()
        dist = trans @ post
        alpha = emit[r] * alpha if i == 0 else emit[r] * (trans @ alpha)
        norm = alpha.sum()
        alpha = alpha / norm
        log_likelihood += math.log(norm)
    return np.array(trace), log_likelihood


class MasteryTracker:
    """Streaming belief state for one student on one skill.

    Carries the unlearned mass alongside the prior instead of deriving
    it as ``1 - prior``; in long runs of correct answers the prior
    saturates toward 1 and the subtraction would destroy the precision
    of the small complement that later wrong answers depend on. The
    updates are still exactly the posterior-then-advance recurrence.
    """

    __slots__ = ("params", "prior", "coprior")

    def __init__(self, params):
        self.params = params
        self.prior = params.l0
        self.coprior = 1.0 - params.l0

    def update(self, obs: int) -> None:
        """Condition on one response, then take one learning step.

        A response with probability zero under the model carries no
        usable evidence, so the belief enters the step unchanged.
        """
        p = self.params
        if obs:
            num = self.prior * (1.0 - p.s)
            alt = self.coprior * p.g
        else:
            num = self.prior * p.s
            alt = self.coprior * (1.0 - p.g)
        den = num + alt
        if den == 0.0:
            post, copost = self.prior, self.coprior
        else:
            post = num / den
            copost = alt / den
        self.prior = post + copost * p.t
        self.coprior = copost * (1.0 - p.t)


def feature_rows_oracle(artifacts, interval_len, data):
    """The feature columns of ``evaluation.build_feature_rows`` for one
    dataset, replayed one attempt at a time.

    Each student keeps one ``MasteryTracker`` per skill id of the log,
    running success counts per artifact skill code and the current
    profile, which changes when an interval completes: 2 plus the index
    of the centroid nearest the cumulative rate vector, ties to the
    lowest. Returns a dict of lists keyed by ``FeatureTable`` field.
    """
    skill_ids, problem_ids = list(data.skill_index), list(data.problem_index)
    codes = artifacts.skill_index
    unseen = len(codes)
    centroids = artifacts.clusters.centroids
    out = {k: [] for k in ("skill", "mastery", "profile", "difficulty", "label",
                           "position")}
    for rows in data.by_student.values():
        trackers = {}
        right = np.zeros(unseen + 1)
        total = np.zeros(unseen + 1)
        profile = 1
        for position, row in enumerate(range(rows.start, rows.stop)):
            skill = skill_ids[data.skill[row]]
            code = codes.get(skill, unseen)
            correct = int(data.correct[row])
            if skill not in trackers:
                trackers[skill] = MasteryTracker(
                    artifacts.params_by_skill.get(skill, artifacts.fallback))
            out["skill"].append(code)
            out["mastery"].append(trackers[skill].prior)
            out["profile"].append(profile)
            out["difficulty"].append(artifacts.difficulty.levels.get(
                problem_ids[data.problem[row]], artifacts.difficulty.default_level))
            out["label"].append(correct)
            out["position"].append(position)
            trackers[skill].update(correct)
            total[code] += 1
            right[code] += correct
            if (position + 1) % interval_len == 0 and len(centroids):
                vec = np.full(unseen, 0.5)
                seen = total[:unseen] > 0
                vec[seen] = right[:unseen][seen] / total[:unseen][seen]
                profile = 2 + int(np.argmin(((centroids - vec) ** 2).sum(axis=1)))
    return out


def _parse_correct(value: str, row: int) -> int:
    try:
        num = float(value)
    except ValueError:
        raise DataFormatError(f"row {row}: correctness value {value!r} is not numeric") from None
    if num not in (0.0, 1.0):
        raise DataFormatError(f"row {row}: correctness value {value!r} is not binary")
    return int(num)


_MISSING = ("missing student", "missing skill", "missing problem", "missing correctness",
            "missing order")


def load_csv_oracle(path, schema):
    """``dataset.load_csv``, checking and coding one row at a time.

    Each row is padded, stripped, checked for blanks, the scaffold flag
    and its correctness value in file order, and its ids coded by
    ``setdefault``; the kept rows are then sorted with Python's sort and
    the skill and problem indexes rebuilt by first appearance in the
    sorted rows.
    """
    needed = [schema.student, schema.problem, schema.skill, schema.correct]
    needed += [c for c in (schema.order, schema.scaffold_column) if c]
    students: dict = {}
    kept = []  # (student code, skill, problem, correct, order cell, file row)
    drops: Counter = Counter()
    keep_flag = schema.scaffold_keep if schema.scaffold_column is not None else None
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh, delimiter=schema.delimiter)
            header = next(reader, needed)
            position = {name: i for i, name in enumerate(header)}
            missing = [c for c in needed if c not in position]
            if missing:
                raise SchemaError(f"{path}: mapped column(s) not in header: "
                                  f"{', '.join(missing)}")
            at = [position[c] for c in (schema.student, schema.skill, schema.problem,
                                        schema.correct)]
            at += [position[schema.order]] if schema.order else []
            flag_at = position.get(schema.scaffold_column)
            for row_idx, row in enumerate(filter(None, reader)):
                row += [""] * (len(header) - len(row))
                cells = [row[i].strip() for i in at]
                if not all(cells):
                    drops[_MISSING[cells.index("")]] += 1
                    continue
                if keep_flag is not None and keep_flag != (
                        row[flag_at].strip() if flag_at is not None else ""):
                    drops["scaffolding"] += 1
                    continue
                correct = _parse_correct(cells[3], row_idx + 2)
                kept.append((students.setdefault(cells[0], len(students)), cells[1],
                             cells[2], correct, cells[4] if schema.order else None,
                             row_idx))
    except UnicodeDecodeError:
        raise DataFormatError(f"{path}: byte {_undecodable_offset(path)} is not "
                              "valid UTF-8") from None
    except csv.Error as exc:
        raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from None

    if schema.order:
        try:
            keys = [float(r[4]) for r in kept]
        except ValueError:
            for r in kept:
                if not re.match(r"\d{4}-\d{2}-\d{2}", r[4]):
                    raise DataFormatError(f"{path}: row {r[5] + 2}: order value {r[4]!r} "
                                          "is not a number or a YYYY-MM-DD timestamp, so "
                                          "it cannot be ranked unambiguously") from None
            rank = {v: float(i) for i, v in enumerate(sorted({r[4] for r in kept}))}
            keys = [rank[r[4]] for r in kept]
    else:
        keys = [float(r[5]) for r in kept]
    finite = [(key, r) for key, r in zip(keys, kept) if math.isfinite(key)]
    if len(finite) < len(kept):
        drops["non-finite order"] += len(kept) - len(finite)
    names = {code: name for name, code in students.items()}
    first_kept: dict = {}
    for _, r in finite:
        first_kept.setdefault(r[0], len(first_kept))
    finite.sort(key=lambda kr: (first_kept[kr[1][0]], kr[0], kr[1][5]))
    by_student: dict = {}
    skill_index: dict = {}
    problem_index: dict = {}
    for i, (_, r) in enumerate(finite):
        rows = by_student.setdefault(names[r[0]], [i, i])
        rows[1] = i + 1
        skill_index.setdefault(r[1], len(skill_index))
        problem_index.setdefault(r[2], len(problem_index))
    return Dataset(
        np.array([skill_index[r[1]] for _, r in finite], dtype=np.intp),
        np.array([problem_index[r[2]] for _, r in finite], dtype=np.intp),
        np.array([r[3] for _, r in finite], dtype=np.intp),
        np.array([key for key, _ in finite], dtype=float),
        {s: slice(a, b) for s, (a, b) in by_student.items()},
        skill_index, problem_index, drops)


def preprocess_oracle(raw):
    """``dataset.preprocess``, one row at a time in row order.

    A row is a duplicate when an earlier row had the same (student,
    order, correct, skill, problem), and a repeat attempt when an earlier
    row that was not a duplicate had the same (student, problem); both
    are looked up in sets. The indexes are rebuilt by ``setdefault`` over
    the kept rows.
    """
    skills, problems = list(raw.skill_index), list(raw.problem_index)
    drops = Counter(raw.drops)
    identities, pairs = set(), set()
    kept = {}  # student -> kept row numbers
    for student, rows in raw.by_student.items():
        for i in range(rows.start, rows.stop):
            problem = problems[raw.problem[i]]
            identity = (student, float(raw.order[i]), int(raw.correct[i]),
                        skills[raw.skill[i]], problem)
            if identity in identities:
                drops["duplicate row"] += 1
                continue
            identities.add(identity)
            if (student, problem) in pairs:
                drops["repeat attempt"] += 1
            else:
                pairs.add((student, problem))
                kept.setdefault(student, []).append(i)
    rows = [i for student_rows in kept.values() for i in student_rows]
    skill_index: dict = {}
    problem_index: dict = {}
    for i in rows:
        skill_index.setdefault(skills[raw.skill[i]], len(skill_index))
        problem_index.setdefault(problems[raw.problem[i]], len(problem_index))
    by_student, start = {}, 0
    for student, student_rows in kept.items():
        by_student[student] = slice(start, start + len(student_rows))
        start += len(student_rows)
    return Dataset(
        np.array([skill_index[skills[raw.skill[i]]] for i in rows], dtype=np.intp),
        np.array([problem_index[problems[raw.problem[i]]] for i in rows], dtype=np.intp),
        np.array([raw.correct[i] for i in rows], dtype=np.intp),
        np.array([raw.order[i] for i in rows], dtype=float),
        by_student, skill_index, problem_index, drops)


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


def assign_profile(vector, model):
    """Profile label of one completed-interval vector: 2 + the index of
    the nearest centroid, each squared distance a correctly rounded
    ``math.fsum`` over Python floats, ties to the lowest index; the
    reserved label 1 without centroids."""
    if model.k == 0:
        return 1
    vector = [float(v) for v in vector]
    if len(vector) != model.dim:
        raise ValueError(f"vector has dimension {len(vector)}, centroids have {model.dim}")
    dists = [math.fsum((v - c) * (v - c) for v, c in zip(vector, row))
             for row in model.centroids.tolist()]
    return 2 + min(range(len(dists)), key=dists.__getitem__)


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


def explain_oracle(model, evidence):
    """``explain``'s record rebuilt from ``cpts``, ``class_prior``, ``domains``
    and the cutpoints alone, none of the model's derived tables.

    A continuous value's bin is the count of cutpoints at or below it; a
    node's term is log P(value | parent value, correct) - log P(value |
    parent value, incorrect), its domain indices found by linear search,
    and 0 when its value or its parent's is outside the domain, which
    names the node's own feature first. The terms are added to the prior
    in feature order. Table logs are ``np.log`` of one float64, the prior's
    ``math.log``, as in the model: the two differ in the last bit for some
    arguments, and the record is compared bitwise.
    """
    cutpoints = model.discretizer.cutpoints
    value = {f: (sum(1 for c in cutpoints[f] if c <= evidence[f]) if f in cutpoints
                 else int(evidence[f])) for f in model.features}
    domain = {f: [int(v) for v in model.domains[f]] for f in model.features}
    index = {f: domain[f].index(value[f]) if value[f] in domain[f] else None
             for f in model.features}
    p0, p1 = (float(p) for p in model.class_prior)
    prior = math.log(p1) - math.log(p0)
    log_odds = prior
    contributions, out_of_domain = [], []
    for f in model.features:
        parent = model.structure.parent[f]
        outside = [g for g in (f, parent) if g is not None and index[g] is None]
        if outside:
            term = 0.0
            if outside[0] not in out_of_domain:
                out_of_domain.append(outside[0])
        else:
            cell = model.cpts[f][index[f], index[parent] if parent is not None else 0]
            term = float(np.log(np.float64(cell[1])) - np.log(np.float64(cell[0])))
        contributions.append(NodeContribution(
            f, value[f], value[parent] if parent is not None else None, term))
        log_odds += term
    return ExplanationRecord(1.0 / (1.0 + math.exp(-log_odds)), prior, log_odds,
                             tuple(contributions), tuple(out_of_domain))


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
