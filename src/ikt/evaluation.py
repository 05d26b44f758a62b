"""End-to-end cross-validated evaluation of the next-correctness model.

Per fold: skill parameters, ability clusters and the difficulty table
are fitted on training students only, feature rows are built for both
sides, the classifier is trained on the training rows and scored on the
test rows with AUC and RMSE. The ablation runs the three nested feature
sets over identical folds and artifacts.

Work the folds or feature sets have in common runs once. Before the
folds are dispatched, one BKT fit serves them all: each skill's
sequences over the whole log are grouped into unique patterns once, and
a (pattern, fold) weight matrix, each pattern's count among the fold's
training students, turns one forward pass into every fold's totals
(``skill_params``, which ``ikt fit`` runs with one column of 1s). Each
fold then fits the discretizer, codes the columns and computes the
pairwise CMI once for the largest feature set; the smaller sets, its
prefixes, take their trees from the matrix's leading blocks and estimate
only their own tables (``tan.fit_nested_tans``). Every fold's parameters
and models equal those of its own independent fits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import ability, bkt, tan
from .dataset import Dataset, split_folds
from .difficulty import DifficultyTable, build_difficulty_table

__all__ = [
    "ExperimentConfig",
    "FEATURE_SETS",
    "MetricReport",
    "FoldArtifacts",
    "FoldOutput",
    "SingleClassError",
    "auc",
    "rmse",
    "skill_params",
    "fit_fold_artifacts",
    "build_feature_rows",
    "evaluate_feature_sets",
]

FEATURE_SETS = {
    "ikt1": ("skill", "mastery"),
    "ikt2": ("skill", "mastery", "profile"),
    "ikt3": ("skill", "mastery", "profile", "difficulty"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; the defaults are the paper-faithful setup."""

    feature_set: str = "ikt3"
    folds: int = 5
    seed: int = 0
    interval_len: int = 20
    clusters: int = 7
    kmeans_restarts: int = 10
    grid_step: float = 0.05
    guess_cap: float = 0.30
    slip_cap: float = 0.30
    alpha: float = 1.0
    skip_first_interval: bool = False
    workers: int = 1

    def validate(self) -> list[str]:
        errors = []
        if self.feature_set not in FEATURE_SETS:
            errors.append(f"feature_set: must be one of {', '.join(FEATURE_SETS)}, "
                          f"got {self.feature_set!r}")
        if self.folds < 2:
            errors.append(f"folds: must be >= 2, got {self.folds}")
        if self.interval_len < 1:
            errors.append(f"interval_len: must be >= 1, got {self.interval_len}")
        if self.clusters < 1:
            errors.append(f"clusters: must be >= 1, got {self.clusters}")
        if self.kmeans_restarts < 1:
            errors.append(f"kmeans_restarts: must be >= 1, got {self.kmeans_restarts}")
        if not 0.0 < self.grid_step < 0.5:
            errors.append(f"grid_step: must be in (0, 0.5), got {self.grid_step}")
        for name in ("guess_cap", "slip_cap"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                errors.append(f"{name}: must be in (0, 1), got {v}")
        if 0.0 < self.grid_step < 0.5:
            grid = self.fit_grid()
            for name, values in (("guess_cap", grid.g_values), ("slip_cap", grid.s_values)):
                # the grid rounds the cap to the nearest multiple of the
                # step, which may lie above it or leave no value
                cap, top = getattr(self, name), float(values.max(initial=0.0))
                if 0.0 < cap < 1.0 and not 0.0 < top <= cap + 1e-9:
                    errors.append(f"{name}: at grid_step {self.grid_step} the largest "
                                  f"grid value is {top}, which must be in (0, {cap}]")
        if not 0.0 < self.alpha < np.inf:  # else some log-ratios are nan
            errors.append(f"alpha: must be > 0 and finite, got {self.alpha}")
        if self.workers < 1:
            errors.append(f"workers: must be >= 1, got {self.workers}")
        if self.seed < 0:  # numpy's generators take no negative seed
            errors.append(f"seed: must be >= 0, got {self.seed}")
        return errors

    def fit_grid(self) -> bkt.FitGrid:
        return bkt.FitGrid(step=self.grid_step, guess_cap=self.guess_cap,
                           slip_cap=self.slip_cap)


class SingleClassError(Exception):
    """AUC is undefined when only one label class is present."""


def auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative,
    counting ties as one half (rank-sum form of the pairwise count)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int((labels == 1).sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("need both classes to compute AUC")
    # each score's rank, tied scores sharing the mean of their 1-based ranks
    _, tie, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[tie]
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def rmse(scores, labels) -> float:
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if scores.size == 0:
        raise ValueError("rmse of empty input")
    return float(np.sqrt(np.mean((scores - labels) ** 2)))


@dataclass
class FoldArtifacts:
    """Everything fitted from one fold's training students.

    The key order of ``params_by_skill`` is the skill coding (id -> code)
    the features were fitted under, kept as ``skill_index``; the centroid
    columns follow it. A profile labels an interval of ``interval_len`` attempts.
    ``fallback``, for skills without parameters, is the mean of the fitted ones."""

    params_by_skill: dict
    clusters: ability.ClusterModel
    difficulty: DifficultyTable
    interval_len: int
    skill_index: dict = field(init=False)
    fallback: bkt.BktParams = field(init=False)

    def __post_init__(self):
        self.skill_index = {skill: i for i, skill in enumerate(self.params_by_skill)}
        self.fallback = bkt.mean_params(self.params_by_skill.values())


@dataclass
class FeatureTable:
    """Columnar feature rows for one dataset, one per interaction in its
    row order: ``Dataset.row_student`` names a row's student."""

    skill: np.ndarray
    mastery: np.ndarray
    profile: np.ndarray
    difficulty: np.ndarray
    label: np.ndarray
    position: np.ndarray

    def __len__(self) -> int:
        return self.label.size

    def columns(self, features) -> dict:
        return {f: getattr(self, f) for f in features}


def _kmeans_seed(seed: int, fold_id: int) -> int:
    return seed * 1_000_003 + fold_id + 1


def _sequences(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The rows in runs, one per (skill, student) pair in that order and
    chronological within, and the start of each run."""
    key = data.skill * len(data.by_student) + data.row_student()
    rows = np.argsort(key, kind="stable")
    return rows, np.flatnonzero(np.diff(key[rows], prepend=-1))


def _skill_sequences(data: Dataset) -> tuple[dict, dict]:
    """Each skill's response sequences, one per student who attempted it,
    keyed in ``data.skill_index`` order, and each sequence's student as
    its position in ``by_student``."""
    rows, starts = _sequences(data)
    sequences: dict = {skill: [] for skill in data.skill_index}
    students: dict = {skill: [] for skill in data.skill_index}
    names = list(data.skill_index)
    correct = data.correct[rows].tolist()
    bounds = starts.tolist() + [len(correct)]
    first = rows[starts]
    for code, student, lo, hi in zip(data.skill[first].tolist(),
                                     data.row_student()[first].tolist(), bounds, bounds[1:]):
        sequences[names[code]].append(correct[lo:hi])
        students[names[code]].append(student)
    return sequences, students


def skill_params(data: Dataset, train_weight: np.ndarray, config: ExperimentConfig) -> list[dict]:
    """Each fit's skill parameters from one BKT pass over the whole log.

    ``train_weight`` has one row per student and one column per fit: a
    fold weighs its training students 1 and its test students 0, and
    ``ikt fit`` weighs every student 1. A fit's parameters are keyed in
    the data's skill order, without the skills no student it weighs tried.
    """
    sequences, students = _skill_sequences(data)
    fitted = bkt.fit_all_skills(sequences, config.fit_grid(),
                                {skill: train_weight[students[skill]] for skill in sequences})
    return [{skill: fits[i] for skill, fits in fitted.items() if fits[i] is not None}
            for i in range(train_weight.shape[1])]


def fit_fold_artifacts(train: Dataset, config: ExperimentConfig, fold_id: int,
                       params: dict) -> FoldArtifacts:
    """Fit clusters and difficulty on ``train``, the training students'
    rows, beside ``params``, their skill parameters from ``skill_params``
    keyed in the dataset's skill index: the artifacts' skill coding.
    """
    vectors, _ = ability.interval_vectors(train.skill, train.correct, train.row_counts(),
                                          train.n_skills, config.interval_len)
    k_eff = min(config.clusters, len(vectors))
    if k_eff >= 1:
        clusters = ability.train_clusters(vectors, k=k_eff,
                                          seed=_kmeans_seed(config.seed, fold_id),
                                          restarts=config.kmeans_restarts)
    else:
        # no training student completed an interval; every attempt keeps
        # the initial profile
        clusters = ability.ClusterModel(centroids=np.zeros((0, train.n_skills)))

    return FoldArtifacts(params_by_skill=params, clusters=clusters,
                         difficulty=build_difficulty_table(train),
                         interval_len=config.interval_len)


def _mastery(params: list, data: Dataset) -> np.ndarray:
    """Tracing prior before every attempt, ``params[c]`` tracing the
    dataset's skill code c: the two-state update, operation for
    operation, run for all (skill, student) sequences at once, one step
    per attempt index. Numbered longest first, the sequences still
    running at step k are a prefix of the state, and the rows of step k
    one block once rows are sorted by (step, sequence). The unlearned
    mass is carried, not taken as ``1 - prior``, which would lose the
    small complement of a saturated prior; a response the model deems
    impossible leaves the belief to the learning step unchanged.
    """
    order, starts = _sequences(data)
    lengths = np.diff(starts, append=order.size)
    start = np.repeat(starts, lengths)
    step = np.arange(order.size) - start
    rows = order[np.lexsort((start, -np.repeat(lengths, lengths), step))]

    skill = data.skill[rows]
    l0, t, g, s = (np.array([getattr(p, f) for p in params], dtype=float)[skill]
                   for f in ("l0", "t", "g", "s"))
    right = data.correct[rows] == 1
    hit = np.where(right, 1.0 - s, s)
    miss = np.where(right, g, 1.0 - g)
    prior = l0[:starts.size].copy()
    coprior = 1.0 - prior
    mastery = np.empty(order.size)
    lo = 0
    for m in np.bincount(step).tolist():
        hi = lo + m
        p, c = prior[:m], coprior[:m]
        mastery[rows[lo:hi]] = p
        num = p * hit[lo:hi]
        alt = c * miss[lo:hi]
        den = num + alt
        zero = den == 0.0
        if zero.any():
            num[zero], alt[zero], den[zero] = p[zero], c[zero], 1.0
        copost = alt / den
        prior[:m] = num / den + copost * t[lo:hi]
        coprior[:m] = copost * (1.0 - t[lo:hi])
        lo = hi
    return mastery


def _feature_table(artifacts: FoldArtifacts, data: Dataset) -> FeatureTable:
    codes = artifacts.skill_index
    unseen = len(codes)
    skill = np.array([codes.get(s, unseen) for s in data.skill_index], dtype=int)[data.skill]
    difficulty = np.array([artifacts.difficulty.lookup(p) for p in data.problem_index],
                          dtype=int)[data.problem]
    profile = ability.profile_labels(skill, data.correct, data.row_counts(),
                                     artifacts.clusters, unseen, artifacts.interval_len)
    params = [artifacts.params_by_skill.get(s, artifacts.fallback) for s in data.skill_index]
    return FeatureTable(skill=skill, mastery=_mastery(params, data), profile=profile,
                        difficulty=difficulty, label=data.correct,
                        position=data.row_position())


def build_feature_rows(artifacts: FoldArtifacts, *datasets: Dataset) -> tuple[FeatureTable, ...]:
    """One evidence row per interaction, one table per dataset, in the
    dataset's row order.

    Skills are coded by ``artifacts.skill_index``; a skill outside it
    gets the code ``len(skill_index)``, which no fitted classifier
    domain holds, the fallback BKT parameters and no ability dimension.
    Mastery is the tracing prior available before the attempt, traced
    per skill of the dataset's own coding, so two skills outside the
    vocabulary keep separate traces; the profile is the student's
    current-interval label; difficulty comes from the fitted table (5
    when unseen there).
    """
    return tuple(_feature_table(artifacts, data) for data in datasets)


def _warmup_len(config: ExperimentConfig) -> int:
    """Leading attempts of each test student that are not scored."""
    return config.interval_len if config.skip_first_interval else 0


@dataclass
class FoldOutput:
    """One fold's fit and scores; ``test_data`` is the log restricted to
    the fold's test students, the rows of ``test_table``."""

    fold_id: int
    test_data: Dataset
    artifacts: FoldArtifacts
    models: dict
    scores: dict
    keep: np.ndarray
    test_table: FeatureTable


def _fold_digest(data: Dataset, held_out: np.ndarray, k: int) -> str:
    students = np.array(list(data.by_student), dtype=object)
    h = hashlib.sha256()
    for fold_id in range(k):
        h.update(f"fold{fold_id}:{','.join(sorted(students[held_out == fold_id]))};".encode())
    return h.hexdigest()


@dataclass
class MetricReport:
    """Per-fold and aggregate ranking/calibration metrics.

    Mean metrics are the arithmetic mean over folds; pooled metrics are
    computed once over all folds' predictions together.
    """

    feature_set: str
    seed: int
    fold_n: list
    fold_auc: list
    fold_rmse: list
    pooled_auc: float
    pooled_rmse: float
    fold_digest: str

    @property
    def mean_auc(self) -> float:
        return float(np.mean(self.fold_auc))

    @property
    def mean_rmse(self) -> float:
        return float(np.mean(self.fold_rmse))

    @property
    def n_total(self) -> int:
        return int(sum(self.fold_n))

    def render_text(self) -> str:
        lines = ["next-correctness evaluation",
                 f"feature set : {self.feature_set}",
                 f"folds       : {len(self.fold_n)}",
                 f"seed        : {self.seed}",
                 "",
                 f"{'fold':<8}{'n':>10}{'auc':>12}{'rmse':>12}"]
        for i, (n, a, r) in enumerate(zip(self.fold_n, self.fold_auc, self.fold_rmse)):
            lines.append(f"{i:<8}{n:>10}{a:>12.6f}{r:>12.6f}")
        lines.append(f"{'mean':<8}{'':>10}{self.mean_auc:>12.6f}{self.mean_rmse:>12.6f}")
        lines.append(f"{'pooled':<8}{self.n_total:>10}{self.pooled_auc:>12.6f}"
                     f"{self.pooled_rmse:>12.6f}")
        return "\n".join(lines) + "\n"

    def render_kv(self) -> str:
        lines = [f"feature_set = {self.feature_set}",
                 f"folds = {len(self.fold_n)}",
                 f"seed = {self.seed}",
                 f"fold_digest = {self.fold_digest}"]
        for i, (n, a, r) in enumerate(zip(self.fold_n, self.fold_auc, self.fold_rmse)):
            lines.append(f"fold{i}.n = {n}")
            lines.append(f"fold{i}.auc = {a!r}")
            lines.append(f"fold{i}.rmse = {r!r}")
        lines.append(f"mean.auc = {self.mean_auc!r}")
        lines.append(f"mean.rmse = {self.mean_rmse!r}")
        lines.append(f"pooled.n = {self.n_total}")
        lines.append(f"pooled.auc = {self.pooled_auc!r}")
        lines.append(f"pooled.rmse = {self.pooled_rmse!r}")
        return "\n".join(lines) + "\n"


def _run_fold(data: Dataset, fold_id: int, held_out: np.ndarray, config: ExperimentConfig,
              feature_sets, params: dict) -> FoldOutput:
    tested = held_out == fold_id
    train_data, test_data = data.restricted_to(~tested), data.restricted_to(tested)
    artifacts = fit_fold_artifacts(train_data, config, fold_id, params)
    train, test = build_feature_rows(artifacts, train_data, test_data)
    keep = test.position >= _warmup_len(config)
    # the feature sets are nested, so each is a prefix of the largest
    sizes = [len(FEATURE_SETS[fs]) for fs in feature_sets]
    largest = FEATURE_SETS[feature_sets[int(np.argmax(sizes))]]
    fitted = tan.fit_nested_tans(train.columns(largest), train.label, sizes,
                                 alpha=config.alpha)
    models = dict(zip(feature_sets, fitted))
    scores = {fs: tan.predict_many(model, {f: getattr(test, f)[keep] for f in model.features})
              for fs, model in models.items()}
    return FoldOutput(fold_id=fold_id, test_data=test_data, artifacts=artifacts, models=models,
                      scores=scores, keep=keep, test_table=test)


def _fold_job(args):
    return _run_fold(*args)


def evaluate_feature_sets(data: Dataset, config: ExperimentConfig,
                          feature_sets) -> tuple[dict, list]:
    """Shared driver: one BKT fit for all folds, then per fold one fit of
    the other artifacts and one nested TAN fit, one model per feature set.

    Returns reports keyed by feature set plus the per-fold outputs
    (test rows, fitted artifacts, models, scores) for serialization.
    """
    errors = config.validate()
    if errors:
        raise ValueError("; ".join(errors))
    held_out = split_folds(data, k=config.folds, seed=config.seed)
    digest = _fold_digest(data, held_out, config.folds)
    row_fold = np.repeat(held_out, data.row_counts())
    scored = data.row_position() >= _warmup_len(config)
    for fold_id in range(config.folds):
        labels = data.correct[scored & (row_fold == fold_id)]
        if labels.size == 0 or labels.min() == labels.max():
            raise SingleClassError(f"fold {fold_id}: the scored test labels hold "
                                   "fewer than two classes, so AUC is undefined; "
                                   "use fewer folds")

    train_weight = held_out[:, None] != np.arange(config.folds)
    jobs = [(data, fold_id, held_out, config, tuple(feature_sets), params)
            for fold_id, params in enumerate(skill_params(data, train_weight, config))]
    if config.workers > 1:
        # imported here so that a serial run loads no multiprocessing;
        # under fork the pool starts all its workers at once, so at most one per fold
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(config.workers, len(jobs))) as pool:
            outputs = list(pool.map(_fold_job, jobs))
    else:
        outputs = [_run_fold(*job) for job in jobs]

    labels = [o.test_table.label[o.keep] for o in outputs]
    all_labels = np.concatenate(labels)
    reports = {}
    for fs in feature_sets:
        fold_auc = [auc(o.scores[fs], y) for o, y in zip(outputs, labels)]
        fold_rmse = [rmse(o.scores[fs], y) for o, y in zip(outputs, labels)]
        all_scores = np.concatenate([o.scores[fs] for o in outputs])
        reports[fs] = MetricReport(
            feature_set=fs,
            seed=config.seed,
            fold_n=[int(y.size) for y in labels],
            fold_auc=fold_auc,
            fold_rmse=fold_rmse,
            pooled_auc=auc(all_scores, all_labels),
            pooled_rmse=rmse(all_scores, all_labels),
            fold_digest=digest,
        )
    return reports, outputs


def render_ablation_text(reports: dict) -> str:
    lines = ["feature ablation (identical folds across variants)",
             "",
             f"{'variant':<10}{'mean auc':>12}{'mean rmse':>12}{'pooled auc':>12}{'pooled rmse':>13}"]
    for fs in FEATURE_SETS:
        if fs in reports:
            r = reports[fs]
            lines.append(f"{fs:<10}{r.mean_auc:>12.6f}{r.mean_rmse:>12.6f}"
                         f"{r.pooled_auc:>12.6f}{r.pooled_rmse:>13.6f}")
    return "\n".join(lines) + "\n"
