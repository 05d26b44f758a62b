"""Synthetic interaction generators with known ground truth.

Two processes: a pure mastery process (hidden learned/unlearned state
per skill drives correctness) and a mixed process where per-problem
quality dominates, used to demonstrate the feature-ablation ordering.
Also ``bundle_round_trip``, which passes given tables through the
bundle writer and loader.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from ikt import tan
from ikt.ability import ClusterModel
from ikt.cli import _load_bundle, _write_bundle
from ikt.dataset import Dataset
from ikt.bkt import BktParams
from ikt.difficulty import DifficultyTable
from ikt.evaluation import ExperimentConfig, FoldArtifacts

ROW_FIELDS = ("student_id", "problem_id", "skill_id", "correct")


def to_dataset(rows) -> Dataset:
    """Build a Dataset from (student, problem, skill, correct) tuples.

    Rows are assumed already clean: one attempt per (student, problem),
    in chronological order; a row's order key is its position in
    ``rows``. Skills and problems are coded by first appearance in
    ``rows``, students grouped in first-appearance order.
    """
    students: dict = {}
    skill_index: dict = {}
    problem_index: dict = {}
    for i, (student, problem, skill, _) in enumerate(rows):
        students.setdefault(student, []).append(i)
        skill_index.setdefault(skill, len(skill_index))
        problem_index.setdefault(problem, len(problem_index))
    order = np.array([i for group in students.values() for i in group], dtype=np.intp)
    skill = np.array([skill_index[r[2]] for r in rows], dtype=np.intp)
    problem = np.array([problem_index[r[1]] for r in rows], dtype=np.intp)
    correct = np.array([int(r[3]) for r in rows], dtype=np.intp)
    by_student, start = {}, 0
    for student, group in students.items():
        by_student[student] = slice(start, start + len(group))
        start += len(group)
    return Dataset(skill=skill[order], problem=problem[order], correct=correct[order],
                   order=order.astype(float), by_student=by_student,
                   skill_index=skill_index, problem_index=problem_index)


def records(data: Dataset):
    """(student, problem, skill, correct) tuples of a Dataset, row by row."""
    skills, problems = list(data.skill_index), list(data.problem_index)
    return [(student, problems[data.problem[i]], skills[data.skill[i]],
             int(data.correct[i]))
            for student, rows in data.by_student.items()
            for i in range(rows.start, rows.stop)]


def write_raw_csv(rows, path, with_order: bool = True) -> None:
    """Raw-log style file loadable with a student/problem/skill/correct schema."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = ["user", "item", "kc", "outcome"]
        if with_order:
            header.append("ts")
        writer.writerow(header)
        for i, (student, problem, skill, correct) in enumerate(rows):
            row = [student, problem, skill, correct]
            if with_order:
                row.append(i)
            writer.writerow(row)


def mastery_process_rows(n_students=50, n_skills=5, attempts=100, seed=0,
                         params=None):
    """Correctness drawn from the hidden two-state process per skill.

    Returns (rows, params_by_skill). Every student walks through the
    skills round-robin, and each position has its own shared problem id
    so problems are attempted by many students.
    """
    rng = np.random.default_rng(seed)
    skills = [f"s{k}" for k in range(n_skills)]
    if params is None:
        params = {}
        for sk in skills:
            params[sk] = BktParams(
                l0=float(rng.uniform(0.2, 0.5)),
                t=float(rng.uniform(0.05, 0.15)),
                g=float(rng.uniform(0.1, 0.25)),
                s=float(rng.uniform(0.03, 0.1)),
            )
    rows = []
    for i in range(n_students):
        student = f"u{i:03d}"
        learned = {sk: rng.random() < params[sk].l0 for sk in skills}
        per_skill_count = {sk: 0 for sk in skills}
        for t in range(attempts):
            sk = skills[t % n_skills]
            p = params[sk]
            p_corr = (1.0 - p.s) if learned[sk] else p.g
            correct = int(rng.random() < p_corr)
            problem = f"p_{sk}_{per_skill_count[sk]}"
            per_skill_count[sk] += 1
            rows.append((student, problem, sk, correct))
            if not learned[sk] and rng.random() < p.t:
                learned[sk] = True
    return rows, params


def mixed_process_rows(n_students=60, n_skills=5, attempts=100,
                       problems_per_skill=30, seed=0):
    """Correctness driven by problem quality, student ability and mastery.

    Problem quality carries the largest weight, so the difficulty
    feature should dominate the ablation. Returns rows only.
    """
    rng = np.random.default_rng(seed)
    skills = [f"s{k}" for k in range(n_skills)]
    quality = {}
    for sk in skills:
        for j in range(problems_per_skill):
            quality[f"p_{sk}_{j}"] = float(rng.uniform(0.0, 1.0))
    params = {sk: BktParams(l0=float(rng.uniform(0.2, 0.5)), t=0.08, g=0.2, s=0.08)
              for sk in skills}
    rows = []
    for i in range(n_students):
        student = f"u{i:03d}"
        ability = float(rng.normal(0.0, 1.2))
        learned = {sk: rng.random() < params[sk].l0 for sk in skills}
        order = {sk: rng.permutation(problems_per_skill) for sk in skills}
        count = {sk: 0 for sk in skills}
        for t in range(attempts):
            sk = skills[t % n_skills]
            j = order[sk][count[sk] % problems_per_skill]
            count[sk] += 1
            problem = f"p_{sk}_{j}"
            logit = (-1.0 + 1.2 * float(learned[sk]) + 4.0 * (quality[problem] - 0.5)
                     + ability)
            p_corr = 1.0 / (1.0 + math.exp(-logit))
            rows.append((student, problem, sk, int(rng.random() < p_corr)))
            if not learned[sk] and rng.random() < params[sk].t:
                learned[sk] = True
    return rows


def shuffle_labels(rows, seed=0):
    """Permute the correctness column across all rows."""
    rng = np.random.default_rng(seed)
    labels = np.array([r[3] for r in rows])
    labels = labels[rng.permutation(len(labels))]
    return [(s, p, k, int(c)) for (s, p, k, _), c in zip(rows, labels)]


def bundle_round_trip(outdir, params, centroids=(), levels=None) -> FoldArtifacts:
    """Write a bundle holding these tables and a small ikt3 classifier,
    then load it; returns the loaded artifacts. The tables are files of
    ``outdir``. ``centroids`` needs one value per skill of ``params``.
    """
    rng = np.random.default_rng(0)
    cols = {"skill": rng.integers(0, 3, 200), "mastery": rng.random(200),
            "profile": rng.integers(1, 4, 200), "difficulty": rng.integers(0, 11, 200)}
    labels = (rng.random(200) < 0.2 + 0.6 * cols["mastery"]).astype(int)
    artifacts = FoldArtifacts(params_by_skill=params,
                              clusters=ClusterModel(np.array(centroids, dtype=float)),
                              difficulty=DifficultyTable(levels=dict(levels or {})))
    _write_bundle(str(outdir), ExperimentConfig(), {}, artifacts,
                  {"ikt3": tan.fit_tan(cols, labels)})
    return _load_bundle(str(outdir))[0]
