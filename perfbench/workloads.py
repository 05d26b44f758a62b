"""Seeded workload generators for the benchmark.

Each workload writes two logs from one seed:

- a training log in the canonical layout (``student_id, problem_id,
  skill_id, correct, order``), clean, used by ``evaluate`` and ``fit``;
- a score log of unseen students in a raw layout with its own schema
  file, used by ``predict`` and ``explain``. It carries repeat attempts,
  exact duplicate rows and rows with a blank cell, so that loading and
  first-attempt cleaning do real work and their drop tallies are known.

The seed draws the students of both logs, from two independent random
streams. What the students are drawn from is fixed per workload: the
true skill parameters (or problem qualities) and the order in which
students walk the skills. The score log walks the skills rotated by
half, so its skills first appear in a different order from the training
log's. Keeping those fixed keeps the quality metrics comparable across
seeds.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

SCHEMA_TEXT = ("student = user\nproblem = item\nskill = kc\n"
               "correct = outcome\norder = ts\n")

# Shares of injected raw-log rows, relative to the rows that survive cleaning.
REPEAT_SHARE = 0.10
DUPLICATE_SHARE = 0.02
BLANK_SHARE = 0.002
# (cell index in a score-log row, the drop reason ikt tallies for it)
BLANK_CELLS = ((1, "missing problem"), (2, "missing skill"), (3, "missing correctness"))


@dataclass(frozen=True)
class Shape:
    """Students x skills x attempts per student (skills walked round-robin)."""

    students: int
    skills: int
    attempts: int

    @property
    def rows(self) -> int:
        return self.students * self.attempts


@dataclass(frozen=True)
class Workload:
    name: str
    process: str  # "mastery" or "mixed"
    train: Shape
    score: Shape


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "long_seq": Workload("long_seq", "mastery", Shape(40, 5, 300), Shape(200, 5, 300)),
    "many_skills": Workload("many_skills", "mastery", Shape(300, 50, 100),
                            Shape(400, 50, 100)),
    "score": Workload("score", "mixed", Shape(60, 10, 100), Shape(2000, 10, 100)),
}


@dataclass(frozen=True)
class Inputs:
    """Paths of one generated workload plus the sizes the generator knows."""

    train: str
    score: str
    schema: str
    sizes: dict


# Seed of the fixed population every workload's students are drawn from.
POPULATION_SEED = 20211221


def _mastery_population(rng, n_skills: int) -> dict:
    """True per-skill (l0, t, g, s), shared by both logs."""
    return {k: (float(rng.uniform(0.2, 0.5)), float(rng.uniform(0.05, 0.15)),
                float(rng.uniform(0.1, 0.25)), float(rng.uniform(0.03, 0.1)))
            for k in range(n_skills)}


def _mastery_student(rng, truth: dict, order: list, attempts: int):
    """(problem, skill, correct) triples from the hidden two-state process.

    Each position within a skill has its own problem id, shared by every
    student, so difficulty levels are estimable.
    """
    learned = {k: bool(rng.random() < truth[k][0]) for k in order}
    seen = dict.fromkeys(order, 0)
    draws = rng.random((attempts, 2))
    out = []
    for i in range(attempts):
        k = order[i % len(order)]
        _, t, g, s = truth[k]
        correct = int(draws[i, 0] < ((1.0 - s) if learned[k] else g))
        out.append((f"p{k}_{seen[k]}", f"s{k}", correct))
        seen[k] += 1
        if not learned[k] and draws[i, 1] < t:
            learned[k] = True
    return out


_MIXED_PROBLEMS_PER_SKILL = 30
_MIXED_T = 0.08


def _mixed_population(rng, n_skills: int) -> dict:
    """Per-problem quality and per-skill initial mastery, shared by both logs."""
    quality = {(k, j): float(rng.uniform(0.0, 1.0))
               for k in range(n_skills) for j in range(_MIXED_PROBLEMS_PER_SKILL)}
    l0 = {k: float(rng.uniform(0.2, 0.5)) for k in range(n_skills)}
    return {"quality": quality, "l0": l0}


def _mixed_student(rng, truth: dict, order: list, attempts: int):
    """Correctness driven by problem quality first, then ability and mastery."""
    ability = float(rng.normal(0.0, 1.2))
    learned = {k: bool(rng.random() < truth["l0"][k]) for k in order}
    problems = {k: rng.permutation(_MIXED_PROBLEMS_PER_SKILL) for k in order}
    seen = dict.fromkeys(order, 0)
    draws = rng.random((attempts, 2))
    out = []
    for i in range(attempts):
        k = order[i % len(order)]
        j = int(problems[k][seen[k] % _MIXED_PROBLEMS_PER_SKILL])
        seen[k] += 1
        logit = (-1.0 + 1.2 * float(learned[k])
                 + 4.0 * (truth["quality"][(k, j)] - 0.5) + ability)
        correct = int(draws[i, 0] < 1.0 / (1.0 + math.exp(-logit)))
        out.append((f"p{k}_{j}", f"s{k}", correct))
        if not learned[k] and draws[i, 1] < _MIXED_T:
            learned[k] = True
    return out


_PROCESSES = {"mastery": (_mastery_population, _mastery_student),
              "mixed": (_mixed_population, _mixed_student)}


def _write_train(path: str, rng, truth, student_fn, shape: Shape, order) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student_id", "problem_id", "skill_id", "correct", "order"])
        ts = 0
        for i in range(shape.students):
            for problem, skill, correct in student_fn(rng, truth, order, shape.attempts):
                writer.writerow([f"u{i:05d}", problem, skill, correct, ts])
                ts += 1


def _write_score(path: str, rng, truth, student_fn, shape: Shape, order) -> dict:
    """Raw log with injected noise rows; returns the expected drop tallies."""
    drops = {"repeat attempt": 0, "duplicate row": 0}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user", "item", "kc", "outcome", "ts"])
        ts = 0
        for i in range(shape.students):
            student = f"v{i:05d}"
            for problem, skill, correct in student_fn(rng, truth, order, shape.attempts):
                row = [student, problem, skill, correct, ts]
                writer.writerow(row)
                ts += 1
                noise = rng.random(4)
                if noise[0] < DUPLICATE_SHARE:
                    writer.writerow(row)
                    drops["duplicate row"] += 1
                if noise[1] < REPEAT_SHARE:
                    writer.writerow([student, problem, skill, int(noise[2] < 0.5), ts])
                    ts += 1
                    drops["repeat attempt"] += 1
                if noise[3] < BLANK_SHARE:
                    cell, reason = BLANK_CELLS[int(rng.integers(len(BLANK_CELLS)))]
                    blank = [student, problem, skill, correct, ts]
                    blank[cell] = ""
                    writer.writerow(blank)
                    ts += 1
                    drops[reason] = drops.get(reason, 0) + 1
    return drops


def generate(workload: Workload, seed: int, outdir: str) -> Inputs:
    """Write the workload's logs for ``seed`` into ``outdir``.

    The same workload and seed always give byte-identical files.
    """
    os.makedirs(outdir, exist_ok=True)
    population_fn, student_fn = _PROCESSES[workload.process]
    n_skills = workload.train.skills
    if workload.score.skills != n_skills:
        raise ValueError("training and score logs must share the skill set")
    truth = population_fn(np.random.default_rng(POPULATION_SEED), n_skills)
    train_rng, score_rng = (np.random.default_rng(ss)
                            for ss in np.random.SeedSequence(seed).spawn(2))
    train_order = list(range(n_skills))
    score_order = train_order[n_skills // 2:] + train_order[:n_skills // 2]

    paths = {name: os.path.join(outdir, name)
             for name in ("train.csv", "score.csv", "score_schema.kv")}
    _write_train(paths["train.csv"], train_rng, truth, student_fn,
                 workload.train, train_order)
    drops = _write_score(paths["score.csv"], score_rng, truth, student_fn,
                         workload.score, score_order)
    with open(paths["score_schema.kv"], "w", encoding="utf-8") as fh:
        fh.write(SCHEMA_TEXT)
    sizes = {
        "train": {"students": workload.train.students, "skills": n_skills,
                  "records": workload.train.rows, "rows_dropped": 0},
        "score": {"students": workload.score.students, "skills": n_skills,
                  "records": workload.score.rows,
                  "rows_dropped": sum(drops.values()), "drops": drops},
    }
    return Inputs(paths["train.csv"], paths["score.csv"], paths["score_schema.kv"], sizes)
