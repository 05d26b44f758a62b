"""Per-problem difficulty levels from first-attempt success rates.

A problem attempted by at least four distinct students gets
floor(10 * success rate), an integer 0..10; sparser problems and
problems never seen in training default to level 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DifficultyTable", "build_difficulty_table", "save_difficulty_table",
           "load_difficulty_table", "DEFAULT_LEVEL", "MIN_STUDENTS"]

DEFAULT_LEVEL = 5
MIN_STUDENTS = 4


@dataclass(frozen=True)
class DifficultyTable:
    levels: dict = field(default_factory=dict)
    default_level: int = DEFAULT_LEVEL

    def lookup(self, problem_id) -> int:
        return self.levels.get(problem_id, self.default_level)


def build_difficulty_table(train_data) -> DifficultyTable:
    """Difficulty per problem from the training students' first attempts.

    ``train_data`` is a Dataset (already reduced to first attempts, so
    each (student, problem) appears once). Problems are tabled in order
    of first appearance in its rows; integer arithmetic keeps the floor
    exact.
    """
    attempts = np.bincount(train_data.problem)
    right = np.bincount(train_data.problem, weights=train_data.correct)
    distinct, first = np.unique(train_data.problem, return_index=True)
    names = list(train_data.problem_index)
    return DifficultyTable(levels={
        names[c]: 10 * int(right[c]) // int(attempts[c])
        for c in distinct[np.argsort(first)].tolist() if attempts[c] >= MIN_STUDENTS})


def save_difficulty_table(table: DifficultyTable, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# default\t{table.default_level}\n")
        for problem in table.levels:
            fh.write(f"{problem}\t{table.levels[problem]}\n")


def load_difficulty_table(path: str) -> DifficultyTable:
    """Inverse of ``save_difficulty_table``; a malformed row raises
    ``ValueError`` naming ``path:lineno``."""
    levels = {}
    default = DEFAULT_LEVEL
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                if line.startswith("# default\t"):
                    default = int(line.split("\t")[1])
                    continue
                problem, level = line.split("\t")
                levels[problem] = int(level)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return DifficultyTable(levels=levels, default_level=default)
