"""Per-problem difficulty levels from first-attempt success rates.

A problem attempted by at least four distinct students gets
floor(10 * success rate), an integer 0..10; sparser problems and
problems never seen in training default to level 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DifficultyTable", "build_difficulty_table", "DEFAULT_LEVEL", "MIN_STUDENTS"]

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
