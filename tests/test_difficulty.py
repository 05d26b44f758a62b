import pytest

from ikt.bkt import BktParams
from ikt.dataset import preprocess
from ikt.difficulty import DifficultyTable, build_difficulty_table

from synth import bundle_round_trip, to_dataset


def dataset_with(problem_outcomes):
    """One problem, one attempt per student with the given outcomes."""
    rows = []
    for problem, outcomes in problem_outcomes.items():
        for i, c in enumerate(outcomes):
            rows.append((f"u{problem}_{i}", problem, "s0", c))
    return to_dataset(rows)


class TestBuildTable:
    def test_success_rate_binning(self):
        data = dataset_with({"p": [1, 1, 1, 0, 0, 0, 0]})  # 3 of 7
        table = build_difficulty_table(data)
        assert table.lookup("p") == 4  # floor(10 * 3/7)

    def test_sparse_problem_gets_default(self):
        data = dataset_with({"p": [1, 1, 1]})  # only 3 students
        table = build_difficulty_table(data)
        assert "p" not in table.levels
        assert table.lookup("p") == 5

    def test_all_correct_is_ten(self):
        table = build_difficulty_table(dataset_with({"p": [1, 1, 1, 1]}))
        assert table.lookup("p") == 10

    def test_all_wrong_is_zero(self):
        table = build_difficulty_table(dataset_with({"p": [0, 0, 0, 0]}))
        assert table.lookup("p") == 0

    def test_levels_stay_in_range(self):
        import numpy as np
        rng = np.random.default_rng(0)
        outcomes = {f"p{i}": list(rng.integers(0, 2, rng.integers(1, 30)))
                    for i in range(50)}
        table = build_difficulty_table(dataset_with(outcomes))
        for problem in outcomes:
            assert 0 <= table.lookup(problem) <= 10

    def test_rebuild_is_identical(self):
        data = dataset_with({"p1": [1, 0, 1, 1, 0], "p2": [0, 0, 1, 1]})
        assert build_difficulty_table(data).levels == build_difficulty_table(data).levels

    def test_first_attempts_only_via_preprocessing(self):
        # four students attempt p; one of them retries with a different
        # outcome, which must not count
        rows = [("a", "p", "s0", 0), ("a", "p", "s0", 1),
                ("b", "p", "s0", 1), ("c", "p", "s0", 1), ("d", "p", "s0", 1)]
        data = preprocess(to_dataset(rows))
        table = build_difficulty_table(data)
        assert table.lookup("p") == 7  # floor(10 * 3/4)


class TestLookup:
    def test_present(self):
        table = DifficultyTable(levels={"p": 7})
        assert table.lookup("p") == 7

    def test_unseen_default(self):
        assert DifficultyTable(levels={}).lookup("nope") == 5


class TestSerialization:
    def test_round_trip(self, tmp_path):
        levels = {"p1": 3, "p2": 10}
        loaded = bundle_round_trip(tmp_path, {"s1": BktParams(0.3, 0.1, 0.2, 0.1)},
                                   levels=levels).difficulty
        assert loaded.levels == levels
        assert loaded.default_level == 5
