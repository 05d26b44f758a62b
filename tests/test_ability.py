import numpy as np
import pytest

from ikt.ability import (ClusterModel, assign_profile, interval_vectors,
                         load_centroids, profile_labels, save_centroids,
                         train_clusters)
from ikt.evaluation import ExperimentConfig

from oracles import kmeans_oracle


def rates(rng, n, d, max_den=4):
    """Success rates over few attempts: many vectors and distances tie."""
    den = rng.integers(1, max_den + 1, (n, d))
    return rng.integers(0, den + 1) / den


ORACLE_CASES = {
    "uniform": lambda rng: (rng.uniform(0, 1, (200, 6)), 5),
    "half_step_grid": lambda rng: (rng.integers(0, 3, (150, 4)) / 2, 6),
    "small_denominator_rates": lambda rng: (rates(rng, 300, 8), 7),
    "k1": lambda rng: (rng.uniform(0, 1, (40, 3)), 1),
}


class TestSegmentIntervals:
    def test_partial_tail(self):
        # 45 attempts: intervals [0, 20), [20, 40) and a partial [40, 45)
        model = ClusterModel(centroids=np.array([[0.0], [1.0]]))
        attempts = [(0, 1)] * 20 + [(0, 0)] * 20 + [(0, 1)] * 5
        labels = profile_labels(attempts, model, skill_count=1, interval_len=20)
        assert len(labels) == 45
        assert labels.tolist() == [1] * 20 + [3] * 20 + [2] * 5
        assert len(interval_vectors(attempts, 1, 20)) == 2

    def test_exactly_one_interval(self):
        model = ClusterModel(centroids=np.array([[0.0], [1.0]]))
        attempts = [(0, 1)] * 20
        assert len(interval_vectors(attempts, 1, 20)) == 1
        assert set(profile_labels(attempts, model, 1, 20)) == {1}

    def test_below_threshold(self):
        model = ClusterModel(centroids=np.array([[0.0], [1.0]]))
        assert interval_vectors([(0, 1)] * 7, 1, 20) == []
        assert profile_labels([(0, 1)] * 7, model, 1, 20).tolist() == [1] * 7

    def test_bad_length(self):
        errors = ExperimentConfig(interval_len=0).validate()
        assert len(errors) == 1 and errors[0].startswith("interval_len")


class TestPerformanceVector:
    def test_success_ratio(self):
        history = [(1, 1), (1, 1), (1, 1), (1, 0)]
        (vec,) = interval_vectors(history, skill_count=3, interval_len=4)
        assert vec[1] == pytest.approx(0.75)

    def test_unattempted_default(self):
        (vec,) = interval_vectors([(0, 1)], skill_count=3, interval_len=1)
        assert vec.tolist() == [1.0, 0.5, 0.5]

    def test_empty_history(self):
        model = ClusterModel(centroids=np.array([[0.5, 0.5, 0.5]]))
        assert interval_vectors([], skill_count=3) == []
        assert profile_labels([], model, skill_count=3).size == 0

    def test_prefix_monotone_on_untouched_skills(self):
        attempts = [(0, 1)] * 20 + [(1, 0)] * 20
        v1, v2 = interval_vectors(attempts, 3, 20)
        assert v2[0] == v1[0]
        assert v2[2] == v1[2] == 0.5


class TestIntervalVectors:
    def test_one_vector_per_completed_interval(self):
        attempts = [(0, 1)] * 45
        vectors = interval_vectors(attempts, skill_count=2, interval_len=20)
        assert len(vectors) == 2

    def test_short_history_contributes_nothing(self):
        assert interval_vectors([(0, 1)] * 19, 2, 20) == []

    def test_vectors_are_cumulative(self):
        attempts = [(0, 1)] * 20 + [(0, 0)] * 20
        v1, v2 = interval_vectors(attempts, skill_count=1, interval_len=20)
        assert v1[0] == pytest.approx(1.0)
        assert v2[0] == pytest.approx(0.5)  # 20 of 40 correct overall


class TestTrainClusters:
    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0.1] * 4, [0.5] * 4, [0.9] * 4])
        pts = np.concatenate([c + rng.normal(0, 0.01, (40, 4)) for c in centers])
        model = train_clusters(pts, k=3, seed=1)
        for c in centers:
            nearest = ((model.centroids - c) ** 2).sum(axis=1).min()
            assert nearest < 0.01 ** 2 * 4 * 10

    def test_identical_vectors_k1(self):
        vec = np.full((10, 3), 0.7)
        model = train_clusters(vec, k=1, seed=0)
        assert np.allclose(model.centroids[0], 0.7)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, (60, 5))
        a = train_clusters(pts, k=4, seed=7)
        b = train_clusters(pts, k=4, seed=7)
        assert np.array_equal(a.centroids, b.centroids)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_oracle(self, case, seed):
        x, k = ORACLE_CASES[case](np.random.default_rng(seed))
        model = train_clusters(x, k=k, seed=seed)
        assert np.array_equal(model.centroids, kmeans_oracle(x, k, seed))

    def test_matches_oracle_many_skills(self):
        x = rates(np.random.default_rng(11), 1200, 50, max_den=6)
        model = train_clusters(x, k=7, seed=3, restarts=3)
        assert np.array_equal(model.centroids, kmeans_oracle(x, 7, 3, restarts=3))

    def test_matches_oracle_on_tie_heavy_inputs(self):
        # k above the distinct-point count revives clusters every round
        # and cycles to max_iter, so max_iter is kept short
        for seed in range(60):
            rng = np.random.default_rng(1000 + seed)
            n, d = int(rng.integers(8, 80)), int(rng.integers(1, 7))
            distinct = rates(rng, int(rng.integers(2, 12)), d, max_den=3)
            x = distinct[rng.integers(0, len(distinct), n)]
            k = int(rng.integers(1, 9))
            model = train_clusters(x, k=k, seed=seed, restarts=3, max_iter=30)
            assert np.array_equal(model.centroids, kmeans_oracle(
                x, k, seed, restarts=3, max_iter=30)), seed

    @pytest.mark.parametrize("seed", range(4))
    def test_empty_cluster_revival_matches_oracle(self, seed):
        # at most three distinct points for five clusters: k-means++ repeats a
        # point, so clusters start empty and are revived every round
        rng = np.random.default_rng(seed)
        x = rates(rng, 3, 6, max_den=3)[rng.integers(0, 3, 40)]
        model = train_clusters(x, k=5, seed=seed, restarts=2)
        assert np.array_equal(model.centroids, kmeans_oracle(x, 5, seed, restarts=2))

    def test_train_clusters_pinned(self):
        x = np.random.default_rng(5).integers(0, 4, (60, 4)) / 3
        model = train_clusters(x, k=3, seed=8, restarts=4)
        assert np.array_equal(model.centroids, np.array([
            [0.8541666666666665, 0.16666666666666666, 0.3125, 0.6875000000000001],
            [0.6, 0.7466666666666666, 0.5333333333333333, 0.13333333333333333],
            [0.1754385964912281, 0.5087719298245614, 0.42105263157894735,
             0.8245614035087719]]))

    def test_too_few_vectors(self):
        with pytest.raises(ValueError):
            train_clusters(np.ones((3, 2)), k=7, seed=0)


class TestAssignProfile:
    def setup_method(self):
        self.model = ClusterModel(centroids=np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))

    def test_first_interval_reserved_label(self):
        # every centroid label is >= 2, yet the first interval's attempts
        # carry the reserved label 1
        labels = profile_labels([(1, 1)] * 25, self.model, skill_count=2, interval_len=20)
        assert labels[:20].tolist() == [1] * 20
        assert labels[20] == assign_profile(np.array([0.5, 1.0]), self.model) >= 2

    def test_exact_centroid_offset_mapping(self):
        # centroid at 0-based row 2 carries label 4: 1 is reserved, so the
        # K cluster labels start at 2
        assert assign_profile(np.array([0.0, 1.0]), self.model) == 4

    def test_tie_breaks_to_lowest_index(self):
        assert assign_profile(np.array([0.5, 0.0]), self.model) == 2

    def test_labels_cover_expected_range(self):
        rng = np.random.default_rng(3)
        labels = {assign_profile(rng.uniform(-1, 2, 2), self.model) for _ in range(200)}
        assert labels <= set(range(2, 6))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            assign_profile(np.array([1.0, 2.0, 3.0]), self.model)

    def test_minimizes_squared_distance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            v = rng.uniform(-1, 2, 2)
            label = assign_profile(v, self.model)
            d2 = ((self.model.centroids - v) ** 2).sum(axis=1)
            assert d2[label - 2] == d2.min()


class TestProfileLabels:
    def test_first_interval_all_ones_and_boundary_updates(self):
        model = ClusterModel(centroids=np.array([[0.9, 0.5], [0.1, 0.5]]))
        attempts = [(0, 1)] * 20 + [(0, 0)] * 20 + [(0, 0)] * 5
        labels = profile_labels(attempts, model, skill_count=2, interval_len=20)
        assert set(labels[:20]) == {1}
        # after interval 1 the success rate is 1.0 -> nearest centroid 0 -> label 2
        assert set(labels[20:40]) == {2}
        # after interval 2 the rate is 0.5, still nearer 0.9 than 0.1? equal -> lowest
        assert len(labels) == 45

    def test_short_history_keeps_initial_profile(self):
        model = ClusterModel(centroids=np.array([[0.9, 0.5]]))
        labels = profile_labels([(0, 1)] * 7, model, skill_count=2, interval_len=20)
        assert set(labels) == {1}

    def test_labels_within_range(self):
        rng = np.random.default_rng(5)
        model = ClusterModel(centroids=rng.uniform(0, 1, (7, 3)))
        attempts = [(int(rng.integers(3)), int(rng.integers(2))) for _ in range(130)]
        labels = profile_labels(attempts, model, skill_count=3, interval_len=20)
        assert set(labels) <= set(range(1, 9))


class TestCentroidIO:
    def test_round_trip(self, tmp_path):
        model = ClusterModel(centroids=np.array([[0.123456, 0.5], [0.9, 0.25]]))
        path = tmp_path / "centroids.tsv"
        save_centroids(model, str(path))
        loaded = load_centroids(str(path))
        assert np.allclose(loaded.centroids, model.centroids, atol=1e-6)
        assert path.read_text().splitlines()[0] == "0.123456\t0.500000"
