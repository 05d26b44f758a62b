import numpy as np
import pytest

from ikt.ability import ClusterModel, interval_vectors, profile_labels, train_clusters
from ikt.bkt import BktParams
from ikt.evaluation import ExperimentConfig

from oracles import assign_profile, kmeans_oracle
from synth import bundle_round_trip


def cols(attempts):
    """(skill, correct) pairs of one student as the arrays the ability
    functions take: skills, outcomes and the one student's row count."""
    attempts = np.array(attempts, dtype=int).reshape(-1, 2)
    return attempts[:, 0], attempts[:, 1], [len(attempts)]


def rates(rng, n, d, max_den=4):
    """Success rates over few attempts: many vectors and distances tie."""
    den = rng.integers(1, max_den + 1, (n, d))
    return rng.integers(0, den + 1) / den


def oracle_labels(skill, correct, model, skill_count, interval_len):
    """``profile_labels`` replayed one attempt at a time: each boundary's
    rate vector counted from the prefix, its label from
    ``oracles.assign_profile``."""
    labels, profile = [], 1
    for end in range(1, len(skill) + 1):
        labels.append(profile)
        if end % interval_len == 0:
            vector = [correct[:end][skill[:end] == s].mean() if (skill[:end] == s).any()
                      else 0.5 for s in range(skill_count)]
            profile = assign_profile(vector, model)
    return labels


def oracle_vectors(histories, skill_count, interval_len):
    """``interval_vectors`` of several students, one student at a time:
    each vector counted from its student's prefix, and per attempt the
    row of the vector its profile reads."""
    vectors, index = [], []
    for skill, correct in histories:
        first = len(vectors)
        for end in range(interval_len, len(skill) + 1, interval_len):
            vectors.append([correct[:end][skill[:end] == s].mean()
                            if (skill[:end] == s).any() else 0.5
                            for s in range(skill_count)])
        index += [first + p // interval_len - 1 if p >= interval_len else -1
                  for p in range(len(skill))]
    return np.array(vectors).reshape(-1, skill_count), index


def end_to_end(histories):
    """Per-student (skill, correct) arrays in the layout the ability
    functions take: all rows laid end to end, and each row count."""
    return (np.concatenate([h[0] for h in histories] + [np.zeros(0, int)]),
            np.concatenate([h[1] for h in histories] + [np.zeros(0, int)]),
            [len(h[0]) for h in histories])


def random_history(rng, skill_count, max_len=130):
    n = int(rng.integers(0, max_len))
    return rng.integers(0, skill_count, n), rng.integers(0, 2, n), [n]


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
        labels = profile_labels(*cols(attempts), model, skill_count=1, interval_len=20)
        assert len(labels) == 45
        assert labels.tolist() == [1] * 20 + [3] * 20 + [2] * 5
        assert len(interval_vectors(*cols(attempts), 1, 20)[0]) == 2

    def test_exactly_one_interval(self):
        model = ClusterModel(centroids=np.array([[0.0], [1.0]]))
        attempts = [(0, 1)] * 20
        assert len(interval_vectors(*cols(attempts), 1, 20)[0]) == 1
        assert set(profile_labels(*cols(attempts), model, 1, 20)) == {1}

    def test_below_threshold(self):
        model = ClusterModel(centroids=np.array([[0.0], [1.0]]))
        assert len(interval_vectors(*cols([(0, 1)] * 7), 1, 20)[0]) == 0
        assert profile_labels(*cols([(0, 1)] * 7), model, 1, 20).tolist() == [1] * 7

    def test_bad_length(self):
        errors = ExperimentConfig(interval_len=0).validate()
        assert len(errors) == 1 and errors[0].startswith("interval_len")


class TestPerformanceVector:
    def test_success_ratio(self):
        history = [(1, 1), (1, 1), (1, 1), (1, 0)]
        (vec,), _ = interval_vectors(*cols(history), skill_count=3, interval_len=4)
        assert vec[1] == pytest.approx(0.75)

    def test_unattempted_default(self):
        (vec,), _ = interval_vectors(*cols([(0, 1)]), skill_count=3, interval_len=1)
        assert vec.tolist() == [1.0, 0.5, 0.5]

    def test_empty_history(self):
        model = ClusterModel(centroids=np.array([[0.5, 0.5, 0.5]]))
        assert interval_vectors(*cols([]), skill_count=3)[0].shape == (0, 3)
        assert profile_labels(*cols([]), model, skill_count=3).size == 0

    def test_prefix_monotone_on_untouched_skills(self):
        attempts = [(0, 1)] * 20 + [(1, 0)] * 20
        (v1, v2), _ = interval_vectors(*cols(attempts), 3, 20)
        assert v2[0] == v1[0]
        assert v2[2] == v1[2] == 0.5


class TestIntervalVectors:
    def test_one_vector_per_completed_interval(self):
        attempts = [(0, 1)] * 45
        vectors, _ = interval_vectors(*cols(attempts), skill_count=2, interval_len=20)
        assert len(vectors) == 2

    def test_short_history_contributes_nothing(self):
        assert interval_vectors(*cols([(0, 1)] * 19), 2, 20)[0].shape == (0, 2)

    def test_vectors_are_cumulative(self):
        attempts = [(0, 1)] * 20 + [(0, 0)] * 20
        (v1, v2), _ = interval_vectors(*cols(attempts), skill_count=1, interval_len=20)
        assert v1[0] == pytest.approx(1.0)
        assert v2[0] == pytest.approx(0.5)  # 20 of 40 correct overall


class TestManyStudents:
    @pytest.mark.parametrize("interval_len", [1, 3, 20])
    @pytest.mark.parametrize("seed", range(6))
    def test_match_the_per_prefix_oracle(self, seed, interval_len):
        # short students (empty ones at interval_len 1) sit between long
        # ones; the unseen code skill_count is among the skills; odd seeds
        # draw tie-heavy quarter-step centroids
        rng = np.random.default_rng(300 + seed)
        skill_count, k = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        centroids = (rng.integers(0, 5, (k, skill_count)) / 4 if seed % 2
                     else rng.uniform(0, 1, (k, skill_count)))
        model = ClusterModel(centroids=centroids)
        histories = []
        for i in range(9):
            n = int(rng.integers(0, interval_len) if i % 2
                    else rng.integers(interval_len, 6 * interval_len))
            histories.append((rng.integers(0, skill_count + 1, n), rng.integers(0, 2, n)))
        skill, correct, lengths = end_to_end(histories)
        vectors, index = interval_vectors(skill, correct, lengths, skill_count, interval_len)
        want_vectors, want_index = oracle_vectors(histories, skill_count, interval_len)
        assert np.array_equal(vectors, want_vectors)
        assert index.tolist() == want_index
        labels = profile_labels(skill, correct, lengths, model, skill_count, interval_len)
        assert labels.tolist() == [label for h in histories for label in
                                   oracle_labels(*h, model, skill_count, interval_len)]

    def test_no_complete_interval_keeps_initial_profile(self):
        # with centroids but no vector to assign, every attempt keeps the
        # label 1 and the screen, which needs at least one row, never runs
        model = ClusterModel(centroids=np.array([[0.2, 0.8], [0.9, 0.1]]))
        skill, correct, lengths = end_to_end(
            [(np.zeros(n, int), np.ones(n, int)) for n in (19, 0, 3, 19)])
        vectors, index = interval_vectors(skill, correct, lengths, 2, 20)
        assert vectors.shape == (0, 2) and index.tolist() == [-1] * 41
        assert profile_labels(skill, correct, lengths, model, 2, 20).tolist() == [1] * 41


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

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("max_iter", [1, 2])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_oracle_when_max_iter_runs_out(self, case, max_iter, seed):
        # the last round's labels belong to the centroids before its
        # update, so the inertia needs one more assignment
        x, k = ORACLE_CASES[case](np.random.default_rng(seed))
        model = train_clusters(x, k=k, seed=seed, max_iter=max_iter)
        assert np.array_equal(model.centroids, kmeans_oracle(x, k, seed, max_iter=max_iter))

    def test_revival_from_higher_index_cluster_matches_oracle(self):
        # k-means++ seeds [1/3, 0, 0]; the mean of ten copies of 1/3 rounds
        # above 1/3, so in round 3 the revived centroid 2 (exactly 1/3)
        # takes every 1/3 and leaves cluster 0 empty. Its revival takes
        # row 0 from cluster 1 (every distance is 0, so the first row),
        # which is not averaged yet and must lose that row.
        x = np.array([0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1])[:, None] / 3
        for max_iter in (3, 300):
            model = train_clusters(x, k=3, seed=0, restarts=1, max_iter=max_iter)
            assert np.array_equal(model.centroids, kmeans_oracle(
                x, 3, 0, restarts=1, max_iter=max_iter))

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
        labels = profile_labels(*cols([(1, 1)] * 25), self.model, skill_count=2,
                                interval_len=20)
        assert labels[:20].tolist() == [1] * 20
        assert labels[20] == assign_profile([0.5, 1.0], self.model) >= 2

    def test_exact_centroid_offset_mapping(self):
        # the vector [0, 1] is centroid row 2, which carries label 4: 1 is
        # reserved, so the K cluster labels start at 2
        labels = profile_labels(*cols([(0, 0), (1, 1), (0, 1)]), self.model, 2, 2)
        assert labels.tolist() == [1, 1, 4]

    def test_tie_breaks_to_lowest_index(self):
        # [0.5, 0] is as near [0, 0] (label 2) as [1, 0] (label 3)
        labels = profile_labels(*cols([(0, 1), (0, 0), (1, 0), (1, 1)]), self.model, 2, 3)
        assert labels.tolist() == [1, 1, 1, 2]

    def test_labels_cover_expected_range(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            labels = profile_labels(*random_history(rng, 2), self.model, 2, 5)
            assert set(labels[:5]) <= {1}
            assert set(labels[5:]) <= set(range(2, 6))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            profile_labels(*cols([(0, 1)] * 40), self.model, skill_count=3)
        # a (z, 1) block would broadcast against the (K, 2) centroids
        with pytest.raises(ValueError):
            profile_labels(*cols([(0, 1)] * 40), self.model, skill_count=1)

    def test_minimizes_squared_distance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            skill, correct, n = random_history(rng, 2)
            labels = profile_labels(skill, correct, n, self.model, 2, 4)
            vectors, _ = interval_vectors(skill, correct, n, 2, 4)
            # the last vector labels no attempt when the history ends on a boundary
            for z, v in enumerate(vectors[:(len(skill) - 1) // 4], 1):
                d2 = ((self.model.centroids - v) ** 2).sum(axis=1)
                assert d2[labels[4 * z] - 2] == d2.min()


class TestProfileLabels:
    def test_first_interval_all_ones_and_boundary_updates(self):
        model = ClusterModel(centroids=np.array([[0.9, 0.5], [0.1, 0.5]]))
        attempts = [(0, 1)] * 20 + [(0, 0)] * 20 + [(0, 0)] * 5
        labels = profile_labels(*cols(attempts), model, skill_count=2, interval_len=20)
        assert set(labels[:20]) == {1}
        # after interval 1 the success rate is 1.0 -> nearest centroid 0 -> label 2
        assert set(labels[20:40]) == {2}
        # after interval 2 the rate is 0.5, still nearer 0.9 than 0.1? equal -> lowest
        assert len(labels) == 45

    def test_short_history_keeps_initial_profile(self):
        model = ClusterModel(centroids=np.array([[0.9, 0.5]]))
        labels = profile_labels(*cols([(0, 1)] * 7), model, skill_count=2,
                                interval_len=20)
        assert set(labels) == {1}

    def test_labels_within_range(self):
        rng = np.random.default_rng(5)
        model = ClusterModel(centroids=rng.uniform(0, 1, (7, 3)))
        attempts = [(int(rng.integers(3)), int(rng.integers(2))) for _ in range(130)]
        labels = profile_labels(*cols(attempts), model, skill_count=3, interval_len=20)
        assert set(labels) <= set(range(1, 9))


class TestProfileLabelsOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_centroids(self, seed):
        rng = np.random.default_rng(seed)
        skill_count, k = int(rng.integers(1, 7)), int(rng.integers(1, 8))
        model = ClusterModel(centroids=rng.uniform(0, 1, (k, skill_count)))
        for _ in range(10):
            skill, correct, n = random_history(rng, skill_count)
            interval_len = int(rng.integers(1, 21))
            assert profile_labels(skill, correct, n, model, skill_count,
                                  interval_len).tolist() == oracle_labels(
                skill, correct, model, skill_count, interval_len)

    @pytest.mark.parametrize("seed", range(20))
    def test_tie_heavy_centroids(self, seed):
        # quarter-step centroids with repeated rows against rates of few
        # attempts: many exact ties, all of which must go to the lowest
        # index. Two skills keep each distance one rounded addition, so
        # a tie in exact arithmetic is a tie in both sums.
        rng = np.random.default_rng(100 + seed)
        rows = rng.integers(0, 5, (int(rng.integers(2, 5)), 2)) / 4
        model = ClusterModel(centroids=rows[rng.integers(0, len(rows), 6)])
        for _ in range(10):
            skill, correct, n = random_history(rng, 2, max_len=40)
            interval_len = int(rng.integers(1, 5))
            assert profile_labels(skill, correct, n, model, 2,
                                  interval_len).tolist() == oracle_labels(
                skill, correct, model, 2, interval_len)

    def test_duplicate_centroids_resolve_to_lowest_index(self):
        model = ClusterModel(centroids=np.array([[1.0, 1.0], [0.0, 0.0],
                                                 [0.0, 0.0], [1.0, 1.0]]))
        near_zero = profile_labels(*cols([(0, 0), (1, 0), (0, 0)]), model, 2, 2)
        near_one = profile_labels(*cols([(0, 1), (1, 1), (0, 1)]), model, 2, 2)
        assert near_zero.tolist() == [1, 1, 3]
        assert near_one.tolist() == [1, 1, 2]

    def test_no_centroids_keeps_initial_profile(self):
        # an empty centroids.tsv loads as a (0,) array of dimension 0
        model = ClusterModel(centroids=np.zeros(0))
        labels = profile_labels(*cols([(0, 1)] * 45), model, skill_count=3)
        assert labels.tolist() == [1] * 45


class TestCentroidIO:
    def test_round_trip(self, tmp_path):
        centroids = np.array([[0.123456, 0.5], [0.9, 0.25]])
        params = {"s1": BktParams(0.3, 0.1, 0.2, 0.1), "s2": BktParams(0.3, 0.1, 0.2, 0.1)}
        loaded = bundle_round_trip(tmp_path, params, centroids)
        assert np.allclose(loaded.clusters.centroids, centroids, atol=1e-6)
        path = tmp_path / "centroids.tsv"
        assert path.read_text().splitlines()[0] == "0.123456\t0.500000"
