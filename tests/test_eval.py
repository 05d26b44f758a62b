import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ikt import tan
from ikt.ability import ClusterModel
from ikt.bkt import BktParams, fit_skill
from ikt.dataset import split_folds
from ikt.difficulty import DifficultyTable
from ikt.evaluation import (FEATURE_SETS, ExperimentConfig, FoldArtifacts,
                            SingleClassError, auc, build_feature_rows,
                            evaluate_feature_sets, rmse, skill_params)

from oracles import feature_rows_oracle, pairwise_auc
from synth import (fit_artifacts, mastery_process_rows, mixed_process_rows, records,
                   shuffle_labels, to_dataset)


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(10, 200))
            scores = np.round(rng.random(n), 2)  # force some ties
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auc(scores, labels) == pytest.approx(
                pairwise_auc(scores, labels), abs=1e-12)

    def test_ties_and_signed_zeros_equal_the_pairwise_count_exactly(self):
        # every rank is a whole or half number, so the rank sum is exact and
        # so is the AUC; -0.0 and 0.0 tie
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 120))
            scores = rng.choice([-0.0, 0.0, 0.25, 0.5, 1.0], n)
            labels = rng.integers(0, 2, n)
            labels[:2] = 0, 1
            assert auc(scores, labels) == pairwise_auc(scores, labels)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.random(100)
        labels = rng.integers(0, 2, 100)
        labels[0], labels[1] = 0, 1
        a = auc(scores, labels)
        assert auc(np.exp(3 * scores), labels) == pytest.approx(a, abs=1e-12)

    def test_single_class_signaled(self):
        with pytest.raises(SingleClassError):
            auc([0.1, 0.9], [1, 1])


class TestRmse:
    def test_exact_predictions(self):
        assert rmse([1.0, 0.0, 1.0], [1, 0, 1]) == 0.0

    def test_constant_half(self):
        assert rmse([0.5] * 4, [1, 0, 1, 0]) == 0.5

    def test_hand_arithmetic(self):
        assert rmse([0.8, 0.3], [1, 0]) == pytest.approx(np.sqrt(0.065), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse([], [])


class TestConfig:
    def test_defaults_valid(self):
        assert ExperimentConfig().validate() == []

    def test_feature_set_composition(self):
        assert FEATURE_SETS["ikt1"] == ("skill", "mastery")
        assert FEATURE_SETS["ikt2"] == FEATURE_SETS["ikt1"] + ("profile",)
        assert FEATURE_SETS["ikt3"] == FEATURE_SETS["ikt2"] + ("difficulty",)

    def test_validation_lists_every_problem(self):
        errors = ExperimentConfig(clusters=0, folds=1, feature_set="bogus").validate()
        text = "\n".join(errors)
        assert "clusters" in text and "folds" in text and "feature_set" in text
        assert len(errors) == 3


@pytest.fixture(scope="module")
def small_data():
    rows, params = mastery_process_rows(n_students=30, n_skills=4, attempts=60, seed=2)
    return to_dataset(rows), params


def fold_tables(data, fold_id, held_out, config):
    train_data = data.restricted_to(held_out != fold_id)
    artifacts = fit_artifacts(train_data, config, fold_id)
    return artifacts, build_feature_rows(artifacts, train_data,
                                         data.restricted_to(held_out == fold_id))


def students_of(data, chosen):
    return {s for s, c in zip(data.by_student, chosen.tolist()) if c}


class TestFoldPipeline:
    def test_first_attempt_row_uses_l0_and_initial_profile(self, small_data):
        data, _ = small_data
        config = ExperimentConfig(seed=1)
        held_out = split_folds(data, k=5, seed=1)
        artifacts, (train, test) = fold_tables(data, 0, held_out, config)
        for table in (train, test):
            first_rows = np.nonzero(table.position == 0)[0]
            for r in first_rows:
                skill_id = [k for k, v in artifacts.skill_index.items()
                            if v == table.skill[r]][0]
                assert table.mastery[r] == artifacts.params_by_skill[skill_id].l0
                assert table.profile[r] == 1

    def test_row_count_matches_interactions(self, small_data):
        data, _ = small_data
        config = ExperimentConfig(seed=1)
        held_out = split_folds(data, k=5, seed=1)
        _, (train, test) = fold_tables(data, 0, held_out, config)
        n_train = sum(data.by_student[s].stop - data.by_student[s].start
                      for s in students_of(data, held_out != 0))
        n_test = sum(data.by_student[s].stop - data.by_student[s].start
                     for s in students_of(data, held_out == 0))
        assert len(train) == n_train
        assert len(test) == n_test

    def test_unseen_problem_gets_default_difficulty(self):
        # two students get private tail problems that no fold's training
        # side can table (fewer than 4 attempting students overall)
        rows, _ = mastery_process_rows(n_students=30, n_skills=4, attempts=60, seed=2)
        for extra in range(10):
            rows.append(("u000", f"rare_{extra}", "s0", extra % 2))
            rows.append(("u001", f"rare_{extra}", "s0", 1))
        data = to_dataset(rows)
        config = ExperimentConfig(seed=1)
        found = 0
        held_out = split_folds(data, k=5, seed=1)
        for fold_id in range(5):
            artifacts, (_, test) = fold_tables(data, fold_id, held_out, config)
            test_data = data.restricted_to(held_out == fold_id)  # the table's rows
            names = list(test_data.problem_index)
            for i, code in enumerate(test_data.problem.tolist()):
                if names[code] not in artifacts.difficulty.levels:
                    found += 1
                    assert test.difficulty[i] == 5
        assert found > 0

    def test_no_test_leakage_into_artifacts(self, small_data):
        data, _ = small_data
        config = ExperimentConfig(seed=1)
        tested = students_of(data, split_folds(data, k=5, seed=1) == 1)
        # flip every test-student answer; the fold's artifacts must not move
        flipped = to_dataset([(s, p, k, 1 - c if s in tested else c)
                              for s, p, k, c in records(data)])
        # through evaluate, whose BKT fit covers every fold's students at once
        full = evaluate_feature_sets(data, config, ["ikt3"])[1][1].artifacts
        altered = evaluate_feature_sets(flipped, config, ["ikt3"])[1][1].artifacts
        assert full.skill_index == altered.skill_index
        assert full.params_by_skill == altered.params_by_skill
        assert full.fallback == altered.fallback
        assert np.array_equal(full.clusters.centroids, altered.clusters.centroids)
        assert full.difficulty.levels == altered.difficulty.levels

    def test_skill_outside_vocabulary_gets_fallback(self, small_data):
        data, _ = small_data
        config = ExperimentConfig(seed=1)
        artifacts = fit_artifacts(data, config)
        rows = [("new", f"q{i}", "s_new" if i % 2 else "s0", i % 3 == 0)
                for i in range(45)]
        table, = build_feature_rows(artifacts, to_dataset(rows))
        unseen = table.skill == len(artifacts.skill_index)
        assert unseen.tolist() == [bool(i % 2) for i in range(45)]
        assert table.mastery[1] == artifacts.fallback.l0
        assert table.profile[20:].min() >= 2  # the unseen slot adds no dimension


# 0 and 1 make responses the model deems impossible (zero evidence)
PROBABILITY = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def artifacts_and_log(draw):
    """Artifacts over skills k0..k3 and problems q0..q5, and a log that
    also holds skills k4, k5 and problems q6, q7 outside them."""
    vocabulary = draw(st.permutations([f"k{i}" for i in range(4)]))
    vocabulary = vocabulary[:draw(st.integers(0, 4))]
    params = {k: BktParams(*(draw(PROBABILITY) for _ in range(4))) for k in vocabulary}
    centroids = draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=len(vocabulary),
                                       max_size=len(vocabulary)), max_size=3))
    levels = draw(st.dictionaries(st.sampled_from([f"q{i}" for i in range(6)]),
                                  st.integers(0, 10)))
    attempts = st.tuples(st.integers(0, 7), st.integers(0, 5), st.integers(0, 1))
    students = draw(st.lists(st.lists(attempts, min_size=1, max_size=30),
                             min_size=1, max_size=5))
    rows = [(f"u{u}", f"q{q}", f"k{k}", c)
            for u, log in enumerate(students) for q, k, c in log]
    artifacts = FoldArtifacts(
        params_by_skill=params,
        clusters=ClusterModel(centroids=np.array(centroids).reshape(len(centroids),
                                                                    len(vocabulary))),
        difficulty=DifficultyTable(levels=levels), interval_len=draw(st.integers(1, 6)))
    return artifacts, to_dataset(rows)


class TestFeatureRowsOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=artifacts_and_log())
    def test_columns_equal_the_per_attempt_replay(self, case):
        artifacts, data = case
        table, = build_feature_rows(artifacts, data)
        want = feature_rows_oracle(artifacts, artifacts.interval_len, data)
        for name, column in want.items():
            assert getattr(table, name).tolist() == column, name


class TestRunCv:
    def test_reports_are_bit_identical_across_runs(self, small_data):
        data, _ = small_data
        config = ExperimentConfig(seed=4)
        a = evaluate_feature_sets(data, config, ["ikt3"])[0]["ikt3"]
        b = evaluate_feature_sets(data, config, ["ikt3"])[0]["ikt3"]
        assert a.render_kv() == b.render_kv()
        assert a.render_text() == b.render_text()

    def test_fold_without_scored_rows_raises(self, small_data):
        # every student's 60 attempts fall in the skipped first interval
        data, _ = small_data
        config = ExperimentConfig(interval_len=100, skip_first_interval=True)
        with pytest.raises(SingleClassError, match="^fold 0: the scored test labels hold "
                           "fewer than two classes, so AUC is undefined; use fewer folds$"):
            evaluate_feature_sets(data, config, ["ikt3"])

    def test_parallel_workers_match_sequential(self, small_data):
        data, _ = small_data
        seq, seq_out = evaluate_feature_sets(data, ExperimentConfig(seed=4, workers=1),
                                             FEATURE_SETS)
        par, par_out = evaluate_feature_sets(data, ExperimentConfig(seed=4, workers=2),
                                             FEATURE_SETS)
        for fs in FEATURE_SETS:
            assert seq[fs].render_kv() == par[fs].render_kv()
        for a, b in zip(seq_out, par_out, strict=True):
            assert a.fold_id == b.fold_id
            assert list(a.test_data.by_student) == list(b.test_data.by_student)
            assert list(a.artifacts.params_by_skill.items()) == \
                list(b.artifacts.params_by_skill.items())
            for fs in FEATURE_SETS:
                assert_same_model(a.models[fs], b.models[fs])

    def test_pool_is_capped_at_the_number_of_folds(self, small_data, monkeypatch):
        # under fork every worker starts up front, so idle ones would be
        # forked for nothing; the fake starts no process
        made = []

        class FakePool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        import concurrent.futures
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        data, _ = small_data
        par = evaluate_feature_sets(data, ExperimentConfig(seed=4, workers=50), ["ikt3"])[0]
        seq = evaluate_feature_sets(data, ExperimentConfig(seed=4), ["ikt3"])[0]
        assert made == [5]
        assert par["ikt3"].render_kv() == seq["ikt3"].render_kv()

    def test_mean_is_arithmetic_mean_of_folds(self, small_data):
        data, _ = small_data
        report = evaluate_feature_sets(data, ExperimentConfig(seed=4), ["ikt3"])[0]["ikt3"]
        assert report.mean_auc == pytest.approx(np.mean(report.fold_auc), abs=1e-15)
        assert report.mean_rmse == pytest.approx(np.mean(report.fold_rmse), abs=1e-15)

    def test_skip_first_interval_reduces_scored_rows(self, small_data):
        data, _ = small_data
        full, _ = evaluate_feature_sets(data, ExperimentConfig(seed=4), ["ikt3"])
        skipped, _ = evaluate_feature_sets(
            data, ExperimentConfig(seed=4, skip_first_interval=True), ["ikt3"])
        assert skipped["ikt3"].n_total < full["ikt3"].n_total

    def test_invalid_config_rejected(self, small_data):
        data, _ = small_data
        with pytest.raises(ValueError, match="clusters"):
            evaluate_feature_sets(data, ExperimentConfig(clusters=0), ["ikt3"])


def assert_same_model(a, b):
    assert a.discretizer.cutpoints == b.discretizer.cutpoints
    assert a.features == b.features
    assert a.structure.parent == b.structure.parent
    assert a.domains.keys() == b.domains.keys()
    assert all(np.array_equal(a.domains[f], b.domains[f]) for f in a.features)
    assert a.cpts.keys() == b.cpts.keys()
    assert all(np.array_equal(a.cpts[f], b.cpts[f]) for f in a.features)
    assert np.array_equal(a.class_prior, b.class_prior)


def reference_fold_params(data, trained, grid):
    """``fit_skill`` on each skill's sequences among the fold's training
    students, flagged by ``trained``, gathered row by row, keyed in the
    training skill order."""
    train_students = students_of(data, trained)
    seqs: dict = {}
    for student, _, skill, correct in records(data):
        if student in train_students:
            seqs.setdefault(skill, {}).setdefault(student, []).append(correct)
    train = data.restricted_to(trained)
    return {skill: fit_skill(list(seqs[skill].values()), grid)[0]
            for skill in train.skill_index}


class TestSharedFits:
    """Evaluate fits BKT once for all folds and the nested TANs once per
    fold; each result must equal the fold's own independent fit."""

    @pytest.fixture(scope="class")
    def data(self):
        rows, _ = mastery_process_rows(n_students=30, n_skills=4, attempts=40, seed=3)
        # a skill that one student alone attempts, so one fold's test side
        # holds all of it, and an s0 pattern that no other student shows
        rows += [("u_solo", f"solo_{i}", "s_solo", i % 2) for i in range(6)]
        odd = [1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 1, 1, 1, 1, 0, 1, 0, 0, 1]
        rows += [("u_odd", f"odd_{i}", "s0", c) for i, c in enumerate(odd)]
        data = to_dataset(rows)
        s0 = [tuple(c for u, _, k, c in records(data) if k == "s0" and u == student)
              for student in data.by_student]
        assert s0.count(tuple(odd)) == 1
        return data

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bkt_params_equal_each_folds_own_fit(self, data, seed):
        # the columns evaluate passes, one per fold, and then fit's, in
        # which every student weighs 1
        config = ExperimentConfig(seed=seed)
        held_out = split_folds(data, k=config.folds, seed=seed)
        folds = held_out[:, None] != np.arange(config.folds)
        shared = (skill_params(data, folds, config)
                  + skill_params(data, np.ones((len(held_out), 1)), config))
        assert len(shared) == config.folds + 1
        for trained, params in zip(list(folds.T) + [np.ones(len(held_out), dtype=bool)],
                                   shared):
            want = reference_fold_params(data, trained, config.fit_grid())
            assert params == want
            assert list(params) == list(data.restricted_to(trained).skill_index)
            assert ("s_solo" in params) == ("u_solo" in students_of(data, trained))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nested_tans_equal_independent_fits(self, data, seed):
        config = ExperimentConfig(seed=seed)
        _, outputs = evaluate_feature_sets(data, config, FEATURE_SETS)
        for output in outputs:
            train_data = data.restricted_to(split_folds(data, k=config.folds, seed=seed)
                                            != output.fold_id)
            train, = build_feature_rows(output.artifacts, train_data)
            for fs, feats in FEATURE_SETS.items():
                alone = tan.fit_tan(train.columns(feats), train.label, alpha=config.alpha)
                assert_same_model(output.models[fs], alone)


class TestAblation:
    def test_folds_shared_across_variants(self, small_data):
        data, _ = small_data
        reports, _ = evaluate_feature_sets(data, ExperimentConfig(seed=5), FEATURE_SETS)
        digests = {r.fold_digest for r in reports.values()}
        assert len(digests) == 1
        ns = {tuple(r.fold_n) for r in reports.values()}
        assert len(ns) == 1

    def test_fold_digest_hashes_each_folds_sorted_test_ids(self):
        # ids reversed, so the log meets its students out of sorted order
        rows, _ = mastery_process_rows(n_students=12, n_skills=2, attempts=20, seed=2)
        data = to_dataset([(s[::-1], p, k, c) for s, p, k, c in rows])
        assert list(data.by_student) != sorted(data.by_student)
        report = evaluate_feature_sets(data, ExperimentConfig(seed=5), ["ikt1"])[0]["ikt1"]
        held_out = split_folds(data, k=5, seed=5).tolist()
        text = "".join(f"fold{f}:" + ",".join(sorted(s for s, g in zip(data.by_student, held_out)
                                                     if g == f)) + ";" for f in range(5))
        assert report.fold_digest == hashlib.sha256(text.encode()).hexdigest()

    def test_feature_ordering_on_difficulty_driven_data(self):
        data = to_dataset(mixed_process_rows(n_students=60, n_skills=5,
                                             attempts=100, seed=4))
        reports, _ = evaluate_feature_sets(data, ExperimentConfig(seed=3), FEATURE_SETS)
        auc1 = reports["ikt1"].mean_auc
        auc2 = reports["ikt2"].mean_auc
        auc3 = reports["ikt3"].mean_auc
        assert auc1 < auc2 < auc3
        assert auc3 - auc2 >= 0.05

    def test_single_run_matches_ablation_member(self, small_data):
        data, _ = small_data
        config = ExperimentConfig(seed=6, feature_set="ikt2")
        alone, _ = evaluate_feature_sets(data, config, ["ikt2"])
        together, _ = evaluate_feature_sets(data, config, FEATURE_SETS)
        assert alone["ikt2"].render_kv() == together["ikt2"].render_kv()


class TestPipelineSanity:
    def test_mastery_process_beats_chance(self):
        rows, _ = mastery_process_rows(n_students=50, n_skills=5, attempts=100,
                                       seed=11)
        reports, _ = evaluate_feature_sets(to_dataset(rows), ExperimentConfig(seed=3),
                                           ["ikt1"])
        assert reports["ikt1"].mean_auc > 0.65

    def test_shuffled_labels_near_chance(self):
        rows, _ = mastery_process_rows(n_students=50, n_skills=5, attempts=100,
                                       seed=11)
        shuffled = to_dataset(shuffle_labels(rows, seed=2))
        reports, _ = evaluate_feature_sets(shuffled, ExperimentConfig(seed=3), ["ikt1"])
        assert 0.47 <= reports["ikt1"].mean_auc <= 0.53
