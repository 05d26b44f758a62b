import itertools
import math

import numpy as np
import pytest

from ikt.bkt import (BktParams, FitGrid, NoSkillDataError, _segment_len, fit_all_skills,
                     fit_skill, grid_log_likelihoods, mean_params)

from oracles import MasteryTracker, forward_oracle, simulate_bkt
from synth import bundle_round_trip, mastery_process_rows


def updated(params, obs):
    """The tracker's belief after one response."""
    state = MasteryTracker(params)
    state.update(obs)
    return state


def trace(params, responses):
    """Tracker priors before each response, as feature-row replay reads them."""
    state = MasteryTracker(params)
    out = []
    for r in responses:
        out.append(state.prior)
        state.update(r)
    return np.array(out)


def grid_point(grid, idx):
    return BktParams(float(grid.l0_values[idx[0]]), float(grid.t_values[idx[1]]),
                     float(grid.g_values[idx[2]]), float(grid.s_values[idx[3]]))


def segment_len(grid):
    return _segment_len(grid.t_values, grid.g_values, grid.s_values)


def assert_matches_oracle(grid, seqs, rng, n_random=4, corner_stride=1):
    """Grid totals at the grid's corners (every ``corner_stride``-th) and
    at random points equal the summed ``forward_oracle`` log-likelihoods."""
    total = grid_log_likelihoods(seqs, grid)
    corners = list(itertools.product(*[(0, n - 1) for n in total.shape]))
    randoms = [tuple(int(rng.integers(n)) for n in total.shape) for _ in range(n_random)]
    for idx in corners[::corner_stride] + randoms:
        want = sum(forward_oracle(grid_point(grid, idx), s)[1] for s in seqs)
        assert total[idx] == pytest.approx(want, abs=1e-9), idx


# the default grid, and one whose smallest factor (0.1) gives another segment length
GRIDS = [FitGrid(), FitGrid(step=0.1, guess_cap=0.2, slip_cap=0.25)]


class TestPosterior:
    # with t = 0 the tracker's update is the bare posterior

    def test_no_guess_correct_proves_mastery(self):
        state = updated(BktParams(l0=0.3, t=0.1, g=0.0, s=0.0), 1)
        assert state.prior == 1.0 and state.coprior == 0.0

    def test_correct_update(self):
        p = BktParams(l0=0.5, t=0.0, g=0.2, s=0.1)
        assert updated(p, 1).prior == pytest.approx(0.45 / 0.55, abs=1e-12)

    def test_incorrect_update(self):
        p = BktParams(l0=0.5, t=0.0, g=0.2, s=0.1)
        assert updated(p, 0).prior == pytest.approx(0.05 / 0.45, abs=1e-12)

    def test_degenerate_denominator_returns_prior(self):
        # a correct answer has probability zero: no usable evidence, so
        # only the learning step moves the belief
        state = updated(BktParams(l0=0.0, t=0.1, g=0.0, s=0.0), 1)
        assert state.prior == pytest.approx(0.1, abs=1e-15)
        assert state.coprior == pytest.approx(0.9, abs=1e-15)
        # a wrong answer from a surely learned, never-slipping student
        assert updated(BktParams(l0=1.0, t=0.1, g=0.2, s=0.0), 0).prior == 1.0

    def test_ordering_when_noise_below_half(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            g, s = rng.uniform(0.01, 0.49, 2)
            prior = float(rng.uniform(0.01, 0.99))
            p = BktParams(l0=prior, t=0.0, g=float(g), s=float(s))
            assert updated(p, 1).prior >= prior >= updated(p, 0).prior


class TestAdvance:
    # with g = s = 0.5 a response carries no evidence, so the tracker's
    # update is the bare learning step

    def test_mastery_absorbing(self):
        assert updated(BktParams(1.0, 0.7, 0.5, 0.5), 1).prior == 1.0

    def test_zero_posterior(self):
        assert updated(BktParams(0.0, 0.2, 0.5, 0.5), 0).prior == pytest.approx(0.2)

    def test_half_posterior(self):
        assert updated(BktParams(0.5, 0.1, 0.5, 0.5), 1).prior == pytest.approx(0.55)

    def test_monotone_and_never_decreasing(self):
        rng = np.random.default_rng(1)
        posts = np.sort(rng.uniform(0, 1, 100))
        advanced = [updated(BktParams(float(x), 0.3, 0.5, 0.5), 0).prior for x in posts]
        assert all(a >= x for a, x in zip(advanced, posts))
        assert all(b >= a for a, b in zip(advanced, advanced[1:]))


class TestTrace:
    def test_single_response_is_l0(self):
        p = BktParams(0.37, 0.2, 0.1, 0.05)
        assert trace(p, [1]).tolist() == [0.37]

    def test_two_step_chain(self):
        p = BktParams(0.5, 0.1, 0.2, 0.1)
        tr = trace(p, [1, 0])
        assert tr[0] == pytest.approx(0.5, abs=1e-12)
        # posterior 0.45/0.55 then one learning step
        expected = 0.45 / 0.55 + (1 - 0.45 / 0.55) * 0.1
        assert tr[1] == pytest.approx(expected, abs=1e-12)

    def test_entries_are_probabilities(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = BktParams(*(float(v) for v in rng.uniform(0.05, 0.95, 4)))
            tr = trace(p, rng.integers(0, 2, 30))
            assert np.all(tr >= 0.0) and np.all(tr <= 1.0)

    def test_empty_rejected(self):
        with pytest.raises(NoSkillDataError):
            grid_log_likelihoods([], FitGrid())
        with pytest.raises(NoSkillDataError):
            grid_log_likelihoods([[]], FitGrid())


class TestSequenceLogLikelihood:
    def test_single_emission(self):
        # l0 = 0.5, g = 0.2, s = 0.1; t does not act on a single response
        total = grid_log_likelihoods([[1]], FitGrid())
        assert np.allclose(total[9, :, 3, 1], math.log(0.55), atol=1e-12, rtol=0)

    def test_order_sensitivity(self):
        grid = FitGrid()
        assert not np.array_equal(grid_log_likelihoods([[1, 0]], grid),
                                  grid_log_likelihoods([[0, 1]], grid))

    def test_matches_forward_oracle(self):
        rng = np.random.default_rng(3)
        grid = FitGrid()
        for _ in range(20):
            seqs = [list(rng.integers(0, 2, rng.integers(1, 51)))
                    for _ in range(int(rng.integers(1, 6)))]
            total = grid_log_likelihoods(seqs, grid)
            for _ in range(10):
                idx = tuple(int(rng.integers(n)) for n in total.shape)
                p = grid_point(grid, idx)
                want = sum(forward_oracle(p, s)[1] for s in seqs)
                assert total[idx] == pytest.approx(want, abs=1e-9)

    def test_matches_forward_oracle_across_chunks(self):
        # more unique patterns than one 256-pattern chunk, lengths 1-80 so
        # most steps mask finished patterns, and repeats weighted by count
        rng = np.random.default_rng(8)
        seqs = [list(rng.integers(0, 2, rng.integers(1, 81))) for _ in range(270)]
        seqs += seqs[:15]
        assert len({tuple(s) for s in seqs}) > 256
        grid = FitGrid()
        total = grid_log_likelihoods(seqs, grid)
        corners = list(itertools.product(*[(0, n - 1) for n in total.shape]))
        randoms = [tuple(int(rng.integers(n)) for n in total.shape) for _ in range(4)]
        for idx in corners + randoms:
            want = sum(forward_oracle(grid_point(grid, idx), s)[1] for s in seqs)
            assert total[idx] == pytest.approx(want, abs=1e-9)

    def test_matches_forward_oracle_on_long_patterns(self):
        # several segments each; unscaled, the likelihood of 1000 steps
        # would underflow
        rng = np.random.default_rng(9)
        seqs = [list(rng.integers(0, 2, 1000)), list(rng.integers(0, 2, 700))]
        assert_matches_oracle(FitGrid(), seqs, rng)

    @pytest.mark.parametrize("grid", GRIDS, ids=["default", "step_0.1"])
    def test_matches_forward_oracle_at_segment_boundaries(self, grid):
        # one chunk whose patterns end just before, at and just after a
        # segment boundary, and one step into the third segment
        k = segment_len(grid)
        rng = np.random.default_rng(10)
        seqs = [list(rng.integers(0, 2, n)) for n in (k - 1, k, k + 1, 2 * k + 1)]
        assert_matches_oracle(grid, seqs, rng)

    def test_matches_forward_oracle_over_mixed_lengths_and_segments(self):
        # two chunks of patterns that run out at different steps of
        # different segments
        rng = np.random.default_rng(11)
        k = segment_len(FitGrid())
        seqs = [list(rng.integers(0, 2, rng.integers(1, 2 * k + 20))) for _ in range(270)]
        seqs += seqs[:10]
        assert len({tuple(s) for s in seqs}) > 256
        assert_matches_oracle(FitGrid(), seqs, rng, n_random=2, corner_stride=5)


class TestSegmentLen:
    @pytest.mark.parametrize("grid", GRIDS, ids=["default", "step_0.1"])
    def test_largest_length_whose_terms_stay_normal(self, grid):
        values = np.concatenate([grid.t_values, grid.g_values, grid.s_values])
        f_min = min(values.min(), 1.0 - values.max())
        floor = np.finfo(float).tiny / np.finfo(float).eps
        k = segment_len(grid)
        assert f_min ** (2 * k) >= floor > f_min ** (2 * k + 2)

    def test_depends_on_the_grid(self):
        assert [segment_len(grid) for grid in GRIDS] == [112, 145]

    def test_grid_reaching_one_rejected(self):
        with pytest.raises(ValueError, match="grid value"):
            grid_log_likelihoods([[1, 0]], FitGrid(guess_cap=0.99))


class TestMasteryTracker:
    def test_matches_forward_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = BktParams(float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95)),
                          float(rng.uniform(0.01, 0.30)), float(rng.uniform(0.01, 0.30)))
            seq = list(rng.integers(0, 2, rng.integers(1, 51)))
            tr_o, _ = forward_oracle(p, seq)
            assert np.max(np.abs(trace(p, seq) - tr_o)) < 1e-12


class TestFitSkill:
    def test_grid_values(self):
        grid = FitGrid()
        assert grid.l0_values[0] == pytest.approx(0.05)
        assert grid.l0_values[-1] == pytest.approx(0.95)
        assert len(grid.l0_values) == 19
        assert len(grid.g_values) == 6
        assert grid.g_values[-1] == pytest.approx(0.30)

    def test_grid_axes_built_once_and_read_only(self):
        grid = FitGrid(step=0.1, guess_cap=0.2, slip_cap=0.25)
        for name in ("l0_values", "t_values", "g_values", "s_values"):
            values = getattr(grid, name)
            assert getattr(grid, name) is values
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 0.5
        assert grid == FitGrid(step=0.1, guess_cap=0.2, slip_cap=0.25)

    def test_grid_likelihood_matches_sequential(self):
        rng = np.random.default_rng(4)
        grid = FitGrid()
        seqs = [list(rng.integers(0, 2, rng.integers(1, 25))) for _ in range(30)]
        total = grid_log_likelihoods(seqs, grid)
        for idx in [(0, 0, 0, 0), (18, 18, 5, 5), (7, 3, 1, 4)]:
            direct = sum(forward_oracle(grid_point(grid, idx), s)[1] for s in seqs)
            assert total[idx] == pytest.approx(direct, abs=1e-8)

    def test_all_correct_pushes_l0_to_grid_max(self):
        fitted = fit_skill([[1] * 20 for _ in range(30)])
        assert fitted.l0 == pytest.approx(0.95)

    def test_single_short_sequence_deterministic(self):
        a = fit_skill([[1]])
        b = fit_skill([[1]])
        assert a == b
        # every lone [1] likelihood is t-independent; ties resolve low
        assert a.t == pytest.approx(0.05)

    def test_order_invariance(self):
        rng = np.random.default_rng(5)
        seqs = [list(rng.integers(0, 2, rng.integers(1, 30))) for _ in range(40)]
        fitted = fit_skill(seqs)
        shuffled = [seqs[i] for i in rng.permutation(len(seqs))]
        assert fit_skill(shuffled) == fitted

    def test_recovery_within_one_step(self):
        rng = np.random.default_rng(6)
        true = BktParams(0.40, 0.15, 0.25, 0.10)
        fitted = fit_skill(simulate_bkt(true, 500, 50, rng))
        for name in ("l0", "t", "g", "s"):
            assert abs(getattr(fitted, name) - getattr(true, name)) <= 0.05 + 1e-9

    def test_fit_all_skills_pinned(self):
        # literals recorded with the batched 2x2 matrix-product forward
        # pass; each skill has over 256 unique patterns of mixed lengths
        rows, _ = mastery_process_rows(n_students=500, n_skills=3, attempts=60, seed=7)
        keep = np.random.default_rng(7).integers(1, 61, 500)
        seqs: dict = {}
        for i, (student, _, skill, correct) in enumerate(rows):
            if i % 60 < keep[i // 60]:
                seqs.setdefault(skill, {}).setdefault(student, []).append(correct)
        fitted = fit_all_skills({k: list(v.values()) for k, v in seqs.items()})
        assert fitted == {"s0": BktParams(l0=0.4, t=0.15, g=0.2, s=0.05),
                          "s1": BktParams(l0=0.3, t=0.15, g=0.1, s=0.1),
                          "s2": BktParams(l0=0.4, t=0.1, g=0.15, s=0.05)}

    def test_no_data(self):
        with pytest.raises(NoSkillDataError):
            fit_skill([])
        with pytest.raises(NoSkillDataError):
            fit_skill([[], []])


class TestWeightedColumns:
    """One forward pass serves several fits, one weight column each."""

    def test_columns_equal_fits_of_their_weighted_sequences(self):
        rng = np.random.default_rng(9)
        seqs = [list(rng.integers(0, 2, rng.integers(1, 30))) for _ in range(40)]
        seqs += [[], seqs[0]]
        weights = rng.integers(0, 3, (len(seqs), 4)).astype(float)
        weights[:, 3] = 0.0
        weights[-2, 3] = 1.0  # the empty sequence alone: no data for column 3
        fits = fit_skill(seqs, FitGrid(), weights)
        assert len(fits) == 4 and fits[3] is None
        for f in range(3):
            # weight w counts as w copies of the sequence
            repeated = [s for s, w in zip(seqs, weights[:, f].tolist()) for _ in range(int(w))]
            assert fits[f] == fit_skill(repeated)

    def test_totals_match_the_oracle_per_column(self):
        rng = np.random.default_rng(10)
        seqs = [list(rng.integers(0, 2, rng.integers(1, 40))) for _ in range(12)]
        weights = rng.integers(0, 2, (len(seqs), 3)).astype(float)
        grid = FitGrid()
        total = grid_log_likelihoods(seqs, grid, weights)
        assert total.shape == (19, 19, 6, 6, 3)
        for idx in [(0, 0, 0, 0), (18, 18, 5, 5), (7, 3, 1, 4)]:
            p = grid_point(grid, idx)
            want = [sum(w * forward_oracle(p, s)[1] for s, w in zip(seqs, weights[:, f]))
                    for f in range(3)]
            assert total[idx] == pytest.approx(want, abs=1e-9)

    def test_fit_all_skills_returns_each_skills_columns(self):
        seqs = {"a": [[1, 0, 1], [0, 0]], "b": [[1, 1]], "c": [[]]}
        weights = {"a": np.array([[1.0, 0.0], [1.0, 1.0]]), "b": np.array([[0.0, 1.0]]),
                   "c": np.ones((1, 2))}
        fitted = fit_all_skills(seqs, FitGrid(), weights)
        assert list(fitted) == ["a", "b"]
        assert fitted["a"] == [fit_skill([[1, 0, 1], [0, 0]]), fit_skill([[0, 0]])]
        assert fitted["b"] == [None, fit_skill([[1, 1]])]


class TestParamsTable:
    def test_round_trip(self, tmp_path):
        params = {"s1": BktParams(0.35, 0.1, 0.25, 0.05),
                  "s2": BktParams(0.6, 0.2, 0.1, 0.1)}
        loaded = bundle_round_trip(tmp_path, params).params_by_skill
        assert set(loaded) == {"s1", "s2"}
        assert loaded["s1"].l0 == pytest.approx(0.35)

    def test_fixed_decimal_format(self, tmp_path):
        bundle_round_trip(tmp_path, {"sk": BktParams(0.3, 0.1, 0.2, 0.05)})
        line = (tmp_path / "bkt_params.tsv").read_text().splitlines()[1]
        assert line == "sk\t0.300000\t0.100000\t0.200000\t0.050000"


class TestMeanParams:
    def test_unweighted_mean(self):
        m = mean_params([BktParams(0.2, 0.1, 0.1, 0.1), BktParams(0.4, 0.3, 0.2, 0.2)])
        assert m.l0 == pytest.approx(0.3)
        assert m.t == pytest.approx(0.2)
        assert m.g == pytest.approx(0.15)
        assert m.s == pytest.approx(0.15)
