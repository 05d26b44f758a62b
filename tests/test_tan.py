import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ikt.tan import (Discretizer, TanModel, TanStructure, _log_odds, estimate_cpts,
                     explain, fit_discretizer, fit_nested_tans, fit_tan, learn_structure,
                     load_model, max_spanning_parents, mdlp_cutpoints, predict_many,
                     save_model)

from oracles import (enumerate_spanning_tree_weights, explain_oracle, joint_oracle,
                     random_tan_model)


# ---------------------------------------------------------------------------
# oracles

def entropy_bits(labels):
    labels = np.asarray(labels)
    h = 0.0
    for c in np.unique(labels):
        p = (labels == c).mean()
        h -= p * math.log2(p)
    return h


def best_cut_by_scan(values, labels):
    """Exhaustive candidate scan: the cut with maximal information gain."""
    order = np.argsort(values, kind="stable")
    v, y = np.asarray(values)[order], np.asarray(labels)[order]
    n = len(v)
    best = (-1.0, None)
    for i in range(n - 1):
        if v[i] == v[i + 1]:
            continue
        gain = entropy_bits(y) - ((i + 1) / n * entropy_bits(y[:i + 1])
                                  + (n - i - 1) / n * entropy_bits(y[i + 1:]))
        if gain > best[0]:
            best = (gain, (v[i] + v[i + 1]) / 2.0)
    return best


def coded(columns):
    """Each discretized column as the (domain, codes) pair the fitting
    steps take: its sorted distinct values and each entry's index."""
    return {f: np.unique(np.asarray(c, dtype=int), return_inverse=True)
            for f, c in columns.items()}


def cmi(a, b, y):
    """I(a; b | y) as ``learn_structure`` weighs the edge between a and b."""
    return learn_structure(coded({"a": a, "b": b}), y).weight[0, 1]


def posterior(model, evidence):
    return explain(model, evidence).posterior


def uniform_model(prior=(0.5, 0.5), cpt_b=None):
    feats = ("a", "b")
    return TanModel(
        structure=TanStructure(features=feats, parent={"a": None, "b": "a"}),
        domains={"a": np.arange(3), "b": np.arange(2)},
        class_prior=np.array(prior, dtype=float),
        cpts={"a": np.full((3, 1, 2), 1 / 3),
              "b": np.full((2, 3, 2), 1 / 2) if cpt_b is None else cpt_b},
        discretizer=Discretizer(),
        alpha=1.0,
    )


@st.composite
def tree_models_and_rows(draw, continuous=False):
    """A small model whose tree joins its nodes in a drawn order, so a
    parent may come later in the feature tuple, with integer domains
    holding gaps and negative values, and rows of values drawn in and
    out of every domain. With ``continuous``, each node may also be
    continuous, with zero or more cutpoints and float row values."""
    n = draw(st.integers(2, 5))
    features = tuple(f"f{i}" for i in range(n))
    joined = draw(st.permutations(features))
    parent = {joined[0]: None}
    for j in range(1, n):
        parent[joined[j]] = joined[draw(st.integers(0, j - 1))]
    domains = {f: np.array(sorted(draw(st.sets(st.integers(-4, 4), min_size=1,
                                               max_size=4)))) for f in features}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cpts = {}
    for f in features:
        p = len(domains[parent[f]]) if parent[f] is not None else 1
        cpt = rng.random((len(domains[f]), p, 2)) + 0.01
        cpts[f] = cpt / cpt.sum(axis=0, keepdims=True)
    prior = rng.random(2) + 0.1
    cutpoints = {}
    if continuous:
        for f in features:
            if draw(st.booleans()):
                cuts = draw(st.sets(st.floats(-6, 6), max_size=3))
                cutpoints[f] = tuple(sorted(cuts))
    model = TanModel(structure=TanStructure(features=features, parent=parent),
                     domains=domains, class_prior=prior / prior.sum(), cpts=cpts,
                     discretizer=Discretizer(cutpoints))
    values = {f: st.floats(-7, 7) if f in cutpoints else st.integers(-6, 6) for f in features}
    rows = draw(st.lists(st.fixed_dictionaries(values), min_size=1, max_size=20))
    return model, rows


def walk_order_out_of_domain(model, row):
    """Each node's own value if outside its domain, else its parent's,
    named once, as the nodes are walked in feature order."""
    outside = {f for f in model.features if row[f] not in model.domains[f]}
    named = []
    for f in model.features:
        bad = [g for g in (f, model.structure.parent[f]) if g in outside]
        if bad and bad[0] not in named:
            named.append(bad[0])
    assert set(named) == outside
    return tuple(named)


# ---------------------------------------------------------------------------

class TestMdlp:
    def test_perfect_separation_single_cut_in_gap(self):
        rng = np.random.default_rng(0)
        low = rng.uniform(0.0, 0.55, 80)
        high = rng.uniform(0.65, 1.0, 80)
        values = np.concatenate([low, high])
        labels = np.concatenate([np.zeros(80, int), np.ones(80, int)])
        cuts = mdlp_cutpoints(values, labels)
        assert len(cuts) == 1
        assert low.max() < cuts[0] < high.min()
        # the accepted cut is the gain-maximizing candidate
        _, oracle_cut = best_cut_by_scan(values, labels)
        assert cuts[0] == pytest.approx(oracle_cut, abs=1e-12)

    def test_random_labels_rejected(self):
        rng = np.random.default_rng(1)
        values = rng.random(500)
        labels = rng.integers(0, 2, 500)
        assert mdlp_cutpoints(values, labels) == []

    def test_constant_column(self):
        assert mdlp_cutpoints(np.full(100, 0.4), np.arange(100) % 2) == []

    def test_cutpoints_strictly_increasing(self):
        rng = np.random.default_rng(2)
        values = rng.random(2000)
        labels = (values > 0.3).astype(int) ^ (values > 0.7).astype(int)
        cuts = mdlp_cutpoints(values, labels)
        assert len(cuts) >= 2
        assert all(a < b for a, b in zip(cuts, cuts[1:]))

    def test_bins_partition_training_values(self):
        rng = np.random.default_rng(3)
        values = rng.random(400)
        labels = (values > 0.5).astype(int)
        disc = fit_discretizer({"mastery": values}, labels)
        bins = disc.transform_column("mastery", values)
        n_bins = len(disc.cutpoints["mastery"]) + 1
        assert bins.min() >= 0 and bins.max() <= n_bins - 1
        assert set(np.unique(bins)) == set(range(n_bins))


class TestConditionalMutualInformation:
    def test_copy_equals_conditional_entropy(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 2, 4000)
        y = rng.integers(0, 2, 4000)
        got = cmi(a, a.copy(), y)
        h = 0.0
        for yy in (0, 1):
            mask = y == yy
            for aa in (0, 1):
                paa = (a[mask] == aa).mean()
                if paa > 0:
                    h -= mask.mean() * paa * math.log(paa)
        assert got == pytest.approx(h, abs=1e-12)

    def test_independent_given_class(self):
        rng = np.random.default_rng(5)
        n = 100_000
        y = rng.integers(0, 2, n)
        a = rng.integers(0, 3, n)
        b = rng.integers(0, 4, n)
        assert cmi(a, b, y) < 0.01

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(6)
        a = rng.integers(0, 5, 3000)
        b = rng.integers(0, 3, 3000)
        y = rng.integers(0, 2, 3000)
        assert cmi(a, b, y) == cmi(b, a, y)

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.integers(0, 4, 200)
            b = rng.integers(0, 4, 200)
            y = rng.integers(0, 2, 200)
            assert cmi(a, b, y) >= -1e-12


class TestLearnStructure:
    def test_three_node_known_weights(self):
        # AB=0.9, BC=0.5, AC=0.1 -> unique maximum tree {AB, BC}
        w = np.array([[0.0, 0.9, 0.1],
                      [0.9, 0.0, 0.5],
                      [0.1, 0.5, 0.0]])
        parent = max_spanning_parents(w)
        edges = {tuple(sorted((j, i))) for j, i in enumerate(parent) if i is not None}
        assert edges == {(0, 1), (1, 2)}

    def test_five_node_weight_is_enumerated_maximum(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            w = rng.random((5, 5))
            w = (w + w.T) / 2
            np.fill_diagonal(w, 0.0)
            parent = max_spanning_parents(w)
            got = sum(w[i][j] for j, i in enumerate(parent) if i is not None)
            assert got == pytest.approx(max(enumerate_spanning_tree_weights(w)), abs=1e-12)

    def test_equal_weights_deterministic_star(self):
        w = np.ones((4, 4))
        np.fill_diagonal(w, 0.0)
        assert max_spanning_parents(w) == [None, 0, 0, 0]

    def test_structure_is_tree_with_class_parent_implicit(self):
        rng = np.random.default_rng(9)
        cols = {f"f{i}": rng.integers(0, 3, 500) for i in range(4)}
        st = learn_structure(coded(cols), rng.integers(0, 2, 500))
        assert [f for f in st.features if st.parent[f] is None] == ["f0"]
        for f in st.features:  # every parent chain ends at the root
            seen = set()
            while f is not None:
                assert f not in seen
                seen.add(f)
                f = st.parent[f]

    def test_needs_two_features(self):
        with pytest.raises(ValueError):
            learn_structure(coded({"only": np.zeros(10, int)}), np.zeros(10, int))


class TestEstimateCpts:
    def test_laplace_counts(self):
        cols = {"b": np.zeros(4, int), "a": np.array([0, 0, 0, 1])}
        labels = np.ones(4, int)
        st = TanStructure(features=("b", "a"), parent={"b": None, "a": "b"})
        model = estimate_cpts(coded(cols), labels, st, alpha=1.0)
        # counts {3,1} in the (b=0, y=1) context, domain size 2
        assert model.cpts["a"][0, 0, 1] == pytest.approx(4 / 6)
        assert model.cpts["a"][1, 0, 1] == pytest.approx(2 / 6)
        # zero observations for y=0 -> uniform
        assert model.cpts["a"][0, 0, 0] == pytest.approx(1 / 2)

    def test_alpha_not_positive_and_finite_raises(self):
        # unsmoothed tables hold zeros, whose log-ratios are infinite
        cols = {"b": np.zeros(4, int), "a": np.array([0, 0, 0, 1])}
        labels = np.ones(4, int)
        st = TanStructure(features=("b", "a"), parent={"b": None, "a": "b"})
        for alpha in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="alpha must be > 0 and finite"):
                estimate_cpts(coded(cols), labels, st, alpha=alpha)

    def test_columns_normalized_and_positive(self):
        rng = np.random.default_rng(10)
        cols = {f"f{i}": rng.integers(0, 4, 300) for i in range(3)}
        labels = rng.integers(0, 2, 300)
        model = fit_tan(cols, labels)
        for f, cpt in model.cpts.items():
            assert np.allclose(cpt.sum(axis=0), 1.0, atol=1e-9)
            assert np.all(cpt > 0.0)


class TestNestedFits:
    @pytest.mark.parametrize("seed", range(4))
    def test_each_model_equals_the_step_by_step_fit(self, seed):
        # fit_nested_tans codes each column once for the CMI matrix and all
        # tables; each step here codes its own columns
        rng = np.random.default_rng(seed)
        n = 400
        labels = rng.integers(0, 2, n)
        columns = {"skill": rng.integers(0, 6, n),
                   "mastery": np.clip(0.4 * labels + rng.random(n) * 0.6, 0, 1),
                   "profile": rng.choice([1, 2, 5, 9], n),
                   "difficulty": labels * rng.integers(0, 3, n) + rng.integers(3, 11, n)}
        for model, size in zip(fit_nested_tans(columns, labels, [2, 3, 4], alpha=0.5),
                               [2, 3, 4]):
            prefix = dict(list(columns.items())[:size])
            disc = fit_discretizer(prefix, labels)
            disc_coded = coded({f: disc.transform_column(f, c) for f, c in prefix.items()})
            want = estimate_cpts(disc_coded, labels, learn_structure(disc_coded, labels),
                                 alpha=0.5, discretizer=disc)
            assert model.discretizer.cutpoints == want.discretizer.cutpoints
            assert model.structure == want.structure
            assert np.array_equal(model.structure.weight, want.structure.weight)
            for f in want.features:
                assert np.array_equal(model.domains[f], want.domains[f])
                assert np.array_equal(model.cpts[f], want.cpts[f])
            assert np.array_equal(model.class_prior, want.class_prior)


class TestPredict:
    def test_uniform_cpts_give_half(self):
        model = uniform_model()
        assert posterior(model, {"a": 1, "b": 0}) == 0.5
        assert predict_many(model, {"a": [1], "b": [0]}).tolist() == [0.5]

    def test_prior_only_inference(self):
        model = uniform_model(prior=(0.3, 0.7))
        assert posterior(model, {"a": 2, "b": 1}) == pytest.approx(0.7, abs=1e-12)
        assert predict_many(model, {"a": [2], "b": [1]})[0] == pytest.approx(0.7, abs=1e-12)

    def test_matches_joint_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            model, sizes = random_tan_model(rng)
            evidence = {f: int(rng.integers(sizes[i]))
                        for i, f in enumerate(model.features)}
            want, mass = joint_oracle(model, evidence)
            assert mass == pytest.approx(1.0, abs=1e-9)
            assert posterior(model, evidence) == pytest.approx(want, abs=1e-9)
            batch = predict_many(model, {f: [v] for f, v in evidence.items()})
            assert batch[0] == pytest.approx(want, abs=1e-9)

    def test_never_exactly_zero_or_one_with_smoothing(self):
        rng = np.random.default_rng(12)
        cols = {"a": rng.integers(0, 3, 60), "b": rng.integers(0, 2, 60)}
        labels = (cols["a"] > 0).astype(int)
        model = fit_tan(cols, labels)
        for a in range(3):
            for b in range(2):
                p = posterior(model, {"a": a, "b": b})
                assert 0.0 < p < 1.0
        grid = predict_many(model, {"a": np.repeat(np.arange(3), 2),
                                    "b": np.tile(np.arange(2), 3)})
        assert np.all((grid > 0.0) & (grid < 1.0))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(13)
        model, sizes = random_tan_model(rng)
        # values one past either end of each domain are out of domain
        cols = {f: rng.integers(-1, sizes[i] + 1, 200)
                for i, f in enumerate(model.features)}
        # and a fitted model whose mastery feature has cutpoints
        n = 600
        fcols = {"skill": rng.integers(0, 4, n), "mastery": rng.random(n),
                 "difficulty": rng.integers(0, 11, n)}
        labels = (rng.random(n) < 0.1 + 0.8 * fcols["mastery"]).astype(int)
        fitted = fit_tan(fcols, labels)
        cuts = fitted.discretizer.cutpoints["mastery"]
        assert cuts
        fcols["mastery"][-3:] = (cuts[0], -0.5, 1.5)
        fcols["difficulty"][:5] = 11  # a level outside the domain
        for m, c in ((model, cols), (fitted, fcols)):
            batch = predict_many(m, c)
            log_odds = _log_odds(m, c)
            for row in range(len(batch)):
                record = explain(m, {f: c[f][row].item() for f in m.features})
                assert batch[row] == pytest.approx(record.posterior, abs=1e-12)
                assert record.log_odds == log_odds[row]

    def test_out_of_domain_uses_uniform_and_flags(self):
        model = uniform_model(prior=(0.4, 0.6))
        record = explain(model, {"a": 99, "b": 0})
        assert record.out_of_domain == ("a",)
        assert record.posterior == pytest.approx(0.6, abs=1e-12)
        assert predict_many(model, {"a": [99], "b": [0]})[0] == pytest.approx(0.6, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(tree_models_and_rows())
    def test_scalar_and_batch_read_one_table(self, drawn):
        # the out-of-domain rule is the table's pad, so both paths add the
        # same terms in the same order: log-odds equal to the last bit
        model, rows = drawn
        log_odds = _log_odds(model, {f: np.array([r[f] for r in rows])
                                     for f in model.features})
        for i, row in enumerate(rows):
            record = explain(model, row)
            assert record.log_odds == log_odds[i]
            assert record.out_of_domain == walk_order_out_of_domain(model, row)

    def test_out_of_domain_names_features_in_walk_order(self):
        # b's parent d comes after c in the tuple; walking b meets d first
        features = ("a", "b", "c", "d")
        parent = {"a": None, "b": "d", "c": "a", "d": "a"}
        model = TanModel(
            structure=TanStructure(features=features, parent=parent),
            domains={f: np.arange(2) for f in features},
            class_prior=np.array([0.4, 0.6]),
            cpts={f: np.full((2, 1 if parent[f] is None else 2, 2), 0.5) for f in features},
            discretizer=Discretizer())
        row = {"a": 0, "b": 1, "c": 7, "d": -1}
        record = explain(model, row)
        assert record.out_of_domain == ("d", "c")
        assert record.log_odds == _log_odds(model, {f: [v] for f, v in row.items()})[0]


class TestExplain:
    def test_uniform_contributions_zero(self):
        record = explain(uniform_model(), {"a": 0, "b": 1})
        assert all(c.log_ratio == 0.0 for c in record.contributions)
        assert record.posterior == 0.5

    def test_contributions_sum_to_log_odds(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            model, sizes = random_tan_model(rng)
            evidence = {f: int(rng.integers(sizes[i]))
                        for i, f in enumerate(model.features)}
            record = explain(model, evidence)
            total = record.prior_log_odds + sum(c.log_ratio for c in record.contributions)
            assert abs(total - record.log_odds) < 1e-12
            for c in record.contributions:  # domains are 0..n-1: value = index
                parent_index = c.parent_value if c.parent_value is not None else 0
                assert c.log_ratio == model.log_ratio[c.feature][c.value, parent_index]
            p = predict_many(model, {f: [v] for f, v in evidence.items()})[0]
            assert record.posterior == pytest.approx(p, abs=1e-12)
            assert record.log_odds == _log_odds(model, {f: [v] for f, v in evidence.items()})[0]

    @settings(max_examples=300, deadline=None)
    @given(tree_models_and_rows(continuous=True))
    def test_matches_the_oracle_bitwise(self, drawn):
        # the oracle reads the probability tables, not the walk explain reads
        model, rows = drawn
        for row in rows:
            got, want = explain(model, row), explain_oracle(model, row)
            # repr tells apart what == does not: -0.0 from 0.0, an int from np.int64
            assert repr(got[1:]) == repr(want[1:])
            assert got.posterior == pytest.approx(want.posterior, abs=1e-15)

    def test_records_are_immutable_and_compare_by_value(self):
        record = explain(uniform_model(), {"a": 0, "b": 1})
        with pytest.raises(AttributeError):
            record.posterior = 1.0
        with pytest.raises(AttributeError):
            record.contributions[0].log_ratio = 1.0
        assert record == explain(uniform_model(), {"a": 0, "b": 1})
        assert record != explain(uniform_model(), {"a": 1, "b": 1})

    def test_dominant_node_has_largest_contribution(self):
        strong = np.empty((2, 3, 2))
        strong[:, :, 1] = np.array([[0.95] * 3, [0.05] * 3])
        strong[:, :, 0] = np.array([[0.05] * 3, [0.95] * 3])
        model = uniform_model(cpt_b=strong)
        record = explain(model, {"a": 0, "b": 0})
        by_feature = {c.feature: abs(c.log_ratio) for c in record.contributions}
        assert by_feature["b"] > by_feature["a"]


class TestSerialization:
    def test_round_trip_exact_bytes_and_predictions(self, tmp_path):
        rng = np.random.default_rng(15)
        cols = {"skill": rng.integers(0, 5, 400), "mastery": rng.random(400),
                "profile": rng.integers(1, 9, 400), "difficulty": rng.integers(0, 11, 400)}
        labels = (rng.random(400) < 0.3 + 0.5 * cols["mastery"]).astype(int)
        model = fit_tan(cols, labels)
        p1 = tmp_path / "m1.model"
        p2 = tmp_path / "m2.model"
        save_model(model, str(p1))
        loaded = load_model(str(p1))
        save_model(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        ev = {"skill": 2, "mastery": 0.8, "profile": 1, "difficulty": 5}
        assert explain(loaded, ev) == explain(model, ev)
        assert np.array_equal(predict_many(loaded, cols), predict_many(model, cols))

    def test_zero_cutpoint_feature_stays_continuous(self, tmp_path):
        rng = np.random.default_rng(16)
        cols = {"skill": rng.integers(0, 3, 200), "mastery": rng.random(200)}
        labels = rng.integers(0, 2, 200)  # no signal: no cutpoints
        model = fit_tan(cols, labels)
        assert model.discretizer.cutpoints["mastery"] == ()
        path = tmp_path / "m.model"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.discretizer.cutpoints["mastery"] == ()
        assert explain(loaded, {"skill": 1, "mastery": 0.3}) == \
            explain(model, {"skill": 1, "mastery": 0.3})

    @settings(max_examples=50, deadline=None)
    @given(tree_models_and_rows(continuous=True))
    def test_round_trip_of_drawn_models(self, tmp_path_factory, drawn):
        # the reader takes each CPT as save_model's rows in write order;
        # every model it writes must load back to the same tables
        model, rows = drawn
        columns = {f: np.array([r[f] for r in rows]) for f in model.features}
        path = tmp_path_factory.getbasetemp() / "drawn.model"
        # a new file each save: rewriting one in place can stall on a
        # flush of the old data (ext4's auto_da_alloc)
        path.unlink(missing_ok=True)
        save_model(model, str(path))
        written = path.read_bytes()
        loaded = load_model(str(path))
        path.unlink()
        save_model(loaded, str(path))
        assert path.read_bytes() == written
        for f in model.features:
            assert loaded.cpts[f].tobytes() == model.cpts[f].tobytes()
        assert _log_odds(loaded, columns).tobytes() == _log_odds(model, columns).tobytes()
        for row in rows:
            assert explain(loaded, row) == explain(model, row)

    @settings(max_examples=30, deadline=None)
    @given(alpha=st.floats(1e-3, 10.0), seed=st.integers(0, 2**32 - 1),
           n=st.integers(20, 300))
    def test_every_fitted_model_reloads_bitwise(self, tmp_path_factory, alpha, seed, n):
        # fit_tan's tables hold no zeros at any alpha > 0, so load_model
        # takes back every model save_model writes of them
        rng = np.random.default_rng(seed)
        cols = {"skill": rng.integers(0, 6, n), "mastery": rng.random(n),
                "profile": rng.integers(1, 5, n), "difficulty": rng.integers(0, 11, n)}
        labels = (rng.random(n) < 0.2 + 0.6 * cols["mastery"]).astype(int)
        model = fit_tan(cols, labels, alpha=alpha)
        path = tmp_path_factory.getbasetemp() / "fitted.model"
        path.unlink(missing_ok=True)  # a new file each example, as above
        save_model(model, str(path))
        loaded = load_model(str(path))
        for f in model.features:
            assert loaded.cpts[f].tobytes() == model.cpts[f].tobytes()
        assert _log_odds(loaded, cols).tobytes() == _log_odds(model, cols).tobytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text.replace("features = a b", "features = a a"),
         ":4: features repeats 'a'"),
        (lambda text: re.sub(r"features = .*\n", "", text), ": has no features line"),
        (lambda text: re.sub(r"alpha = .*", "alpha = inf", text),
         ":2: alpha must be > 0 and finite, got inf"),
        (lambda text: re.sub(r"alpha = .*", "alpha = nan", text),
         ":2: alpha must be > 0 and finite, got nan"),
        (lambda text: re.sub(r"alpha = .*", "alpha = 0.0", text),
         ":2: alpha must be > 0 and finite, got 0.0"),
        (lambda text: re.sub(r"class_prior = .*", "class_prior = 0.3 0.3", text),
         ": class_prior sums to 0.6, not 1"),
        (lambda text: re.sub(r"class_prior = .*", "class_prior = 0.5", text),
         ":3: class_prior must be two probabilities"),
        (lambda text: text.replace("\n0 2 0.5 ", "\n0 2 1.0 "),
         ": [cpt b] column (parent index 2, class 0) sums to 1.5, not 1"),
        # the [tree] line count is right, but one feature is named twice
        (lambda text: text.replace("\nb a\n", "\na -\n"), ": [tree] has no entry for 'b'"),
    ], ids=["features_repeated", "features_missing", "alpha_inf", "alpha_nan", "alpha_zero",
            "class_prior_sum", "class_prior_one_value", "cpt_column_sum", "tree_entry_missing"])
    def test_header_and_probabilities_checked(self, tmp_path, edit, message):
        # load_model alone; test_cli's malformed-model cases go through predict and explain
        path = tmp_path / "m.model"
        save_model(uniform_model(), str(path))
        text = path.read_text()
        assert edit(text) != text
        path.write_text(edit(text))
        with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
            load_model(str(path))

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "junk.model"
        path.write_text("not a model\n")
        with pytest.raises(ValueError):
            load_model(str(path))
