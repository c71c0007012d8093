import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from atree import boosting
from atree.boosting import (BoostConfig, BoostedClassifier, DecisionStump, Presort,
                            adaboost_train, error_bound, prob_positive_batch,
                            strong_score_batch, train_stump)
from atree.errors import ValidationError
from oracles import boost_ending, brute_force_stump, position_stump

# Unbalanced four-corner pattern: the best stump is the constant +1 vote,
# which still misclassifies the two negative corners (weight 0.25).
XOR_X = np.array([[0.0, 0.0]] * 4 + [[1.0, 1.0]] * 2 + [[0.0, 1.0], [1.0, 0.0]])
XOR_Y = np.array([1, 1, 1, 1, 1, 1, -1, -1])
XOR_W = np.full(8, 1 / 8)


@st.composite
def tied_stump_inputs(draw):
    """Features on a small integer grid, so values repeat often, with some
    columns held constant; labels +-1 and positive weights summing to 1."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    X = draw(hnp.arrays(np.float64, (n, d), elements=st.integers(-2, 2).map(float)))
    constant = draw(hnp.arrays(np.bool_, d))
    X[:, constant] = draw(st.integers(-2, 2))
    y = draw(hnp.arrays(np.int64, n, elements=st.sampled_from([-1, 1])))
    w = draw(hnp.arrays(np.float64, n, elements=st.integers(1, 4).map(float)))
    return X, y, w / w.sum()


class TestTrainStump:
    def test_separable_1d(self):
        X = np.array([[-1.0], [0.0], [1.0], [2.0]])
        y = np.array([1, 1, -1, -1])
        stump, err, _ = train_stump(X, y, np.full(4, 0.25))
        assert (stump.feature_index, stump.threshold, stump.polarity) == (0, 0.5, -1)
        assert err == 0.0

    def test_xor_pattern_matches_brute_force(self):
        stump, err, _ = train_stump(XOR_X, XOR_Y, XOR_W)
        oracle = brute_force_stump(XOR_X, XOR_Y, XOR_W)
        assert err == pytest.approx(0.25, abs=1e-15)
        assert (err, stump.feature_index, stump.threshold, stump.polarity) == oracle

    def test_concentrated_weight_dominates(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(11, 3))
        y = np.where(rng.random(11) > 0.5, 1, -1)
        y[0] = 1
        w = np.full(11, 0.003)
        w[0] = 0.97
        stump, err, _ = train_stump(X, y, w)
        assert stump.predict_batch(X[:1])[0] == 1
        assert err <= 0.03 + 1e-12

    def test_matches_brute_force_on_random_data(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(5, 60))
            d = int(rng.integers(1, 5))
            X = rng.normal(size=(n, d))
            y = np.where(rng.random(n) > 0.5, 1, -1)
            w = rng.uniform(0.1, 1.0, size=n)
            w /= w.sum()
            stump, err, _ = train_stump(X, y, w)
            o_err, o_f, o_t, o_p = brute_force_stump(X, y, w)
            assert (stump.feature_index, stump.threshold, stump.polarity) == (o_f, o_t, o_p)
            assert err == o_err

    def test_all_labels_identical_gives_zero_error_constant(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([1, 1, 1])
        stump, err, _ = train_stump(X, y, np.full(3, 1 / 3))
        assert err == 0.0
        assert (stump.predict_batch(X) == 1).all()

    def test_tie_breaks_to_lowest_feature(self):
        # both features separate perfectly; feature 0 must win
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([-1, 1])
        stump, err, _ = train_stump(X, y, np.array([0.5, 0.5]))
        assert err == 0.0
        assert stump.feature_index == 0


    @settings(max_examples=200, deadline=None)
    @given(tied_stump_inputs())
    def test_matches_brute_force_on_tied_values(self, inputs):
        X, y, w = inputs
        stump, err, _ = train_stump(X, y, w)
        o_err, o_f, o_t, o_p = brute_force_stump(X, y, w)
        assert (stump.feature_index, stump.threshold, stump.polarity) == (o_f, o_t, o_p)
        assert err == o_err

    @settings(max_examples=100, deadline=None)
    @given(tied_stump_inputs())
    def test_presorted_order_gives_the_same_stump(self, inputs):
        X, y, w = inputs
        stump, err, predictions = train_stump(X, y, w, Presort.of(X))
        expected = train_stump(X, y, w)
        assert (stump, err) == expected[:2]
        np.testing.assert_array_equal(predictions, expected[2])


# Values where a threshold can round onto a sample: adjacent doubles on
# both sides of 1.0, 1e17 and its neighbours (where x - 1.0 == x),
# subnormals, both zeros, and values whose sum overflows.
_ONE_BELOW = float(np.nextafter(1.0, 0.0))      # 0.9999999999999999
_ONE_ABOVE = float(np.nextafter(1.0, 2.0))      # 1 + 2**-52
_EDGE_VALUES = [_ONE_BELOW, 1.0, _ONE_ABOVE, float(np.nextafter(_ONE_ABOVE, 2.0)),
                -1e17, float(np.nextafter(-1e17, 0.0)), 1e17, float(np.nextafter(1e17, 2e17)),
                2e17, -5e-324, 5e-324, 1e-323, -0.0, 0.0, 2.0, 1e308, 1.5e308,
                -np.finfo(float).max, np.finfo(float).max]


@st.composite
def edge_stump_inputs(draw):
    """Features drawn from _EDGE_VALUES, labels +-1 and positive weights
    summing to 1."""
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 3))
    X = draw(hnp.arrays(np.float64, (n, d), elements=st.sampled_from(_EDGE_VALUES)))
    y = draw(hnp.arrays(np.int64, n, elements=st.sampled_from([-1, 1])))
    w = draw(hnp.arrays(np.float64, n, elements=st.integers(1, 4).map(float)))
    return X, y, w / w.sum()


class TestThresholdRounding:
    """Every cut the stump search scores is the cut its threshold makes,
    also where a midpoint or the below-minimum value rounds onto a sample
    and where a midpoint overflows."""

    @pytest.mark.parametrize("lo,hi,midpoint", [(1.0, _ONE_ABOVE, 1.0), (_ONE_BELOW, 1.0, 1.0),
                                                (1e308, 1.5e308, np.inf)],
                             ids=["midpoint-rounds-down", "midpoint-rounds-up", "sum-overflows"])
    @pytest.mark.parametrize("polarity", [1, -1])
    def test_two_values_separate_at_the_upper(self, lo, hi, midpoint, polarity):
        assert (lo + hi) / 2.0 == midpoint
        X = np.array([[lo], [lo], [hi], [hi]])
        y = np.array([-polarity, -polarity, polarity, polarity])
        stump, err, predictions = train_stump(X, y, np.full(4, 0.25))
        assert (stump, err) == (DecisionStump(0, hi, polarity), 0.0)
        np.testing.assert_array_equal(predictions, y)

    @pytest.mark.parametrize("label", [1, -1])
    def test_below_minimum_cut_at_large_values(self, label):
        X = np.array([[1e17], [2e17], [3e17]])
        assert X[0, 0] - 1.0 == X[0, 0]
        y = np.full(3, label)
        stump, err, predictions = train_stump(X, y, np.full(3, 1 / 3))
        assert (stump, err) == (DecisionStump(0, 1e17, label), 0.0)
        np.testing.assert_array_equal(predictions, y)

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 3)),
                      elements=st.sampled_from(_EDGE_VALUES)
                      | st.floats(allow_nan=False, allow_infinity=False)))
    def test_threshold_cuts_at_its_sorted_position(self, X):
        presort = Presort.of(X)
        n, d = X.shape
        for f in range(d):
            for k in range(n):
                if k and presort.ties[f, k - 1]:
                    continue
                below = X[presort.rows[f], f] < presort.threshold(f, k)
                np.testing.assert_array_equal(below, np.arange(n) < k)

    @settings(max_examples=300, deadline=None)
    @given(edge_stump_inputs())
    @example((np.array([[1.0], [1.0], [_ONE_ABOVE], [_ONE_ABOVE]]), np.array([1, 1, -1, -1]),
              np.full(4, 0.25)))
    def test_matches_the_position_oracle(self, inputs):
        X, y, w = inputs
        stump, err, predictions = train_stump(X, y, w)
        assert (stump, err) == position_stump(X, y, w)
        assert (err, stump.feature_index, stump.threshold, stump.polarity) == \
            brute_force_stump(X, y, w)
        np.testing.assert_array_equal(predictions, stump.predict_batch(X))


class TestAdaboost:
    @pytest.mark.parametrize("seed,config,separable,searches", [
        (0, BoostConfig(max_rounds=7), False, 7),              # runs to the cap
        (6, BoostConfig(max_rounds=50, gamma=0.3), False, 4),  # 3 kept, 1 discarded
        (0, BoostConfig(max_rounds=50), True, 1),              # one perfect round
    ], ids=["cap", "gamma", "perfect"])
    def test_one_stump_search_per_round_on_one_presort(self, monkeypatch, seed, config,
                                                       separable, searches):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(30, 3))
        y = np.where((X[:, 0] if separable else rng.normal(size=30)) > 0, 1, -1)
        presorts = []

        def counted(X, y, w, presort=None):
            presorts.append(presort)
            return train_stump(X, y, w, presort)

        monkeypatch.setattr(boosting, "train_stump", counted)
        model, _ = adaboost_train(X, y, np.full(30, 1 / 30), config)
        assert len(presorts) == searches == len(model.round_errors) + model.exited_early
        assert all(p is presorts[0] for p in presorts)
        np.testing.assert_array_equal(presorts[0].rows, np.argsort(X, axis=0, kind="stable").T)

    def test_alpha_matches_formula_at_quarter_error(self):
        model, _ = adaboost_train(XOR_X, XOR_Y, XOR_W, BoostConfig(max_rounds=1))
        assert model.round_errors[0] == pytest.approx(0.25, abs=1e-15)
        expected = 0.5 * math.log((1 - 0.25) / 0.25)   # 0.5*ln(3)
        assert abs(model.rounds[0][0] - expected) < 1e-12
        assert abs(expected - 0.549306144334) < 5e-13

    def test_separable_data_stops_after_one_perfect_round(self):
        X = np.array([[-1.0], [0.0], [1.0], [2.0]])
        y = np.array([1, 1, -1, -1])
        model, _ = adaboost_train(X, y, np.full(4, 0.25), BoostConfig(max_rounds=50))
        assert len(model.rounds) == 1
        assert model.round_errors == [0.0]
        assert not model.exited_early
        preds = np.where(strong_score_batch(model, X) > 0, 1, -1)
        assert preds.tolist() == y.tolist()

    def test_gamma_exit_discards_round_and_keeps_none(self):
        # alternating labels along one feature: every stump stays >= 0.49
        m = 100
        X = np.arange(m, dtype=float).reshape(-1, 1)
        y = np.where(np.arange(m) % 2 == 0, 1, -1)
        w = np.full(m, 1 / m)
        best_err = brute_force_stump(X, y, w)[0]
        assert best_err >= 0.49
        model, _ = adaboost_train(X, y, w, BoostConfig(max_rounds=10, gamma=0.48))
        assert model.exited_early
        assert model.rounds == []
        assert model.round_errors == []

    def test_single_label_input_ends_on_one_perfect_round(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([1, 1])
        model, _ = adaboost_train(X, y, np.array([0.5, 0.5]), BoostConfig())
        assert model.round_errors == [0.0]
        assert len(model.rounds) == 1
        assert strong_score_batch(model, np.array([[5.0]]))[0] > 10

    def test_reweighting_identity_half_error_next_round(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        y = np.where(X @ np.array([1.0, -0.5, 0.2]) + 0.4 * rng.normal(size=40) > 0, 1, -1)
        w = np.full(40, 1 / 40)
        model, _ = adaboost_train(X, y, w, BoostConfig(max_rounds=8))
        current = w.copy()
        for t, (alpha, stump) in enumerate(model.rounds):
            eps = model.round_errors[t]
            if eps == 0.0:
                break
            pred = stump.predict_batch(X)
            nxt = current * np.exp(-alpha * y * pred)
            nxt /= nxt.sum()
            assert abs(nxt[pred != y].sum() - 0.5) < 1e-9
            current = nxt

    def test_alpha_positive_for_every_retained_round(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            X = rng.normal(size=(30, 2))
            y = np.where(rng.random(30) > 0.5, 1, -1)
            if len(np.unique(y)) < 2:
                continue
            model, _ = adaboost_train(X, y, np.full(30, 1 / 30), BoostConfig(max_rounds=12))
            assert all(alpha > 0 for alpha, _ in model.rounds)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValidationError):
            adaboost_train(np.zeros((2, 1)), np.array([0, 1]), np.array([0.5, 0.5]),
                           BoostConfig())

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            BoostConfig(gamma=0.6)
        with pytest.raises(ValidationError):
            BoostConfig(max_rounds=0)


@st.composite
def boosting_problems(draw, ending):
    """Inputs and a config steered toward one ending: labels a stump
    separates end on a perfect round; random labels under gamma 0.5 run to
    a cap of 1 to 6 rounds, and under a lower gamma and a cap of 50 they
    exit on gamma."""
    n = draw(st.integers(2 if ending == "perfect" else 8, 40))
    d = draw(st.integers(1, 3))
    X = draw(hnp.arrays(np.float64, (n, d), elements=st.integers(-3, 3).map(float)
                        | st.floats(-5, 5, allow_subnormal=False)))
    if ending == "perfect":
        y = np.where(X[:, draw(st.integers(0, d - 1))] > draw(st.floats(-4, 4)), 1, -1)
        config = BoostConfig(max_rounds=draw(st.integers(1, 10)))
    else:
        y = draw(hnp.arrays(np.int64, n, elements=st.sampled_from([-1, 1])))
        config = (BoostConfig(max_rounds=draw(st.integers(1, 6)), gamma=0.5)
                  if ending == "cap" else
                  BoostConfig(max_rounds=50, gamma=draw(st.floats(0.25, 0.45))))
    w = 10.0 ** draw(hnp.arrays(np.float64, n, elements=st.floats(-3, 0)))
    return X, y, w, config


class TestHandedScores:
    """Boosting keeps each round's predictions from the stump search and sums
    H from them, so routing needs no second pass over the stumps."""

    @pytest.mark.parametrize("ending", ["cap", "gamma", "perfect"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_scores_and_predictions_are_the_stumps(self, ending, data):
        X, y, w, config = data.draw(boosting_problems(ending))
        searched = []

        def checked(X, y, w, presort=None):
            stump, err, predictions = train_stump(X, y, w, presort)
            searched.append((stump, predictions))
            return stump, err, predictions

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(boosting, "train_stump", checked)
            model, scores = adaboost_train(X, y, w, config)
        assume(boost_ending(model) == ending)
        for stump, predictions in searched:
            expected = stump.predict_batch(X)
            assert np.array_equal(predictions, expected)
            assert predictions.dtype == expected.dtype
        h = strong_score_batch(model, X)
        assert np.array_equal(scores, h)
        assert scores.tobytes() == h.tobytes()


class TestScoring:
    def _stump_always_positive(self):
        return DecisionStump(0, -10.0, 1)

    def test_empty_model_scores_zero(self):
        h = strong_score_batch(BoostedClassifier(), np.array([[1.0], [-2.0]]))
        assert h.tolist() == [0.0, 0.0]

    def test_single_round_score(self):
        model = BoostedClassifier(rounds=[(0.5, self._stump_always_positive())])
        assert strong_score_batch(model, np.array([[0.0]]))[0] == 0.5

    def test_two_round_score_arithmetic(self):
        up = self._stump_always_positive()
        down = DecisionStump(0, 10.0, 1)   # predicts -1 below its threshold
        model = BoostedClassifier(rounds=[(0.5, up), (0.3, down)])
        h = strong_score_batch(model, np.array([[0.0], [20.0]]))
        assert h[0] == pytest.approx(0.2, abs=1e-15)
        assert h[1] == pytest.approx(0.8, abs=1e-15)

    def test_dimension_mismatch_rejected(self):
        model = BoostedClassifier(rounds=[(1.0, DecisionStump(2, 0.0, 1))])
        with pytest.raises(ValidationError):
            strong_score_batch(model, np.array([[1.0, 2.0]]))
        with pytest.raises(ValidationError):
            prob_positive_batch(model, np.array([[1.0, 2.0]]))

    def test_prob_half_at_zero_score(self):
        assert prob_positive_batch(BoostedClassifier(), np.array([[0.0]]))[0] == 0.5

    def test_prob_three_quarters_at_log_three(self):
        model = BoostedClassifier(rounds=[(math.log(3.0), self._stump_always_positive())])
        expected = 1.0 / (1.0 + math.exp(-math.log(3.0)))
        p = prob_positive_batch(model, np.array([[0.0]]))[0]
        assert p == pytest.approx(expected, abs=1e-15)
        assert p == pytest.approx(0.75, abs=1e-12)

    def test_saturated_scores_stay_inside_unit_interval(self):
        for sign in (1, -1):
            model = BoostedClassifier(rounds=[(800.0, DecisionStump(0, -10.0, sign))])
            p = prob_positive_batch(model, np.array([[0.0]]))[0]
            assert 0.0 < p < 1.0

    def test_prob_sides_sum_to_one(self):
        # negating every vote mirrors the score, so p(+1|x) of the mirrored
        # model is the p(-1|x) of the original
        rng = np.random.default_rng(11)
        X = rng.normal(size=(25, 2))
        y = np.where(X[:, 0] > 0, 1, -1)
        model, _ = adaboost_train(X, y, np.full(25, 1 / 25), BoostConfig(max_rounds=5))
        mirrored = BoostedClassifier(rounds=[(-alpha, s) for alpha, s in model.rounds])
        total = prob_positive_batch(model, X) + prob_positive_batch(mirrored, X)
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)


class TestErrorBound:
    def test_single_round_value(self):
        model = BoostedClassifier(round_errors=[0.25])
        assert error_bound(model) == pytest.approx(2.0 * math.sqrt(0.25 * 0.75), abs=1e-15)
        assert error_bound(model) == pytest.approx(0.8660254037844386, abs=1e-12)

    def test_zero_error_round_zeroes_bound(self):
        model = BoostedClassifier(round_errors=[0.3, 0.0, 0.4])
        assert error_bound(model) == 0.0

    def test_half_error_rounds_saturate_at_one(self):
        model = BoostedClassifier(round_errors=[0.5, 0.5, 0.5])
        assert error_bound(model) == pytest.approx(1.0, abs=1e-15)

    def test_requires_a_round(self):
        with pytest.raises(ValidationError):
            error_bound(BoostedClassifier())

    def test_bounds_empirical_weighted_error(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(20, 80))
            X = rng.normal(size=(n, 3))
            y = np.where(X @ rng.normal(size=3) + 0.5 * rng.normal(size=n) > 0, 1, -1)
            if len(np.unique(y)) < 2:
                continue
            w = np.full(n, 1 / n)
            model, _ = adaboost_train(X, y, w, BoostConfig(max_rounds=10))
            if not model.rounds:
                continue
            h = np.zeros(n)
            for alpha, stump in model.rounds:
                h += alpha * stump.predict_batch(X)
            empirical = w[np.where(h > 0, 1, -1) != y].sum()
            assert empirical <= error_bound(model) + 1e-9
