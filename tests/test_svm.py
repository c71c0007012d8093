import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atree import svm as svm_module
from atree.errors import ValidationError
from atree.svm import (KERNEL_KINDS, KernelSpec, KernelSvmModel, LinearSvmModel,
                       SvmConfig, decision_values_batch, kernel_computations,
                       kernel_matrix, predict, squared_norms, train_kernel_svm,
                       train_linear_svm, train_svm, training_gram, truncate_svs)
from oracles import (grid_min_linear_svm_1d, random_binary_dataset,
                     reference_kernel_svm, reference_linear_svm)

SEP_X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
SEP_Y = np.array([-1.0, -1.0, 1.0, 1.0])
HARD_C = SvmConfig(c=1000.0, tolerance=1e-4, max_passes=4000, seed=0)


class TestKernels:
    def test_linear_is_dot_product(self):
        k = kernel_matrix(KernelSpec("linear"), np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]))
        assert k[0, 0] == 11.0

    def test_rbf_formula(self):
        spec = KernelSpec("rbf", 0.5)
        x, z = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert kernel_matrix(spec, x, z)[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_chi_square_formula(self):
        spec = KernelSpec("chi_square", 1.0)
        x, z = np.array([0.5, 0.5]), np.array([0.25, 0.75])
        expected = np.exp(-(0.0625 / 0.75 + 0.0625 / 1.25))
        assert kernel_matrix(spec, x, z)[0, 0] == pytest.approx(expected, rel=1e-9)

    def test_histogram_intersection_formula(self):
        spec = KernelSpec("histogram_intersection")
        k = kernel_matrix(spec, np.array([[0.2, 0.8]]), np.array([0.5, 0.3]))[0, 0]
        assert k == pytest.approx(0.5, abs=1e-15)

    def test_nonnegative_kernels_reject_negative_features(self):
        for spec in (KernelSpec("chi_square", 1.0), KernelSpec("histogram_intersection")):
            with pytest.raises(ValidationError):
                kernel_matrix(spec, np.array([[-0.1, 0.5]]), np.array([0.5, 0.5]))

    def test_symmetry_and_nonnegative_self_similarity(self):
        rng = np.random.default_rng(4)
        A = rng.uniform(0.0, 2.0, size=(12, 5))
        for spec in (KernelSpec("linear"), KernelSpec("rbf", 0.7),
                     KernelSpec("chi_square", 0.4), KernelSpec("histogram_intersection")):
            K = kernel_matrix(spec, A, A)
            np.testing.assert_allclose(K, K.T, atol=1e-12)
            assert (np.diag(K) >= 0).all()

    def test_blocks_larger_than_one_chunk_match_direct_formula(self):
        # 600 x 500 x 8 = 2.4M broadcast elements, more than two chunks
        rng = np.random.default_rng(5)
        A = rng.uniform(0.0, 2.0, size=(600, 8))
        B = rng.uniform(0.0, 2.0, size=(500, 8))
        a, b = A[:, None, :], B[None, :, :]
        chi2 = np.exp(-0.4 * ((a - b) ** 2 / (a + b + 1e-12)).sum(axis=2))
        np.testing.assert_array_equal(kernel_matrix(KernelSpec("chi_square", 0.4), A, B), chi2)
        np.testing.assert_array_equal(
            kernel_matrix(KernelSpec("histogram_intersection"), A, B),
            np.minimum(a, b).sum(axis=2))

    @pytest.mark.parametrize("n", [1, 5, 64, 65, 130, 200])
    def test_training_gram_is_the_gram_column_major_in_place(self, monkeypatch, n):
        # an asymmetric stand-in for the Gram: a transposition shows
        rng = np.random.default_rng(n)
        made = []

        def gram_of(spec, A, B, b_norms=None):
            made.append(rng.normal(size=(len(A), len(B))))
            made.append(made[0].copy())
            return made[1]

        monkeypatch.setattr(svm_module, "kernel_matrix", gram_of)
        X = rng.normal(size=(n, 3))
        gram = training_gram(KernelSpec("rbf", 0.5), X)
        monkeypatch.undo()
        assert gram.flags.f_contiguous and gram.shape == (n, n)
        assert np.shares_memory(gram, made[1])
        np.testing.assert_array_equal(gram, made[0])
        rbf = KernelSpec("rbf", 0.5)
        assert training_gram(rbf, X).tobytes("F") == kernel_matrix(rbf, X, X).tobytes("F")

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            KernelSpec("rbf")
        with pytest.raises(ValidationError):
            KernelSpec("linear", 0.5)
        with pytest.raises(ValidationError):
            KernelSpec("sigmoid")


class TestLinearSolver:
    def test_separable_margins_match_analytic_optimum(self):
        model = train_linear_svm(SEP_X, SEP_Y, HARD_C)
        for x, y in zip(SEP_X, SEP_Y):
            assert predict(model, x) == y
        # hard-margin optimum is w=1, b=0, confirmed by a grid oracle
        w_star, b_star, _ = grid_min_linear_svm_1d(
            SEP_X, SEP_Y, 1000.0, np.arange(0.0, 2.01, 0.01), np.arange(-1.0, 1.01, 0.01))
        assert (w_star, b_star) == pytest.approx((1.0, 0.0), abs=1e-9)
        assert decision_values_batch(model, np.array([1.0])) == pytest.approx(1.0, abs=1e-2)
        assert decision_values_batch(model, np.array([-1.0])) == pytest.approx(-1.0, abs=1e-2)

    def test_label_flip_negates_weights(self):
        rng = np.random.default_rng(1)
        X, y = random_binary_dataset(rng, 30, 3)
        cfg = SvmConfig(c=1.0, tolerance=1e-4, max_passes=2000, seed=0)
        a = train_linear_svm(X, y, cfg)
        b = train_linear_svm(X, -y, cfg)
        np.testing.assert_allclose(a.weights, -b.weights, atol=1e-2)
        assert a.bias == pytest.approx(-b.bias, abs=1e-2)

    def test_duplicated_data_keeps_decision_signs(self):
        rng = np.random.default_rng(2)
        X, y = random_binary_dataset(rng, 25, 2)
        cfg = SvmConfig(c=1.0, tolerance=1e-4, max_passes=2000, seed=0)
        single = train_linear_svm(X, y, cfg)
        doubled = train_linear_svm(np.vstack([X, X]), np.concatenate([y, y]),
                                   SvmConfig(c=0.5, tolerance=1e-4, max_passes=2000, seed=0))
        grid = rng.normal(size=(100, 2)) * 2.0
        s1 = np.sign(decision_values_batch(single, grid))
        s2 = np.sign(decision_values_batch(doubled, grid))
        assert (s1 == s2).mean() >= 0.99

    def test_single_label_rejected(self):
        with pytest.raises(ValidationError):
            train_linear_svm(SEP_X, np.ones(4), HARD_C)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(3)
        X, y = random_binary_dataset(rng, 40, 3)
        cfg = SvmConfig(seed=5)
        a = train_linear_svm(X, y, cfg)
        b = train_linear_svm(X, y, cfg)
        np.testing.assert_array_equal(a.weights, b.weights)


    @pytest.mark.parametrize("c,tolerance,max_passes,converges", [
        (1.0, 1e-3, 200, True),
        (0.01, 1e-3, 50, True),
        (0.5, 1e-2, 500, True),
        (100.0, 1e-3, 3, False),
        (100.0, 1e-3, 200, False),
        (1000.0, 1e-4, 100, False),
        (3, 1e-3, 40, False),
    ])
    def test_iterates_equal_the_numpy_scalar_reference(self, c, tolerance, max_passes,
                                                       converges):
        rng = np.random.default_rng(11)
        X, y = random_binary_dataset(rng, 80, 4)
        cfg = SvmConfig(c=c, tolerance=tolerance, max_passes=max_passes, seed=2)
        model = train_linear_svm(X, y, cfg)
        weights, bias, _, passes, converged = reference_linear_svm(X, y, cfg)
        np.testing.assert_array_equal(model.weights, weights)
        assert model.bias == bias
        record = model.convergence
        assert (record.iterations, record.converged) == (passes, converged)
        assert converged == converges
        assert (passes < max_passes) == converges
        assert (record.gap <= tolerance) == converges

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 40), d=st.integers(1, 4),
           scale=st.sampled_from([0.1, 1.0, 10.0]),
           c=st.sampled_from([0.01, 0.1, 1.0, 10.0, 100.0]),
           tolerance=st.sampled_from([1e-4, 1e-3, 1e-2]),
           max_passes=st.integers(1, 300), solver_seed=st.integers(0, 3))
    def test_dual_feasible_and_converged_spread_within_tolerance(
            self, seed, n, d, scale, c, tolerance, max_passes, solver_seed):
        X, y = random_binary_dataset(np.random.default_rng(seed), n, d)
        X = X * scale
        cfg = SvmConfig(c=c, tolerance=tolerance, max_passes=max_passes, seed=solver_seed)
        model = train_linear_svm(X, y, cfg)
        weights, bias, alpha, passes, converged = reference_linear_svm(X, y, cfg)
        np.testing.assert_array_equal(model.weights, weights)
        assert model.bias == bias
        assert model.convergence.iterations == passes <= max_passes
        assert model.convergence.converged == converged
        assert ((alpha >= 0.0) & (alpha <= c)).all()
        # w is the dual combination of the augmented rows
        combined = (alpha * y) @ np.hstack([X, np.ones((n, 1))])
        np.testing.assert_allclose(np.append(model.weights, model.bias), combined,
                                   rtol=1e-9, atol=1e-9 * max(1.0, np.abs(combined).max()))
        if converged:
            # projected gradients from scratch over all n coordinates
            g = y * decision_values_batch(model, X) - 1.0
            pg = np.where(alpha <= 0.0, np.minimum(g, 0.0),
                          np.where(alpha >= c, np.maximum(g, 0.0), g))
            assert pg.max() - pg.min() <= tolerance
            assert model.convergence.gap <= tolerance

    def test_budget_exhausted_records_no_convergence(self):
        rng = np.random.default_rng(11)
        X, y = random_binary_dataset(rng, 80, 4)
        record = train_linear_svm(X, y, SvmConfig(c=100.0, max_passes=1)).convergence
        assert record.iterations == 1
        assert not record.converged and record.gap > 1e-3


class TestKernelSolver:
    def test_linear_kernel_agrees_with_linear_solver(self):
        model = train_kernel_svm(SEP_X, SEP_Y, KernelSpec("linear"), HARD_C)
        linear = train_linear_svm(SEP_X, SEP_Y, HARD_C)
        # probes stay off the decision boundary at 0
        probes = np.concatenate([np.linspace(-3, -0.25, 12),
                                 np.linspace(0.25, 3, 12)]).reshape(-1, 1)
        km = np.where(decision_values_batch(model, probes) >= 0, 1, -1)
        lm = np.where(decision_values_batch(linear, probes) >= 0, 1, -1)
        assert (km == lm).all()

    def test_rbf_solves_xor_exactly(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        model = train_kernel_svm(X, y, KernelSpec("rbf", 1.0),
                                 SvmConfig(c=10.0, tolerance=1e-4, max_passes=2000, seed=0))
        assert [predict(model, row) for row in X] == y.tolist()

    def test_dual_feasibility_and_balance(self):
        rng = np.random.default_rng(6)
        X, y = random_binary_dataset(rng, 50, 3)
        cfg = SvmConfig(c=2.0, tolerance=1e-3, max_passes=2000, seed=0)
        model = train_kernel_svm(X, y, KernelSpec("rbf", 0.5), cfg)
        assert (np.abs(model.dual_coefficients) <= 2.0 + 1e-12).all()
        assert (np.abs(model.dual_coefficients) > 0).all()
        assert abs(model.dual_coefficients.sum()) <= cfg.tolerance + 1e-9

    def test_kkt_margin_on_non_support_points(self):
        rng = np.random.default_rng(8)
        X, y = random_binary_dataset(rng, 60, 2)
        cfg = SvmConfig(c=1.0, tolerance=1e-3, max_passes=3000, seed=0)
        model = train_kernel_svm(X, y, KernelSpec("rbf", 0.5), cfg)
        others = np.setdiff1d(np.arange(len(X)), model.sv_ids)
        margins = y[others] * decision_values_batch(model, X[others])
        assert (margins >= 1.0 - 10 * cfg.tolerance).all()

    def test_convergence_record(self):
        rng = np.random.default_rng(8)
        X, y = random_binary_dataset(rng, 60, 2)
        cfg = SvmConfig(c=10.0, tolerance=1e-3, max_passes=2000, seed=0)
        record = train_kernel_svm(X, y, KernelSpec("rbf", 0.5), cfg).convergence
        assert record.converged and record.gap <= cfg.tolerance
        assert 0 < record.iterations < cfg.max_passes * len(y)
        # one pass of n updates is not enough here: the budget ends the solve
        capped = train_kernel_svm(X, y, KernelSpec("rbf", 0.5),
                                  SvmConfig(c=10.0, max_passes=1)).convergence
        assert capped.iterations == len(y)
        assert not capped.converged and capped.gap > cfg.tolerance

    def test_mixed_labels_always_keep_at_least_two_svs(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            X, y = random_binary_dataset(rng, 20, 2)
            model = train_kernel_svm(X, y, KernelSpec("rbf", 1.0), SvmConfig())
            assert model.n_support >= 2

    def test_solver_cross_agreement_on_random_sets(self):
        rng = np.random.default_rng(10)
        agree = []
        for _ in range(50):
            n = int(rng.integers(10, 40))
            d = int(rng.integers(1, 4))
            X, y = random_binary_dataset(rng, n, d)
            cfg = SvmConfig(c=1.0, tolerance=1e-3, max_passes=2000, seed=0)
            lin = train_linear_svm(X, y, cfg)
            ker = train_kernel_svm(X, y, KernelSpec("linear"), cfg)
            grid = rng.normal(size=(40, d)) * 1.5
            s1 = np.where(decision_values_batch(lin, grid) >= 0, 1, -1)
            s2 = np.where(decision_values_batch(ker, grid) >= 0, 1, -1)
            agree.append((s1 == s2).mean())
        assert np.mean(agree) >= 0.99

    def test_sample_ids_follow_support_vectors(self):
        rng = np.random.default_rng(12)
        X, y = random_binary_dataset(rng, 30, 2)
        ids = np.arange(100, 130)
        model = train_kernel_svm(X, y, KernelSpec("rbf", 0.5), SvmConfig(), sample_ids=ids)
        assert set(model.sv_ids.tolist()) <= set(ids.tolist())
        for sid, sv in zip(model.sv_ids, model.support_vectors):
            np.testing.assert_array_equal(sv, X[sid - 100])

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(KERNEL_KINDS), seed=st.integers(0, 2**32 - 1),
           n=st.integers(2, 40), d=st.integers(1, 4),
           c=st.sampled_from([0.01, 1.0, 100.0]), max_passes=st.sampled_from([1, 400]),
           duplicates=st.integers(0, 10))
    def test_iterates_equal_the_full_rebuild_reference(self, kind, seed, n, d, c,
                                                       max_passes, duplicates):
        rng = np.random.default_rng(seed)
        X, y = random_binary_dataset(rng, n, d)
        # nonnegative features, as chi-square and histogram intersection require
        X = np.abs(X)
        # a duplicated row with either label; with the opposite one it can
        # pair with its original at a zero eta, which the floor replaces
        picks = rng.integers(0, n, size=duplicates)
        flips = rng.choice([-1, 1], size=duplicates)
        X, y = np.vstack([X, X[picks]]), np.concatenate([y, y[picks] * flips])
        spec = KernelSpec(kind, 0.5 if kind in ("rbf", "chi_square") else None)
        cfg = SvmConfig(c=c, max_passes=max_passes)
        ids = rng.permutation(len(y)) + 7
        model = train_kernel_svm(X, y, spec, cfg, sample_ids=ids)
        expected = reference_kernel_svm(X, y, spec, cfg, sample_ids=ids)
        for part in ("support_vectors", "dual_coefficients", "sv_ids"):
            assert getattr(model, part).tobytes() == getattr(expected, part).tobytes()
        assert np.float64(model.bias).tobytes() == np.float64(expected.bias).tobytes()
        got, want = model.convergence, expected.convergence
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert np.float64(got.gap).tobytes() == np.float64(want.gap).tobytes()

    def test_precomputed_gram_gives_the_same_model(self):
        rng = np.random.default_rng(15)
        X, y = random_binary_dataset(rng, 30, 3)
        spec = KernelSpec("rbf", 0.5)
        expected = train_kernel_svm(X, y, spec, SvmConfig())
        gram = kernel_matrix(spec, X, X)
        for given_gram in (gram, np.asfortranarray(gram)):
            model = train_kernel_svm(X, y, spec, SvmConfig(), gram=given_gram)
            for part in ("support_vectors", "dual_coefficients", "sv_ids"):
                assert getattr(model, part).tobytes() == getattr(expected, part).tobytes()
            assert model.bias == expected.bias
            assert model.convergence == expected.convergence

    @pytest.mark.parametrize("shape", [(30, 29), (29, 29), (30,), (30, 30, 1)])
    def test_gram_of_the_wrong_shape_rejected(self, shape):
        rng = np.random.default_rng(16)
        X, y = random_binary_dataset(rng, 30, 3)
        with pytest.raises(ValidationError, match="gram"):
            train_kernel_svm(X, y, KernelSpec("rbf", 0.5), SvmConfig(), gram=np.ones(shape))


class TestTrainSvm:
    def test_linear_kernel_takes_the_linear_solver(self):
        rng = np.random.default_rng(13)
        X, y = random_binary_dataset(rng, 30, 3)
        model = train_svm(X, y, KernelSpec("linear"), SvmConfig(), np.arange(100, 130))
        expected = train_linear_svm(X, y, SvmConfig())
        assert isinstance(model, LinearSvmModel)
        np.testing.assert_array_equal(model.weights, expected.weights)
        assert model.bias == expected.bias

    def test_other_kernels_take_the_kernel_solver_with_sample_ids(self):
        rng = np.random.default_rng(14)
        X, y = random_binary_dataset(rng, 30, 3)
        spec = KernelSpec("rbf", 0.5)
        ids = np.arange(100, 130)
        model = train_svm(X, y, spec, SvmConfig(), ids)
        expected = train_kernel_svm(X, y, spec, SvmConfig(), sample_ids=ids)
        assert isinstance(model, KernelSvmModel)
        for part in ("support_vectors", "dual_coefficients", "sv_ids"):
            np.testing.assert_array_equal(getattr(model, part), getattr(expected, part))
        assert model.bias == expected.bias
        np.testing.assert_array_equal(train_svm(X, y, spec, SvmConfig()).sv_ids,
                                      expected.sv_ids - 100)


class TestDecisionAndPredict:
    def test_zero_weight_linear_model_uses_bias(self):
        model = LinearSvmModel(np.zeros(3), 0.7)
        assert decision_values_batch(model, np.zeros(3)) == 0.7
        assert decision_values_batch(model, np.zeros((2, 3))).tolist() == [0.7, 0.7]
        assert predict(model, np.zeros(3)) == 1

    def test_single_support_vector_kernel_value(self):
        model = KernelSvmModel(
            support_vectors=np.array([[0.4, 0.0]]),
            dual_coefficients=np.array([1.0]),
            bias=0.0, kernel=KernelSpec("histogram_intersection"),
            sv_ids=np.array([0]))
        assert decision_values_batch(model, np.array([1.0, 0.0])) == pytest.approx(0.4, abs=1e-15)
        assert decision_values_batch(model, np.array([[1.0, 0.0]])).shape == (1,)

    def test_zero_decision_predicts_positive(self):
        model = LinearSvmModel(np.array([1.0]), 0.0)
        assert predict(model, np.array([0.0])) == 1

    def test_dimension_mismatch_rejected(self):
        model = LinearSvmModel(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValidationError):
            decision_values_batch(model, np.array([1.0]))
        with pytest.raises(ValidationError):
            decision_values_batch(model, np.array([[1.0]]))

    @pytest.mark.parametrize("spec", [KernelSpec("linear"), KernelSpec("rbf", 0.7),
                                      KernelSpec("chi_square", 0.4),
                                      KernelSpec("histogram_intersection")],
                             ids=lambda spec: spec.kind)
    def test_single_instance_matches_batch_rows(self, spec):
        rng = np.random.default_rng(14)
        X = rng.uniform(0.0, 2.0, size=(20, 3))
        y = np.where(X[:, 0] > 1.0, 1.0, -1.0)
        if spec.is_linear:
            model = train_linear_svm(X, y, SvmConfig())
        else:
            model = train_kernel_svm(X, y, spec, SvmConfig())
        probes = rng.uniform(0.0, 2.0, size=(15, 3))
        batch = decision_values_batch(model, probes)
        assert batch.shape == (15,)
        for row, value in zip(probes, batch):
            single = decision_values_batch(model, row)
            assert np.ndim(single) == 0
            assert single == value
        np.testing.assert_array_equal([predict(model, row) for row in probes],
                                      predict(model, probes))


    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(KERNEL_KINDS), seed=st.integers(0, 2**32 - 1),
           rows=st.lists(st.integers(0, 29), min_size=1, max_size=30, unique=True))
    def test_each_value_depends_on_its_own_row_only(self, kind, seed, rows):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.0, 2.0, size=(30, 4))
        if kind == "linear" and seed % 2:
            model = LinearSvmModel(rng.normal(size=4), float(rng.normal()))
        else:
            n_sv = int(rng.integers(1, 40))
            gamma = 0.6 if kind in ("rbf", "chi_square") else None
            model = KernelSvmModel(rng.uniform(0.0, 2.0, size=(n_sv, 4)), rng.normal(size=n_sv),
                                   float(rng.normal()), KernelSpec(kind, gamma), np.arange(n_sv))
        np.testing.assert_array_equal(decision_values_batch(model, X[rows]),
                                      decision_values_batch(model, X)[rows])


class TestCachedNorms:
    """Squared norms computed once give every value computed without them."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(KERNEL_KINDS), seed=st.integers(0, 2**32 - 1),
           n_sv=st.integers(1, 40), n_rows=st.integers(1, 30), d=st.integers(1, 40),
           scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_values_bit_identical_to_uncached_kernel_matrix(self, kind, seed, n_sv,
                                                            n_rows, d, scale):
        rng = np.random.default_rng(seed)
        S = rng.uniform(0.0, 2.0, size=(n_sv, d)) * scale
        X = rng.uniform(0.0, 2.0, size=(n_rows, d)) * scale
        # rows equal to a support vector put d2 at the max(., 0) clamp
        X[::3] = S[rng.integers(0, n_sv, size=len(X[::3]))]
        spec = KernelSpec(kind, 0.6 / scale ** 2 if kind in ("rbf", "chi_square") else None)
        model = KernelSvmModel(S, rng.normal(size=n_sv), float(rng.normal()), spec,
                               np.arange(n_sv))
        assert model.sv_norms.tobytes() == squared_norms(S.copy()).tobytes()
        expected = np.vecdot(kernel_matrix(spec, X, S), model.dual_coefficients) + model.bias
        assert decision_values_batch(model, X).tobytes() == expected.tobytes()
        rows = rng.permutation(n_rows)[:max(1, n_rows // 2)]
        assert decision_values_batch(model, X[rows]).tobytes() == expected[rows].tobytes()
        for x, value in zip(X, expected):
            single = decision_values_batch(model, x)
            assert np.float64(single).tobytes() == value.tobytes()
        cut = truncate_svs(model, max(1, n_sv // 2))
        assert cut.sv_norms.tobytes() == squared_norms(cut.support_vectors).tobytes()

    def test_norms_of_the_wrong_shape_rejected(self):
        model = _toy_kernel_model(np.arange(5))
        X = np.random.default_rng(3).uniform(size=(4, 2))
        for norms in (model.sv_norms[1:], model.sv_norms[:, None]):
            with pytest.raises(ValidationError, match="one entry per row"):
                kernel_matrix(model.kernel, X, model.support_vectors, b_norms=norms)


def _toy_kernel_model(sv_ids, dim=2):
    sv_ids = np.asarray(sv_ids, dtype=np.int64)
    rng = np.random.default_rng(int(sv_ids.sum()))
    return KernelSvmModel(
        support_vectors=rng.uniform(0.1, 1.0, size=(len(sv_ids), dim)),
        dual_coefficients=rng.uniform(0.5, 1.0, size=len(sv_ids)),
        bias=0.0, kernel=KernelSpec("rbf", 1.0), sv_ids=sv_ids)


class TestModelEquality:
    def test_equal_models_compare_with_a_bool(self):
        kernel = _toy_kernel_model(np.arange(5))
        kernel_twin = KernelSvmModel(kernel.support_vectors.copy(),
                                     kernel.dual_coefficients.copy(), kernel.bias,
                                     kernel.kernel, kernel.sv_ids.copy())
        linear = LinearSvmModel(np.arange(3.0), 0.5)
        linear_twin = LinearSvmModel(np.arange(3.0), 0.5)
        for model, twin in ((kernel, kernel_twin), (linear, linear_twin)):
            assert (model == twin) is False
            assert (model != twin) is True
            assert (model == model) is True


class TestKernelEvalCounter:
    """Per-instance kernel computations of a set of models (kernel_computations)."""

    def test_shared_support_vectors_counted_once(self):
        first = _toy_kernel_model(np.arange(0, 10))
        second = _toy_kernel_model(np.arange(5, 15))
        assert kernel_computations([first, second]) == (15, 20)

    def test_single_model_counts_every_sv(self):
        assert kernel_computations([_toy_kernel_model(np.arange(10))]) == (10, 10)

    def test_no_models_cost_nothing(self):
        assert kernel_computations([]) == (0, 0)

    @given(st.lists(st.lists(st.integers(0, 30), min_size=1, max_size=12, unique=True),
                    min_size=1, max_size=6))
    def test_union_never_exceeds_sum(self, id_sets):
        models = [_toy_kernel_model(ids) for ids in id_sets]
        union, uncached = kernel_computations(models)
        assert union == len({i for ids in id_sets for i in ids}) <= uncached
        assert uncached == sum(len(ids) for ids in id_sets)


class TestTruncation:
    def test_keeps_largest_coefficients(self):
        model = KernelSvmModel(
            support_vectors=np.array([[0.0], [1.0], [2.0], [3.0]]),
            dual_coefficients=np.array([0.1, -2.0, 0.5, 1.5]),
            bias=0.2, kernel=KernelSpec("rbf", 1.0), sv_ids=np.arange(4))
        cut = truncate_svs(model, 2)
        assert cut.n_support == 2
        assert set(cut.sv_ids.tolist()) == {1, 3}

    def test_noop_when_budget_covers_model(self):
        model = _toy_kernel_model(np.arange(5))
        assert truncate_svs(model, 5) is model
        assert truncate_svs(model, 99) is model

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValidationError):
            truncate_svs(_toy_kernel_model(np.arange(3)), 0)
