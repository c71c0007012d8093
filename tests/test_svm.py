import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from atree import dataset, metrics
from atree import svm as svm_module
from atree.errors import ValidationError
from atree.svm import (KERNEL_KINDS, ClassifierBank, KernelSpec, KernelSvmModel,
                       LinearSvmModel, SvmConfig, kernel_matrix, squared_norms,
                       train_kernel_svm, train_linear_svm, train_svm, training_gram)
from oracles import (grid_min_linear_svm_1d, random_binary_dataset,
                     reference_decision_values, reference_kernel_computations,
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
        # an asymmetric stand-in for the kernel rows, each row of X naming
        # its stand-in row in its first feature: a transposition shows
        rng = np.random.default_rng(n)
        stand_in = rng.normal(size=(n, n))
        X = np.column_stack([np.arange(n, dtype=np.float64), rng.normal(size=(n, 2))])
        monkeypatch.setattr(svm_module, "_kernel_rows",
                            lambda spec, A, B, b_norms: stand_in[A[:, 0].astype(np.intp)])
        tracemalloc.start()
        try:
            gram = training_gram(KernelSpec("rbf", 0.5), X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        assert gram.flags.f_contiguous and gram.shape == (n, n)
        assert gram.tobytes("F") == stand_in.tobytes("F")
        # the Gram, one block of rows and the norms: at n = 130 and 200 a
        # second n x n array would pass this bound
        assert peak - gram.nbytes < 8 * n * (svm_module._BLOCK_ROWS + 2) + 4096
        U = rng.uniform(0.0, 2.0, size=(n, 90))
        for kind in KERNEL_KINDS:
            spec = KernelSpec(kind, 0.02 if kind in ("rbf", "chi_square") else None)
            assert training_gram(spec, U).tobytes("F") == kernel_matrix(spec, U, U).tobytes("F")

    def test_training_gram_above_the_budget_is_rejected(self, monkeypatch):
        # the budget holds the largest Gram of the 64-class growth probe many times
        assert svm_module._GRAM_ELEMENTS >= 8 * 1920 ** 2
        rbf, rng = KernelSpec("rbf", 0.5), np.random.default_rng(3)
        monkeypatch.setattr(svm_module, "_GRAM_ELEMENTS", 100)
        assert training_gram(rbf, rng.normal(size=(10, 2))).shape == (10, 10)
        X, y = rng.normal(size=(11, 2)), np.repeat([-1.0, 1.0], [5, 6])
        for build in (lambda: training_gram(rbf, X),
                      lambda: train_kernel_svm(X, y, rbf, SvmConfig()),
                      lambda: metrics.train_one_vs_all(
                          dataset.Dataset(X, (y > 0).astype(int), np.full(11, 1 / 11), 2),
                          rbf, SvmConfig())):
            with pytest.raises(ValidationError, match="11 x 11 .* limit of 100 entries"):
                build()

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_row_blocks_equal_rows_computed_alone(self, monkeypatch, kind):
        rng = np.random.default_rng(11)
        S = rng.uniform(0.0, 2.0, size=(40, 5))
        X = rng.uniform(0.0, 2.0, size=(2 * svm_module._BLOCK_ROWS + 5, 5))
        spec = KernelSpec(kind, 0.3 if kind in ("rbf", "chi_square") else None)
        blocks, block = [], svm_module._KERNEL_BLOCKS[kind]

        def recorded(gamma, A, *rest):
            blocks.append(A)
            return block(gamma, A, *rest)

        def sizes(rows):
            return [rows] * (len(X) // rows) + [len(X) % rows] * bool(len(X) % rows)

        monkeypatch.setitem(svm_module._KERNEL_BLOCKS, kind, recorded)
        whole = kernel_matrix(spec, X, S)
        assert [len(A) for A in blocks] == sizes(svm_module._BLOCK_ROWS)
        for i in range(len(X)):
            assert kernel_matrix(spec, X[i:i + 1], S).tobytes() == whole[i:i + 1].tobytes()
        # operands that fit in one block are passed whole, not sliced
        part = X[:svm_module._BLOCK_ROWS]
        blocks.clear()
        assert kernel_matrix(spec, part, S).tobytes() == whole[:len(part)].tobytes()
        assert len(blocks) == 1 and blocks[0] is part
        # broadcast kernels take fewer rows when a block would exceed the budget
        monkeypatch.setattr(svm_module, "_CHUNK_ELEMENTS", 3 * S.size)
        blocks.clear()
        assert kernel_matrix(spec, X, S).tobytes() == whole.tobytes()
        assert [len(A) for A in blocks] == sizes(
            svm_module._BLOCK_ROWS if kind in ("linear", "rbf") else 3)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            KernelSpec("rbf")
        with pytest.raises(ValidationError):
            KernelSpec("linear", 0.5)
        with pytest.raises(ValidationError):
            KernelSpec("sigmoid")

    @pytest.mark.parametrize("kind", ["rbf", "chi_square"])
    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
    def test_gamma_must_be_finite_and_positive(self, kind, gamma):
        # NaN passes a plain `gamma <= 0` test
        with pytest.raises(ValidationError, match="gamma"):
            KernelSpec(kind, gamma)


class TestSvmConfig:
    @pytest.mark.parametrize("c", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
    def test_c_must_be_finite_and_positive(self, c):
        with pytest.raises(ValidationError, match="regularization c"):
            SvmConfig(c=c)


def _projected_gradient_spread(X, y, weights, bias, alpha, c):
    """PGmax - PGmin at a linear solution, computed as the reference solver
    computes it: from the unsigned rows, times the labels."""
    g = y * (np.hstack([X, np.ones((len(X), 1))]) @ np.append(weights, bias)) - 1.0
    pg = np.where(alpha <= 0.0, np.minimum(g, 0.0),
                  np.where(alpha >= c, np.maximum(g, 0.0), g))
    return pg.max() - pg.min()


class TestLinearSolver:
    def test_separable_margins_match_analytic_optimum(self):
        model = train_linear_svm(SEP_X, SEP_Y, HARD_C)
        assert (np.sign(reference_decision_values(model, SEP_X)) == SEP_Y).all()
        # hard-margin optimum is w=1, b=0, confirmed by a grid oracle
        w_star, b_star, _ = grid_min_linear_svm_1d(
            SEP_X, SEP_Y, 1000.0, np.arange(0.0, 2.01, 0.01), np.arange(-1.0, 1.01, 0.01))
        assert (w_star, b_star) == pytest.approx((1.0, 0.0), abs=1e-9)
        assert reference_decision_values(model, np.array([[1.0], [-1.0]])) == pytest.approx(
            [1.0, -1.0], abs=1e-2)

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
        s1 = np.sign(reference_decision_values(single, grid))
        s2 = np.sign(reference_decision_values(doubled, grid))
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
        weights, bias, alpha, passes, converged = reference_linear_svm(X, y, cfg)
        np.testing.assert_array_equal(model.weights, weights)
        assert model.bias == bias
        record = model.convergence
        assert (record.iterations, record.converged) == (passes, converged)
        gap = _projected_gradient_spread(X, y, weights, bias, alpha, c)
        assert np.float64(record.gap).tobytes() == gap.tobytes()
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
            g = y * reference_decision_values(model, X) - 1.0
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

    def test_desk_scale_solve_equals_the_reference(self, monkeypatch):
        # a one-vs-rest problem shaped like the linear desk workload (20
        # blobs in 16-d, default solver settings) that shrinks its active
        # set, re-activates every coordinate once and ends on the pass budget
        data = dataset.generate_gaussian_blobs(20, 15, 16, 1.0, 15)
        X, y = data.features, np.where(data.labels == 0, 1.0, -1.0)
        cfg = SvmConfig()
        visited, spreads = [], []
        default_rng, pg_spread = np.random.default_rng, svm_module._pg_spread

        class Recorder:
            """Records how many coordinates each pass visits."""

            def __init__(self, seed):
                self.rng = default_rng(seed)

            def permutation(self, active):
                visited.append(len(active))
                return self.rng.permutation(active)

        def recorded_spread(*args):
            spreads.append(pg_spread(*args))
            return spreads[-1]

        monkeypatch.setattr(svm_module.np.random, "default_rng", Recorder)
        monkeypatch.setattr(svm_module, "_pg_spread", recorded_spread)
        model = train_linear_svm(X, y, cfg)
        monkeypatch.undo()
        weights, bias, alpha, passes, converged = reference_linear_svm(X, y, cfg)
        assert model.weights.tobytes() == weights.tobytes()
        assert np.float64(model.bias).tobytes() == np.float64(bias).tobytes()
        assert (model.convergence.iterations, model.convergence.converged) == (passes, converged)
        gap = _projected_gradient_spread(X, y, weights, bias, alpha, cfg.c)
        assert np.float64(model.convergence.gap).tobytes() == gap.tobytes()
        assert passes == cfg.max_passes and not converged
        assert len(y) == 300 and min(visited) < len(y) // 10
        # every spread but the last was measured at a pass that met the
        # tolerance on the active set, and re-activated everyone
        assert len(spreads) >= 2 and min(spreads) > cfg.tolerance
        assert visited.count(len(y)) >= 2


class TestKernelSolver:
    def test_linear_kernel_agrees_with_linear_solver(self):
        model = train_kernel_svm(SEP_X, SEP_Y, KernelSpec("linear"), HARD_C)
        linear = train_linear_svm(SEP_X, SEP_Y, HARD_C)
        # probes stay off the decision boundary at 0
        probes = np.concatenate([np.linspace(-3, -0.25, 12),
                                 np.linspace(0.25, 3, 12)]).reshape(-1, 1)
        km = np.where(reference_decision_values(model, probes) >= 0, 1, -1)
        lm = np.where(reference_decision_values(linear, probes) >= 0, 1, -1)
        assert (km == lm).all()

    def test_rbf_solves_xor_exactly(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        model = train_kernel_svm(X, y, KernelSpec("rbf", 1.0),
                                 SvmConfig(c=10.0, tolerance=1e-4, max_passes=2000, seed=0))
        assert (np.sign(reference_decision_values(model, X)) == y).all()

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
        margins = y[others] * reference_decision_values(model, X[others])
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
            s1 = np.where(reference_decision_values(lin, grid) >= 0, 1, -1)
            s2 = np.where(reference_decision_values(ker, grid) >= 0, 1, -1)
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

    def test_one_vs_all_on_blobs_equals_the_reference(self):
        # 300 samples share one column-major Gram of several tiles
        data = dataset.generate_gaussian_blobs(6, 50, 8, 1.2, 3)
        spec, cfg = KernelSpec("rbf", 0.2), SvmConfig()
        ova = metrics.train_one_vs_all(data, spec, cfg)
        for cls, model in enumerate(ova.models):
            y = np.where(data.labels == cls, 1.0, -1.0)
            expected = reference_kernel_svm(data.features, y, spec, cfg)
            for part in ("support_vectors", "dual_coefficients", "sv_ids"):
                assert getattr(model, part).tobytes() == getattr(expected, part).tobytes()
            assert np.float64(model.bias).tobytes() == np.float64(expected.bias).tobytes()
            got, want = model.convergence, expected.convergence
            assert (got.iterations, got.converged) == (want.iterations, want.converged)
            assert np.float64(got.gap).tobytes() == np.float64(want.gap).tobytes()
            assert got.iterations > len(y)

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


class TestTrainingFeatureRange:
    """Training rejects features that are not finite, with the error that
    Dataset and route give, and features that overflow the arithmetic its
    solver does with them, with an error that names the features; it trains
    on any others without a floating-point warning. The linear solver adds
    a row's squares and its constant column's 1; the rbf training Gram's
    squared distances reach 4 times the largest squared norm, and a
    chi-square term's squared difference, on nonnegative features, at most
    that norm. Histogram intersection squares nothing: its largest Gram
    entry is a row's feature sum, and the solver adds two of them."""

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["linear", "rbf", "chi_square", "histogram_intersection"]),
           seed=st.integers(0, 2 ** 16), mantissa=st.floats(1.0, 10.0),
           exponent=st.integers(0, 307))
    @example(kind="linear", seed=0, mantissa=8.0, exponent=153)
    @example(kind="rbf", seed=0, mantissa=8.0, exponent=153)
    @example(kind="chi_square", seed=0, mantissa=8.0, exponent=153)
    @example(kind="histogram_intersection", seed=0, mantissa=2.0, exponent=307)
    @example(kind="histogram_intersection", seed=0, mantissa=9.0, exponent=307)
    def test_rejected_exactly_when_a_squared_norm_overflows(self, kind, seed, mantissa,
                                                              exponent):
        """The largest feature magnitude is mantissa * 10**exponent, up to
        1e308, and the nonnegative kernels' features are nonnegative. In the
        explicit examples, the largest squared norm is finite and 4 times it
        is not, so the linear and chi-square solvers train and the rbf Gram
        rejects; histogram intersection trains on 3 features up to 2e307
        and rejects rows whose feature sum times 2 is not finite."""
        X, y = random_binary_dataset(np.random.default_rng(seed), 12, 3)
        if kind in ("chi_square", "histogram_intersection"):
            X = np.abs(X)
        X *= mantissa * 10.0 ** exponent / np.abs(X).max()
        kernel = KernelSpec(kind, 0.5 if kind in ("rbf", "chi_square") else None)
        with np.errstate(over="ignore"):
            if kind == "linear":
                reached = squared_norms(np.hstack([X, np.ones((12, 1))]))
            elif kind == "histogram_intersection":
                reached = 2 * X.sum(axis=1)
            else:
                reached = (4 if kind == "rbf" else 1) * squared_norms(X)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if np.isfinite(reached).all():
                model = train_svm(X, y, kernel, SvmConfig())
                assert model.convergence.iterations > 0
            else:
                with pytest.raises(ValidationError, match="features too large"):
                    train_svm(X, y, kernel, SvmConfig())

    @pytest.mark.parametrize("kind", ["linear", "rbf", "chi_square"])
    def test_overflowing_blobs_are_rejected_before_any_warning(self, kind):
        """The 6-class blobs scaled by 1e154 (their magnitudes, for
        chi-square), whose squared norms overflow: a node solve and
        one-vs-all both reject them before any warning."""
        blobs = dataset.generate_gaussian_blobs(6, 30, 4, 1.0, 3)
        X = (np.abs(blobs.features) if kind == "chi_square" else blobs.features) * 1e154
        kernel = KernelSpec(kind, None if kind == "linear" else 0.5)
        y = np.where(blobs.labels == 0, 1.0, -1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="features too large"):
                train_svm(X, y, kernel, SvmConfig())
            with pytest.raises(ValidationError, match="features too large"):
                metrics.train_one_vs_all(dataset.Dataset(X, blobs.labels, blobs.weights,
                                                         blobs.num_classes), kernel, SvmConfig())

    def test_histogram_intersection_rows_near_the_largest_double_are_rejected(self):
        """The 6-class blobs' magnitudes with each row scaled so that its
        largest feature is 1e308, whose Gram sums of minima overflow: a node
        solve, the training Gram and one-vs-all reject them before any
        warning."""
        blobs = dataset.generate_gaussian_blobs(6, 30, 4, 1.0, 3)
        X = np.abs(blobs.features)
        X *= 1e308 / X.max(axis=1, keepdims=True)
        kernel = KernelSpec("histogram_intersection")
        y = np.where(blobs.labels == 0, 1.0, -1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="features too large"):
                train_svm(X, y, kernel, SvmConfig())
            with pytest.raises(ValidationError, match="features too large"):
                training_gram(kernel, X)
            with pytest.raises(ValidationError, match="features too large"):
                metrics.train_one_vs_all(dataset.Dataset(X, blobs.labels, blobs.weights,
                                                         blobs.num_classes), kernel, SvmConfig())

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["rbf", "chi_square", "histogram_intersection"]),
           seed=st.integers(0, 2 ** 16), mantissa=st.floats(1.0, 10.0),
           exponent=st.integers(-300, 307))
    @example(kind="histogram_intersection", seed=0, mantissa=1.0, exponent=160)
    def test_both_classes_keep_a_support_vector_at_every_accepted_scale(self, kind, seed,
                                                                       mantissa, exponent):
        """At any feature scale that the feature rule accepts, from 1e-300
        up, a kernel model trained on both classes keeps at least one
        support vector of each: a support vector is a nonzero dual weight,
        however small the kernel's scale makes it."""
        X, y = random_binary_dataset(np.random.default_rng(seed), 12, 3)
        X = np.abs(X) * (mantissa * 10.0 ** exponent / np.abs(X).max())
        kernel = KernelSpec(kind, None if kind == "histogram_intersection" else 0.5)
        try:
            svm_module._training_norms(X, kind)
        except ValidationError:
            assume(False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train_svm(X, y, kernel, SvmConfig())
        assert set(np.sign(model.dual_coefficients).tolist()) == {-1.0, 1.0}
        assert np.isfinite(model.bias)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    @pytest.mark.parametrize("cell", [np.nan, np.inf])
    def test_non_finite_features_are_rejected(self, kind, cell):
        """One NaN or inf feature among 20 nonnegative rows: the solver and
        the training Gram reject it as not finite, before any warning
        (Dataset, which one-vs-all and the tree train from, rejects it
        too)."""
        blobs = dataset.generate_gaussian_blobs(2, 10, 3, 1.0, 4)
        X = np.abs(blobs.features)
        X[7, 1] = cell
        kernel = KernelSpec(kind, 0.5 if kind in ("rbf", "chi_square") else None)
        y = np.where(blobs.labels == 0, 1.0, -1.0)
        message = re.escape("features must be finite (no NaN or inf)")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                train_svm(X, y, kernel, SvmConfig())
            with pytest.raises(ValidationError, match=message):
                training_gram(kernel, X)

    def test_histogram_intersection_trains_on_features_whose_squares_overflow(self):
        """Blob magnitudes scaled by 1e160, whose squares overflow and which
        chi-square rejects, train under histogram intersection without a
        warning."""
        blobs = dataset.generate_gaussian_blobs(6, 30, 4, 1.0, 3)
        X = np.abs(blobs.features) * 1e160
        y = np.where(blobs.labels == 0, 1.0, -1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="features too large"):
                train_svm(X, y, KernelSpec("chi_square", 0.5), SvmConfig())
            model = train_svm(X, y, KernelSpec("histogram_intersection"), SvmConfig())
        assert model.convergence.iterations > 0 and np.isfinite(model.bias)


def _one_model_bank(model, dimension):
    """A one-model bank and its model's placement (ClassifierBank.of)."""
    kernel = KernelSpec("linear") if isinstance(model, LinearSvmModel) else model.kernel
    return ClassifierBank.of([model], kernel, dimension)


def _one_model_values(model, X):
    """The model's decision values on the rows of X, through a one-model bank
    and its coefficient matrix (metrics._flat_bank)."""
    kernel = KernelSpec("linear") if isinstance(model, LinearSvmModel) else model.kernel
    bank, coefficients = metrics._flat_bank([model], kernel, X.shape[1])
    return (bank.inputs(X) @ coefficients + bank.biases)[:, 0]


class TestDecisionAndPredict:
    """One model evaluated through a one-model ClassifierBank."""

    def test_zero_weight_linear_model_uses_bias(self):
        model = LinearSvmModel(np.zeros(3), 0.7)
        assert _one_model_values(model, np.zeros((2, 3))).tolist() == [0.7, 0.7]

    def test_single_support_vector_kernel_value(self):
        model = KernelSvmModel(
            support_vectors=np.array([[0.4, 0.0]]),
            dual_coefficients=np.array([1.0]),
            bias=0.0, kernel=KernelSpec("histogram_intersection"),
            sv_ids=np.array([0]))
        values = _one_model_values(model, np.array([[1.0, 0.0]]))
        assert values.shape == (1,) and values[0] == pytest.approx(0.4, abs=1e-15)

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
        bank, _ = _one_model_bank(model, 3)
        block = bank.inputs(probes)
        for i in range(len(probes)):
            assert bank.inputs(probes[i:i + 1]).tobytes() == block[i].tobytes()
        values = _one_model_values(model, probes)
        assert values.shape == (15,)
        np.testing.assert_allclose(values, reference_decision_values(model, probes),
                                   rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(KERNEL_KINDS), seed=st.integers(0, 2**32 - 1),
           rows=st.lists(st.integers(0, 29), min_size=1, max_size=30, unique=True))
    def test_each_value_depends_on_its_own_row_only(self, kind, seed, rows):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.0, 2.0, size=(30, 4))
        n_sv = int(rng.integers(1, 40))
        S = rng.uniform(0.0, 2.0, size=(n_sv, 4))
        spec = KernelSpec(kind, 0.6 if kind in ("rbf", "chi_square") else None)
        assert (kernel_matrix(spec, X[rows], S).tobytes()
                == kernel_matrix(spec, X, S)[rows].tobytes())
        if spec.is_linear:
            model = LinearSvmModel(rng.normal(size=4), float(rng.normal()))
        else:
            model = KernelSvmModel(S, rng.normal(size=n_sv), float(rng.normal()), spec,
                                   np.arange(n_sv))
        bank, _ = _one_model_bank(model, 4)
        assert bank.inputs(X[rows]).tobytes() == bank.inputs(X)[rows].tobytes()


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
        if spec.is_linear:
            # the linear kernel reads no norms; its rows are as independent
            table, cached = S, lambda A: kernel_matrix(spec, A, S)
        else:
            # the bank's table keeps S's order, since its sv_ids increase, in
            # its own column-major layout
            model = KernelSvmModel(S, rng.normal(size=n_sv), float(rng.normal()), spec,
                                   np.arange(n_sv))
            bank, _ = _one_model_bank(model, d)
            table, cached = bank.rows, bank.inputs
            assert table.flags.f_contiguous and table.tobytes("C") == S.tobytes()
        expected = kernel_matrix(spec, X, table)
        assert cached(X).tobytes() == expected.tobytes()
        rows = rng.permutation(n_rows)[:max(1, n_rows // 2)]
        assert cached(X[rows]).tobytes() == expected[rows].tobytes()
        for i in range(n_rows):
            assert cached(X[i:i + 1]).tobytes() == expected[i].tobytes()


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


def _flat_run(models, kernel, n=1, dimension=2):
    """The evaluation run of n instances of ``dimension`` zeros through a
    flat baseline of ``models``: a one-vs-one model with every model voting
    between classes 0 and 1 (metrics.evaluate_one_vs_one)."""
    model = metrics.FlatModel(models, 2, *metrics._flat_bank(models, kernel, dimension),
                              [(0, 1)] * len(models))
    data = dataset.Dataset(np.zeros((n, dimension)), np.zeros(n, dtype=np.int64),
                           np.full(n, 1.0 / n), 2)
    return metrics.evaluate_one_vs_one(model, data)


def _kernel_computations(models):
    """One instance's (union, uncached) counts when a flat baseline of
    ``models`` evaluates every one of them."""
    run = _flat_run(models, KernelSpec("rbf", 1.0))
    return int(run.kernel_computations[0]), int(run.kernel_computations_uncached[0])


class TestKernelEvalCounter:
    """Per-instance kernel computations of a set of models that a flat
    baseline evaluates together (metrics._evaluate_flat)."""

    def test_shared_support_vectors_counted_once(self):
        first = _toy_kernel_model(np.arange(0, 10))
        second = _toy_kernel_model(np.arange(5, 15))
        assert _kernel_computations([first, second]) == (15, 20)

    def test_single_model_counts_every_sv(self):
        assert _kernel_computations([_toy_kernel_model(np.arange(10))]) == (10, 10)

    def test_no_models_cost_nothing(self):
        assert _kernel_computations([]) == (0, 0)

    @given(st.lists(st.lists(st.integers(0, 30), min_size=1, max_size=12, unique=True),
                    min_size=1, max_size=6))
    def test_union_never_exceeds_sum(self, id_sets):
        models = [_toy_kernel_model(ids) for ids in id_sets]
        union, uncached = _kernel_computations(models)
        assert union == len({i for ids in id_sets for i in ids}) <= uncached
        assert uncached == sum(len(ids) for ids in id_sets)



def _columns_by_model(placed):
    """Each model's input columns in a Placement, as lists."""
    return [placed.columns[a:b].tolist() for a, b in zip(placed.starts, placed.starts[1:])]


class TestClassifierBank:
    """One bank per set of models: their biases, where their coefficients
    sit among its inputs, and, for kernel models, the table of their
    distinct support vectors; and the flat baselines' coefficient matrix and
    counts over it (metrics._flat_bank and metrics._evaluate_flat)."""

    def test_linear_columns_are_the_weights(self):
        models = [LinearSvmModel(np.array([1.0, -2.0, 0.5]), 0.25),
                  LinearSvmModel(np.array([0.0, 3.0, -1.0]), -1.5)]
        linear = KernelSpec("linear")
        bank, placed = ClassifierBank.of(models, linear, 3)
        assert _columns_by_model(placed) == [[0, 1, 2]] * 2
        assert metrics._flat_bank(models, linear, 3)[1].tobytes() == np.column_stack(
            [m.weights for m in models]).tobytes()
        assert bank.biases.tolist() == [0.25, -1.5]
        assert bank.sv_ids.shape == (0,) and bank.rows.shape == (0, 3)
        X = np.arange(6.0).reshape(2, 3)
        assert bank.inputs(X) is X
        run = _flat_run(models, linear, n=2, dimension=3)
        assert run.kernel_computations is run.kernel_computations_uncached is None

    def test_kernel_columns_scatter_dual_coefficients_over_the_table(self):
        first, second = _toy_kernel_model([4, 9, 2]), _toy_kernel_model([9, 7])
        bank, placed = ClassifierBank.of([first, second], KernelSpec("rbf", 1.0), 2)
        assert bank.sv_ids.tolist() == [2, 4, 7, 9]
        assert _columns_by_model(placed) == [[1, 3, 0], [3, 2]]
        assert placed.owners.tolist() == [0, 0, 0, 1, 1]
        assert placed.values.tolist() == [*first.dual_coefficients, *second.dual_coefficients]
        expected = np.zeros((4, 2))
        expected[[1, 3, 0], 0] = first.dual_coefficients
        expected[[3, 2], 1] = second.dual_coefficients
        flat_bank, coefficients = metrics._flat_bank([first, second], KernelSpec("rbf", 1.0), 2)
        assert coefficients.tobytes() == expected.tobytes()
        assert flat_bank.sv_ids.tobytes() == bank.sv_ids.tobytes()
        assert bank.rows.flags.f_contiguous
        # sv_id 9, kept by both, sits in the second model's group with its row
        assert bank.rows[[1, 0]].tobytes() == first.support_vectors[[0, 2]].tobytes()
        assert bank.rows[[3, 2]].tobytes() == second.support_vectors.tobytes()
        assert bank.norms.tobytes() == squared_norms(bank.rows).tobytes()
        run = _flat_run([first, second], KernelSpec("rbf", 1.0), n=3)
        union, uncached = run.kernel_computations, run.kernel_computations_uncached
        assert union.tolist() == [4] * 3 and uncached.tolist() == [5] * 3
        assert (union[0], uncached[0]) == reference_kernel_computations([first, second])

    @pytest.mark.parametrize("kernel", [KernelSpec("linear"), KernelSpec("rbf", 1.0)],
                             ids=lambda k: k.kind)
    def test_no_models_give_no_values(self, kernel):
        bank, placed = ClassifierBank.of([], kernel, 3)
        X = np.ones((4, 3))
        assert _columns_by_model(placed) == [] and placed.values.shape == (0,)
        bank, coefficients = metrics._flat_bank([], kernel, 3)
        assert (bank.inputs(X) @ coefficients).shape == (4, 0)
        assert bank.biases.shape == (0,)

    @pytest.mark.parametrize("kernel", [KernelSpec("chi_square", 1.0),
                                        KernelSpec("histogram_intersection")],
                             ids=lambda k: k.kind)
    def test_negative_support_vector_rejected(self, kernel):
        model = replace(_toy_kernel_model([3, 1]), kernel=kernel)
        model.support_vectors.flat[1] = -0.25
        with pytest.raises(ValidationError, match="nonnegative"):
            ClassifierBank.of([model], kernel, 2)
        # the rbf kernel reads features of any sign
        rbf = KernelSpec("rbf", 1.0)
        bank, _ = ClassifierBank.of([replace(model, kernel=rbf)], rbf, 2)
        assert bank.rows.min() == -0.25

    @pytest.mark.parametrize("part", ["weights", "linear-bias", "dual_coefficients",
                                      "support_vectors", "kernel-bias"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value_rejected(self, part, value):
        if part.startswith("linear") or part == "weights":
            model, kernel = LinearSvmModel(np.array([1.0, 2.0]), 0.5), KernelSpec("linear")
        else:
            model, kernel = _toy_kernel_model([3, 1]), KernelSpec("rbf", 1.0)
        if part.endswith("bias"):
            model = replace(model, bias=value)
        else:
            getattr(model, part).flat[1] = value
        with pytest.raises(ValidationError, match="finite"):
            ClassifierBank.of([model], kernel, 2)
