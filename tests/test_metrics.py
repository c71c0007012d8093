import numpy as np
import pytest

from atree import metrics as metrics_module
from atree import svm as svm_module
from atree.boosting import BoostConfig
from atree.dataset import Dataset, generate_gaussian_blobs, split_train_test
from atree.errors import ValidationError
from atree.metrics import (EvaluationRun, FlatModel, _flat_bank,
                           _flat_decision_values, complexity_report, evaluate_atree,
                           evaluate_one_vs_all, evaluate_one_vs_one, mean_per_class_accuracy,
                           train_one_vs_all, train_one_vs_one)
from atree.svm import KernelSpec, KernelSvmModel, LinearSvmModel, SvmConfig, train_svm
from atree.tree import (AtreeConfig, InternalNode, deserialize, iter_nodes, predict, serialize,
                        train_atree)
from oracles import reference_decision_values, reference_kernel_computations


def _linear_run(method, n_classes, n_instances, per_instance_cost):
    return EvaluationRun(
        method=method, num_classes=n_classes,
        predictions=np.zeros(n_instances, dtype=np.int64),
        truths=np.zeros(n_instances, dtype=np.int64),
        classifier_evaluations=np.full(n_instances, per_instance_cost, dtype=np.int64))


def _node_paths(tree, run, n):
    """Per-instance node-id paths rebuilt from run.leaves and tree.paths,
    after checking that run.leaves holds one index into tree.leaves for each
    of the n rows and that each row is labelled with its leaf's label."""
    assert run.leaves.dtype == np.int64 and run.leaves.shape == (n,)
    assert ((0 <= run.leaves) & (run.leaves < len(tree.leaves))).all()
    leaves = run.leaves.tolist()
    assert run.predictions.tolist() == [tree.leaves[k].label for k in leaves]
    return [[node.node_id for node in tree.paths[k]] for k in leaves]


class TestOneVsAll:
    def test_one_evaluation_per_class(self):
        data = generate_gaussian_blobs(5, 10, 3, 0.5, seed=1)
        model = train_one_vs_all(data, KernelSpec("linear"), SvmConfig())
        run = evaluate_one_vs_all(model, data)
        assert (run.classifier_evaluations == 5).all()

    def test_two_class_argmax_is_total(self):
        data = generate_gaussian_blobs(2, 15, 2, 0.6, seed=2)
        model = train_one_vs_all(data, KernelSpec("linear"), SvmConfig())
        run = evaluate_one_vs_all(model, data)
        assert set(np.unique(run.predictions)) <= {0, 1}

    def test_zero_spread_blobs_are_perfect(self):
        data = generate_gaussian_blobs(4, 10, 3, 0.0, seed=3)
        model = train_one_vs_all(data, KernelSpec("linear"), SvmConfig())
        run = evaluate_one_vs_all(model, data)
        assert mean_per_class_accuracy(run.predictions, run.truths, 4) == 1.0

    def test_missing_class_rejected(self):
        data = generate_gaussian_blobs(3, 10, 2, 0.5, seed=4)
        sub = data.subset(np.flatnonzero(data.labels != 1))
        with pytest.raises(ValidationError):
            train_one_vs_all(sub, KernelSpec("linear"), SvmConfig())

    def test_missing_class_named_by_its_label(self):
        data = generate_gaussian_blobs(3, 10, 2, 0.5, seed=4)
        named = Dataset(data.features, data.labels, data.weights, 3, ["a", "b", "c"])
        with pytest.raises(ValidationError, match=r"classes \['b'\] are absent"):
            train_one_vs_all(named.subset(np.flatnonzero(data.labels != 1)),
                             KernelSpec("linear"), SvmConfig())

    @pytest.mark.parametrize("kernel", [KernelSpec("linear"), KernelSpec("rbf", 0.5),
                                        KernelSpec("histogram_intersection")],
                             ids=lambda spec: spec.kind)
    def test_one_gram_for_every_class(self, monkeypatch, kernel):
        data = generate_gaussian_blobs(4, 12, 3, 0.8, seed=5)
        # nonnegative features, as histogram intersection requires
        data = Dataset(np.abs(data.features), data.labels, data.weights, data.num_classes)
        blocks = []
        original = svm_module.kernel_matrix

        def counted(spec, A, B):
            blocks.append((len(A), len(B)))
            return original(spec, A, B)

        monkeypatch.setattr(svm_module, "kernel_matrix", counted)
        model = train_one_vs_all(data, kernel, SvmConfig())
        assert blocks == ([] if kernel.is_linear else [(len(data), len(data))])
        monkeypatch.undo()
        for cls, got in enumerate(model.models):
            y = np.where(data.labels == cls, 1.0, -1.0)
            expected = train_svm(data.features, y, kernel, SvmConfig())
            if isinstance(expected, LinearSvmModel):
                parts = ("weights",)
            else:
                parts = ("support_vectors", "dual_coefficients", "sv_ids")
            for part in parts:
                assert getattr(got, part).tobytes() == getattr(expected, part).tobytes()
            assert np.float64(got.bias).tobytes() == np.float64(expected.bias).tobytes()
            assert got.convergence == expected.convergence


class TestOneVsOne:
    def test_pair_count_and_cost(self):
        data = generate_gaussian_blobs(5, 10, 3, 0.5, seed=5)
        model = train_one_vs_one(data, KernelSpec("linear"), SvmConfig())
        assert len(model.models) == 10
        run = evaluate_one_vs_one(model, data)
        assert (run.classifier_evaluations == 10).all()

    def test_two_classes_single_model_matches_binary_svm(self):
        data = generate_gaussian_blobs(2, 20, 2, 0.8, seed=6)
        model = train_one_vs_one(data, KernelSpec("linear"), SvmConfig())
        assert len(model.models) == 1
        from atree.svm import train_linear_svm
        y = np.where(data.labels == 1, 1.0, -1.0)
        binary = train_linear_svm(data.features, y, SvmConfig())
        run = evaluate_one_vs_one(model, data)
        direct = np.where(reference_decision_values(binary, data.features) >= 0, 1, 0)
        np.testing.assert_array_equal(run.predictions, direct)

    def test_a_decision_value_of_zero_votes_for_the_second_class(self):
        # every pair's decision value is exactly 0: (0, 1) votes 1, and
        # (0, 2) and (1, 2) vote 2
        pairs = [(0, 1), (0, 2), (1, 2)]
        models = [LinearSvmModel(np.zeros(2), 0.0) for _ in pairs]
        model = FlatModel(models, 3, *_flat_bank(models, KernelSpec("linear"), 2), pairs)
        data = Dataset(np.ones((3, 2)), [0, 1, 2], np.full(3, 1 / 3), 3)
        assert (_flat_decision_values(model, data.features) == 0.0).all()
        assert evaluate_one_vs_one(model, data).predictions.tolist() == [2, 2, 2]

    def test_the_models_pairs_not_the_function_pick_argmax_or_votes(self):
        # decision values 0.5, -1 and 2: their argmax is class 2, and as the
        # pairs (0, 1), (0, 2) and (1, 2) they vote 1, 0 and 2, a tie that
        # class 0 takes
        models = [LinearSvmModel(np.array([v]), 0.0) for v in (0.5, -1.0, 2.0)]
        bank = _flat_bank(models, KernelSpec("linear"), 1)
        ova = FlatModel(models, 3, *bank)
        ovo = FlatModel(models, 3, *bank, [(0, 1), (0, 2), (1, 2)])
        data = Dataset(np.ones((3, 1)), [0, 1, 2], np.full(3, 1 / 3), 3)
        for evaluate in (evaluate_one_vs_all, evaluate_one_vs_one):
            for model, method, label in ((ova, "ova", 2), (ovo, "ovo", 0)):
                run = evaluate(model, data)
                assert run.method == method
                assert run.predictions.tolist() == [label] * 3

    def test_relative_complexity_is_half_n_minus_one(self):
        for n in (2, 8, 256, 397):
            ovo = _linear_run("ovo", n, 10, n * (n - 1) // 2)
            ova = _linear_run("ova", n, 10, n)
            rel = complexity_report(ovo, ova).relative_complexity
            assert rel == (n - 1) / 2


class TestMeanPerClassAccuracy:
    def test_perfect_predictions(self):
        truths = np.array([0, 1, 2, 0, 1, 2])
        assert mean_per_class_accuracy(truths, truths, 3) == 1.0

    def test_unweighted_over_classes(self):
        # class 0: 4 instances all right; class 1: 2 instances, one right
        truths = np.array([0, 0, 0, 0, 1, 1])
        preds = np.array([0, 0, 0, 0, 1, 0])
        assert mean_per_class_accuracy(preds, truths, 2) == 0.75

    def test_constant_predictor_on_balanced_classes(self):
        truths = np.repeat(np.arange(5), 4)
        preds = np.zeros_like(truths)
        assert mean_per_class_accuracy(preds, truths, 5) == pytest.approx(1 / 5)

    def test_empty_class_rejected(self):
        with pytest.raises(ValidationError):
            mean_per_class_accuracy(np.array([0, 1]), np.array([0, 1]), 3)

    def test_empty_class_named_by_its_label(self):
        with pytest.raises(ValidationError, match="class 30 has no test instances"):
            mean_per_class_accuracy(np.array([0, 1]), np.array([0, 1]), 3, [10, 20, 30])


class TestComplexityReport:
    def test_atree_trace_three_over_twenty_classes(self):
        atree_run = _linear_run("atree", 20, 50, 3)
        ova_run = _linear_run("ova", 20, 50, 20)
        report = complexity_report(atree_run, ova_run)
        assert report.relative_complexity == 0.15

    def test_reference_against_itself_is_exactly_one(self):
        run = _linear_run("ova", 7, 13, 7)
        assert complexity_report(run, run).relative_complexity == 1.0

    def test_disjoint_support_vector_sets_add(self):
        a = KernelSvmModel(np.random.default_rng(1).uniform(size=(4, 2)),
                           np.ones(4), 0.0, KernelSpec("rbf", 1.0), np.arange(4))
        b = KernelSvmModel(np.random.default_rng(2).uniform(size=(6, 2)),
                           np.ones(6), 0.0, KernelSpec("rbf", 1.0), np.arange(10, 16))
        model = FlatModel([a, b], 2, *_flat_bank([a, b], KernelSpec("rbf", 1.0), 2))
        run = evaluate_one_vs_all(model, Dataset(np.zeros((1, 2)), [0], [1.0], 2))
        assert (run.kernel_computations[0], run.kernel_computations_uncached[0]) == (10, 10)

    def test_kernel_family_mismatch_rejected(self):
        linear = _linear_run("atree", 4, 5, 2)
        nonlinear = EvaluationRun(
            method="ova", num_classes=4,
            predictions=np.zeros(5, dtype=np.int64), truths=np.zeros(5, dtype=np.int64),
            classifier_evaluations=np.full(5, 4), kernel_computations=np.full(5, 30))
        with pytest.raises(ValidationError):
            complexity_report(linear, nonlinear)

    def test_report_is_pure_function_of_runs(self):
        run = _linear_run("atree", 6, 9, 2)
        ref = _linear_run("ova", 6, 9, 6)
        first = complexity_report(run, ref)
        second = complexity_report(run, ref)
        assert first.relative_complexity == second.relative_complexity


class TestEndToEnd:
    def test_atree_linear_cost_is_trace_length_and_sublinear(self):
        data = generate_gaussian_blobs(8, 30, 6, 0.8, seed=9)
        train, test = split_train_test(data, 0.5, seed=1, stratified=True)
        tree = train_atree(train, AtreeConfig(delta=0.6, max_depth=6))
        run = evaluate_atree(tree, test)
        assert run.classifier_evaluations.max() <= tree.depth
        assert run.classifier_evaluations.mean() < 8

    def test_atree_rejects_data_of_other_classes(self):
        data = generate_gaussian_blobs(3, 10, 2, 0.5, seed=4)
        tree = train_atree(data, AtreeConfig(max_depth=2))
        for names in ([1, 2, 3], [0, 1], ["0", "1", "2"]):
            other = Dataset(data.features, data.labels % len(names), data.weights,
                            len(names), names)
            with pytest.raises(ValidationError, match="are not the tree's"):
                evaluate_atree(tree, other)
        assert len(evaluate_atree(tree, data).predictions) == len(data)

    def test_nonlinear_ova_union_counts_at_most_sum(self):
        data = generate_gaussian_blobs(3, 20, 3, 1.0, seed=10)
        model = train_one_vs_all(data, KernelSpec("rbf", 0.5), SvmConfig())
        run = evaluate_one_vs_all(model, data)
        assert (run.kernel_computations <= run.kernel_computations_uncached).all()
        # one-vs-all models share the training set, so their SV sets overlap
        assert (run.kernel_computations < run.kernel_computations_uncached).any()

    def test_nonlinear_atree_run_records_kernel_counts(self):
        data = generate_gaussian_blobs(4, 25, 3, 1.0, seed=11)
        tree = train_atree(data, AtreeConfig(delta=0.7, max_depth=4,
                                             kernel=KernelSpec("rbf", 0.5)))
        run = evaluate_atree(tree, data)
        assert run.kernel_computations is not None
        assert (run.kernel_computations <= run.kernel_computations_uncached).all()

    def test_atree_kernel_counts_match_brute_force_union_over_traces(self):
        data = generate_gaussian_blobs(5, 20, 3, 1.0, seed=12)
        train, test = split_train_test(data, 0.5, seed=1, stratified=True)
        tree = train_atree(train, AtreeConfig(delta=0.7, max_depth=4,
                                              kernel=KernelSpec("rbf", 0.5)))
        sv_ids = {n.node_id: n.svm.sv_ids.tolist() for n in iter_nodes(tree.root)
                  if isinstance(n, InternalNode) and n.svm is not None}
        run = evaluate_atree(tree, test)
        paths = _node_paths(tree, run, len(test))
        for i, x in enumerate(test.features):
            label, trace = predict(tree, x)
            ids = [sid for nid, _ in trace for sid in sv_ids[nid]]
            assert run.predictions[i] == label
            assert paths[i] == [nid for nid, _ in trace]
            assert run.kernel_computations[i] == len(set(ids))
            assert run.kernel_computations_uncached[i] == len(ids)

    def test_atree_evaluation_counts_no_support_vectors(self, monkeypatch):
        data = generate_gaussian_blobs(5, 20, 3, 1.0, seed=12)
        tree = train_atree(data, AtreeConfig(delta=0.7, max_depth=4,
                                             kernel=KernelSpec("rbf", 0.5)))
        expected = evaluate_atree(tree, data)
        calls = []
        for name in ("unique", "union1d"):
            monkeypatch.setattr(np, name, lambda *a, name=name, **k: calls.append(name))
        for _ in range(2):
            run = evaluate_atree(tree, data)
        monkeypatch.undo()
        assert calls == []
        assert run.kernel_computations.tobytes() == expected.kernel_computations.tobytes()
        assert (run.kernel_computations_uncached.tobytes()
                == expected.kernel_computations_uncached.tobytes())

    def test_flat_kernel_counts_are_constant(self):
        data = generate_gaussian_blobs(4, 12, 3, 1.0, seed=13)
        spec = KernelSpec("rbf", 0.5)
        for train, evaluate in ((train_one_vs_all, evaluate_one_vs_all),
                                (train_one_vs_one, evaluate_one_vs_one)):
            model = train(data, spec, SvmConfig())
            ids = [sid for m in model.models for sid in m.sv_ids.tolist()]
            run = evaluate(model, data)
            assert (run.kernel_computations == len(set(ids))).all()
            assert (run.kernel_computations_uncached == len(ids)).all()

    @pytest.mark.parametrize("blobs, config", [
        ((20, 100, 16, 1.0, 11), AtreeConfig(delta=0.7, boost=BoostConfig(max_rounds=30))),
        ((16, 100, 8, 1.2, 3), AtreeConfig(delta=0.8, max_depth=8,
                                           kernel=KernelSpec("rbf", 0.2),
                                           boost=BoostConfig(max_rounds=20))),
    ], ids=["linear-desk20", "rbf-blobs16"])
    def test_batched_routing_matches_per_instance_predict(self, blobs, config):
        data = generate_gaussian_blobs(*blobs)
        train, test = split_train_test(data, 0.5, seed=1, stratified=True)
        tree = train_atree(train, config)
        svms = {n.node_id: n.svm for n in iter_nodes(tree.root)
                if isinstance(n, InternalNode)}
        run = evaluate_atree(tree, test)
        singles = [predict(tree, x) for x in test.features]
        np.testing.assert_array_equal(run.predictions, [label for label, _ in singles])
        assert _node_paths(tree, run, len(test)) == [[nid for nid, _ in trace]
                                                     for _, trace in singles]
        np.testing.assert_array_equal(run.classifier_evaluations,
                                      [len(trace) for _, trace in singles])
        # the reloaded tree: the same labels and paths, and predict's
        # decision values bit for bit
        clone = deserialize(serialize(tree))
        reloaded = evaluate_atree(clone, test)
        assert reloaded.predictions.tobytes() == run.predictions.tobytes()
        assert _node_paths(clone, reloaded, len(test)) == _node_paths(tree, run, len(test))
        assert all(
            [(i, np.float64(v).tobytes()) for i, v in trace]
            == [(i, np.float64(v).tobytes()) for i, v in predict(clone, x)[1]]
            for x, (_, trace) in zip(test.features, singles))
        if config.kernel.is_linear:
            assert run.kernel_computations is None
        else:
            counts = [reference_kernel_computations([svms[nid] for nid, _ in trace])
                      for _, trace in singles]
            np.testing.assert_array_equal(run.kernel_computations, [c[0] for c in counts])
            np.testing.assert_array_equal(run.kernel_computations_uncached,
                                          [c[1] for c in counts])


class TestFlatUnionBlock:
    """One-vs-all and one-vs-one evaluate all their models through one
    product (linear) or one Gram block over the union of support vectors."""

    @pytest.mark.parametrize("spec", [KernelSpec("linear"), KernelSpec("rbf", 0.5),
                                      KernelSpec("chi_square", 0.5)],
                             ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("method", ["ova", "ovo"])
    def test_matches_per_model_decision_values(self, spec, method):
        data = generate_gaussian_blobs(4, 25, 3, 1.0, seed=14)
        # nonnegative features, as the chi-square kernel requires
        data = Dataset(data.features - data.features.min(), data.labels, data.weights,
                       data.num_classes)
        train, test = split_train_test(data, 0.5, seed=1, stratified=True)
        if method == "ova":
            model = train_one_vs_all(train, spec, SvmConfig())
            run = evaluate_one_vs_all(model, test)
        else:
            model = train_one_vs_one(train, spec, SvmConfig())
            run = evaluate_one_vs_one(model, test)
        per_model = np.stack([reference_decision_values(m, test.features) for m in model.models])
        values = _flat_decision_values(model, test.features)
        np.testing.assert_allclose(values, per_model, rtol=0, atol=1e-12)
        if method == "ova":
            expected = per_model.argmax(axis=0)
        else:
            votes = np.zeros((model.num_classes, len(test)), dtype=np.int64)
            for (a, b), dv in zip(model.pairs, per_model):
                np.add.at(votes, (np.where(dv >= 0, b, a), np.arange(len(test))), 1)
            expected = votes.argmax(axis=0)
        np.testing.assert_array_equal(run.predictions, expected)

    @pytest.mark.parametrize("spec", [KernelSpec("linear"), KernelSpec("rbf", 0.5)],
                             ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("train, evaluate", [(train_one_vs_all, evaluate_one_vs_all),
                                                 (train_one_vs_one, evaluate_one_vs_one)],
                             ids=["ova", "ovo"])
    def test_evaluation_builds_no_bank_and_counts_no_support_vectors(
            self, monkeypatch, spec, train, evaluate):
        data = generate_gaussian_blobs(4, 12, 3, 1.0, seed=13)
        model = train(data, spec, SvmConfig())
        expected = evaluate(model, data)
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(svm_module.ClassifierBank, "of",
                            counted("bank", svm_module.ClassifierBank.of))
        monkeypatch.setattr(metrics_module, "_flat_bank",
                            counted("matrix", metrics_module._flat_bank))
        monkeypatch.setattr(np, "unique", counted("unique", np.unique))
        for _ in range(2):
            run = evaluate(model, data)
        assert calls == []
        monkeypatch.undo()
        assert run.predictions.tobytes() == expected.predictions.tobytes()
        if spec.is_linear:
            assert run.kernel_computations is run.kernel_computations_uncached is None
        else:
            union, uncached = reference_kernel_computations(model.models)
            assert run.kernel_computations.tolist() == [union] * len(data)
            assert run.kernel_computations_uncached.tolist() == [uncached] * len(data)

    @pytest.mark.parametrize("spec", [KernelSpec("linear"), KernelSpec("rbf", 0.5)],
                             ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("train, evaluate", [(train_one_vs_all, evaluate_one_vs_all),
                                                 (train_one_vs_one, evaluate_one_vs_one)],
                             ids=["ova", "ovo"])
    def test_data_of_another_width_rejected(self, spec, train, evaluate):
        data = generate_gaussian_blobs(3, 10, 3, 0.5, seed=4)
        model = train(data, spec, SvmConfig())
        wide = Dataset(np.hstack([data.features, data.features[:, :1]]), data.labels,
                       data.weights, data.num_classes)
        with pytest.raises(ValidationError, match="dimension 3, test data has 4"):
            evaluate(model, wide)


class TestRowBlocks:
    """A test set is evaluated in row blocks of at most svm._EVAL_ELEMENTS
    inputs; several blocks give what one block gives."""

    @pytest.mark.parametrize("spec", [KernelSpec("linear"), KernelSpec("rbf", 0.5)],
                             ids=lambda spec: spec.kind)
    def test_several_blocks_equal_one(self, monkeypatch, spec):
        data = generate_gaussian_blobs(4, 25, 3, 1.0, seed=14)
        train, test = split_train_test(data, 0.5, seed=1, stratified=True)
        tree = train_atree(train, AtreeConfig(delta=0.7, max_depth=4, kernel=spec,
                                              boost=BoostConfig(max_rounds=5)))
        ova = train_one_vs_all(train, spec, SvmConfig())
        ovo = train_one_vs_one(train, spec, SvmConfig())
        run = evaluate_atree(tree, test)
        flat = [(m, evaluate, evaluate(m, test), _flat_decision_values(m, test.features))
                for m, evaluate in ((ova, evaluate_one_vs_all), (ovo, evaluate_one_vs_one))]
        blocks = []
        inputs = svm_module.ClassifierBank.inputs

        def recorded_inputs(bank, X):
            blocks.append(len(X))
            return inputs(bank, X)

        # blocks of 7 rows, the last one shorter
        sizes = [7] * (len(test) // 7) + [len(test) % 7]
        assert len(sizes) > 2 and sizes[-1]
        monkeypatch.setattr(svm_module.ClassifierBank, "inputs", recorded_inputs)
        monkeypatch.setattr(svm_module, "_EVAL_ELEMENTS", 7 * tree.bank.width)
        blocked = evaluate_atree(tree, test)
        assert blocks == sizes
        assert blocked.predictions.tobytes() == run.predictions.tobytes()
        assert blocked.classifier_evaluations.tobytes() == run.classifier_evaluations.tobytes()
        if spec.is_linear:
            assert blocked.kernel_computations is blocked.kernel_computations_uncached is None
        else:
            assert blocked.kernel_computations.tobytes() == run.kernel_computations.tobytes()
            assert (blocked.kernel_computations_uncached.tobytes()
                    == run.kernel_computations_uncached.tobytes())
        assert _node_paths(tree, blocked, len(test)) == _node_paths(tree, run, len(test))
        for model, evaluate, expected, values in flat:
            monkeypatch.setattr(svm_module, "_EVAL_ELEMENTS", 7 * model.bank.width)
            blocks.clear()
            assert evaluate(model, test).predictions.tobytes() == expected.predictions.tobytes()
            assert blocks == sizes
            np.testing.assert_allclose(_flat_decision_values(model, test.features), values,
                                       rtol=0, atol=1e-12)
