import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from atree.boosting import BoostConfig, BoostedClassifier, DecisionStump, adaboost_train
from atree.dataset import Dataset, generate_gaussian_blobs, generate_two_cluster_2d
from atree.errors import SchemaError, ValidationError
from atree.svm import KernelSpec, KernelSvmModel, LinearSvmModel, SvmConfig, squared_norms
from atree import cli
from atree import svm as svm_module
from atree import tree as tree_module
from atree.tree import (MODEL_SCHEMA_VERSION, Atree, AtreeConfig, EntropySplit,
                        InternalNode, LeafNode, attach_svms_phase2, binarize_labels,
                        build_phase1, deserialize, entropy_split, iter_nodes,
                        node_cost, partition_samples, path_levels, predict, route,
                        serialize, to_dot, train_atree)
from oracles import brute_force_entropy_split, random_weighted_multiclass

LN2 = math.log(2.0)


class TestEntropySplit:
    def test_pure_partition_has_zero_objective(self):
        X = np.array([[1.0], [2.0], [8.0], [9.0]])
        labels = np.array([0, 0, 1, 1])
        split = entropy_split(X, labels, np.full(4, 0.25), 2)
        assert split.feature_index == 0
        assert split.threshold == 5.0
        assert split.objective == 0.0

    def test_four_class_two_per_side(self):
        # feature 2 carries the structure, features 0-1 are constant
        rng = np.random.default_rng(0)
        labels = np.repeat(np.arange(4), 6).astype(np.int64)
        X = np.zeros((24, 3))
        X[:, 2] = np.where(labels < 2, 0.0, 1.0) + 0.01 * rng.random(24)
        w = np.full(24, 1 / 24)
        split = entropy_split(X, labels, w, 4)
        assert split.feature_index == 2
        assert split.objective == pytest.approx(LN2, abs=1e-12)
        left_share = split.left_masses / split.left_masses.sum()
        np.testing.assert_allclose(np.sort(left_share)[-2:], [0.5, 0.5], atol=1e-12)
        oracle = brute_force_entropy_split(X, labels, w, 4)
        assert split.objective == pytest.approx(oracle[0], abs=1e-12)
        assert (split.feature_index, split.threshold) == (oracle[1], oracle[2])

    def test_identical_samples_unsplittable(self):
        X = np.ones((6, 2))
        labels = np.array([0, 1, 0, 1, 0, 1])
        assert entropy_split(X, labels, np.full(6, 1 / 6), 2) is None

    def test_single_class_returns_none(self):
        X = np.random.default_rng(1).normal(size=(5, 2))
        assert entropy_split(X, np.zeros(5, dtype=np.int64), np.full(5, 0.2), 2) is None

    def test_matches_brute_force_on_random_data(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            X, labels, w = random_weighted_multiclass(
                rng, int(rng.integers(8, 60)), int(rng.integers(1, 5)), 4)
            split = entropy_split(X, labels, w, 4)
            oracle = brute_force_entropy_split(X, labels, w, 4)
            assert split.objective == pytest.approx(oracle[0], abs=1e-12)
            assert (split.feature_index, split.threshold) == (oracle[1], oracle[2])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40), d=st.integers(1, 4))
    def test_matches_brute_force_on_tied_values(self, data, n, d):
        # integer-grid features repeat values; some columns are constant
        X = data.draw(hnp.arrays(np.float64, (n, d), elements=st.integers(-2, 2).map(float)))
        X[:, data.draw(hnp.arrays(np.bool_, d))] = 1.0
        labels = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 3)))
        w = data.draw(hnp.arrays(np.float64, n, elements=st.integers(1, 4).map(float)))
        w /= w.sum()
        split = entropy_split(X, labels, w, 4)
        if len(np.unique(labels)) < 2:
            assert split is None
            return
        oracle = brute_force_entropy_split(X, labels, w, 4)
        if oracle is None:
            assert split is None
            return
        assert split.objective == pytest.approx(oracle[0], abs=1e-12)
        assert (split.feature_index, split.threshold) == (oracle[1], oracle[2])

    def test_side_masses_match_the_split(self):
        rng = np.random.default_rng(23)
        X, labels, w = random_weighted_multiclass(rng, 40, 3, 3)
        split = entropy_split(X, labels, w, 3)
        left = X[:, split.feature_index] < split.threshold
        np.testing.assert_array_equal(split.left_masses, np.bincount(labels[left], w[left], 3))
        np.testing.assert_array_equal(split.right_masses,
                                      np.bincount(labels[~left], w[~left], 3))
        assert split.left_masses.sum() + split.right_masses.sum() == pytest.approx(1.0, abs=1e-12)


class TestBinarize:
    def _split_on_feature0(self, X, labels, w, k):
        return entropy_split(X, labels, w, k)

    def test_mass_comparison_rule(self):
        # class 0: 0.3 left / 0.1 right -> -1; class 1: 0.1 left / 0.5 right -> +1
        labels = np.array([0, 0, 1, 0, 1, 1])
        split = EntropySplit(0, 0.5, np.array([0.3, 0.1]), np.array([0.1, 0.5]))
        signs, mapping = binarize_labels(labels, split)
        assert mapping == {0: -1, 1: 1}
        np.testing.assert_array_equal(signs, [-1, -1, 1, -1, 1, 1])

    def test_equal_masses_tie_goes_negative(self):
        labels = np.array([0, 0, 1, 1])
        split = EntropySplit(0, 0.5, np.array([0.25, 0.25]), np.array([0.25, 0.25]))
        signs, mapping = binarize_labels(labels, split)
        # class 0 ties 0.25/0.25 -> -1; class 1 ties too, but a two-class
        # node must stay a relabeling, so the other class takes +1
        assert sorted(mapping.values()) == [-1, 1]

    def test_two_class_input_never_merges(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            X, labels, w = random_weighted_multiclass(rng, 20, 2, 2)
            split = entropy_split(X, labels, w, 2)
            if split is None:
                continue
            _, mapping = binarize_labels(labels, split)
            assert sorted(mapping.values()) == [-1, 1]


def _soft_boost(seed=0, n=60, rounds=2):
    """A boosted model whose probabilities spread across (0.1, 0.9)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = np.where(X[:, 0] + 0.8 * rng.normal(size=n) > 0, 1, -1)
    if len(np.unique(y)) < 2:
        y[0] = -y[0]
    model = adaboost_train(X, y, np.full(n, 1 / n), BoostConfig(max_rounds=rounds))
    return model, X


class TestPartition:
    def test_confident_sample_routes_one_side(self):
        stump = DecisionStump(0, 0.0, 1)
        boost = BoostedClassifier(rounds=[(3.0, stump)])   # p(+) ~ 0.95 for x>0
        X = np.array([[1.0], [-1.0]])
        part = partition_samples(X, boost, 0.8)
        assert part.right_only_ids.tolist() == [0]
        assert part.left_only_ids.tolist() == [1]
        assert part.star_ids.tolist() == []

    def test_star_weights_follow_partition_probabilities(self):
        stump = DecisionStump(0, 0.0, 1)
        # alpha chosen so p(+1) ~ 0.69 (inside the band at delta 0.8)
        alpha = 0.4
        boost = BoostedClassifier(rounds=[(alpha, stump)])
        X = np.array([[1.0], [1.0], [-1.0]])
        p = 1.0 / (1.0 + math.exp(-alpha))
        part = partition_samples(X, boost, 0.8)
        assert part.star_ids.tolist() == [0, 1, 2]
        # all three are starred; right weights are (p, p, 1-p) normalized
        expect_right = np.array([p, p, 1 - p])
        np.testing.assert_allclose(part.right_weights,
                                   expect_right / expect_right.sum(), atol=1e-12)
        expect_left = np.array([1 - p, 1 - p, p])
        np.testing.assert_allclose(part.left_weights,
                                   expect_left / expect_left.sum(), atol=1e-12)

    def test_half_delta_routes_by_score_sign_with_empty_star(self):
        boost, X = _soft_boost(seed=2)
        part = partition_samples(X, boost, 0.5)
        assert len(part.star_ids) == 0
        assert set(part.left_ids.tolist()) | set(part.right_ids.tolist()) == set(range(len(X)))
        assert set(part.left_ids.tolist()) & set(part.right_ids.tolist()) == set()

    def test_delta_one_duplicates_everything(self):
        boost, X = _soft_boost(seed=3)
        part = partition_samples(X, boost, 1.0)
        assert part.star_ids.tolist() == list(range(len(X)))
        assert part.left_ids.tolist() == list(range(len(X)))
        assert part.right_ids.tolist() == list(range(len(X)))

    def test_star_band_identity(self):
        from atree.boosting import prob_positive_batch
        boost, X = _soft_boost(seed=4)
        p = prob_positive_batch(boost, X)
        for delta in (0.6, 0.75, 0.9):
            part = partition_samples(X, boost, delta)
            band = set(np.flatnonzero((p >= 1 - delta) & (p <= delta)).tolist())
            assert set(part.star_ids.tolist()) == band

    def test_coverage_identity(self):
        boost, X = _soft_boost(seed=5)
        ids = np.arange(len(X)) + 1000
        for delta in (0.5, 0.7, 1.0):
            part = partition_samples(X, boost, delta, ids=ids)
            assert set(part.left_ids.tolist()) | set(part.right_ids.tolist()) == set(ids.tolist())
            assert (set(part.left_ids.tolist()) & set(part.right_ids.tolist())
                    == set(part.star_ids.tolist()))

    def test_invalid_delta_rejected(self):
        boost, X = _soft_boost(seed=6)
        with pytest.raises(ValidationError):
            partition_samples(X, boost, 0.49)


SPLICE_DATA = generate_gaussian_blobs(4, 30, 3, 0.8, seed=12)
SPLICE_CONFIG = AtreeConfig(delta=0.7, max_depth=4, boost=BoostConfig(max_rounds=5))


def _forge_one_sided_root(monkeypatch, emptied):
    """Make the first partition phase one computes, the root's, route no
    sample confidently to the emptied side(s); returns the list that
    receives the forged partition."""
    real = tree_module.partition_samples
    forged = []

    def one_sided_at_root(X, boost, delta, ids=None):
        part = real(X, boost, delta, ids=ids)
        if not forged:
            for side in ("left_only_ids", "right_only_ids"):
                if emptied in (side, "both"):
                    setattr(part, side, np.array([], dtype=np.int64))
            forged.append(part)
        return part

    monkeypatch.setattr(tree_module, "partition_samples", one_sided_at_root)
    return forged


def _record_budget_depths(monkeypatch):
    """Record the depth budget build_phase1 had spent when it made each node,
    spliced levels included; returns the dict it fills, keyed by node id."""
    real = tree_module.build_phase1
    depths = {}

    def recording(data, config, depth=1, *rest):
        node = real(data, config, depth, *rest)
        # a splice returns its child's node: the innermost call records first
        depths.setdefault(node.node_id, depth)
        return node

    monkeypatch.setattr(tree_module, "build_phase1", recording)
    return depths


class TestBuildPhase1:
    def test_single_class_makes_root_leaf(self):
        data = generate_gaussian_blobs(2, 10, 2, 0.1, seed=1)
        sub = data.subset(np.flatnonzero(data.labels == 0))
        root = build_phase1(sub, AtreeConfig(delta=0.6, max_depth=4))
        assert isinstance(root, LeafNode)
        assert root.label == 0
        assert root.purity == 1.0

    def test_two_cluster_root_isolates_anchor_and_descends(self):
        data = generate_two_cluster_2d(1200, seed=1)
        cfg = AtreeConfig(delta=0.7, max_depth=4, boost=BoostConfig(max_rounds=20))
        root = build_phase1(data, cfg)
        assert isinstance(root, InternalNode)
        anchor = np.flatnonzero(data.features[:, 0] > 4.5)
        right_only = set(root.partition.right_only_ids.tolist())
        frac = sum(1 for i in anchor if i in right_only) / len(anchor)
        assert frac >= 0.95
        assert isinstance(root.left, InternalNode) or isinstance(root.right, InternalNode)

    def test_separated_blobs_reach_pure_leaves(self):
        data = generate_gaussian_blobs(4, 30, 3, 0.05, seed=5)
        cfg = AtreeConfig(delta=0.6, max_depth=3, boost=BoostConfig(max_rounds=20))
        tree = train_atree(data, cfg)
        leaves = [n for n in iter_nodes(tree.root) if isinstance(n, LeafNode)]
        assert all(leaf.purity == 1.0 for leaf in leaves)
        # nearest-class-mean oracle agrees with the tree on every sample
        means = np.stack([data.features[data.labels == c].mean(axis=0) for c in range(4)])
        for i in range(len(data)):
            d2 = ((means - data.features[i]) ** 2).sum(axis=1)
            assert predict(tree, data.features[i])[0] == int(np.argmin(d2))

    def test_depth_limit_bounds_levels_and_node_count(self, monkeypatch):
        data = generate_gaussian_blobs(8, 40, 4, 1.5, seed=2)
        cfg = AtreeConfig(delta=0.7, max_depth=4, boost=BoostConfig(max_rounds=10))
        depths = _record_budget_depths(monkeypatch)
        tree = train_atree(data, cfg)
        nodes = list(iter_nodes(tree.root))
        assert max(depths[n.node_id] for n in nodes) <= 4
        assert len(nodes) <= 2 ** 4 - 1

    def test_every_internal_node_has_two_children_and_leaves_reachable(self):
        data = generate_gaussian_blobs(5, 30, 3, 0.8, seed=3)
        tree = train_atree(data, AtreeConfig(delta=0.7, max_depth=5))
        seen = set()
        stack = [tree.root]
        while stack:
            node = stack.pop()
            seen.add(node.node_id)
            if isinstance(node, InternalNode):
                assert node.left is not None and node.right is not None
                stack.extend([node.left, node.right])
        assert seen == {n.node_id for n in iter_nodes(tree.root)}

    def test_child_classes_subset_of_parent_side_sets(self):
        data = generate_gaussian_blobs(6, 40, 4, 1.2, seed=4)
        tree = train_atree(data, AtreeConfig(delta=0.75, max_depth=5))

        def classes_below(node):
            if isinstance(node, LeafNode):
                return {node.label}
            return classes_below(node.left) | classes_below(node.right)

        for node in iter_nodes(tree.root):
            if isinstance(node, InternalNode):
                assert classes_below(node.left) <= set(node.neg_classes)
                assert classes_below(node.right) <= set(node.pos_classes)

    def test_raising_delta_never_shrinks_training_copies(self):
        # a starred sample is the one extra copy a node sends down both sides;
        # node counts are no measure, since a higher delta splices out more
        # pass-through nodes
        for seed in (1, 2, 3):
            data = generate_gaussian_blobs(6, 30, 4, 1.0, seed=seed)
            copies = []
            for delta in (0.5, 0.6, 0.75, 0.9):
                cfg = AtreeConfig(delta=delta, max_depth=5, boost=BoostConfig(max_rounds=10))
                root = build_phase1(data, cfg)
                copies.append(sum(len(n.partition.star_ids) for n in iter_nodes(root)
                                  if isinstance(n, InternalNode)))
            assert copies == sorted(copies)

    @pytest.mark.parametrize("emptied, taken", [
        ("left_only_ids", "right"), ("right_only_ids", "left"),
        ("both", "right")])
    def test_one_sided_node_is_spliced_out(self, monkeypatch, emptied, taken):
        data, cfg = SPLICE_DATA, SPLICE_CONFIG
        forged = _forge_one_sided_root(monkeypatch, emptied)
        depths = _record_budget_depths(monkeypatch)
        root = build_phase1(data, cfg)
        monkeypatch.undo()
        part = forged[0]
        if emptied == "both":
            assert len(part.right_ids) >= len(part.left_ids)
        ids, weights = getattr(part, f"{taken}_ids"), getattr(part, f"{taken}_weights")
        # the root is the taken child, built from the same samples one level down
        expected = build_phase1(data, cfg, depth=2, ids=ids, weights=weights)
        assert isinstance(root, InternalNode) and depths[root.node_id] == 2
        assert root.n_training == len(ids)

        def text(r):
            return serialize(Atree(r, cfg, data.label_names, 3))

        assert text(root) == text(expected)

    def test_empty_dataset_rejected(self):
        data = generate_gaussian_blobs(2, 5, 2, 0.5, seed=1)
        with pytest.raises(ValidationError):
            build_phase1(data, AtreeConfig(), ids=np.array([], dtype=np.int64),
                         weights=np.array([]))


class TestPhase2:
    def test_star_samples_excluded_from_node_svm(self):
        data = generate_gaussian_blobs(4, 40, 3, 1.0, seed=6)
        cfg = AtreeConfig(delta=0.8, max_depth=4, kernel=KernelSpec("rbf", 0.5),
                          boost=BoostConfig(max_rounds=3))
        root = build_phase1(data, cfg)
        tree = attach_svms_phase2(root, data, cfg)
        checked = 0
        for node in iter_nodes(tree.root):
            if isinstance(node, InternalNode) and isinstance(node.svm, KernelSvmModel):
                stars = set(node.partition.star_ids.tolist())
                assert not (set(node.svm.sv_ids.tolist()) & stars)
                checked += 1
        assert checked > 0

    def test_half_delta_node_svm_sees_all_samples(self):
        data = generate_gaussian_blobs(3, 30, 3, 0.8, seed=7)
        cfg = AtreeConfig(delta=0.5, max_depth=3, kernel=KernelSpec("rbf", 0.5))
        root = build_phase1(data, cfg)
        assert len(root.partition.star_ids) == 0
        assert (len(root.partition.left_only_ids) + len(root.partition.right_only_ids)
                == root.n_training)

    def test_linear_kernel_attaches_linear_models(self):
        data = generate_gaussian_blobs(4, 30, 3, 0.8, seed=8)
        tree = train_atree(data, AtreeConfig(delta=0.6, max_depth=4))
        for node in iter_nodes(tree.root):
            if isinstance(node, InternalNode):
                assert isinstance(node.svm, LinearSvmModel)

    def test_one_sided_partition_rejected(self):
        data = generate_gaussian_blobs(2, 20, 2, 0.6, seed=9)
        cfg = AtreeConfig(delta=0.6, max_depth=3)
        root = build_phase1(data, cfg)
        assert isinstance(root, InternalNode)
        # forge a partition with no confident left samples
        root.partition.left_only_ids = np.array([], dtype=np.int64)
        with pytest.raises(ValidationError, match="confidently"):
            attach_svms_phase2(root, data, cfg)

    def test_sv_budget_search_respects_accuracy_guard(self):
        data = generate_gaussian_blobs(4, 50, 3, 1.0, seed=10)
        base = AtreeConfig(delta=0.6, max_depth=3, kernel=KernelSpec("rbf", 0.5),
                           svm=SvmConfig(c=5.0))
        budget = AtreeConfig(delta=0.6, max_depth=3, kernel=KernelSpec("rbf", 0.5),
                             svm=SvmConfig(c=5.0), sv_budget_search=[2, 5, 10, 20])
        full = train_atree(data, base)
        trimmed = train_atree(data, budget)
        for a, b in zip(iter_nodes(full.root), iter_nodes(trimmed.root)):
            if isinstance(a, InternalNode) and isinstance(a.svm, KernelSvmModel):
                assert b.svm.n_support <= a.svm.n_support

    def test_phase1_only_tree_cannot_predict(self):
        data = generate_gaussian_blobs(3, 20, 2, 0.5, seed=11)
        cfg = AtreeConfig(delta=0.6, max_depth=3)
        root = build_phase1(data, cfg)
        tree = Atree(root, cfg, data.label_names, 2)
        if isinstance(root, InternalNode):
            with pytest.raises(ValidationError):
                predict(tree, data.features[0])


def _leaf(node_id, label):
    return LeafNode(node_id, label, 1.0, 1)


def _manual_internal(node_id, left, right, bias):
    split = EntropySplit(0, 0.0, np.array([0.25, 0.25]), np.array([0.25, 0.25]))
    boost = BoostedClassifier(rounds=[(1.0, DecisionStump(0, 0.0, 1))], round_errors=[0.2])
    return InternalNode(node_id=node_id, split=split, boost=boost,
                        pos_classes=[1], neg_classes=[0],
                        binary_distribution=(0.5, 0.5),
                        n_training=2, left=left, right=right,
                        svm=LinearSvmModel(np.array([0.0]), bias))


FINITE_CHECK_TREE = train_atree(generate_gaussian_blobs(3, 15, 3, 0.5, seed=4),
                                AtreeConfig(max_depth=3, boost=BoostConfig(max_rounds=5)))


class TestPredict:
    def test_positive_decision_takes_right_leaf(self):
        root = _manual_internal(0, _leaf(1, 0), _leaf(2, 1), bias=0.3)
        tree = Atree(root, AtreeConfig(), [0, 1], 1)
        label, trace = predict(tree, np.array([0.0]))
        assert label == 1
        assert trace == [(0, 0.3)]

    def test_zero_decision_routes_right(self):
        root = _manual_internal(0, _leaf(1, 0), _leaf(2, 1), bias=0.0)
        tree = Atree(root, AtreeConfig(), [0, 1], 1)
        assert predict(tree, np.array([0.0]))[0] == 1

    def test_imbalanced_tree_trace_lengths(self):
        deep = _manual_internal(2, _leaf(3, 0), _leaf(4, 1), bias=1.0)
        mid = _manual_internal(1, deep, _leaf(5, 1), bias=-1.0)
        root = _manual_internal(0, mid, _leaf(6, 1), bias=0.0)
        tree = Atree(root, AtreeConfig(), [0, 1], 1)
        # bias 0 -> right: one evaluation to a depth-2 leaf
        label, short_trace = predict(tree, np.array([0.0]))
        assert len(short_trace) == 1
        # force left at the root, then walk the deep side
        root.svm = LinearSvmModel(np.array([0.0]), -0.5)
        label, long_trace = predict(tree, np.array([0.0]))
        assert len(long_trace) == 3

    @pytest.mark.parametrize("kernel", [KernelSpec("linear"), KernelSpec("rbf", 0.5)],
                             ids=lambda k: k.kind)
    def test_traversal_computes_squared_norms_once_per_call(self, monkeypatch, kernel):
        data = generate_gaussian_blobs(3, 15, 3, 0.5, seed=4)
        tree = train_atree(data, AtreeConfig(max_depth=3, kernel=kernel,
                                             boost=BoostConfig(max_rounds=5)))
        assert any(isinstance(n, InternalNode) for n in iter_nodes(tree.root))
        calls = []

        def counted(A):
            calls.append(len(A))
            return squared_norms(A)

        # kernel_matrix reaches the norms through its module, traversal through tree's
        monkeypatch.setattr(svm_module, "squared_norms", counted)
        monkeypatch.setattr(tree_module, "squared_norms", counted)
        rbf = kernel.kind == "rbf"
        predict(tree, data.features[0])
        assert calls == ([1] if rbf else [])
        calls.clear()
        route(tree, data.features)
        assert calls == ([len(data)] if rbf else [])

    def test_dimension_mismatch_rejected(self):
        root = _manual_internal(0, _leaf(1, 0), _leaf(2, 1), bias=0.0)
        tree = Atree(root, AtreeConfig(), [0, 1], 1)
        with pytest.raises(ValidationError):
            predict(tree, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, value):
        tree = FINITE_CHECK_TREE
        x = np.zeros(tree.dimension)
        x[1] = value
        with pytest.raises(ValidationError, match="finite"):
            predict(tree, x)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_finite_input_whose_square_overflows_accepted(self):
        tree = FINITE_CHECK_TREE
        x = np.array([1e200, -1e200, 0.0])
        assert predict(tree, x) == predict(tree, x.copy())


class TestRoute:
    def test_groups_rows_by_leaf_across_levels(self):
        deep = _manual_internal(1, _leaf(2, 0), _leaf(3, 1), bias=0.0)
        deep.svm = LinearSvmModel(np.array([1.0]), -1.0)
        root = _manual_internal(0, _leaf(4, 0), deep, bias=0.0)
        root.svm = LinearSvmModel(np.array([1.0]), 0.0)
        tree = Atree(root, AtreeConfig(), [0, 1], 1)
        X = np.array([[-1.0], [2.0], [0.5], [3.0]])
        groups = {g.leaf.node_id: g for g in route(tree, X)}
        assert sorted(groups) == [2, 3, 4]
        assert groups[4].rows.tolist() == [0]
        assert [n.node_id for n in groups[4].nodes] == [0]
        assert groups[3].rows.tolist() == [1, 3]
        assert [n.node_id for n in groups[3].nodes] == [0, 1]
        np.testing.assert_array_equal(groups[3].values, [[2.0, 1.0], [3.0, 2.0]])
        assert groups[2].rows.tolist() == [2]
        np.testing.assert_array_equal(groups[2].values, [[0.5, -0.5]])
        for g in groups.values():
            for row, values in zip(g.rows, g.values):
                label, trace = predict(tree, X[row])
                assert label == g.leaf.label
                assert trace == list(zip([n.node_id for n in g.nodes], values))

    def test_column_major_input_routes_like_row_major(self):
        # wide rows: a row's squared norm summed along a column-major layout
        # would differ in the last bits from the same row summed on its own
        data = generate_gaussian_blobs(3, 15, 40, 1.0, seed=8)
        tree = train_atree(data, AtreeConfig(max_depth=3, kernel=KernelSpec("rbf", 0.05),
                                             boost=BoostConfig(max_rounds=5)))
        X = data.features + np.random.default_rng(8).normal(size=data.features.shape)
        _check_routes_predicts_and_round_trips(tree, np.asfortranarray(X))

    def test_dimension_mismatch_rejected(self):
        root = _manual_internal(0, _leaf(1, 0), _leaf(2, 1), bias=0.0)
        tree = Atree(root, AtreeConfig(), [0, 1], 1)
        with pytest.raises(ValidationError):
            route(tree, np.zeros((3, 2)))
        with pytest.raises(ValidationError):
            route(tree, np.zeros(1))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, value):
        tree = FINITE_CHECK_TREE
        X = np.zeros((4, tree.dimension))
        X[2, 1] = value
        with pytest.raises(ValidationError, match="finite"):
            route(tree, X)
        assert route(tree, np.full((2, tree.dimension), 1e200))

    def test_phase1_only_tree_cannot_route(self):
        root = _manual_internal(0, _leaf(1, 0), _leaf(2, 1), bias=0.0)
        root.svm = None
        tree = Atree(root, AtreeConfig(), [0, 1], 1)
        with pytest.raises(ValidationError):
            route(tree, np.zeros((2, 1)))


class TestNodeCost:
    def _node_with(self, n_sv, n_pos, n_neg):
        model = KernelSvmModel(np.zeros((n_sv, 1)), np.ones(n_sv), 0.0,
                               KernelSpec("rbf", 1.0), np.arange(n_sv))
        node = _manual_internal(0, _leaf(1, 0), _leaf(2, 1), bias=0.0)
        node.svm = model
        node.pos_classes = list(range(n_pos))
        node.neg_classes = list(range(n_neg))
        return node

    def test_reference_arithmetic(self):
        cost = node_cost(self._node_with(10, 2, 3))
        assert cost == pytest.approx(0.6 * (10 / 2) + 0.4 * (10 / 3), abs=1e-12)
        assert cost == pytest.approx(4.3333333333, abs=1e-9)

    def test_symmetric_sides_collapse(self):
        for k in (1, 2, 5):
            assert node_cost(self._node_with(12, k, k)) == 12 / k

    def test_linear_in_support_vector_count(self):
        assert node_cost(self._node_with(20, 2, 3)) == 2 * node_cost(self._node_with(10, 2, 3))

    def test_linear_node_costs_one_evaluation(self):
        node = self._node_with(10, 4, 4)
        node.svm = LinearSvmModel(np.array([1.0]), 0.0)
        assert node_cost(node) == 1 / 4

    def test_empty_side_rejected(self):
        node = self._node_with(10, 2, 3)
        node.pos_classes = []
        with pytest.raises(ValidationError):
            node_cost(node)


class TestSerialization:
    def _random_tree(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        data = generate_gaussian_blobs(k, int(rng.integers(8, 20)), int(rng.integers(2, 5)),
                                       float(rng.uniform(0.3, 1.5)), seed=seed)
        kernel = KernelSpec("rbf", 0.5) if seed % 2 else KernelSpec("linear")
        cfg = AtreeConfig(delta=float(rng.choice([0.5, 0.6, 0.8])), max_depth=3,
                          kernel=kernel, boost=BoostConfig(max_rounds=5))
        return train_atree(data, cfg), data

    def test_round_trip_preserves_predictions_and_traces(self):
        rng = np.random.default_rng(77)
        for seed in range(5):
            tree, data = self._random_tree(seed)
            clone = deserialize(serialize(tree))
            probes = rng.normal(size=(200, data.dimension))
            for x in probes:
                assert predict(tree, x) == predict(clone, x)

    def test_truncated_document_rejected(self):
        tree, _ = self._random_tree(1)
        text = serialize(tree)
        with pytest.raises(SchemaError):
            deserialize(text[: len(text) // 2])

    def test_unsupported_version_rejected(self):
        tree, _ = self._random_tree(2)
        current = f'"version": {MODEL_SCHEMA_VERSION}'
        text = serialize(tree)
        assert current in text
        text = text.replace(current, f'"version": {MODEL_SCHEMA_VERSION - 1}', 1)
        with pytest.raises(SchemaError, match="version"):
            deserialize(text)

    def test_version1_passthrough_model_rejected(self):
        tree, _ = self._random_tree(1)
        doc = json.loads(serialize(tree))
        doc["version"] = 1
        internal = next(n for n in doc["nodes"] if "split" in n)
        internal["svm"] = {"type": "passthrough", "side": 1}
        with pytest.raises(SchemaError, match="version"):
            deserialize(json.dumps(doc))

    def test_malformed_payload_rejected(self):
        with pytest.raises(SchemaError):
            deserialize("[1, 2, 3]")
        with pytest.raises(SchemaError, match="malformed"):
            deserialize(f'{{"version": {MODEL_SCHEMA_VERSION}, "nodes": "nope"}}')

    def _doc(self, seed):
        return json.loads(serialize(self._random_tree(seed)[0]))

    @pytest.mark.parametrize("case", ["sv_ids_under_linear_config",
                                      "weights_under_kernel_config",
                                      "weights_node_in_kernel_tree"])
    def test_node_classifier_must_fit_config_family(self, case):
        # seed 1 trains an rbf tree, seed 0 a linear one
        doc = self._doc(0 if case == "weights_under_kernel_config" else 1)
        if case == "sv_ids_under_linear_config":
            doc["config"]["kernel"] = {"kind": "linear", "gamma": None}
        elif case == "weights_under_kernel_config":
            doc["config"]["kernel"] = {"kind": "rbf", "gamma": 0.5}
        else:
            node = next(n for n in doc["nodes"] if "split" in n)
            node["svm"] = {"weights": [0.0] * doc["dimension"], "bias": 0.0}
        with pytest.raises(SchemaError, match="kernel"):
            deserialize(json.dumps(doc))

    def test_node_sv_id_missing_from_table_rejected(self):
        doc = self._doc(1)
        doc["support_vectors"].pop(len(doc["support_vectors"]) // 2)
        with pytest.raises(SchemaError, match="sv_id"):
            deserialize(json.dumps(doc))

    def test_table_id_listed_twice_rejected(self):
        doc = self._doc(1)
        table = doc["support_vectors"]
        table.insert(1, [table[0][0], table[0][1]])
        with pytest.raises(SchemaError, match="once"):
            deserialize(json.dumps(doc))

    def test_kernel_node_needs_one_coefficient_per_sv_id(self):
        doc = self._doc(1)
        node = next(n for n in doc["nodes"] if "split" in n)
        node["svm"]["dual_coefficients"].pop()
        with pytest.raises(SchemaError, match="coefficient per sv_id"):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("change", [-1, 1])
    def test_linear_node_weights_must_be_dimension_wide(self, change):
        doc = self._doc(0)
        node = next(n for n in doc["nodes"] if "split" in n)
        weights = node["svm"]["weights"]
        node["svm"]["weights"] = weights[:-1] if change < 0 else weights + [0.0]
        with pytest.raises(SchemaError, match="wide"):
            deserialize(json.dumps(doc))

    def test_table_row_must_be_dimension_wide(self):
        doc = self._doc(1)
        doc["support_vectors"][-1][1].append(0.0)
        with pytest.raises(SchemaError, match="wide"):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("path", [("delta",), ("sv_budget_search",), ("boost",),
                                      ("svm", "tolerance"), ("kernel", "gamma")])
    def test_config_field_missing_rejected(self, path):
        doc = self._doc(1)
        owner = doc["config"]
        for key in path[:-1]:
            owner = owner[key]
        del owner[path[-1]]
        with pytest.raises(SchemaError, match="fields"):
            deserialize(json.dumps(doc))

    def test_table_holds_each_support_vector_once(self):
        tree, _ = self._random_tree(1)
        doc = json.loads(serialize(tree))
        kernel_svms = [n.svm for n in iter_nodes(tree.root) if isinstance(n, InternalNode)]
        assert kernel_svms and all(isinstance(m, KernelSvmModel) for m in kernel_svms)
        ids = np.concatenate([m.sv_ids for m in kernel_svms])
        assert len(ids) > len(np.unique(ids))  # some vector serves several nodes
        assert [sv_id for sv_id, _ in doc["support_vectors"]] == np.unique(ids).tolist()
        rows = dict(doc["support_vectors"])
        for m in kernel_svms:
            assert m.support_vectors.tolist() == [rows[i] for i in m.sv_ids.tolist()]
        assert not {"depth", "num_classes"} & set(doc)
        for node in doc["nodes"]:
            if "split" in node:
                assert set(node["svm"]) == {"sv_ids", "dual_coefficients", "bias"}
                assert set(node["split"]) == {"feature_index", "threshold",
                                              "left_masses", "right_masses"}
            assert not {"depth", "class_to_sign"} & set(node)
            assert "pure" not in node.get("boost", {})

    def test_config_survives_round_trip(self):
        tree, _ = self._random_tree(3)
        clone = deserialize(serialize(tree))
        assert clone.config == tree.config
        assert clone.label_names == tree.label_names
        assert clone.depth == tree.depth
        assert clone.num_classes == tree.num_classes


def _check_routes_predicts_and_round_trips(tree, X):
    """route equals predict on every row of X bit for bit, for the trained
    tree and its serialize round trip, whose kernel models hold freshly
    derived squared norms."""
    text = serialize(tree)
    clone = deserialize(text)
    assert serialize(clone) == text
    for node in iter_nodes(clone.root):
        if isinstance(node, InternalNode) and isinstance(node.svm, KernelSvmModel):
            assert node.svm.sv_norms.tobytes() == squared_norms(
                node.svm.support_vectors).tobytes()
    groups = route(tree, X)
    assert np.array_equal(np.sort(np.concatenate([g.rows for g in groups])),
                          np.arange(len(X)))
    for g in groups:
        ids = [n.node_id for n in g.nodes]
        for row, values in zip(g.rows, g.values):
            label, trace = predict(tree, X[row])
            assert label == g.leaf.label
            assert [(i, np.float64(v).tobytes()) for i, v in trace] == [
                (i, v.tobytes()) for i, v in zip(ids, values)]
            assert predict(clone, X[row]) == (label, trace)


class TestTrainedTreeProperties:
    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(2, 5), per_class=st.integers(3, 15), d=st.integers(1, 4),
           spread=st.floats(0.1, 2.0), seed=st.integers(0, 2 ** 16),
           delta=st.floats(0.5, 0.99), max_depth=st.integers(1, 6), rbf=st.booleans())
    def test_spliced_tree_routes_predicts_and_round_trips_exactly(
            self, k, per_class, d, spread, seed, delta, max_depth, rbf):
        data = generate_gaussian_blobs(k, per_class, d, spread, seed=seed)
        kernel = KernelSpec("rbf", 0.5) if rbf else KernelSpec("linear")
        tree = train_atree(data, AtreeConfig(delta=delta, max_depth=max_depth, kernel=kernel,
                                             boost=BoostConfig(max_rounds=5)))
        nodes = list(iter_nodes(tree.root))
        assert [n.node_id for n in nodes] == list(range(len(nodes)))
        for node in nodes:
            if isinstance(node, InternalNode):
                assert len(node.partition.left_only_ids) and len(node.partition.right_only_ids)
                assert node.svm is not None
        X = np.vstack([data.features, data.features[::-1]
                       + np.random.default_rng(seed).normal(size=data.features.shape)])
        _check_routes_predicts_and_round_trips(tree, X)

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(2, 5), per_class=st.integers(3, 15), d=st.integers(1, 4),
           spread=st.floats(0.1, 2.0), seed=st.integers(0, 2 ** 16),
           delta=st.floats(0.5, 0.99), max_depth=st.integers(1, 6),
           kernel=st.sampled_from([KernelSpec("chi_square", 0.5),
                                   KernelSpec("histogram_intersection")]))
    def test_nonnegative_kernel_tree_routes_predicts_and_round_trips_exactly(
            self, k, per_class, d, spread, seed, delta, max_depth, kernel):
        blobs = generate_gaussian_blobs(k, per_class, d, spread, seed=seed)
        data = Dataset(np.abs(blobs.features), blobs.labels, blobs.weights, blobs.num_classes)
        tree = train_atree(data, AtreeConfig(delta=delta, max_depth=max_depth, kernel=kernel,
                                             boost=BoostConfig(max_rounds=5)))
        X = np.vstack([data.features, np.abs(
            data.features[::-1] + np.random.default_rng(seed).normal(size=data.features.shape))])
        _check_routes_predicts_and_round_trips(tree, X)


class TestDotExport:
    def test_depth3_tree_statement_budget(self):
        data = generate_gaussian_blobs(4, 30, 3, 0.1, seed=5)
        tree = train_atree(data, AtreeConfig(delta=0.6, max_depth=3))
        dot = to_dot(tree)
        statements = [l for l in dot.splitlines() if "[shape=" in l]
        assert 1 <= len(statements) <= 15
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")

    def test_max_depth_limits_levels(self):
        data = generate_gaussian_blobs(8, 30, 4, 0.4, seed=6)
        tree = train_atree(data, AtreeConfig(delta=0.7, max_depth=6))
        full = to_dot(tree)
        top = to_dot(tree, max_depth=3)
        deep_nodes = [nid for nid, level in path_levels(tree.root).items() if level > 3]
        assert deep_nodes
        for nid in deep_nodes:
            assert f"n{nid} [" not in top
            assert f"n{nid} [" in full

    def test_spliced_tree_counts_levels_on_root_paths(self, monkeypatch):
        _forge_one_sided_root(monkeypatch, "left_only_ids")
        depths = _record_budget_depths(monkeypatch)
        tree = train_atree(SPLICE_DATA, SPLICE_CONFIG)
        monkeypatch.undo()
        assert depths[tree.root.node_id] == 2

        def levels(node, level=1):
            yield node.node_id, level
            if isinstance(node, InternalNode):
                yield from levels(node.left, level + 1)
                yield from levels(node.right, level + 1)

        level_of = dict(levels(tree.root))
        # the spliced root level still counts toward the depth budget
        assert max(depths.values()) == 4
        assert tree.depth == max(level_of.values()) == 3
        assert deserialize(serialize(tree)).depth == 3
        for k in (1, 2, 3):
            dot = to_dot(tree, max_depth=k)
            assert {nid for nid in level_of if f"n{nid} [" in dot} == {
                nid for nid, level in level_of.items() if level <= k}
        log = cli._training_log_lines(tree, include_timestamp=False)
        assert f"tree: nodes={len(level_of)} depth=3" in log
        # each node's line counts its root-path level too, not its budget depth
        assert f"node {tree.root.node_id} depth=1 internal " in "\n".join(log)
        for nid, level in level_of.items():
            assert sum(l.startswith(f"node {nid} depth={level} ") for l in log) == 1

    def test_leaf_only_tree_renders_single_node(self):
        data = generate_gaussian_blobs(2, 10, 2, 0.1, seed=7)
        sub = data.subset(np.flatnonzero(data.labels == 0))
        root = build_phase1(sub, AtreeConfig(max_depth=3))
        tree = attach_svms_phase2(root, sub, AtreeConfig(max_depth=3))
        dot = to_dot(tree)
        assert dot.count("[shape=") == 1
        assert "->" not in dot


class TestConfig:
    def test_delta_below_half_rejected_with_reason(self):
        with pytest.raises(ValidationError, match="0.5"):
            AtreeConfig(delta=0.49)

    def test_default_depth_scales_with_class_count(self):
        cfg = AtreeConfig()
        assert cfg.effective_max_depth(2) == 2
        assert cfg.effective_max_depth(20) == 10
        assert cfg.effective_max_depth(256) == 16

    def test_explicit_depth_wins(self):
        assert AtreeConfig(max_depth=4).effective_max_depth(100) == 4
