"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned in the assertions; runtime budgets are enforced
with wall-clock checks.
"""

import math
import time

import numpy as np
import pytest

from atree.boosting import (BoostConfig, BoostedClassifier, DecisionStump,
                            adaboost_train, error_bound, prob_positive_batch,
                            train_stump)
from atree.dataset import (generate_gaussian_blobs, generate_two_cluster_2d,
                           split_train_test)
from atree.metrics import (EvaluationRun, complexity_report, evaluate_atree,
                           evaluate_one_vs_all, evaluate_one_vs_one,
                           mean_per_class_accuracy, train_one_vs_all,
                           train_one_vs_one)
from atree.svm import KernelSpec, KernelSvmModel, LinearSvmModel, SvmConfig
from atree.tree import (AtreeConfig, InternalNode, LeafNode, attach_svms_phase2,
                        build_phase1, deserialize, entropy_split, iter_nodes,
                        node_cost, partition_samples, predict, serialize,
                        train_atree)
from oracles import brute_force_entropy_split, brute_force_stump

DELTAS = (0.5, 0.6, 0.75, 0.9, 1.0)


def _pass(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num}: {name}: PASS{suffix}")


def test_criterion_01_boosting_oracle_suite():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    sizes = [(int(rng.integers(20, 150)), int(rng.integers(1, 9))) for _ in range(35)]
    sizes += [(int(rng.integers(150, 400)), int(rng.integers(8, 17))) for _ in range(10)]
    sizes += [(500, 20)] * 5
    assert len(sizes) == 50
    for n, d in sizes:
        X = rng.normal(size=(n, d))
        y = np.where(X @ rng.normal(size=d) + 0.6 * rng.normal(size=n) > 0, 1, -1)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        w = rng.uniform(0.1, 1.0, size=n)
        w /= w.sum()

        stump, err, _ = train_stump(X, y, w)
        o_err, o_f, o_t, o_p = brute_force_stump(X, y, w)
        assert (stump.feature_index, stump.threshold, stump.polarity) == (o_f, o_t, o_p)
        assert err == o_err

        uniform = np.full(n, 1.0 / n)
        model, _ = adaboost_train(X, y, uniform, BoostConfig(max_rounds=10))
        current = uniform.copy()
        for t, (alpha, st) in enumerate(model.rounds):
            if model.round_errors[t] == 0.0:
                break
            pred = st.predict_batch(X)
            nxt = current * np.exp(-alpha * y * pred)
            nxt /= nxt.sum()
            assert abs(float(nxt[pred != y].sum()) - 0.5) <= 1e-9
            current = nxt
        if model.rounds:
            h = np.zeros(n)
            for alpha, st in model.rounds:
                h += alpha * st.predict_batch(X)
            empirical = float(uniform[np.where(h > 0, 1, -1) != y].sum())
            assert empirical <= error_bound(model) + 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _pass(1, "boosting oracle suite", f"50 datasets, {elapsed:.1f}s")


def _spread_node(rng):
    """A boosted node whose sample probabilities are guaranteed to include
    confident values outside [0.1, 0.9] and undecided values inside
    [0.4, 0.6], so the starred band is populated for every delta > 0.5."""
    a1 = float(rng.uniform(1.3, 1.6))
    a3 = float(rng.uniform(0.05, 0.2))
    # middle region scores a1 - a2 + a3 = u, kept near zero so its
    # probabilities stay inside every delta band tested
    u = float(rng.uniform(-0.25, 0.25))
    a2 = a1 + a3 - u
    boost = BoostedClassifier(
        rounds=[(a1, DecisionStump(0, -1.0, 1)),
                (a2, DecisionStump(0, 0.0, 1)),
                (a3, DecisionStump(0, 1.0, -1))],
        round_errors=[0.2, 0.25, 0.4])
    X = np.hstack([
        np.concatenate([rng.uniform(-3.0, -1.2, size=6), rng.uniform(-0.8, -0.2, size=6),
                        rng.uniform(0.2, 0.8, size=6), rng.uniform(1.2, 3.0, size=6)]),
        rng.normal(size=24),
    ]).reshape(2, 24).T
    p = prob_positive_batch(boost, X)
    assert p.min() < 0.1 and p.max() > 0.9
    assert ((p >= 0.42) & (p <= 0.58)).any()
    return boost, X, p


def test_criterion_02_partition_rule_identities():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    for _ in range(20):
        boost, X, p = _spread_node(rng)
        ids = np.arange(len(X))
        for delta in DELTAS:
            part = partition_samples(p, delta, ids=ids)
            left = set(part.left_ids.tolist())
            right = set(part.right_ids.tolist())
            star = set(part.star_ids.tolist())
            assert left | right == set(ids.tolist())
            assert left & right == star
            if delta == 0.5:
                assert star == set()
            else:
                assert star == set(np.flatnonzero((p >= 1 - delta) & (p <= delta)).tolist())
                assert star != set()
            if delta == 1.0:
                assert star == set(ids.tolist())
            else:
                assert star != set(ids.tolist())
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _pass(2, "partition-rule identities", f"deltas {DELTAS}, {elapsed:.1f}s")


def test_criterion_03_entropy_split_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(303)
    for i in range(100):
        n = int(rng.integers(20, 301))
        d = int(rng.integers(1, 13))
        k = int(rng.integers(2, 7))
        X = rng.normal(size=(n, d))
        labels = rng.integers(0, k, size=n).astype(np.int64)
        if len(np.unique(labels)) < 2:
            labels[0] = (labels[1] + 1) % k
        w = rng.uniform(0.2, 1.0, size=n)
        w /= w.sum()
        split = entropy_split(X, labels, w, k)
        oracle = brute_force_entropy_split(X, labels, w, k)
        assert abs(split.objective - oracle[0]) <= 1e-12
        assert (split.feature_index, split.threshold) == (oracle[1], oracle[2])
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _pass(3, "entropy-split oracle", f"100 datasets, {elapsed:.1f}s")


def _cost_node(n_sv, n_pos, n_neg):
    node = InternalNode(
        node_id=0, split=None, boost=None,
        pos_classes=list(range(n_pos)), neg_classes=list(range(n_neg)),
        binary_distribution=(0.5, 0.5), n_training=1,
        left=None, right=None,
        svm=KernelSvmModel(np.zeros((n_sv, 1)), np.ones(n_sv), 0.0,
                           KernelSpec("rbf", 1.0), np.arange(n_sv)))
    return node


def test_criterion_04_node_cost_arithmetic():
    # independent evaluation of the cost formula
    f_neg, f_pos = 3 / 5, 2 / 5
    expected = f_neg * 10 / 2 + f_pos * 10 / 3
    got = node_cost(_cost_node(10, 2, 3))
    assert abs(got - expected) <= 1e-12
    assert abs(got - 4.3333333333) <= 1e-9
    for k in (1, 2, 4, 9):
        assert node_cost(_cost_node(12, k, k)) == 12 / k
    for n_sv in (3, 10, 25):
        assert node_cost(_cost_node(2 * n_sv, 2, 3)) == 2 * node_cost(_cost_node(n_sv, 2, 3))
    _pass(4, "node-cost arithmetic", "4.3333..., symmetric, linear in N")


def _synthetic_linear_run(method, n, cost):
    return EvaluationRun(
        method=method, num_classes=n,
        predictions=np.zeros(10, dtype=np.int64), truths=np.zeros(10, dtype=np.int64),
        classifier_evaluations=np.full(10, cost, dtype=np.int64))


def test_criterion_05_one_vs_one_relative_complexity():
    # end-to-end at small class counts
    for n in (2, 8):
        data = generate_gaussian_blobs(n, 12, 4, 0.8, seed=n)
        ova = train_one_vs_all(data, KernelSpec("linear"), SvmConfig())
        ovo = train_one_vs_one(data, KernelSpec("linear"), SvmConfig())
        rel = complexity_report(evaluate_one_vs_one(ovo, data),
                                evaluate_one_vs_all(ova, data)).relative_complexity
        assert rel == (n - 1) / 2
    # recorded-trace arithmetic at the published class counts
    for n, expected in ((256, 127.5), (397, 198.0)):
        rel = complexity_report(
            _synthetic_linear_run("ovo", n, n * (n - 1) // 2),
            _synthetic_linear_run("ova", n, n)).relative_complexity
        assert rel == expected
        assert rel == (n - 1) / 2
    _pass(5, "one-vs-one relative complexity", "n in {2, 8, 256, 397}; 127.5 and 198 reproduced")


# Shared configuration for the desk-scale tradeoff criteria: the spread is
# pinned so the one-vs-all reference lands inside the required band.
TRADEOFF_SPREAD = 1.0
TRADEOFF_SEED = 11


def _tradeoff_data(seed):
    data = generate_gaussian_blobs(20, 100, 16, TRADEOFF_SPREAD, seed=seed)
    return split_train_test(data, 0.5, seed=1, stratified=True)


def _tradeoff_config(delta):
    return AtreeConfig(delta=delta, boost=BoostConfig(max_rounds=30))


def test_criterion_06_desk_scale_tradeoff():
    start = time.monotonic()
    train, test = _tradeoff_data(TRADEOFF_SEED)
    ova = train_one_vs_all(train, KernelSpec("linear"), SvmConfig())
    ova_run = evaluate_one_vs_all(ova, test)
    ova_acc = mean_per_class_accuracy(ova_run.predictions, ova_run.truths, 20)
    assert 0.85 <= ova_acc <= 0.95

    tree = train_atree(train, _tradeoff_config(0.7))
    run = evaluate_atree(tree, test)
    acc = mean_per_class_accuracy(run.predictions, run.truths, 20)
    mean_evals = float(run.classifier_evaluations.mean())
    assert acc >= ova_acc - 0.03
    assert mean_evals <= 0.5 * 20
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _pass(6, "desk-scale tradeoff",
          f"ova {ova_acc:.3f}, atree {acc:.3f}, evals {mean_evals:.2f}, {elapsed:.0f}s")


def test_criterion_07_sublinear_growth():
    start = time.monotonic()
    ratios = []
    for n in (8, 16, 32, 64):
        data = generate_gaussian_blobs(n, 40, 16, TRADEOFF_SPREAD, seed=TRADEOFF_SEED)
        train, test = split_train_test(data, 0.5, seed=1, stratified=True)
        tree = train_atree(train, _tradeoff_config(0.6))
        run = evaluate_atree(tree, test)
        ratios.append(float(run.classifier_evaluations.mean()) / n)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _pass(7, "sublinear growth",
          "evals/n " + " > ".join(f"{r:.3f}" for r in ratios) + f", {elapsed:.0f}s")


def test_criterion_08_constrained_vs_relaxed_ordering():
    acc_holds = evals_holds = 0
    seeds = (1, 2, 3, 4, 5)
    for seed in seeds:
        train, test = _tradeoff_data(seed)
        stats = {}
        for delta in (0.5, 0.7):
            tree = train_atree(train, _tradeoff_config(delta))
            run = evaluate_atree(tree, test)
            stats[delta] = (mean_per_class_accuracy(run.predictions, run.truths, 20),
                            float(run.classifier_evaluations.mean()))
        acc_holds += stats[0.5][0] <= stats[0.7][0]
        evals_holds += stats[0.5][1] <= stats[0.7][1]
    assert acc_holds >= 4
    assert evals_holds >= 4
    _pass(8, "constrained vs relaxed ordering",
          f"accuracy {acc_holds}/5, evaluations {evals_holds}/5")


def test_criterion_09_kernel_accounting():
    data = generate_gaussian_blobs(6, 60, 4, 1.2, seed=3)
    train, test = split_train_test(data, 0.5, seed=1, stratified=True)
    cfg = AtreeConfig(delta=0.75, kernel=KernelSpec("rbf", 0.3), max_depth=5,
                      boost=BoostConfig(max_rounds=20))
    tree = train_atree(train, cfg)
    sv_sets = {n.node_id: n.svm.sv_ids.tolist() for n in iter_nodes(tree.root)
               if isinstance(n, InternalNode) and isinstance(n.svm, KernelSvmModel)}

    run = evaluate_atree(tree, test)
    any_shared = False
    strict_on_shared = 0
    for i in range(len(test)):
        union = int(run.kernel_computations[i])
        total = int(run.kernel_computations_uncached[i])
        assert union <= total
        _, trace = predict(tree, test.features[i])
        ids_along_path = [sid for nid, _ in trace for sid in sv_sets.get(nid, ())]
        assert total == len(ids_along_path)
        assert union == len(set(ids_along_path))
        if len(ids_along_path) != len(set(ids_along_path)):
            any_shared = True
            if union < total:
                strict_on_shared += 1
            assert union < total
    assert any_shared
    _pass(9, "kernel accounting",
          f"union <= sum on {len(test)} instances, strict on {strict_on_shared}")


def test_criterion_10_two_cluster_qualitative():
    start = time.monotonic()
    data = generate_two_cluster_2d(3000, seed=1)
    train, test = split_train_test(data, 0.5, seed=1, stratified=True)
    cfg = AtreeConfig(delta=0.7, max_depth=4, kernel=KernelSpec("rbf", 0.5),
                      boost=BoostConfig(max_rounds=30))
    root = build_phase1(train, cfg)
    assert isinstance(root, InternalNode)
    anchor = np.flatnonzero(train.features[:, 0] > 4.5)
    assert len(anchor) > 500
    right_only = set(root.partition.right_only_ids.tolist())
    left_only = set(root.partition.left_only_ids.tolist())
    one_side = max(sum(1 for i in anchor if i in right_only),
                   sum(1 for i in anchor if i in left_only)) / len(anchor)
    assert one_side >= 0.95

    tree = attach_svms_phase2(root, train, cfg)
    correct = sum(predict(tree, test.features[i])[0] == test.labels[i]
                  for i in range(len(test)))
    accuracy = correct / len(test)
    assert accuracy >= 0.95
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _pass(10, "two-cluster qualitative check",
          f"anchor isolation {one_side:.3f}, accuracy {accuracy:.3f}, {elapsed:.1f}s")


def test_criterion_11_serialization_round_trip():
    rng = np.random.default_rng(111)
    for i in range(100):
        k = int(rng.integers(2, 5))
        data = generate_gaussian_blobs(k, int(rng.integers(6, 16)), int(rng.integers(2, 5)),
                                       float(rng.uniform(0.2, 1.4)), seed=1000 + i)
        kernel = KernelSpec("rbf", float(rng.uniform(0.3, 1.5))) if i % 2 else KernelSpec("linear")
        cfg = AtreeConfig(delta=float(rng.choice([0.5, 0.6, 0.75, 0.9])),
                          max_depth=int(rng.integers(2, 5)), kernel=kernel,
                          boost=BoostConfig(max_rounds=6),
                          min_node_samples=int(rng.integers(2, 6)))
        tree = train_atree(data, cfg)
        clone = deserialize(serialize(tree))
        probes = rng.normal(size=(1000, data.dimension)) * 2.0
        for x in probes:
            assert predict(tree, x) == predict(clone, x)
    _pass(11, "serialization round trip", "100 trees x 1000 probes, exact")
