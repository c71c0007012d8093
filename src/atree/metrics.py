"""Flat multi-class baselines and accuracy/complexity reporting.

Costs follow the kernel family: with linear classifiers every evaluation
costs one unit, so a method's per-instance cost is the number of classifiers
it evaluates; with kernel classifiers the cost is the number of kernel
computations, counted as the union of the support-vector ids an instance
meets, which is what a per-instance cache would compute: a support vector
shared by several classifiers is computed once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .svm import (LinearSvmModel, kernel_computations, kernel_matrix,
                  support_vector_table, train_svm, training_gram)
from .tree import route as route_tree


@dataclass
class OneVsAllModel:
    models: list
    num_classes: int


@dataclass
class OneVsOneModel:
    pairs: list          # [(class_a, class_b), ...] with a < b
    models: list
    num_classes: int


@dataclass
class EvaluationRun:
    """Predictions plus per-instance cost counters for one method. Kernel
    runs carry kernel computation counts; linear runs leave them None."""

    method: str
    num_classes: int
    predictions: np.ndarray
    truths: np.ndarray
    classifier_evaluations: np.ndarray
    kernel_computations: np.ndarray | None = None       # union-cached
    kernel_computations_uncached: np.ndarray | None = None
    paths: list | None = None          # ATree only: tree.route's PathGroups


@dataclass
class ComplexityReport:
    relative_complexity: float


def _check_all_classes_present(data):
    counts = np.bincount(data.labels, minlength=data.num_classes)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise ValidationError(
            f"classes {missing.tolist()} are absent from the training data")


def train_one_vs_all(data, kernel, svm_config):
    """One class-vs-rest model per class; prediction is argmax decision value
    with ties to the lowest class id. Every class trains on the same samples,
    so a kernel set computes its Gram once, column-major, for all of them."""
    _check_all_classes_present(data)
    X = data.features
    gram = None if kernel.is_linear else training_gram(kernel, X)
    models = [train_svm(X, np.where(data.labels == cls, 1.0, -1.0), kernel,
                        svm_config, gram=gram) for cls in range(data.num_classes)]
    return OneVsAllModel(models, data.num_classes)


def train_one_vs_one(data, kernel, svm_config):
    """One model per class pair (a, b) with a < b, trained with +1 = b;
    prediction is majority vote with ties to the lowest class id."""
    _check_all_classes_present(data)
    pairs = []
    models = []
    for a in range(data.num_classes):
        for b in range(a + 1, data.num_classes):
            members = np.flatnonzero((data.labels == a) | (data.labels == b))
            y = np.where(data.labels[members] == b, 1.0, -1.0)
            models.append(train_svm(data.features[members], y, kernel, svm_config,
                                    sample_ids=members))
            pairs.append((a, b))
    return OneVsOneModel(pairs, models, data.num_classes)


def mean_per_class_accuracy(predictions, truths, num_classes):
    """Unweighted mean over classes of per-class recall."""
    predictions = np.asarray(predictions)
    truths = np.asarray(truths)
    recalls = []
    for cls in range(num_classes):
        members = truths == cls
        if not members.any():
            raise ValidationError(f"class {cls} has no test instances")
        recalls.append(float((predictions[members] == cls).mean()))
    return float(np.mean(recalls))


def evaluate_atree(tree, data):
    """Route the whole test set through the tree (tree.route) and keep its
    path groups on ``run.paths``. Each instance's label, evaluation count
    and, for kernel trees, cached/uncached kernel computation counts come
    from its group: the instances reaching one leaf share one path, so the
    counts are computed once per leaf."""
    nonlinear = not tree.config.kernel.is_linear
    n = len(data)
    preds = np.empty(n, dtype=np.int64)
    evals = np.empty(n, dtype=np.int64)
    counts = np.empty((n, 2), dtype=np.int64)
    paths = route_tree(tree, data.features)
    for group in paths:
        preds[group.rows] = group.leaf.label
        evals[group.rows] = len(group.nodes)
        if nonlinear:
            counts[group.rows] = kernel_computations([node.svm for node in group.nodes])
    run = EvaluationRun(
        method="atree", num_classes=tree.num_classes, predictions=preds,
        truths=data.labels.copy(), classifier_evaluations=evals, paths=paths)
    if nonlinear:
        run.kernel_computations = counts[:, 0]
        run.kernel_computations_uncached = counts[:, 1]
    return run


def _flat_decision_values(models, X):
    """Decision values of every model on every row of X as a (models, rows)
    matrix. Linear models take one product with the stacked weights. Kernel
    models (one kernel, sv_ids from one training set) take one Gram block
    over their support_vector_table, times its (union, models) coefficients:
    the kernel computations kernel_computations charges, each done once."""
    if isinstance(models[0], LinearSvmModel):
        weights = np.column_stack([m.weights for m in models])
        return (X @ weights).T + np.array([m.bias for m in models])[:, None]
    table = support_vector_table(models)
    gram = kernel_matrix(models[0].kernel, X, table.rows, b_norms=table.norms)
    return (gram @ table.coefficients).T + np.array([m.bias for m in models])[:, None]


def _evaluate_flat(model, data, method):
    """Every model is evaluated on every instance, so the per-instance costs
    are constant: the model count, and for kernel models the kernel
    computations of all of them together."""
    n = len(data)
    values = _flat_decision_values(model.models, data.features)
    if method == "ova":
        preds = values.argmax(axis=0).astype(np.int64)
    else:
        votes = np.zeros((model.num_classes, n), dtype=np.int64)
        for (a, b), dv in zip(model.pairs, values):
            winner = np.where(dv >= 0, b, a)
            for cls in (a, b):
                votes[cls] += winner == cls
        preds = votes.argmax(axis=0).astype(np.int64)
    run = EvaluationRun(
        method=method, num_classes=model.num_classes, predictions=preds,
        truths=data.labels.copy(),
        classifier_evaluations=np.full(n, len(model.models), dtype=np.int64))
    if not isinstance(model.models[0], LinearSvmModel):
        union, uncached = kernel_computations(model.models)
        run.kernel_computations = np.full(n, union, dtype=np.int64)
        run.kernel_computations_uncached = np.full(n, uncached, dtype=np.int64)
    return run


def evaluate_one_vs_all(model, data):
    return _evaluate_flat(model, data, "ova")


def evaluate_one_vs_one(model, data):
    return _evaluate_flat(model, data, "ovo")


def run_cost(run):
    """Mean test cost of a recorded run: kernel computations for kernel
    runs, classifier evaluations for linear ones."""
    if run.kernel_computations is None:
        return float(run.classifier_evaluations.mean())
    return float(run.kernel_computations.mean())


def complexity_report(run, reference):
    """Cost of ``run`` normalized by a reference run (one-vs-all on the same
    test set and kernel family). Pure function of the recorded counts."""
    if (run.kernel_computations is None) != (reference.kernel_computations is None):
        raise ValidationError("complexity comparison requires matching kernel families")
    if len(run.predictions) != len(reference.predictions):
        raise ValidationError("runs must cover the same test set")
    return ComplexityReport(relative_complexity=run_cost(run) / run_cost(reference))
