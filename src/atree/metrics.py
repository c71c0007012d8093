"""Flat multi-class baselines and accuracy/complexity reporting.

Costs follow the kernel family: with linear classifiers every evaluation
costs one unit, so a method's per-instance cost is the number of classifiers
it evaluates; with kernel classifiers the cost is the number of kernel
computations, counted as the union of the support-vector ids an instance
meets, which is what a per-instance cache would compute: a support vector
shared by several classifiers is computed once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .svm import ClassifierBank, train_svm, training_gram
from .tree import route as route_tree


@dataclass
class FlatModel:
    """A one-vs-all baseline, or a one-vs-one baseline when it has pairs."""

    models: list
    num_classes: int
    bank: ClassifierBank = field(repr=False)   # the models', built when trained
    coefficients: np.ndarray = field(repr=False)   # bank.coefficients() of the models
    pairs: list | None = None   # one-vs-one: model j's (class_a, class_b), a < b


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
    leaves: np.ndarray | None = None   # ATree only: tree.route's leaf index of each row


@dataclass
class ComplexityReport:
    relative_complexity: float


def _check_all_classes_present(data):
    counts = np.bincount(data.labels, minlength=data.num_classes)
    missing = [data.label_names[k] for k in np.flatnonzero(counts == 0)]
    if missing:
        raise ValidationError(f"classes {missing} are absent from the training data")


def _flat_bank(models, kernel, dimension):
    """The models' bank and its coefficients() matrix of the models."""
    bank, placed = ClassifierBank.of(models, kernel, dimension)
    return bank, bank.coefficients(placed)


def train_one_vs_all(data, kernel, svm_config):
    """One class-vs-rest model per class; prediction is argmax decision value
    with ties to the lowest class id. Every class trains on the same samples,
    so a kernel set computes its Gram once, column-major, for all of them."""
    _check_all_classes_present(data)
    X = data.features
    gram = None if kernel.is_linear else training_gram(kernel, X)
    models = [train_svm(X, np.where(data.labels == cls, 1.0, -1.0), kernel,
                        svm_config, gram=gram) for cls in range(data.num_classes)]
    return FlatModel(models, data.num_classes, *_flat_bank(models, kernel, data.dimension))


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
    return FlatModel(models, data.num_classes, *_flat_bank(models, kernel, data.dimension),
                     pairs)


def mean_per_class_accuracy(predictions, truths, num_classes, label_names=None):
    """Unweighted mean over classes of per-class recall. A class without
    test instances is an error, which names the class by its entry in
    ``label_names`` when given."""
    predictions = np.asarray(predictions)
    truths = np.asarray(truths)
    recalls = []
    for cls in range(num_classes):
        members = truths == cls
        if not members.any():
            name = cls if label_names is None else label_names[cls]
            raise ValidationError(f"class {name} has no test instances")
        recalls.append(float((predictions[members] == cls).mean()))
    return float(np.mean(recalls))


def evaluate_atree(tree, data):
    """Route the whole test set through the tree (tree.route) and keep each
    instance's leaf index on ``run.leaves``. Each instance's label,
    evaluation count and, for kernel trees, cached/uncached kernel
    computation counts are its leaf's: the instances reaching one leaf share
    one path, and the tree derived each leaf's label and counts when it was
    built. The dataset's labels must be the tree's classes: its label_names
    must be the tree's (load_csv maps a file's labels through them)."""
    if list(data.label_names) != list(tree.label_names):
        raise ValidationError(f"the test data's classes {list(data.label_names)} are not the "
                              f"tree's {list(tree.label_names)}")
    leaves = route_tree(tree, data.features)
    run = EvaluationRun(
        method="atree", num_classes=tree.num_classes, predictions=tree.leaf_labels[leaves],
        truths=data.labels.copy(), classifier_evaluations=tree.leaf_evaluations[leaves],
        leaves=leaves)
    if tree.leaf_kernel_computations is not None:
        run.kernel_computations, run.kernel_computations_uncached = (
            tree.leaf_kernel_computations[leaves].T)
    return run


def _flat_decision_values(model, X):
    """Decision values of every model of a flat baseline on every row of X,
    as a (models, rows) matrix: per block of its bank's input_blocks, one
    product of the inputs and its coefficients."""
    values = np.empty((len(X), len(model.models)))
    for i, inputs in model.bank.input_blocks(X):
        np.matmul(inputs, model.coefficients, out=values[i:i + len(inputs)])
    values += model.bank.biases
    return values.T


def _evaluate_flat(model, data):
    """The run of one-vs-all, or of one-vs-one when the model has pairs.
    Every model is evaluated on every instance, so the per-instance costs
    are constant: the model count and, for kernel models, the support
    vectors of the bank's table (union) and of every model (uncached)."""
    dimension = model.bank.rows.shape[1]
    if data.dimension != dimension:
        raise ValidationError(f"model expects dimension {dimension}, "
                              f"test data has {data.dimension}")
    n = len(data)
    values = _flat_decision_values(model, data.features)
    method = "ova" if model.pairs is None else "ovo"
    if method == "ova":
        preds = values.argmax(axis=0).astype(np.int64)
    else:
        votes = np.zeros((model.num_classes, n), dtype=np.int64)
        for (a, b), dv in zip(model.pairs, values):
            right = dv >= 0
            votes[b] += right
            votes[a] += ~right
        preds = votes.argmax(axis=0).astype(np.int64)
    union = uncached = None
    if not model.bank.kernel.is_linear:
        union = np.full(n, len(model.bank.sv_ids))
        uncached = np.full(n, sum(m.n_support for m in model.models))
    return EvaluationRun(
        method=method, num_classes=model.num_classes, predictions=preds,
        truths=data.labels.copy(),
        classifier_evaluations=np.full(n, len(model.models), dtype=np.int64),
        kernel_computations=union, kernel_computations_uncached=uncached)


# one function for both baselines: the model's pairs pick argmax or votes
evaluate_one_vs_all = evaluate_one_vs_one = _evaluate_flat


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
