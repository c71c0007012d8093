"""Hierarchy construction, traversal, cost model, and model I/O.

Construction has two phases. Phase one recursively partitions the training
set: each internal node picks a minimum-entropy feature split, reduces the
node's classes to a two-class problem, boosts decision stumps on it, and
routes samples to the children by the boosted classifier's confidence.
Samples whose confidence falls inside the undecided band are starred and
duplicated to both children. Phase two trains one binary SVM per internal
node on the confidently routed samples only; traversal at test time follows
the sign of the node SVM's decision value. A node that routes no sample
confidently to one side would send every input the other way and evaluate
nothing: phase one splices it out and builds the taken child in its place,
so every internal node of a trained tree holds a classifier.

A built tree is immutable; predict is safe under concurrent callers, each
holding a private trace.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .boosting import (BoostConfig, BoostedClassifier, DecisionStump,
                       _argmin_rescored, adaboost_train, prob_positive_batch)
from .dataset import Dataset
from .errors import SchemaError, ValidationError
from .svm import (KernelSpec, KernelSvmModel, LinearSvmModel, SvmConfig,
                  decision_values_batch, predict as svm_predict,
                  train_kernel_svm, train_linear_svm, truncate_svs)

MODEL_SCHEMA_VERSION = 2


@dataclass
class AtreeConfig:
    """Tree-level knobs.

    delta: routing threshold; a sample is routed to one child only when its
        partition probability exceeds delta, otherwise it is starred and
        duplicated. Values below 0.5 would push easy samples down both
        branches and are rejected.
    max_depth: maximum number of tree levels, root counting as level 1
        (so internal nodes occupy levels < max_depth). None picks
        2*ceil(log2(num_classes)) at build time. Spliced pass-through levels
        still count toward this budget, so a node's depth can exceed its
        level on the path from the root (tree.path_levels); Atree.depth
        and to_dot count path levels.
    min_node_samples: nodes smaller than this become leaves.
    sv_budget_search: optional candidate support-vector budgets tried per
        kernel node; the cheapest budget whose node accuracy drop stays
        within one point is kept.
    """

    delta: float = 0.7
    max_depth: int | None = None
    boost: BoostConfig = field(default_factory=BoostConfig)
    svm: SvmConfig = field(default_factory=SvmConfig)
    kernel: KernelSpec = field(default_factory=lambda: KernelSpec("linear"))
    min_node_samples: int = 5
    sv_budget_search: list | None = None

    def __post_init__(self):
        if not 0.5 <= self.delta <= 1.0:
            raise ValidationError(
                f"delta must lie in [0.5, 1], got {self.delta}: values below 0.5 "
                "route easy samples down both branches")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValidationError("max_depth must be positive")
        if self.min_node_samples < 1:
            raise ValidationError("min_node_samples must be positive")

    def effective_max_depth(self, num_classes):
        if self.max_depth is not None:
            return self.max_depth
        return 2 * max(1, math.ceil(math.log2(num_classes)))


@dataclass
class EntropySplit:
    """Minimum-entropy feature split with per-side class histograms."""

    feature_index: int
    threshold: float
    left_mass: float
    right_mass: float
    left_histogram: np.ndarray
    right_histogram: np.ndarray
    objective: float


@dataclass
class PartitionResult:
    """Sample routing produced by one boosted node.

    Confident samples appear on one side with weight 1; starred samples
    appear on both sides weighted by the corresponding partition
    probability. Each side's weights are renormalized to sum 1.
    """

    left_ids: np.ndarray
    left_weights: np.ndarray
    right_ids: np.ndarray
    right_weights: np.ndarray
    star_ids: np.ndarray
    left_only_ids: np.ndarray
    right_only_ids: np.ndarray


@dataclass
class LeafNode:
    node_id: int
    depth: int
    label: int
    purity: float
    n_training: int


@dataclass
class InternalNode:
    node_id: int
    depth: int
    split: EntropySplit
    boost: BoostedClassifier
    pos_classes: list
    neg_classes: list
    binary_distribution: tuple
    class_to_sign: dict
    n_training: int
    left: object
    right: object
    svm: object = None
    partition: PartitionResult | None = None

    passthrough = None  # not a field; benchmarks/workloads.tree_counters still reads it


@dataclass
class Atree:
    root: object
    config: AtreeConfig
    label_names: list
    num_classes: int
    dimension: int
    depth: int


def iter_nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, InternalNode):
            stack.append(node.right)
            stack.append(node.left)


def path_levels(root):
    """Level of every node on its path from the root (the root is level 1),
    keyed by node id. Unlike node.depth, spliced levels do not count."""
    levels = {root.node_id: 1}
    for node in iter_nodes(root):
        if isinstance(node, InternalNode):
            levels[node.left.node_id] = levels[node.right.node_id] = levels[node.node_id] + 1
    return levels


def _xlogx(v):
    out = np.zeros_like(v)
    mask = v > 0
    out[mask] = v[mask] * np.log(v[mask])
    return out


def _entropy(his):
    return float(-_xlogx(np.asarray(his, dtype=np.float64)).sum())


def _masses_for_mask(labels, weights, mask, num_classes):
    lm = np.bincount(labels[mask], weights=weights[mask], minlength=num_classes)
    rm = np.bincount(labels[~mask], weights=weights[~mask], minlength=num_classes)
    return lm, rm


def _split_from_masses(feature, threshold, lm, rm):
    zl = float(lm.sum())
    zr = float(rm.sum())
    his_l = lm / zl
    his_r = rm / zr
    objective = zl * _entropy(his_l) + zr * _entropy(his_r)
    return EntropySplit(feature, threshold, zl, zr, his_l, his_r, objective)


def entropy_split(X, labels, weights, num_classes):
    """Exhaustive minimum-entropy split over (feature, midpoint) candidates.

    The splitting rule is the feature test x[f] < v. Ties break to the lowest
    feature index, then the lowest threshold. Returns None when fewer than
    two classes are present or no candidate separates the samples.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if len(np.unique(labels)) < 2:
        return None
    n, d = X.shape
    # candidate i of a feature is the cut between sorted positions i and
    # i+1; +inf marks a cut between equal values
    thresholds = np.full((d, n - 1), np.inf)
    scores = np.full((d, n - 1), np.inf)
    for f in range(d):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        cuts = np.flatnonzero(np.diff(xs) != 0)
        onehot = np.zeros((n, num_classes))
        onehot[np.arange(n), labels[order]] = weights[order]
        cum = np.cumsum(onehot, axis=0)
        left = cum[cuts]
        right = cum[-1][None, :] - left
        zl = left.sum(axis=1)
        zr = right.sum(axis=1)
        scores[f, cuts] = (-_xlogx(left).sum(axis=1) + _xlogx(zl)
                           - _xlogx(right).sum(axis=1) + _xlogx(zr))
        thresholds[f, cuts] = (xs[cuts] + xs[cuts + 1]) / 2.0

    def rescore(f, idx):
        v = float(thresholds[f, idx])
        lm, rm = _masses_for_mask(labels, weights, X[:, f] < v, num_classes)
        split = _split_from_masses(f, v, lm, rm)
        return split.objective, split

    best = _argmin_rescored(scores, rescore)
    return None if best is None else best[1]


def binarize_labels(X, labels, weights, split, num_classes):
    """Map every class to one sign by comparing its mass on each split side.

    A class whose left mass is at least its right mass goes to -1, else +1.
    When exactly two classes are present and the rule would merge them onto
    one sign, the class with the larger left-mass share takes -1 and the
    other +1, so a two-class node always stays a relabeling.
    Returns (per-sample signs, class-to-sign map).
    """
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(X, dtype=np.float64)[:, split.feature_index] < split.threshold
    lm, rm = _masses_for_mask(labels, np.asarray(weights, dtype=np.float64),
                              mask, num_classes)
    present = np.flatnonzero(lm + rm > 0)
    sign_of = {int(k): (-1 if lm[k] >= rm[k] else 1) for k in present}
    if len(present) == 2 and len(set(sign_of.values())) == 1:
        a, b = (int(present[0]), int(present[1]))
        share_a = lm[a] / (lm[a] + rm[a])
        share_b = lm[b] / (lm[b] + rm[b])
        if share_a >= share_b:
            sign_of[a], sign_of[b] = -1, 1
        else:
            sign_of[a], sign_of[b] = 1, -1
    signs = np.array([sign_of[int(c)] for c in labels], dtype=np.int64)
    return signs, sign_of


def partition_samples(X, boost, delta, ids=None):
    """Route samples by the boosted classifier's confidence.

    p = p(+1|x): p > delta goes right with weight 1; 1-p > delta goes left
    with weight 1; anything else is starred and lands on both sides with
    weights p (right) and 1-p (left). At delta = 0.5 the starred band is
    empty and p = 0.5 ties route right, matching sign(H) with the 0 -> +1
    rule. Each side's weights are renormalized to sum 1.
    """
    if not 0.5 <= delta <= 1.0:
        raise ValidationError("delta must lie in [0.5, 1]")
    X = np.asarray(X, dtype=np.float64)
    if ids is None:
        ids = np.arange(X.shape[0], dtype=np.int64)
    else:
        ids = np.asarray(ids, dtype=np.int64)
    p = prob_positive_batch(boost, X)
    if delta == 0.5:
        right_conf = p >= 0.5
        left_conf = ~right_conf
        star = np.zeros(len(p), dtype=bool)
    else:
        right_conf = p > delta
        left_conf = (1.0 - p) > delta
        star = ~(right_conf | left_conf)
    left_sel = left_conf | star
    right_sel = right_conf | star
    left_w = np.where(left_conf, 1.0, 1.0 - p)[left_sel]
    right_w = np.where(right_conf, 1.0, p)[right_sel]
    if left_w.size:
        left_w = left_w / left_w.sum()
    if right_w.size:
        right_w = right_w / right_w.sum()
    return PartitionResult(
        left_ids=ids[left_sel], left_weights=left_w,
        right_ids=ids[right_sel], right_weights=right_w,
        star_ids=ids[star],
        left_only_ids=ids[left_conf], right_only_ids=ids[right_conf],
    )


def _make_leaf(node_id, depth, labels, weights, num_classes):
    masses = np.bincount(labels, weights=weights, minlength=num_classes)
    label = int(np.argmax(masses))
    return LeafNode(node_id, depth, label, float(masses[label] / masses.sum()),
                    len(labels))


def build_phase1(data, config, depth=1, ids=None, weights=None, _counter=None):
    """Recursive hierarchy construction (no SVMs yet).

    A node becomes a leaf when it is single-class, too small, at the depth
    limit, unsplittable, reduced to one sign by binarization, abandoned by
    boosting (no retained rounds), or when routing empties one side. A node
    with no confident samples on one side is spliced out: the child it would
    always route to is built one level down in its place. Node ids are drawn
    in preorder as nodes are made, so they stay contiguous.
    """
    if ids is None:
        ids = np.arange(len(data), dtype=np.int64)
        weights = data.weights / data.weights.sum()
    if len(ids) == 0:
        raise ValidationError("cannot build a tree node from zero samples")
    if _counter is None:
        _counter = itertools.count()
    labels = data.labels[ids]
    X = data.features[ids]
    max_depth = config.effective_max_depth(data.num_classes)

    def leaf():
        return _make_leaf(next(_counter), depth, labels, weights, data.num_classes)

    if len(np.unique(labels)) < 2:
        return leaf()
    if len(ids) < config.min_node_samples:
        return leaf()
    if depth >= max_depth:
        return leaf()
    split = entropy_split(X, labels, weights, data.num_classes)
    if split is None:
        return leaf()
    signs, sign_of = binarize_labels(X, labels, weights, split, data.num_classes)
    if len(set(sign_of.values())) < 2:
        return leaf()
    boost = adaboost_train(X, signs, weights, config.boost)
    if not boost.rounds:
        return leaf()
    part = partition_samples(X, boost, config.delta, ids=ids)
    if len(part.left_ids) == 0 or len(part.right_ids) == 0:
        return leaf()
    lo, ro = part.left_only_ids, part.right_only_ids
    if len(lo) == 0 or len(ro) == 0:
        # a pass-through: build only the side every input would take
        if len(ro) == 0 and (len(lo) > 0 or len(part.left_ids) > len(part.right_ids)):
            return build_phase1(data, config, depth + 1, part.left_ids,
                                part.left_weights, _counter)
        return build_phase1(data, config, depth + 1, part.right_ids,
                            part.right_weights, _counter)
    node_id = next(_counter)
    neg_mass = float(weights[signs < 0].sum())
    return InternalNode(
        node_id=node_id, depth=depth, split=split, boost=boost,
        pos_classes=sorted(np.unique(data.labels[part.right_ids]).tolist()),
        neg_classes=sorted(np.unique(data.labels[part.left_ids]).tolist()),
        binary_distribution=(neg_mass, float(weights[signs > 0].sum())),
        class_to_sign=sign_of,
        n_training=len(ids),
        left=build_phase1(data, config, depth + 1, part.left_ids,
                          part.left_weights, _counter),
        right=build_phase1(data, config, depth + 1, part.right_ids,
                           part.right_weights, _counter),
        partition=part,
    )


def _node_svm_cost(svm, n_pos, n_neg):
    n_sv = svm.n_support if isinstance(svm, KernelSvmModel) else 1
    return _cost(n_sv, n_pos, n_neg)


def _cost(n_sv, n_pos, n_neg):
    f_neg = n_neg / (n_pos + n_neg)
    f_pos = n_pos / (n_pos + n_neg)
    return f_neg * n_sv / n_pos + f_pos * n_sv / n_neg


def node_cost(node):
    """Average kernel-evaluation cost per class eliminated at the node:
    f_neg*N/|Z+| + f_pos*N/|Z-|, with N = 1 for linear nodes."""
    if not isinstance(node, InternalNode):
        raise ValidationError("node_cost applies to internal nodes")
    if node.svm is None:
        raise ValidationError("node has no trained classifier")
    n_pos, n_neg = len(node.pos_classes), len(node.neg_classes)
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("node_cost needs nonempty class sets on both sides")
    return _node_svm_cost(node.svm, n_pos, n_neg)


def _train_node_svm(node, data, config):
    lo, ro = node.partition.left_only_ids, node.partition.right_only_ids
    if len(lo) == 0 or len(ro) == 0:
        raise ValidationError(f"node {node.node_id} routes no sample confidently "
                              "to one side; phase one splices such nodes out")
    train_ids = np.concatenate([lo, ro])
    Xn = data.features[train_ids]
    yn = np.concatenate([-np.ones(len(lo)), np.ones(len(ro))])
    if config.kernel.is_linear:
        node.svm = train_linear_svm(Xn, yn, config.svm)
        return
    model = train_kernel_svm(Xn, yn, config.kernel, config.svm, sample_ids=train_ids)
    if config.sv_budget_search:
        model = _apply_sv_budget(model, Xn, yn,
                                 len(node.pos_classes), len(node.neg_classes),
                                 config.sv_budget_search)
    node.svm = model


def _apply_sv_budget(model, Xn, yn, n_pos, n_neg, budgets):
    def accuracy(m):
        return float((svm_predict(m, Xn) == yn).mean())

    full_acc = accuracy(model)
    best, best_cost = model, _node_svm_cost(model, n_pos, n_neg)
    for budget in sorted(set(int(b) for b in budgets)):
        if budget < 1 or budget >= model.n_support:
            continue
        cand = truncate_svs(model, budget)
        if accuracy(cand) < full_acc - 0.01:
            continue
        cost = _node_svm_cost(cand, n_pos, n_neg)
        if cost < best_cost:
            best, best_cost = cand, cost
    return best


def attach_svms_phase2(root, data, config):
    """Train one binary SVM per internal node on its confidently routed
    samples (starred samples excluded). Raises ValidationError for a node
    whose partition has no confident samples on one side."""
    for node in iter_nodes(root):
        if isinstance(node, InternalNode):
            if node.partition is None:
                raise ValidationError("phase-one partition data is missing")
            _train_node_svm(node, data, config)
    return Atree(root=root, config=config, label_names=list(data.label_names),
                 num_classes=data.num_classes, dimension=data.dimension,
                 depth=max(path_levels(root).values()))


def train_atree(data, config):
    """Full pipeline: phase-one hierarchy, then per-node SVMs."""
    root = build_phase1(data, config)
    return attach_svms_phase2(root, data, config)


def predict(tree, x):
    """Traverse from the root, routing right when the node decision value is
    nonnegative. Returns (class id, trace); the trace lists every evaluated
    node as (node_id, decision value)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (tree.dimension,):
        raise ValidationError(f"expected a vector of dimension {tree.dimension}")
    trace = []
    node = tree.root
    while isinstance(node, InternalNode):
        if node.svm is None:
            raise ValidationError("phase two has not been attached to this tree")
        dv = decision_values_batch(node.svm, x)
        trace.append((node.node_id, dv))
        node = node.right if dv >= 0 else node.left
    return node.label, trace


@dataclass
class PathGroup:
    """The rows of a batch that reach one leaf. Every row of the group
    follows the same path: ``nodes`` lists the evaluated internal nodes from
    the root down, and ``values[k, j]`` is the decision value of
    ``nodes[j]`` on row ``rows[k]``."""

    leaf: LeafNode
    nodes: list
    rows: np.ndarray
    values: np.ndarray


def route(tree, X):
    """Traverse every row of X at once, level by level: each node evaluates
    its classifier once, over the rows that reach it, and routes them right
    where the decision value is nonnegative. Labels, paths and decision
    values are bit-identical to predict() on each row. Returns one PathGroup
    per reached leaf."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != tree.dimension:
        raise ValidationError(f"expected an (n, {tree.dimension}) matrix")
    groups = []
    level = [(tree.root, np.arange(len(X)), [], np.empty((len(X), 0)))]
    while level:
        below = []
        for node, rows, path, values in level:
            if isinstance(node, LeafNode):
                groups.append(PathGroup(node, path, rows, values))
            elif node.svm is None:
                raise ValidationError("phase two has not been attached to this tree")
            else:
                dv = decision_values_batch(node.svm, X[rows])
                right = dv >= 0
                for child, sel in ((node.left, ~right), (node.right, right)):
                    if sel.any():
                        below.append((child, rows[sel], path + [node],
                                      np.column_stack((values[sel], dv[sel]))))
        level = below
    return groups


# ---------------------------------------------------------------------------
# Serialization


def _svm_to_doc(svm):
    if svm is None:
        return None
    if isinstance(svm, LinearSvmModel):
        return {"type": "linear", "weights": svm.weights.tolist(), "bias": svm.bias}
    return {"type": "kernel", "kernel": svm.kernel.to_dict(),
            "support_vectors": svm.support_vectors.tolist(),
            "dual_coefficients": svm.dual_coefficients.tolist(),
            "bias": svm.bias, "sv_ids": svm.sv_ids.tolist()}


def _node_to_doc(node):
    if isinstance(node, LeafNode):
        return {"kind": "leaf", "depth": node.depth, "label": node.label,
                "purity": node.purity, "n_training": node.n_training}
    return {
        "kind": "internal", "depth": node.depth,
        "split": {"feature_index": node.split.feature_index,
                  "threshold": node.split.threshold,
                  "left_mass": node.split.left_mass,
                  "right_mass": node.split.right_mass,
                  "left_histogram": node.split.left_histogram.tolist(),
                  "right_histogram": node.split.right_histogram.tolist(),
                  "objective": node.split.objective},
        "boost": {"rounds": [[alpha, s.feature_index, s.threshold, s.polarity]
                             for alpha, s in node.boost.rounds],
                  "round_errors": list(node.boost.round_errors),
                  "exited_early": node.boost.exited_early,
                  "pure": node.boost.pure},
        "pos_classes": list(node.pos_classes),
        "neg_classes": list(node.neg_classes),
        "binary_distribution": list(node.binary_distribution),
        "class_to_sign": {str(k): v for k, v in node.class_to_sign.items()},
        "n_training": node.n_training,
        "svm": _svm_to_doc(node.svm),
        "left": node.left.node_id, "right": node.right.node_id,
    }


def serialize(tree):
    """Lossless JSON text for a tree; floats keep full precision."""
    nodes = sorted(iter_nodes(tree.root), key=lambda n: n.node_id)
    doc = {
        "version": MODEL_SCHEMA_VERSION,
        "config": {
            "delta": tree.config.delta,
            "max_depth": tree.config.max_depth,
            "min_node_samples": tree.config.min_node_samples,
            "sv_budget_search": tree.config.sv_budget_search,
            "kernel": tree.config.kernel.to_dict(),
            "boost": {"max_rounds": tree.config.boost.max_rounds,
                      "gamma": tree.config.boost.gamma,
                      "min_weight_floor": tree.config.boost.min_weight_floor},
            "svm": {"c": tree.config.svm.c,
                    "tolerance": tree.config.svm.tolerance,
                    "max_passes": tree.config.svm.max_passes,
                    "seed": tree.config.svm.seed},
        },
        "label_names": tree.label_names,
        "num_classes": tree.num_classes,
        "dimension": tree.dimension,
        "depth": tree.depth,
        "nodes": [_node_to_doc(n) for n in nodes],
    }
    return json.dumps(doc)


def _svm_from_doc(doc):
    if doc is None:
        return None
    if doc["type"] == "linear":
        return LinearSvmModel(np.asarray(doc["weights"], dtype=np.float64),
                              float(doc["bias"]))
    return KernelSvmModel(
        support_vectors=np.asarray(doc["support_vectors"], dtype=np.float64),
        dual_coefficients=np.asarray(doc["dual_coefficients"], dtype=np.float64),
        bias=float(doc["bias"]),
        kernel=KernelSpec.from_dict(doc["kernel"]),
        sv_ids=np.asarray(doc["sv_ids"], dtype=np.int64),
    )


def _node_from_doc(node_id, doc, built):
    if doc["kind"] == "leaf":
        return LeafNode(node_id, doc["depth"], int(doc["label"]),
                        float(doc["purity"]), int(doc["n_training"]))
    s = doc["split"]
    split = EntropySplit(int(s["feature_index"]), float(s["threshold"]),
                         float(s["left_mass"]), float(s["right_mass"]),
                         np.asarray(s["left_histogram"], dtype=np.float64),
                         np.asarray(s["right_histogram"], dtype=np.float64),
                         float(s["objective"]))
    b = doc["boost"]
    boost = BoostedClassifier(
        rounds=[(float(alpha), DecisionStump(int(f), float(t), int(pol)))
                for alpha, f, t, pol in b["rounds"]],
        round_errors=[float(e) for e in b["round_errors"]],
        exited_early=bool(b["exited_early"]), pure=bool(b["pure"]))
    return InternalNode(
        node_id=node_id, depth=doc["depth"], split=split, boost=boost,
        pos_classes=[int(c) for c in doc["pos_classes"]],
        neg_classes=[int(c) for c in doc["neg_classes"]],
        binary_distribution=tuple(doc["binary_distribution"]),
        class_to_sign={int(k): int(v) for k, v in doc["class_to_sign"].items()},
        n_training=int(doc["n_training"]),
        left=built[doc["left"]], right=built[doc["right"]],
        svm=_svm_from_doc(doc["svm"]))


def _check_node_kernel(node, kernel):
    """Every node classifier must follow the configured kernel: kernel
    counts take the union of sv_ids across nodes, which is only a count of
    shared computations when all nodes evaluate the same kernel."""
    svm = getattr(node, "svm", None)
    if svm is None:
        return
    found = "linear" if isinstance(svm, LinearSvmModel) else svm.kernel
    expected = "linear" if kernel.is_linear else kernel
    if found != expected:
        raise SchemaError(f"node {node.node_id} classifier uses kernel {found!r}, "
                          f"the model config says {kernel!r}")


def deserialize(text):
    """Rebuild a tree from serialize() output; predictions and traces match
    the original exactly. Raises SchemaError on malformed documents or a
    version mismatch."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, TypeError) as exc:
        raise SchemaError(f"malformed model document: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("malformed model document: expected an object")
    version = doc.get("version")
    if version != MODEL_SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported model version {version!r}, expected {MODEL_SCHEMA_VERSION}")
    try:
        cfg = doc["config"]
        config = AtreeConfig(
            delta=cfg["delta"], max_depth=cfg["max_depth"],
            boost=BoostConfig(**cfg["boost"]), svm=SvmConfig(**cfg["svm"]),
            kernel=KernelSpec.from_dict(cfg["kernel"]),
            min_node_samples=cfg["min_node_samples"],
            sv_budget_search=cfg["sv_budget_search"])
        node_docs = doc["nodes"]
        built = {}
        # children always carry larger ids than their parent, so build in
        # reverse id order
        for node_id in range(len(node_docs) - 1, -1, -1):
            built[node_id] = _node_from_doc(node_id, node_docs[node_id], built)
            _check_node_kernel(built[node_id], config.kernel)
        return Atree(root=built[0], config=config,
                     label_names=list(doc["label_names"]),
                     num_classes=int(doc["num_classes"]),
                     dimension=int(doc["dimension"]), depth=int(doc["depth"]))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed model document: {exc!r}") from None


def save(tree, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(tree))


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())


# ---------------------------------------------------------------------------
# DOT export


def _dot_label(node, label_names):
    if isinstance(node, LeafNode):
        return f"class {label_names[node.label]}\\npurity {node.purity:.3f}"
    return (f"f{node.split.feature_index} < {node.split.threshold:.6g}"
            f"\\n|Z+|={len(node.pos_classes)} |Z-|={len(node.neg_classes)}")


def to_dot(tree, max_depth=None):
    """Graphviz DOT text; max_depth limits rendering to the top levels of
    the root paths."""
    lines = ["digraph atree {"]
    nodes = sorted(iter_nodes(tree.root), key=lambda n: n.node_id)
    levels = path_levels(tree.root)
    kept = {n.node_id for n in nodes if max_depth is None or levels[n.node_id] <= max_depth}
    for node in nodes:
        if node.node_id not in kept:
            continue
        shape = "box" if isinstance(node, InternalNode) else "ellipse"
        lines.append(f'  n{node.node_id} [shape={shape}, '
                     f'label="{_dot_label(node, tree.label_names)}"];')
    for node in nodes:
        if not isinstance(node, InternalNode) or node.node_id not in kept:
            continue
        if node.left.node_id in kept:
            lines.append(f'  n{node.node_id} -> n{node.left.node_id} [label="-"];')
        if node.right.node_id in kept:
            lines.append(f'  n{node.node_id} -> n{node.right.node_id} [label="+"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
