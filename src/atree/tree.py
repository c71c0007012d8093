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
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .boosting import (BoostConfig, BoostedClassifier, DecisionStump,
                       _argmin_rescored, adaboost_train, prob_positive_batch)
from .dataset import Dataset
from .errors import SchemaError, ValidationError
from .svm import (KernelSpec, KernelSvmModel, LinearSvmModel, SvmConfig,
                  decision_values_batch, predict as svm_predict, squared_norms,
                  train_svm, truncate_svs)

MODEL_SCHEMA_VERSION = 4


@dataclass
class AtreeConfig:
    """Tree-level knobs.

    delta: routing threshold; a sample is routed to one child only when its
        partition probability exceeds delta, otherwise it is starred and
        duplicated. Values below 0.5 would push easy samples down both
        branches and are rejected.
    max_depth: maximum number of tree levels, root counting as level 1.
        None picks 2*ceil(log2(num_classes)) at build time. Spliced
        pass-through levels count toward it too.
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
    """Minimum-entropy feature split x[f] < threshold with each side's
    per-class sample mass."""

    feature_index: int
    threshold: float
    left_masses: np.ndarray
    right_masses: np.ndarray

    @property
    def objective(self):
        """Mass-weighted entropy of the two sides' class distributions."""
        zl, zr = float(self.left_masses.sum()), float(self.right_masses.sum())
        return zl * _entropy(self.left_masses / zl) + zr * _entropy(self.right_masses / zr)


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
    label: int
    purity: float
    n_training: int


@dataclass
class InternalNode:
    node_id: int
    split: EntropySplit
    boost: BoostedClassifier
    pos_classes: list
    neg_classes: list
    binary_distribution: tuple
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
    dimension: int

    @property
    def num_classes(self):
        return len(self.label_names)

    @property
    def depth(self):
        """Levels on the longest root path."""
        return max(path_levels(self.root).values())


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
    keyed by node id."""
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
        left = X[:, f] < v
        split = EntropySplit(f, v, np.bincount(labels[left], weights[left], num_classes),
                             np.bincount(labels[~left], weights[~left], num_classes))
        return split.objective, split

    best = _argmin_rescored(scores, rescore)
    return None if best is None else best[1]


def binarize_labels(labels, split):
    """Map every class to one sign by comparing its mass on each split side.

    A class whose left mass is at least its right mass goes to -1, else +1.
    When exactly two classes are present and the rule would merge them onto
    one sign, the class with the larger left-mass share takes -1 and the
    other +1, so a two-class node always stays a relabeling.
    Returns (per-sample signs, class-to-sign map).
    """
    lm, rm = split.left_masses, split.right_masses
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


def _make_leaf(node_id, labels, weights, num_classes):
    masses = np.bincount(labels, weights=weights, minlength=num_classes)
    label = int(np.argmax(masses))
    return LeafNode(node_id, label, float(masses[label] / masses.sum()), len(labels))


def build_phase1(data, config, depth=1, ids=None, weights=None, _counter=None):
    """Recursive hierarchy construction (no SVMs yet).

    ``depth`` is the level budget used so far, spliced levels included. A
    node becomes a leaf when it is single-class, too small, at the depth
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
        return _make_leaf(next(_counter), labels, weights, data.num_classes)

    if len(np.unique(labels)) < 2:
        return leaf()
    if len(ids) < config.min_node_samples:
        return leaf()
    if depth >= max_depth:
        return leaf()
    split = entropy_split(X, labels, weights, data.num_classes)
    if split is None:
        return leaf()
    signs, sign_of = binarize_labels(labels, split)
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
        node_id=node_id, split=split, boost=boost,
        pos_classes=sorted(np.unique(data.labels[part.right_ids]).tolist()),
        neg_classes=sorted(np.unique(data.labels[part.left_ids]).tolist()),
        binary_distribution=(neg_mass, float(weights[signs > 0].sum())),
        n_training=len(ids),
        left=build_phase1(data, config, depth + 1, part.left_ids,
                          part.left_weights, _counter),
        right=build_phase1(data, config, depth + 1, part.right_ids,
                           part.right_weights, _counter),
        partition=part,
    )


def _node_svm_cost(svm, n_pos, n_neg):
    n_sv = svm.n_support if isinstance(svm, KernelSvmModel) else 1
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
    model = train_svm(Xn, yn, config.kernel, config.svm, sample_ids=train_ids)
    if config.sv_budget_search and not config.kernel.is_linear:
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
    return Atree(root, config, list(data.label_names), data.dimension)


def train_atree(data, config):
    """Full pipeline: phase-one hierarchy, then per-node SVMs."""
    root = build_phase1(data, config)
    return attach_svms_phase2(root, data, config)


def _require_finite(v):
    """Reject NaN and inf in the 1-d array v. v.v is finite only when every
    entry is; the dearer elementwise test runs only when it is not, as when
    v.v overflows."""
    if not (math.isfinite(v.dot(v)) or np.isfinite(v).all()):
        raise ValidationError("features must be finite (no NaN or inf)")


def predict(tree, x):
    """Traverse from the root, routing right when the node decision value is
    nonnegative. Returns (class id, trace); the trace lists every evaluated
    node as (node_id, decision value). An rbf tree computes the instance's
    squared norm once for the whole path."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (tree.dimension,):
        raise ValidationError(f"expected a vector of dimension {tree.dimension}")
    _require_finite(x)
    x_norm = squared_norms(x[None, :]) if tree.config.kernel.kind == "rbf" else None
    trace = []
    node = tree.root
    while isinstance(node, InternalNode):
        if node.svm is None:
            raise ValidationError("phase two has not been attached to this tree")
        dv = decision_values_batch(node.svm, x, x_norm)
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
    values are bit-identical to predict() on each row. An rbf tree computes
    the rows' squared norms once, from a row-major copy whose rows are laid
    out as X[rows] lays them out. Returns one PathGroup per reached leaf."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != tree.dimension:
        raise ValidationError(f"expected an (n, {tree.dimension}) matrix")
    _require_finite(X.reshape(-1))
    norms = (squared_norms(np.ascontiguousarray(X))
             if tree.config.kernel.kind == "rbf" else None)
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
                dv = decision_values_batch(node.svm, X[rows],
                                           None if norms is None else norms[rows])
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
    """A node classifier without its kernel, which the config holds; a
    kernel model names its support vectors by id in the tree's table."""
    if svm is None:
        return None
    if isinstance(svm, LinearSvmModel):
        return {"weights": svm.weights, "bias": svm.bias}
    return {"sv_ids": svm.sv_ids, "dual_coefficients": svm.dual_coefficients,
            "bias": svm.bias}


def _node_to_doc(node):
    """A node's fields, less its id (its place in the node list) and its
    phase-one partition; an internal node names its children by id."""
    doc = {k: v for k, v in vars(node).items() if k not in ("node_id", "partition")}
    if isinstance(node, InternalNode):
        doc.update(split=vars(node.split), svm=_svm_to_doc(node.svm),
                   boost={**vars(node.boost), "rounds": [
                       [alpha, s.feature_index, s.threshold, s.polarity]
                       for alpha, s in node.boost.rounds]},
                   left=node.left.node_id, right=node.right.node_id)
    return doc


def serialize(tree):
    """Lossless JSON text for a tree; floats keep full precision. Every
    support vector is stored once, as an [sv_id, row] pair of a table sorted
    by id, however many node classifiers keep it."""
    nodes = sorted(iter_nodes(tree.root), key=lambda n: n.node_id)
    table = {sv_id: row for n in nodes if isinstance(getattr(n, "svm", None), KernelSvmModel)
             for sv_id, row in zip(n.svm.sv_ids.tolist(), n.svm.support_vectors)}
    doc = {
        "version": MODEL_SCHEMA_VERSION,
        "config": asdict(tree.config),
        "label_names": tree.label_names,
        "dimension": tree.dimension,
        "support_vectors": [[sv_id, table[sv_id]] for sv_id in sorted(table)],
        "nodes": [_node_to_doc(n) for n in nodes],
    }
    return json.dumps(doc, default=np.ndarray.tolist)


def _config_from_doc(cls, doc, **parts):
    """Rebuild a config dataclass from its asdict() form, ``parts`` naming
    the nested ones. Every field must be present: none falls back to its
    default."""
    names = {f.name for f in fields(cls)}
    if set(doc) != names:
        raise SchemaError(f"{cls.__name__} in the model must have exactly the fields "
                          f"{sorted(names)}, got {sorted(doc)}")
    nested = {name: _config_from_doc(part, doc[name]) for name, part in parts.items()}
    return cls(**{**doc, **nested})


def _table_from_doc(entries, dimension):
    """The support-vector table as (ids, rows): ids strictly increasing, one
    row of ``dimension`` values each."""
    ids = np.array([sv_id for sv_id, _ in entries], dtype=np.int64)
    if (np.diff(ids) <= 0).any():
        raise SchemaError("support-vector table must list each id once, in increasing order")
    rows = [row for _, row in entries]
    if any(len(row) != dimension for row in rows):
        raise SchemaError(f"support-vector table rows must be {dimension} wide")
    return ids, np.array(rows, dtype=np.float64).reshape(len(rows), dimension)


def _svm_from_doc(doc, kernel, table):
    """The node classifier of the configured kernel's family."""
    if doc is None:
        return None
    if ("weights" in doc) != kernel.is_linear or ("sv_ids" in doc) == kernel.is_linear:
        raise SchemaError(f"node classifier with fields {sorted(doc)} does not fit "
                          f"the configured {kernel.kind} kernel")
    ids, rows = table
    if kernel.is_linear:
        weights = np.asarray(doc["weights"], dtype=np.float64)
        # the table's rows are dimension wide even when it holds none
        if weights.shape != rows.shape[1:]:
            raise SchemaError(f"linear node weights must be {rows.shape[1]} wide")
        return LinearSvmModel(weights, float(doc["bias"]))
    sv_ids = np.asarray(doc["sv_ids"], dtype=np.int64)
    at = np.searchsorted(ids, sv_ids)
    if (at >= len(ids)).any() or not np.array_equal(ids[at], sv_ids):
        raise SchemaError("node classifier refers to an sv_id the support-vector "
                          "table does not hold")
    coefficients = np.asarray(doc["dual_coefficients"], dtype=np.float64)
    if coefficients.shape != sv_ids.shape:
        raise SchemaError("a kernel node needs one dual coefficient per sv_id")
    return KernelSvmModel(support_vectors=rows[at], dual_coefficients=coefficients,
                          bias=float(doc["bias"]), kernel=kernel, sv_ids=sv_ids)


def _node_from_doc(node_id, doc, built, kernel, table):
    if "split" not in doc:
        return LeafNode(node_id, **doc)
    split, boost = dict(doc["split"]), doc["boost"]
    for side in ("left_masses", "right_masses"):
        split[side] = np.asarray(split[side], dtype=np.float64)
    return InternalNode(node_id, **{
        **doc,
        "split": EntropySplit(**split),
        "boost": BoostedClassifier(**{**boost, "rounds": [
            (alpha, DecisionStump(*stump)) for alpha, *stump in boost["rounds"]]}),
        "binary_distribution": tuple(doc["binary_distribution"]),
        "left": built[doc["left"]], "right": built[doc["right"]],
        "svm": _svm_from_doc(doc["svm"], kernel, table)})


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
        config = _config_from_doc(AtreeConfig, doc["config"], boost=BoostConfig,
                                  svm=SvmConfig, kernel=KernelSpec)
        dimension = int(doc["dimension"])
        table = _table_from_doc(doc["support_vectors"], dimension)
        node_docs = doc["nodes"]
        built = {}
        # children always carry larger ids than their parent, so build in
        # reverse id order
        for node_id in range(len(node_docs) - 1, -1, -1):
            built[node_id] = _node_from_doc(node_id, node_docs[node_id], built,
                                            config.kernel, table)
        return Atree(built[0], config, doc["label_names"], dimension)
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
