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

import base64
import contextlib
import itertools
import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .boosting import (BoostConfig, BoostedClassifier, Presort, _argmin_rescored,
                       adaboost_train, logistic)
from .dataset import check_label_names
from .errors import SchemaError, ValidationError, check_field_types
from .svm import (ClassifierBank, KernelSpec, KernelSvmModel, LinearSvmModel, SvmConfig,
                  train_svm)

MODEL_SCHEMA_VERSION = 8


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
    """

    delta: float = 0.7
    max_depth: int | None = None
    boost: BoostConfig = field(default_factory=BoostConfig)
    svm: SvmConfig = field(default_factory=SvmConfig)
    kernel: KernelSpec = field(default_factory=lambda: KernelSpec("linear"))
    min_node_samples: int = 5

    def __post_init__(self):
        check_field_types(self)
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
    """n_training is phase one's; a loaded tree has none."""

    node_id: int
    label: int
    purity: float
    n_training: int | None = None


@dataclass
class InternalNode:
    """binary_distribution, n_training, split, boost and partition belong to
    phase one; a loaded tree has none of them."""

    node_id: int
    pos_classes: list
    neg_classes: list
    left: object
    right: object
    svm: object = None
    binary_distribution: tuple | None = None
    n_training: int | None = None
    split: EntropySplit | None = None
    boost: BoostedClassifier | None = None
    partition: PartitionResult | None = None

    passthrough = None  # not a field; benchmarks/workloads.tree_counters still reads it


class NodeEntry(NamedTuple):
    """One internal node as traversal reads it: the node and its id, its
    span of the bank's columns as a slice (None when it is every column, as
    for every linear node, so that no view of a whole row is made), its
    segment of coefficients over that span, its classifier's bias as the
    bank's float64 (so that adding it to a dot product converts nothing),
    and its left and right children as codes. A child's code is its index
    in the tree's table when it is internal, and ~k when it is the tree's
    leaf k."""

    node: InternalNode
    node_id: int
    span: slice | None
    segment: np.ndarray
    bias: float
    left: int
    right: int


class LinearRoute(NamedTuple):
    """What route() reads of a linear tree. With internal node table[i]
    coded i and leaf k coded len(table) + k: coefficients, the (features,
    internal nodes) matrix whose column i is table[i]'s weights; bound, the
    decision values' rounding bound per unit of a row's augmented norm (see
    _route_linear); steps, the walk's moves: code c moves to steps[2c] when
    its decision value is negative and to steps[2c + 1] when it is not, and
    a leaf moves to itself; and biases, each code's bias, table[i].bias for
    code i and +inf for a leaf, so that a leaf's read is never within
    rounding of zero (its move ignores it)."""

    coefficients: np.ndarray
    bound: float
    steps: np.ndarray
    biases: np.ndarray


@dataclass
class Atree:
    """A tree and what traversal derives from it once, when the tree is
    built: its nodes in node-id order; the level of each node on its root
    path, keyed by node id (the root is level 1); its depth (the levels on
    the longest root path); the ClassifierBank of its node classifiers,
    which every internal node must hold; its table, one NodeEntry per
    internal node in preorder, entry i reading bank columns table[i].span
    with bias table[i].bias, its node's svm.bias as the bank's float64
    biases[i]; its leaves in preorder; their paths, paths[k] the internal
    nodes from the root down to leaves[k]; per leaf, as int64 arrays, its
    label (leaf_labels) and its path's length, the classifier evaluations
    an instance that reaches it costs (leaf_evaluations); and for a kernel
    tree (None for a linear one) a (leaves, 2)
    int array of each leaf's path's (union, uncached) kernel computations:
    the distinct support vectors of the path's classifiers and their total
    count. Traversal starts at code 0, the root's entry, or at ~0,
    leaves[0], when the root is a leaf and the table is empty. A linear tree
    also holds its LinearRoute, the coefficient matrix, rounding bound and
    walk that route() reads (None for a kernel tree).

    The bank's table is in tree order: it lists the support vectors node by
    node in preorder, each with the deepest node that keeps it (the last in
    preorder among equals), so a node's span holds its own support vectors
    and mostly those of its descendants.

    Nothing derived is updated later: a built tree must not be mutated.
    Change a node and build a new Atree from its root instead."""

    root: object
    config: AtreeConfig
    label_names: list
    dimension: int
    nodes: list = field(init=False, repr=False, compare=False)
    levels: dict = field(init=False, repr=False, compare=False)
    depth: int = field(init=False, repr=False, compare=False)
    bank: ClassifierBank = field(init=False, repr=False, compare=False)
    table: list = field(init=False, repr=False, compare=False)
    leaves: list = field(init=False, repr=False, compare=False)
    paths: list = field(init=False, repr=False, compare=False)
    leaf_labels: np.ndarray = field(init=False, repr=False, compare=False)
    leaf_evaluations: np.ndarray = field(init=False, repr=False, compare=False)
    leaf_kernel_computations: np.ndarray | None = field(init=False, repr=False, compare=False)
    linear: LinearRoute | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        preorder = list(iter_nodes(self.root))
        internal = [n for n in preorder if isinstance(n, InternalNode)]
        self.leaves = [n for n in preorder if isinstance(n, LeafNode)]
        self.levels = levels = {self.root.node_id: 1}
        for node in internal:
            if node.svm is None:
                raise ValidationError(f"internal node {node.node_id} has no classifier: "
                                      "phase two has not been attached")
            levels[node.left.node_id] = levels[node.right.node_id] = levels[node.node_id] + 1
        self.nodes = sorted(preorder, key=lambda n: n.node_id)
        ids = [n.node_id for n in self.nodes]
        if ids != [*range(len(ids))] or any(type(i) is not int for i in ids) or any(
                min(n.left.node_id, n.right.node_id) <= n.node_id for n in internal):
            raise ValidationError("node ids must be ints 0..n-1, rising from parent to child")
        self.depth = max(levels.values())
        m = len(internal)
        ranks = [levels[n.node_id] * m + k for k, n in enumerate(internal)]
        self.bank, placed = ClassifierBank.of([n.svm for n in internal], self.config.kernel,
                                              self.dimension, ranks)
        # node j's span is columns lo[j] to hi[j], (0, 0) when it reads none,
        # and its segment the slice of segments that ends at ends[j]
        columns, _, starts = placed
        owners = placed.owners()
        held = np.diff(starts) > 0
        lo, hi = np.zeros(m, dtype=np.intp), np.zeros(m, dtype=np.intp)
        lo[held] = np.minimum.reduceat(columns, starts[:-1][held])
        hi[held] = np.maximum.reduceat(columns, starts[:-1][held]) + 1
        ends = np.cumsum(hi - lo)
        segments = np.zeros((hi - lo).sum())
        segments[(ends - hi)[owners] + columns] = placed.values
        code = {id(n): k for k, n in enumerate(internal)}
        code.update((id(n), ~k) for k, n in enumerate(self.leaves))
        width = self.bank.width
        self.table = [NodeEntry(node, node.node_id,
                                None if (a, b) == (0, width) else slice(a, b),
                                segments[e - b + a:e], bias,
                                code[id(node.left)], code[id(node.right)])
                      for node, a, b, e, bias in zip(internal, lo.tolist(), hi.tolist(),
                                                     ends.tolist(), self.bank.biases)]
        # seen, on a path, is the bit set of the table columns of the support
        # vectors met (for a linear tree, of the features, not counted). Node
        # j's own set, shifted down by lo[j], is its run of packed bytes: one
        # bit per column of its span, each run padded to whole bytes, so the
        # sets take a bit per segment value, not one per node and table column
        sizes = (hi - lo + 7) // 8
        byte_ends = np.cumsum(sizes)
        marks = np.zeros(8 * sizes.sum(), dtype=bool)
        marks[8 * (byte_ends - sizes)[owners] + columns - lo[owners]] = True
        packed = np.packbits(marks, bitorder="little").tobytes()
        masks = [(int.from_bytes(packed[e - n:e], "little"), a)
                 for n, e, a in zip(sizes.tolist(), byte_ends.tolist(), lo.tolist())]
        bounds = starts.tolist()
        self.paths = [None] * len(self.leaves)
        counts = [None] * len(self.leaves)
        walk = [(0 if self.table else ~0, [], 0, 0)]
        while walk:
            i, path, seen, uncached = walk.pop()
            if i < 0:
                self.paths[~i] = path
                counts[~i] = seen.bit_count(), uncached
                continue
            entry = self.table[i]
            mask, shift = masks[i]
            seen |= mask << shift
            uncached += bounds[i + 1] - bounds[i]
            path = [*path, entry.node]
            walk += [(entry.left, path, seen, uncached), (entry.right, path, seen, uncached)]
        self.leaf_labels = np.array([leaf.label for leaf in self.leaves], dtype=np.int64)
        self.leaf_evaluations = np.array([len(path) for path in self.paths], dtype=np.int64)
        linear = self.config.kernel.is_linear
        self.leaf_kernel_computations = None if linear else np.array(counts, dtype=np.int64)
        self.linear = None
        if linear:
            terms = self.dimension + 1
            coefficients = self.bank.coefficients(placed)
            # weights whose squares overflow make the bound infinite: route
            # then computes every value as predict does
            with np.errstate(over="ignore"):
                norms = np.vecdot(coefficients.T, coefficients.T) + self.bank.biases ** 2
            bound = 4 * terms * 2.0 ** -53 * math.sqrt(norms.max(initial=0.0))
            moves = [[c if c >= 0 else m + ~c for c in (e.left, e.right)] for e in self.table]
            moves += [[m + k] * 2 for k in range(len(self.leaves))]
            self.linear = LinearRoute(coefficients, bound + terms * 2.0 ** -1073,
                                      np.array(moves, dtype=np.intp).reshape(-1),
                                      np.append(self.bank.biases, [np.inf] * len(self.leaves)))

    @property
    def num_classes(self):
        return len(self.label_names)


def iter_nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, InternalNode):
            stack.append(node.right)
            stack.append(node.left)


def _xlogx(v):
    return v * np.log(v, out=np.zeros_like(v), where=v > 0)


def _entropy(his):
    return float(-_xlogx(np.asarray(his, dtype=np.float64)).sum())


def entropy_split(X, labels, weights, num_classes, presort=None):
    """Exhaustive minimum-entropy split over (feature, midpoint) candidates.

    The splitting rule is the feature test x[f] < v, with v the
    Presort.threshold of a cut between two consecutive distinct values.
    Ties break to the lowest feature index, then the lowest threshold.
    Returns None when fewer than two classes are present or no candidate
    separates the samples. ``presort`` is Presort.of(X) when the caller
    has it.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if len(np.unique(labels)) < 2:
        return None
    presort = Presort.of(X) if presort is None else presort
    rows = presort.rows
    # The objective of the cut after sorted position i is
    #   xlogx(zl) + xlogx(zr) - sum_k xlogx(left_k) - sum_k xlogx(right_k)
    # for the side masses zl, zr and per-class masses left_k, right_k.
    # Moving sample i (weight w) to the left changes only its own class's
    # terms: with own its class's mass up to and including it and rest the
    # mass beyond it, the class sums change by xlogx(own) - xlogx(own - w)
    # and xlogx(rest) - xlogx(rest + w). Grouping each row by class, value
    # order kept, makes own a cumulative sum. A stable sort has one answer,
    # so it sorts the labels as the narrowest integers that hold them.
    totals = np.bincount(labels, weights, num_classes)
    keys = labels.astype(np.min_scalar_type(len(totals) - 1))
    by_class = np.argsort(keys[rows], axis=1, kind="stable")
    grouped = np.take_along_axis(rows, by_class, axis=1)
    gl, gw = labels[grouped], weights[grouped]
    own = np.cumsum(gw, axis=1) - (np.cumsum(totals) - totals)[gl]
    rest = totals[gl] - own
    change = _xlogx(own) - _xlogx(own - gw) + _xlogx(rest) - _xlogx(rest + gw)
    in_order = np.empty_like(change)
    np.put_along_axis(in_order, by_class, change, axis=1)
    class_sums = np.cumsum(in_order, axis=1) + _xlogx(totals).sum()
    zl = np.cumsum(weights[rows], axis=1)
    scores = _xlogx(zl) + _xlogx(zl[:, -1:] - zl) - class_sums
    # candidate i is the cut between sorted positions i and i+1; +inf marks
    # a cut between equal values
    scores = np.where(presort.ties, np.inf, scores[:, :-1])

    def rescore(f, idx):
        v = presort.threshold(f, idx + 1)
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
        a, b = present.tolist()
        a_leans_left = lm[a] / (lm[a] + rm[a]) >= lm[b] / (lm[b] + rm[b])
        sign_of[a], sign_of[b] = (-1, 1) if a_leans_left else (1, -1)
    lookup = np.zeros(len(lm), dtype=np.int64)
    lookup[list(sign_of)] = list(sign_of.values())
    return lookup[labels], sign_of


def partition_samples(p, delta, ids=None):
    """Route samples by the boosted classifier's confidence.

    p holds each sample's partition probability p(+1|x), as
    prob_positive_batch gives it: p > delta goes right with weight 1;
    1-p > delta goes left with weight 1; anything else is starred and lands
    on both sides with weights p (right) and 1-p (left). At delta = 0.5 the
    starred band is empty and p = 0.5 ties route right, matching sign(H)
    with the 0 -> +1 rule. Each side's weights are renormalized to sum 1.
    """
    if not 0.5 <= delta <= 1.0:
        raise ValidationError("delta must lie in [0.5, 1]")
    p = np.asarray(p, dtype=np.float64)
    ids = np.arange(len(p), dtype=np.int64) if ids is None else np.asarray(ids, dtype=np.int64)
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

    if len(np.unique(labels)) < 2 or len(ids) < config.min_node_samples or depth >= max_depth:
        return leaf()
    presort = Presort.of(X)
    split = entropy_split(X, labels, weights, data.num_classes, presort)
    if split is None:
        return leaf()
    signs, sign_of = binarize_labels(labels, split)
    if len(set(sign_of.values())) < 2:
        return leaf()
    boost, scores = adaboost_train(X, signs, weights, config.boost, presort)
    if not boost.rounds:
        return leaf()
    part = partition_samples(logistic(scores), config.delta, ids=ids)
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
    n_sv = node.svm.n_support if isinstance(node.svm, KernelSvmModel) else 1
    f_neg = n_neg / (n_pos + n_neg)
    f_pos = n_pos / (n_pos + n_neg)
    return f_neg * n_sv / n_pos + f_pos * n_sv / n_neg


def _train_node_svm(node, data, config):
    lo, ro = node.partition.left_only_ids, node.partition.right_only_ids
    if len(lo) == 0 or len(ro) == 0:
        raise ValidationError(f"node {node.node_id} routes no sample confidently "
                              "to one side; phase one splices such nodes out")
    train_ids = np.concatenate([lo, ro])
    yn = np.concatenate([-np.ones(len(lo)), np.ones(len(ro))])
    node.svm = train_svm(data.features[train_ids], yn, config.kernel, config.svm,
                         sample_ids=train_ids)


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


def _require_finite(v, magnitude):
    """Reject NaN and inf in the array v, given a magnitude of it that is
    finite only when every entry is, such as its rows' largest squared
    norm; the dearer elementwise test runs only when it is not, as when a
    finite row's square overflows."""
    if not (math.isfinite(magnitude) or np.isfinite(v).all()):
        raise ValidationError("features must be finite (no NaN or inf)")


def predict(tree, x):
    """Traverse from the root, routing right when the node decision value is
    nonnegative. Returns (class id, trace); the trace lists every evaluated
    node as (node_id, decision value). x is read as a row-major float64
    vector, as route() reads its rows, so the trace does not depend on x's
    memory layout. The instance's one row of tree.bank.inputs() is computed
    first (a linear tree reads the vector itself), and the walk reads
    tree.table: each node on the path reads its value from its span of that
    row."""
    x = np.asarray(x, dtype=np.float64, order="C")
    if x.shape != (tree.dimension,):
        raise ValidationError(f"expected a vector of dimension {tree.dimension}")
    # x's Euclidean norm, which unlike x.dot(x) cannot overflow on finite entries
    _require_finite(x, math.hypot(*x.tolist()))
    row = x if tree.linear is not None else tree.bank.inputs(x[None, :])[0]
    table = tree.table
    trace = []
    i = 0 if table else ~0
    while i >= 0:
        _, node_id, span, segment, bias, left, right = table[i]
        dv = (row if span is None else row[span]).dot(segment) + bias
        trace.append((node_id, dv))
        i = right if dv >= 0 else left
    return tree.leaves[~i].label, trace


def route(tree, X):
    """Traverse every row of X at once, routing a row right at a node where
    the node's decision value is nonnegative. Returns each row's leaf as its
    index k into tree.leaves, whose label and path tree.paths[k] are those
    of predict() on the row. Rows go through in tree.bank.input_blocks() of
    a row-major copy of X. A kernel tree walks them level by level: each
    node evaluates its classifier once, over the rows that reach it,
    reading its span of its block's inputs, laid out as predict() lays out
    one instance. A linear tree computes every node's decision value on a
    block in one product and walks all its rows at once (_route_linear); a
    row that read a value whose sign the product's rounding could flip walks
    again with values computed as predict() computes them. Each row's
    squared norm serves both the finite check and that rounding bound."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != tree.dimension:
        raise ValidationError(f"expected an (n, {tree.dimension}) matrix")
    X = np.ascontiguousarray(X)
    squares = np.einsum("ij,ij->i", X, X)
    _require_finite(X, squares.max(initial=0.0))
    leaves = np.empty(len(X), dtype=np.int64)
    if tree.linear is None:
        for first, inputs in tree.bank.input_blocks(X):
            _route_block(tree, inputs, leaves[first:first + len(inputs)])
        return leaves
    for first, inputs in tree.bank.input_blocks(X, len(tree.table)):
        rows = slice(first, first + len(inputs))
        _route_linear(tree, inputs, squares[rows], leaves[rows])
    return leaves


def _route_linear(tree, X, squares, leaves):
    """route() over one block of rows X of a linear tree, given their
    squared norms, writing their leaf indices to ``leaves``. One product
    gives every node's weighted sum on every row, X @ C. The walk then moves
    all rows at once, depth - 1 times: a row reads the sum at its code, adds
    the code's bias (tree.linear.biases), records the value and moves by its
    sign (tree.linear.steps). Past the product, work grows with the depth.

    A read value sums the same d + 1 terms x_i w_i and b as predict()'s
    x.dot(w) + b, in another order. In any order, with or without fused
    multiply-adds, such a sum is within E = gamma(d + 1) (|x_1 w_1| + ... +
    |x_d w_d| + |b|) of the exact s = x.w + b, gamma(k) = ku / (1 - ku) and
    u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms,
    section 3.1), and that sum of terms is at most |(x, 1)| |(w, b)|
    (Cauchy-Schwarz). A value v with |v| > 2E has the sign of s, and so has
    predict()'s value, which is then nonzero as well: both route the row
    the same way. tree.linear.bound is 4(d + 1)u times the largest node's
    |(w, b)|; times sqrt(|x|^2 + 1) that covers 2E with a factor of two to
    spare for the rounding of the norms, and its added (d + 1) 2^-1073 covers
    products that underflow, each off by at most 2^-1075.

    The band is tested on the recorded values only: a row whose every read
    is beyond its bound followed predict()'s path. A leaf's read is +inf, so
    the steps a row spends at its leaf never count (NaN, over an entry that
    is -inf or NaN, costs a recompute). An infinite internal read, with the
    squared norms finite, comes from a partial sum so near overflow that the
    terms left cannot flip its sign. A row with a read inside the band or
    NaN, or with an infinite bound (its squared norm overflows), walks again
    from the root, every value computed by predict()'s per-row dot."""
    coefficients, bound, steps, biases = tree.linear
    n, m = len(X), coefficients.shape[1]
    # a zero spare entry per leaf after the last row's, for leaf codes to read
    flat = np.empty(n * m + len(tree.leaves))
    flat[n * m:] = 0.0
    np.matmul(X, coefficients, out=flat[:n * m].reshape(n, m))
    code = np.zeros(n, dtype=np.intp)
    at = np.arange(n) * m
    index = np.empty(n, dtype=np.intp)
    reads = np.empty((tree.depth - 1, n))
    for read in reads:
        np.add(at, code, out=index)
        np.add(flat[index], biases[code], out=read)
        np.add(code, code, out=index)
        index += read >= 0
        code = steps[index]
    # a row's smallest read is NaN when any of its reads is, and NaN fails
    sure = np.abs(reads, out=reads).min(axis=0, initial=np.inf) > np.sqrt(squares + 1.0) * bound
    if not sure.all():
        redo = np.flatnonzero(~sure)
        code[redo] = 0
        for _ in range(tree.depth - 1):
            rows = redo[code[redo] < m]
            c = code[rows]
            code[rows] = steps[2 * c + (np.vecdot(X[rows], coefficients.T[c]) + biases[c] >= 0)]
    leaves[:] = code - m


def _route_block(tree, inputs, leaves):
    """route() over one block of a kernel tree's inputs, whose leaf indices
    it writes to ``leaves``, walking tree.table as predict() does. A node
    that a third of the block's rows or more reach reads its span in place,
    on every row, and keeps its rows' values; any other node reads a copy
    of its rows' spans."""
    n = len(inputs)
    table = tree.table
    level = [(0 if table else ~0, np.arange(n))]
    while level:
        below = []
        for i, rows in level:
            if i < 0:
                leaves[rows] = ~i
                continue
            _, _, span, segment, bias, left, right = table[i]
            columns = inputs if span is None else inputs[:, span]
            if 3 * len(rows) >= n:
                dv = np.vecdot(columns, segment)[rows]
            else:
                dv = np.vecdot(columns[rows], segment)
            dv += bias
            goes_right = dv >= 0
            for child, below_rows in ((left, rows[~goes_right]), (right, rows[goes_right])):
                if len(below_rows):
                    below.append((child, below_rows))
        level = below


# ---------------------------------------------------------------------------
# Serialization


def _pack(values):
    """The little-endian float64 bytes of ``values``, row-major, as base64
    text, which loads without parsing a decimal literal per value."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _unpack(doc, key, count, rule):
    """doc[key], _pack() text of ``count`` float64 values, as a read-only
    array; ``rule`` says why that many, for the error."""
    text, raw = doc[key], None
    with contextlib.suppress(ValueError):  # binascii.Error, or text outside ASCII
        raw = base64.b64decode(text, validate=True) if type(text) is str else None
    # b64decode also takes padding and trailing bits that _pack never writes
    if raw is None or len(raw) != 8 * count or base64.b64encode(raw).decode() != text:
        raise SchemaError(f"{rule}: {key} must be the base64 text of {count} float64 values")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64, copy=False)


def _svm_to_doc(svm):
    """A node classifier without its kernel, which the config holds; a
    kernel model names its support vectors by id in the tree's table."""
    if isinstance(svm, LinearSvmModel):
        return {"weights": _pack(svm.weights), "bias": svm.bias}
    return {"sv_ids": svm.sv_ids, "dual_coefficients": _pack(svm.dual_coefficients),
            "bias": svm.bias}


def _node_to_doc(node):
    """What traversal reads of a node: a leaf's label and purity, an
    internal node's class sets, classifier and children's ids."""
    if isinstance(node, LeafNode):
        return {"label": node.label, "purity": node.purity}
    return {"pos_classes": node.pos_classes, "neg_classes": node.neg_classes,
            "left": node.left.node_id, "right": node.right.node_id,
            "svm": _svm_to_doc(node.svm)}


def serialize(tree):
    """Lossless JSON text for a tree, its float arrays _pack() text. The
    bank's table is its sv_ids in increasing order and their rows, so every
    support vector appears once however many node classifiers keep it."""
    bank = tree.bank
    by_id = np.argsort(bank.sv_ids)
    doc = {
        "version": MODEL_SCHEMA_VERSION,
        "config": asdict(tree.config),
        "label_names": tree.label_names,
        "dimension": tree.dimension,
        "support_vectors": {"ids": bank.sv_ids[by_id], "rows": _pack(bank.rows[by_id])},
        "nodes": [_node_to_doc(n) for n in tree.nodes],
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


def _is_list_of(values, types):
    """Whether values is a JSON list whose entries all have one of the
    exact types ``types`` (so no bool passes for an int)."""
    return type(values) is list and set(map(type, values)) <= types


_NUMBER = {int, float}


def _table_from_doc(doc, dimension):
    """The support-vector table as (ids, rows): int ids strictly increasing,
    and their rows, ``dimension`` values each."""
    ids = doc["ids"] if set(doc) == {"ids", "rows"} else None
    listed = np.asarray(ids) if _is_list_of(ids, {int}) else None
    if listed is None or (listed[1:] <= listed[:-1]).any():
        raise SchemaError("support-vector table must be exactly its 'ids', each int once and "
                          "in increasing order, and their 'rows'")
    rows = _unpack(doc, "rows", len(ids) * dimension,
                   f"support-vector table rows must be {dimension} values wide")
    # np.asarray gives an empty list, and ids that int64 cannot hold, another
    # dtype; converting such ids raises OverflowError
    if listed.dtype != np.int64:
        listed = np.array(ids, dtype=np.int64)
    return listed, rows.reshape(len(ids), dimension)


def _svm_from_doc(doc, kernel, dimension):
    """The node classifier of the configured kernel's family. A kernel
    node's document is returned as it is once its fields are checked and
    its sv_ids are a list of ints: _kernel_svms checks the rest and makes
    every kernel node's model at once."""
    keys = {"weights", "bias"} if kernel.is_linear else {"sv_ids", "dual_coefficients", "bias"}
    if set(doc) != keys:
        raise SchemaError(f"node classifier with fields {sorted(doc)} does not fit "
                          f"the configured {kernel.kind} kernel")
    if type(doc["bias"]) not in _NUMBER:
        raise SchemaError("node classifier bias must be a number")
    if kernel.is_linear:
        return LinearSvmModel(_unpack(doc, "weights", dimension, "linear node weights "
                                      f"must be {dimension} wide"), float(doc["bias"]))
    if not _is_list_of(doc["sv_ids"], {int}):
        raise SchemaError("a kernel node's sv_ids must be distinct ints")
    return doc


def _kernel_svms(nodes, kernel, table):
    """Replace the classifier document of each of the kernel ``nodes`` by
    its model, checking the sv_ids of all nodes at once: each node's are
    distinct, and the distinct sv_ids of all nodes are looked up in the
    table in one search. Every node's rows come from one take."""
    ids, rows = table
    counts = [len(node.svm["sv_ids"]) for node in nodes]
    named = np.fromiter(itertools.chain.from_iterable(node.svm["sv_ids"] for node in nodes),
                        dtype=np.int64)
    distinct, inverse = np.unique(named, return_inverse=True)
    # a node that names an sv_id twice repeats one (node, sv_id) pair
    pairs = np.sort(np.repeat(np.arange(len(nodes)), counts) * len(distinct) + inverse)
    if (pairs[1:] == pairs[:-1]).any():
        raise SchemaError("a kernel node's sv_ids must be distinct ints")
    at = ids.searchsorted(distinct)
    if len(named) and not (len(ids) and np.array_equal(ids.take(at, mode="clip"), distinct)):
        raise SchemaError("node classifier refers to an sv_id the support-vector "
                          "table does not hold")
    support_vectors = rows[at[inverse]]
    end = 0
    for node, count in zip(nodes, counts):
        doc = node.svm
        start, end = end, end + count
        values = _unpack(doc, "dual_coefficients", count,
                         "a kernel node needs one dual coefficient per sv_id")
        node.svm = KernelSvmModel(support_vectors=support_vectors[start:end],
                                  dual_coefficients=values, bias=float(doc["bias"]),
                                  kernel=kernel, sv_ids=named[start:end])


_DOC_KEYS = {"version", "config", "label_names", "dimension", "support_vectors", "nodes"}
_LEAF_KEYS = {"label", "purity"}
_INTERNAL_KEYS = {"pos_classes", "neg_classes", "left", "right", "svm"}


def _is_class_id(v, num_classes):
    return type(v) is int and 0 <= v < num_classes


def _node_from_doc(node_id, doc, built, kernel, dimension, num_classes):
    kind, keys = ("internal", _INTERNAL_KEYS) if "svm" in doc else ("leaf", _LEAF_KEYS)
    if set(doc) != keys:
        raise SchemaError(f"{kind} node {node_id} must have exactly the fields "
                          f"{sorted(keys)}, got {sorted(doc)}")
    if kind == "leaf":
        label, purity = doc["label"], doc["purity"]
        if not _is_class_id(label, num_classes):
            raise SchemaError(f"leaf node {node_id} has label {label!r}, not a class id "
                              f"in range({num_classes})")
        if type(purity) not in _NUMBER or not 0 < purity <= 1:
            raise SchemaError(f"leaf node {node_id} has purity {purity!r}, not a number "
                              "in (0, 1]")
        return LeafNode(node_id, label, purity)
    for key in ("pos_classes", "neg_classes"):
        classes = doc[key]
        if (not _is_list_of(classes, {int}) or not classes or min(classes) < 0
                or max(classes) >= num_classes or len(set(classes)) != len(classes)):
            raise SchemaError(f"internal node {node_id} has {key} {classes!r}, not a nonempty "
                              f"list of distinct class ids in range({num_classes})")
    return InternalNode(node_id, doc["pos_classes"], doc["neg_classes"], built[doc["left"]],
                        built[doc["right"]], _svm_from_doc(doc["svm"], kernel, dimension))


def deserialize(text):
    """Rebuild a tree from serialize() output, matching its predictions and
    traces exactly. Raises SchemaError on a malformed document or version,
    and ValidationError on classifier values that are not finite."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError, TypeError) as exc:
        raise SchemaError(f"malformed model document: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("malformed model document: expected an object")
    version = doc.get("version")
    if version != MODEL_SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported model version {version!r}, expected {MODEL_SCHEMA_VERSION}: "
            "retrain the model")
    if set(doc) != _DOC_KEYS:
        raise SchemaError(f"malformed model document: expected exactly the fields "
                          f"{sorted(_DOC_KEYS)}, got {sorted(doc)}")
    try:
        config = _config_from_doc(AtreeConfig, doc["config"], boost=BoostConfig,
                                  svm=SvmConfig, kernel=KernelSpec)
        dimension, label_names = doc["dimension"], doc["label_names"]
        if type(dimension) is not int or dimension < 1:
            raise SchemaError(f"dimension {dimension!r} is not a positive int")
        check_label_names(label_names, SchemaError)
        table = _table_from_doc(doc["support_vectors"], dimension)
        node_docs = doc["nodes"]
        built = {}
        # children always carry larger ids than their parent, so build in
        # reverse id order
        for node_id in range(len(node_docs) - 1, -1, -1):
            try:
                built[node_id] = _node_from_doc(node_id, node_docs[node_id], built,
                                                config.kernel, dimension, len(label_names))
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(f"malformed model document: node {node_id}: "
                                  f"{exc!r}") from None
        if not config.kernel.is_linear:
            _kernel_svms([n for n in built.values() if isinstance(n, InternalNode)],
                         config.kernel, table)
        named = sorted(d[side] for d in node_docs if "svm" in d for side in ("left", "right"))
        if named != [*range(1, len(node_docs))] or any(type(c) is not int for c in named):
            raise SchemaError("every node but the root must be the child of exactly one node")
        tree = Atree(built[0], config, label_names, dimension)
        if not np.array_equal(table[0], np.sort(tree.bank.sv_ids)):
            raise SchemaError("the support-vector table must hold exactly the support "
                              "vectors that node classifiers name")
        return tree
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed model document: {exc!r}") from None


def save(tree, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(tree))


def load(path):
    """deserialize() of the UTF-8 file at path; undecodable text is a
    SchemaError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"malformed model document: {path} is not UTF-8 text "
                              f"({exc.reason})") from None
    return deserialize(text)


# ---------------------------------------------------------------------------
# DOT export


def _dot_label(node, label_names):
    if isinstance(node, LeafNode):
        return f"class {label_names[node.label]}\\npurity {node.purity:.3f}"
    return (f"|Z+|={len(node.pos_classes)} |Z-|={len(node.neg_classes)}"
            f"\\ncost {node_cost(node):.6g}")


def to_dot(tree, max_depth=None):
    """Graphviz DOT text; max_depth limits rendering to the top levels of
    the root paths."""
    lines = ["digraph atree {"]
    kept = {k for k, level in tree.levels.items() if max_depth is None or level <= max_depth}
    for node in tree.nodes:
        if node.node_id not in kept:
            continue
        shape = "box" if isinstance(node, InternalNode) else "ellipse"
        lines.append(f'  n{node.node_id} [shape={shape}, '
                     f'label="{_dot_label(node, tree.label_names)}"];')
    for node in tree.nodes:
        if not isinstance(node, InternalNode) or node.node_id not in kept:
            continue
        if node.left.node_id in kept:
            lines.append(f'  n{node.node_id} -> n{node.left.node_id} [label="-"];')
        if node.right.node_id in kept:
            lines.append(f'  n{node.node_id} -> n{node.right.node_id} [label="+"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
