"""Independent brute-force references for the test suite.

These deliberately avoid the library's scan/cumulative-sum shortcuts: every
candidate is enumerated and scored directly, in the documented search order
(features ascending, thresholds ascending with the below-minimum candidate
first, polarity +1 before -1), with strict-improvement selection.
"""

import base64

import numpy as np

from atree.boosting import _MIN_WEIGHT_FLOOR, _TIE_SLACK, DecisionStump
from atree.dataset import Dataset
from atree.errors import ParseError, ValidationError
from atree.svm import (KernelSvmModel, LinearSvmModel, SolverRecord, _split_labels,
                       kernel_matrix)
from atree.tree import EntropySplit, InternalNode


def stump_candidates(values):
    """Thresholds in search order for one feature's values: the minimum
    less 1.0, then one cut between each pair of consecutive distinct values,
    their midpoint, or the upper value when the midpoint rounds onto the
    lower (adjacent floats) or overflows, so that x < t holds for exactly
    the values below the cut."""
    distinct = np.unique(values).tolist()
    out = [distinct[0] - 1.0]
    for lo, hi in zip(distinct, distinct[1:]):
        mid = (lo + hi) / 2.0
        out.append(mid if lo < mid <= hi else hi)
    return out


def brute_force_stump(X, y, w):
    """Minimum-weighted-error stump by full enumeration, predicting
    -polarity where x[f] < threshold, as DecisionStump does.

    Returns (error, feature, threshold, polarity).
    """
    best = None
    for f in range(X.shape[1]):
        col = X[:, f]
        for t in stump_candidates(col):
            for pol in (1, -1):
                pred = np.where(col < t, -pol, pol)
                err = float(w[pred != y].sum())
                if best is None or err < best[0]:
                    best = (err, f, t, pol)
    return best


def position_stump(X, y, w):
    """Minimum-weighted-error stump enumerated by sorted position.

    The candidate before position k of a stable sort of feature f predicts
    -polarity on the first k samples and polarity on the rest, so its
    mistakes never depend on how its threshold compares with the values.
    Cuts between equal values are skipped. The threshold reported is the
    midpoint of positions k - 1 and k when it lies above position k - 1
    and at most at position k, else the value at position k, and the
    minimum less 1.0 for k = 0.
    Returns (DecisionStump, error).
    """
    best = None
    n, d = X.shape
    for f in range(d):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f].tolist()
        for k in range(n):
            if k and xs[k] == xs[k - 1]:
                continue
            if k == 0:
                t = xs[0] - 1.0
            else:
                mid = (xs[k - 1] + xs[k]) / 2.0
                t = mid if xs[k - 1] < mid <= xs[k] else xs[k]
            for pol in (1, -1):
                pred = np.full(n, pol)
                pred[order[:k]] = -pol
                err = float(w[pred != y].sum())
                if best is None or err < best[1]:
                    best = (DecisionStump(f, t, pol), err)
    return best


def _side_term(masses):
    z = masses.sum()
    his = masses / z
    pos = his > 0
    entropy = float(-(his[pos] * np.log(his[pos])).sum())
    return z * entropy


def brute_force_entropy_split(X, labels, weights, num_classes):
    """Minimum weighted-entropy (feature, midpoint) split by full enumeration.

    Returns (objective, feature, threshold) or None when no candidate exists.
    """
    best = None
    for f in range(X.shape[1]):
        col = X[:, f]
        distinct = np.unique(col)
        for i in range(len(distinct) - 1):
            t = float((distinct[i] + distinct[i + 1]) / 2.0)
            mask = col < t
            lm = np.bincount(labels[mask], weights=weights[mask], minlength=num_classes)
            rm = np.bincount(labels[~mask], weights=weights[~mask], minlength=num_classes)
            obj = _side_term(lm) + _side_term(rm)
            if best is None or obj < best[0]:
                best = (obj, f, t)
    return best


def _reference_argmin_rescored(scores, rescore):
    """The exact-rescoring argmin of both scans as first written: every
    candidate within _TIE_SLACK of the fast minimum is rescored in row-major
    order, and a later one wins only when strictly smaller."""
    cut = scores.min(initial=np.inf) + _TIE_SLACK
    if cut == np.inf:
        return None
    best = None
    for f, idx in np.argwhere(scores <= cut).tolist():
        cand = rescore(f, idx)
        if best is None or cand[0] < best[0]:
            best = cand
    return best


def _reference_xlogx(v):
    out = np.zeros_like(v)
    mask = v > 0
    out[mask] = v[mask] * np.log(v[mask])
    return out


def reference_entropy_split(X, labels, weights, num_classes):
    """tree.entropy_split as first written: one sort per feature and a
    cumulative sum of the (n, num_classes) one-hot masses. The library's
    single sweep must return the same split, masses included, bit for bit."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if len(np.unique(labels)) < 2:
        return None
    n, d = X.shape
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
        scores[f, cuts] = (-_reference_xlogx(left).sum(axis=1) + _reference_xlogx(zl)
                           - _reference_xlogx(right).sum(axis=1) + _reference_xlogx(zr))
        thresholds[f, cuts] = (xs[cuts] + xs[cuts + 1]) / 2.0

    def rescore(f, idx):
        v = float(thresholds[f, idx])
        left = X[:, f] < v
        split = EntropySplit(f, v, np.bincount(labels[left], weights[left], num_classes),
                             np.bincount(labels[~left], weights[~left], num_classes))
        return split.objective, split

    best = _reference_argmin_rescored(scores, rescore)
    return None if best is None else best[1]


def reference_train_stump(X, y, w):
    """boosting.train_stump as first written: every round gathers the
    sorted values and labels again and cumulates positive and negative mass
    apart. The library's search must return the same stump and error."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    sorted_rows = np.argsort(X, axis=0, kind="stable").T
    xs = np.take_along_axis(X.T, sorted_rows, axis=1)
    ws = w[sorted_rows]
    pos = y[sorted_rows] > 0
    cum_pos = np.cumsum(np.where(pos, ws, 0.0), axis=1)
    cum_neg = np.cumsum(np.where(pos, 0.0, ws), axis=1)
    total_pos = cum_pos[:, -1:]
    total_neg = cum_neg[:, -1:]
    scores = np.empty(xs.shape + (2,))
    scores[:, 0] = np.hstack([total_neg, total_pos])
    scores[:, 1:, 0] = cum_pos[:, :-1] + (total_neg - cum_neg[:, :-1])
    scores[:, 1:, 1] = cum_neg[:, :-1] + (total_pos - cum_pos[:, :-1])
    scores[:, 1:][xs[:, 1:] == xs[:, :-1]] = np.inf

    def rescore(f, idx):
        k = idx // 2
        t = xs[f, 0] - 1.0 if k == 0 else (xs[f, k - 1] + xs[f, k]) / 2.0
        stump = DecisionStump(f, float(t), 1 if idx % 2 == 0 else -1)
        return float(w[stump.predict_batch(X) != y].sum()), stump

    err, stump = _reference_argmin_rescored(scores.reshape(len(xs), -1), rescore)
    return stump, err


def boost_ending(model):
    """How boosting stopped: a gamma exit, a perfect round or the cap."""
    if model.exited_early:
        return "gamma"
    return "perfect" if model.round_errors[-1] < _MIN_WEIGHT_FLOOR else "cap"


def reference_binarize_labels(labels, split):
    """tree.binarize_labels as first written: the sign of each sample looked
    up in the class-to-sign map one sample at a time, so a label the map
    lacks raises KeyError. The library's lookup must give the same signs."""
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


def hinge_objective(w_vec, b, X, y, c):
    margins = 1.0 - y * (X @ w_vec + b)
    return 0.5 * float(w_vec @ w_vec) + c * float(np.clip(margins, 0.0, None).sum())


def grid_min_linear_svm_1d(X, y, c, w_grid, b_grid):
    """Grid search of the 1-D hinge-loss objective; returns (w, b, value)."""
    best = None
    for wv in w_grid:
        for bv in b_grid:
            val = hinge_objective(np.array([wv]), bv, X, y, c)
            if best is None or val < best[2]:
                best = (wv, bv, val)
    return best


def reference_linear_svm(X, y, config):
    """The shrinking dual coordinate descent of svm.train_linear_svm written
    with numpy arrays and scalars; the library's loop must give the same
    iterates bit for bit.

    Returns (weights, bias, alpha, passes, converged): the dual weights,
    the passes run over the active set, and whether the projected gradients
    of all coordinates at the returned weights spread by at most the
    tolerance.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    qd = (Xa * Xa).sum(axis=1)
    alpha = np.zeros(n)
    w = np.zeros(d + 1)
    C = config.c
    rng = np.random.default_rng(config.seed)

    def spread():
        g = y * (Xa @ w) - 1.0
        pg = np.where(alpha <= 0.0, np.minimum(g, 0.0),
                      np.where(alpha >= C, np.maximum(g, 0.0), g))
        return pg.max() - pg.min()

    active = np.arange(n)
    old_max, old_min = np.inf, -np.inf
    passes = 0
    while passes < config.max_passes:
        passes += 1
        pgs, kept = [], []
        for i in rng.permutation(active):
            g = y[i] * float(Xa[i] @ w) - 1.0
            if alpha[i] <= 0.0:
                if g > old_max:
                    continue
                pg = min(g, 0.0)
            elif alpha[i] >= C:
                if g < old_min:
                    continue
                pg = max(g, 0.0)
            else:
                pg = g
            kept.append(i)
            pgs.append(pg)
            if abs(pg) > 1e-12:
                new = min(max(alpha[i] - g / qd[i], 0.0), C)
                w += (new - alpha[i]) * y[i] * Xa[i]
                alpha[i] = new
        pg_max = max(pgs, default=-np.inf)
        pg_min = min(pgs, default=np.inf)
        if pg_max - pg_min <= config.tolerance:
            if spread() <= config.tolerance:
                break
            active, old_max, old_min = np.arange(n), np.inf, -np.inf
            continue
        active = np.array(kept, dtype=np.int64)
        old_max = pg_max if pg_max > 0.0 else np.inf
        old_min = pg_min if pg_min < 0.0 else -np.inf
    return (w[:d].copy(), float(w[d]), alpha, passes,
            bool(spread() <= config.tolerance))


def reference_kernel_svm(X, y, kernel, config, sample_ids=None):
    """The maximal-violating-pair solver of svm.train_kernel_svm as first
    written: the gradient itself, both masks and both masked copies rebuilt
    from alpha on every update, over a row-major Gram. The library's
    incremental loop must give the same model bit for bit.
    """
    X = np.asarray(X, dtype=np.float64)
    y = _split_labels(y)
    n = len(y)
    if sample_ids is None:
        sample_ids = np.arange(n, dtype=np.int64)
    else:
        sample_ids = np.asarray(sample_ids, dtype=np.int64)
        if sample_ids.shape != (n,):
            raise ValidationError("sample_ids must have one entry per sample")
    K = kernel_matrix(kernel, X, X)
    C = config.c
    alpha = np.zeros(n)
    grad = -np.ones(n)           # gradient of the dual objective at alpha
    pos = y > 0
    budget = config.max_passes * n
    updates = 0
    while True:
        vals = -y * grad
        up = (pos & (alpha < C)) | (~pos & (alpha > 0))
        low = (~pos & (alpha < C)) | (pos & (alpha > 0))
        vals_up = np.where(up, vals, -np.inf)
        vals_low = np.where(low, vals, np.inf)
        i = int(np.argmax(vals_up))
        j = int(np.argmin(vals_low))
        gap = float(vals_up[i] - vals_low[j])
        if gap <= config.tolerance or updates == budget:
            break
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if eta <= 1e-12:
            eta = 1e-12
        step_i = C - alpha[i] if y[i] > 0 else alpha[i]
        step_j = alpha[j] if y[j] > 0 else C - alpha[j]
        t = min(gap / eta, step_i, step_j)
        if t <= 0.0:
            break
        alpha[i] += y[i] * t
        alpha[j] -= y[j] * t
        grad += t * y * (K[:, i] - K[:, j])
        updates += 1
    free = (alpha > 0.0) & (alpha < C)
    if free.any():
        bias = float(np.mean(-y[free] * grad[free]))
    else:
        # every exit leaves vals, up and low as computed at the final alpha
        hi = vals[up].max() if up.any() else 0.0
        lo = vals[low].min() if low.any() else 0.0
        bias = float((hi + lo) / 2.0)
    keep = alpha > 0.0
    return KernelSvmModel(
        support_vectors=X[keep].copy(),
        dual_coefficients=(alpha[keep] * y[keep]),
        bias=bias,
        kernel=kernel,
        sv_ids=sample_ids[keep].copy(),
        convergence=SolverRecord(updates, gap, gap <= config.tolerance),
    )


def reference_decision_values(model, X):
    """f(x) of one linear or kernel model on each row of the (n, d) array X,
    from the model alone: a vecdot of each row, or of its kernel values
    against the model's own support vectors, with the weights or dual
    coefficients, plus the bias."""
    X = np.asarray(X, dtype=np.float64)
    if isinstance(model, LinearSvmModel):
        return np.vecdot(X, model.weights) + model.bias
    k = kernel_matrix(model.kernel, X, model.support_vectors)
    return np.vecdot(k, model.dual_coefficients) + model.bias


def reference_kernel_computations(models):
    """Kernel computations that evaluating every model of ``models`` costs
    one instance, as (union, uncached): the distinct sv_ids of all models,
    which a per-instance cache computes once each, and their total count."""
    ids = [i for m in models for i in m.sv_ids.tolist()]
    return len(set(ids)), len(ids)


def reference_predict(tree, x):
    """predict() as a walk over the node objects: from the root, each
    internal node's decision value, routing right when it is nonnegative.
    The instance's kernel row comes from kernel_matrix against the bank's
    table, and each node's span and segment are rebuilt from its own
    classifier: a linear node reads every feature with its weights, a
    kernel node the narrowest column range of the table that holds its
    support vectors, with its dual coefficients at their columns and 0
    elsewhere. Returns (class id, trace of (node_id, decision value))."""
    x = np.asarray(x, dtype=np.float64)
    bank = tree.bank
    if bank.kernel.is_linear:
        row = x
    else:
        row = kernel_matrix(bank.kernel, x[None, :], bank.rows)[0]
    column = {i: c for c, i in enumerate(bank.sv_ids.tolist())}
    trace = []
    node = tree.root
    while isinstance(node, InternalNode):
        if bank.kernel.is_linear:
            lo, hi, segment = 0, len(x), node.svm.weights
        else:
            columns = np.array([column[i] for i in node.svm.sv_ids.tolist()], dtype=np.int64)
            lo, hi = (columns.min(), columns.max() + 1) if len(columns) else (0, 0)
            segment = np.zeros(hi - lo)
            segment[columns - lo] = node.svm.dual_coefficients
        dv = row[lo:hi].dot(segment) + node.svm.bias
        trace.append((node.node_id, dv))
        node = node.right if dv >= 0 else node.left
    return node.label, trace


def random_binary_dataset(rng, n, d):
    """Random features with labels from a random linear rule plus noise flips."""
    X = rng.normal(size=(n, d))
    direction = rng.normal(size=d)
    y = np.where(X @ direction + 0.3 * rng.normal(size=n) > 0, 1, -1)
    if (y > 0).all() or (y < 0).all():
        y[rng.integers(0, n)] *= -1
    return X, y


def random_weighted_multiclass(rng, n, d, k):
    """Random multi-class data with random positive weights summing to 1."""
    X = rng.normal(size=(n, d))
    labels = rng.integers(0, k, size=n)
    # force at least two classes
    if len(np.unique(labels)) < 2:
        labels[0] = (labels[1] + 1) % k
    w = rng.uniform(0.2, 1.0, size=n)
    w = w / w.sum()
    return X, labels.astype(np.int64), w


def reference_load_csv(path, has_header=False, label_names=None):
    """load_csv as a row-by-row reader: each line is split into cells and
    checked in turn (label present, width, integer label, known label, then
    float() of every feature cell), so the first bad line raises."""
    known = None
    if label_names is not None:
        known = {str(name): k for k, name in enumerate(label_names)}
    raw_labels = []
    rows = []
    dim = None
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            if has_header and lineno == 1:
                continue
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) < 2:
                raise ParseError(f"{path}: line {lineno}: expected a label and at least one feature")
            if dim is None:
                dim = len(cells) - 1
            elif len(cells) - 1 != dim:
                raise ParseError(f"{path}: line {lineno}: expected {dim} features, found {len(cells) - 1}")
            try:
                label = int(cells[0])
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: label {cells[0]!r} is not an integer") from None
            if known is not None and str(label) not in known:
                raise ValidationError(f"{path}: line {lineno}: label {label} is not one of the "
                                      f"{len(known)} known class labels")
            try:
                feats = [float(c) for c in cells[1:]]
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-numeric feature value") from None
            raw_labels.append(label)
            rows.append(feats)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    if known is None:
        label_names = sorted(set(raw_labels))
        if len(label_names) < 2:
            raise ValidationError(f"{path}: found {len(label_names)} distinct label(s), "
                                  "need at least 2")
        known = {str(name): k for k, name in enumerate(label_names)}
    labels = np.array([known[str(v)] for v in raw_labels], dtype=np.int64)
    return Dataset(np.array(rows), labels, np.full(len(rows), 1.0 / len(rows)),
                   len(known), list(label_names))


def reference_write_csv(data, path):
    """write_csv one row and one numpy scalar at a time: the label name,
    then repr(float(v)) of each feature."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(len(data)):
            cells = [str(data.label_names[data.labels[i]])]
            cells.extend(repr(float(v)) for v in data.features[i])
            fh.write(",".join(cells) + "\n")


def packed(values):
    """Model-file text of a float array: base64 of its little-endian float64
    bytes, row-major."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def unpacked(text):
    """The float values of packed() text, as a list."""
    return np.frombuffer(base64.b64decode(text), dtype="<f8").tolist()


def model_table(doc):
    """A parsed model document's support-vector table as [id, row] pairs."""
    table, d = doc["support_vectors"], doc["dimension"]
    values = unpacked(table["rows"])
    return [[i, values[k * d:(k + 1) * d]] for k, i in enumerate(table["ids"])]


def set_model_table(doc, entries):
    """Store [id, row] pairs as a parsed model document's support-vector
    table, rows packed in the order given."""
    doc["support_vectors"] = {"ids": [i for i, _ in entries],
                              "rows": packed([v for _, row in entries for v in row])}


# Packed-field edits that a loader must reject, each applied to packed()
# text of one value or more: not a string, a character outside the base64
# alphabet inserted (a lenient decoder skips it and finds the right byte
# count), padding inside the text, padding appended (which b64decode
# ignores after text that needs none), one value too few or too many, and
# a first value of NaN.
BAD_PACKINGS = {
    "non-string": unpacked,
    "non-alphabet": lambda text: text[:4] + "*" + text[4:],
    "bad-padding": lambda text: text[:4] + "=" + text[5:],
    "extra-padding": lambda text: text + "==",
    "short": lambda text: packed(unpacked(text)[:-1]),
    "long": lambda text: packed(unpacked(text) + [0.0]),
    "nan": lambda text: packed([np.nan] + unpacked(text)[1:]),
}
