"""Independent brute-force references for the test suite.

These deliberately avoid the library's scan/cumulative-sum shortcuts: every
candidate is enumerated and scored directly, in the documented search order
(features ascending, thresholds ascending with the below-minimum candidate
first, polarity +1 before -1), with strict-improvement selection.
"""

import numpy as np


def stump_candidates(values):
    """Thresholds in search order for one feature's values."""
    distinct = np.unique(values)
    out = [float(distinct[0]) - 1.0]
    out.extend(float((distinct[i] + distinct[i + 1]) / 2.0)
               for i in range(len(distinct) - 1))
    return out


def brute_force_stump(X, y, w):
    """Minimum-weighted-error stump by full enumeration.

    Returns (error, feature, threshold, polarity).
    """
    best = None
    for f in range(X.shape[1]):
        col = X[:, f]
        for t in stump_candidates(col):
            for pol in (1, -1):
                pred = np.where(pol * (col - t) > 0, 1, -1)
                err = float(w[pred != y].sum())
                if best is None or err < best[0]:
                    best = (err, f, t, pol)
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
