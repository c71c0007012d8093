"""Decision-stump weak learners and discrete Adaboost strong classifiers.

A trained BoostedClassifier is immutable and safe for concurrent scoring;
training touches only its private weight array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

# Candidates whose fast-scan score (stump error here, split entropy in
# tree.entropy_split) lands within this slack of the minimum are re-scored
# with the direct formula before the winner is picked, so the reported score
# and tie-breaking are independent of cumulative-sum rounding.
_TIE_SLACK = 1e-9


@dataclass(frozen=True)
class DecisionStump:
    """Single-feature threshold test: +1 when polarity*(x[f] - t) > 0, else -1."""

    feature_index: int
    threshold: float
    polarity: int

    def predict_batch(self, X):
        s = self.polarity * (X[:, self.feature_index] - self.threshold)
        return np.where(s > 0, 1, -1).astype(np.int64)


@dataclass
class BoostConfig:
    """Knobs for adaboost_train.

    max_rounds: cap on retained rounds.
    gamma: a round whose weighted error exceeds gamma is discarded and
        training stops (early exit).
    min_weight_floor: a round error below this counts as perfect; its vote is
        capped at 0.5*ln((1-floor)/floor) to keep scores finite.
    """

    max_rounds: int = 50
    gamma: float = 0.48
    min_weight_floor: float = 1e-10

    def __post_init__(self):
        if self.max_rounds < 1:
            raise ValidationError("max_rounds must be positive")
        if not 0.0 < self.gamma <= 0.5:
            raise ValidationError("gamma must lie in (0, 0.5]")
        if self.min_weight_floor <= 0:
            raise ValidationError("min_weight_floor must be positive")


@dataclass
class BoostedClassifier:
    """Weighted stump ensemble; score is the alpha-weighted vote sum."""

    rounds: list = field(default_factory=list)      # [(alpha, DecisionStump)]
    round_errors: list = field(default_factory=list)
    exited_early: bool = False
    pure: bool = False

    def max_feature_index(self):
        return max((s.feature_index for _, s in self.rounds), default=-1)


def _validate_binary_labels(y):
    values = set(np.unique(y).tolist())
    if not values <= {-1, 1}:
        raise ValidationError(f"labels must be in {{+1, -1}}, found {sorted(values)}")
    return values


def _candidate_errors(values, y, w):
    """Errors of every (threshold, polarity) candidate for one feature.

    Returns (thresholds, err_plus, err_minus) where index 0 is the
    below-minimum threshold and the rest are midpoints between consecutive
    distinct sorted values, in ascending order.
    """
    order = np.argsort(values, kind="stable")
    xs = values[order]
    ws = w[order]
    wpos = np.where(y[order] > 0, ws, 0.0)
    wneg = np.where(y[order] > 0, 0.0, ws)
    cum_pos = np.cumsum(wpos)
    cum_neg = np.cumsum(wneg)
    total_pos = cum_pos[-1]
    total_neg = cum_neg[-1]
    cuts = np.flatnonzero(np.diff(xs) != 0)
    thresholds = np.concatenate(([xs[0] - 1.0], (xs[cuts] + xs[cuts + 1]) / 2.0))
    # polarity +1 predicts -1 left of the threshold, +1 right of it
    err_plus = np.concatenate(([total_neg], cum_pos[cuts] + (total_neg - cum_neg[cuts])))
    err_minus = np.concatenate(([total_pos], cum_neg[cuts] + (total_pos - cum_pos[cuts])))
    return thresholds, err_plus, err_minus


def _argmin_rescored(scores, rescore):
    """Exact minimum over the candidates whose fast-scan score lies within
    _TIE_SLACK of the smallest one.

    ``scores`` holds one array of fast-scan scores per feature, or None for a
    feature without candidates. ``rescore(f, idx)`` returns (exact score,
    result) for candidate ``idx`` of feature ``f``. Candidates are rescored
    feature by feature in index order and a later one wins only when
    strictly smaller, so ties break to the lowest feature, then the lowest
    index. Returns the winning (exact score, result), or None when there is
    no candidate.
    """
    present = [s for s in scores if s is not None]
    if not present:
        return None
    cut = min(float(s.min()) for s in present) + _TIE_SLACK
    best = None
    for f, s in enumerate(scores):
        if s is None:
            continue
        for idx in np.flatnonzero(s <= cut):
            cand = rescore(f, int(idx))
            if best is None or cand[0] < best[0]:
                best = cand
    return best


def train_stump(X, y, w):
    """Exhaustive weighted-error-minimizing stump.

    Searches every feature, every midpoint between consecutive distinct
    values plus one threshold below the minimum, and both polarities.
    Ties break to the lowest feature index, then the lowest threshold, then
    polarity +1. Returns (stump, weighted_error).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    thresholds = []
    scores = []
    for f in range(X.shape[1]):
        t, err_plus, err_minus = _candidate_errors(X[:, f], y, w)
        thresholds.append(t)
        # ravel of (T, 2) walks candidates threshold-ascending, +1 before -1
        scores.append(np.column_stack([err_plus, err_minus]).ravel())

    def rescore(f, idx):
        stump = DecisionStump(f, float(thresholds[f][idx // 2]), 1 if idx % 2 == 0 else -1)
        return float(w[stump.predict_batch(X) != y].sum()), stump

    err, stump = _argmin_rescored(scores, rescore)
    return stump, err


def adaboost_train(X, y, w, config):
    """Discrete Adaboost over decision stumps.

    Per retained round: error eps, vote alpha = 0.5*ln((1-eps)/eps),
    multiplicative re-weighting (mistakes up, correct down), renormalize.
    Stops at max_rounds, on a perfect stump (eps below the floor, capped
    alpha), or the first time eps exceeds gamma (round discarded,
    exited_early set).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    values = _validate_binary_labels(y)
    total = w.sum()
    if total <= 0:
        raise ValidationError("weights must have positive total mass")
    w = w / total
    model = BoostedClassifier()
    # on a single label the first stump is perfect and ends the loop
    model.pure = len(values) == 1
    for _ in range(config.max_rounds):
        stump, eps = train_stump(X, y, w)
        if eps > config.gamma:
            model.exited_early = True
            break
        model.round_errors.append(eps)
        if eps < config.min_weight_floor:
            floor = config.min_weight_floor
            model.rounds.append((0.5 * math.log((1.0 - floor) / floor), stump))
            break
        alpha = 0.5 * math.log((1.0 - eps) / eps)
        model.rounds.append((alpha, stump))
        w = w * np.exp(-alpha * y * stump.predict_batch(X))
        w = w / w.sum()
    return model


def _check_dimension(model, dim):
    need = model.max_feature_index() + 1
    if dim < need:
        raise ValidationError(f"input has {dim} feature(s), model expects at least {need}")


def strong_score_batch(model, X):
    """Alpha-weighted vote sums H(x) over the rows of X; an empty model
    scores 0."""
    X = np.asarray(X, dtype=np.float64)
    _check_dimension(model, X.shape[1])
    h = np.zeros(X.shape[0])
    for alpha, stump in model.rounds:
        h += alpha * stump.predict_batch(X)
    return h


# Logistic outputs are clamped inside (0, 1): downstream routing thresholds
# compare probabilities against a delta that may equal 1 exactly.
_PROB_CLAMP = 1e-15


def prob_positive_batch(model, X):
    """Logistic partition probabilities 1/(1 + exp(-H(x))), clamped into (0, 1)."""
    h = strong_score_batch(model, X)
    p = np.empty_like(h)
    pos = h >= 0
    p[pos] = 1.0 / (1.0 + np.exp(-h[pos]))
    e = np.exp(h[~pos])
    p[~pos] = e / (1.0 + e)
    return np.clip(p, _PROB_CLAMP, 1.0 - _PROB_CLAMP)


def error_bound(model):
    """Multiplicative training-error bound: prod over rounds of 2*sqrt(eps*(1-eps)).

    Diagnostic only; requires at least one recorded round.
    """
    if not model.round_errors:
        raise ValidationError("error_bound needs at least one recorded round")
    eps = np.asarray(model.round_errors, dtype=np.float64)
    return float(np.prod(2.0 * np.sqrt(eps * (1.0 - eps))))
