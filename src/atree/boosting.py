"""Decision-stump weak learners and discrete Adaboost strong classifiers.

A trained BoostedClassifier is immutable and safe for concurrent scoring;
training touches only its private weight array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, check_field_types

# Candidates whose fast-scan score (stump error here, split entropy in
# tree.entropy_split) lands within this slack of the minimum are re-scored
# with the direct formula before the winner is picked, so the reported score
# and tie-breaking are independent of how the fast scan rounds: a fast score
# off by less than half the slack (5e-10) can neither drop the winner nor
# change its tie-break. Phase one normalises weights to sum 1, which keeps
# fast scores within about 1e-12 of exact ones (at most 3.5e-13 measured on
# 1500 samples, 20 classes, weights spread over six orders of magnitude).
_TIE_SLACK = 1e-9
# A round error below this counts as perfect; its vote is capped at
# 0.5*ln((1-floor)/floor) to keep scores finite.
_MIN_WEIGHT_FLOOR = 1e-10


@dataclass(frozen=True)
class DecisionStump:
    """Single-feature threshold test: -polarity when x[f] < t, else polarity."""

    feature_index: int
    threshold: float
    polarity: int

    def predict_batch(self, X):
        return np.where(X[:, self.feature_index] < self.threshold, -self.polarity,
                        self.polarity)


@dataclass
class BoostConfig:
    """Knobs for adaboost_train.

    max_rounds: cap on retained rounds.
    gamma: a round whose weighted error exceeds gamma is discarded and
        training stops (early exit).
    """

    max_rounds: int = 50
    gamma: float = 0.48

    def __post_init__(self):
        check_field_types(self)
        if self.max_rounds < 1:
            raise ValidationError("max_rounds must be positive")
        if not 0.0 < self.gamma <= 0.5:
            raise ValidationError("gamma must lie in (0, 0.5]")


@dataclass
class BoostedClassifier:
    """Weighted stump ensemble; score is the alpha-weighted vote sum."""

    rounds: list = field(default_factory=list)      # [(alpha, DecisionStump)]
    round_errors: list = field(default_factory=list)
    exited_early: bool = False

    def max_feature_index(self):
        return max((s.feature_index for _, s in self.rounds), default=-1)


def _validate_binary_labels(y):
    values = set(np.unique(y).tolist())
    if not values <= {-1, 1}:
        raise ValidationError(f"labels must be in {{+1, -1}}, found {sorted(values)}")


def _argmin_rescored(scores, rescore):
    """Exact minimum over the candidates whose fast-scan score lies within
    _TIE_SLACK of the smallest one.

    ``scores`` is a (features, candidates) array of fast-scan scores with
    +inf where a feature has no such candidate. ``rescore(f, idx)`` returns
    (exact score, result) for candidate ``idx`` of feature ``f``. Candidates
    are rescored in row-major order and a later one wins only when strictly
    smaller, so ties break to the lowest feature, then the lowest index.
    Returns the winning (exact score, result), or None when there is no
    candidate.
    """
    cut = scores.min(initial=np.inf) + _TIE_SLACK
    if cut == np.inf:
        return None
    best = None
    for flat in np.flatnonzero(scores <= cut).tolist():
        cand = rescore(*divmod(flat, scores.shape[1]))
        if best is None or cand[0] < best[0]:
            best = cand
    return best


@dataclass(frozen=True, eq=False)
class Presort:
    """The sorted view of a node's X that its entropy split and stump
    searches share, whatever the labels and weights.

    Row f of ``rows`` lists the samples in stable ascending order of
    feature f and row f of ``values`` their values; ``ties[f, k - 1]``
    marks sorted positions k - 1 and k as equal, so no cut falls between.
    """

    rows: np.ndarray
    values: np.ndarray
    ties: np.ndarray

    @classmethod
    def of(cls, X):
        rows = np.argsort(X, axis=0, kind="stable").T
        values = np.take_along_axis(X.T, rows, axis=1)
        return cls(rows, values, values[:, 1:] == values[:, :-1])

    def threshold(self, f, k):
        """The cut before sorted position k of feature f: for k = 0 a value
        no sample lies below, otherwise the midpoint of positions k - 1 and
        k, or the upper value when the midpoint rounds onto the lower
        (adjacent floats) or overflows. Unless position k ties with k - 1,
        x < t holds for exactly the samples sorted before k."""
        if k == 0:
            return float(self.values[f, 0]) - 1.0
        lo, hi = float(self.values[f, k - 1]), float(self.values[f, k])
        v = (lo + hi) / 2.0
        return v if lo < v <= hi else hi


def train_stump(X, y, w, presort=None):
    """Exhaustive weighted-error-minimizing stump.

    Searches every feature, every cut between consecutive distinct values
    plus one below the minimum (Presort.threshold), and both polarities.
    Ties break to the lowest feature index, then the lowest threshold, then
    polarity +1. ``presort`` is Presort.of(X) when the caller has it; it
    does not depend on ``y`` or ``w``, so boosting builds one for all its
    rounds.
    Returns (stump, weighted_error, predictions): the predictions are
    ``stump.predict_batch(X)``, kept from the exact rescore that picked it.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    presort = Presort.of(X) if presort is None else presort
    positive = y > 0
    total_pos = float(w @ positive)
    total_neg = float(w.sum()) - total_pos
    # lead[f, k]: positive minus negative mass before sorted position k, so
    # 0 at the below-minimum cut k = 0
    lead = np.zeros(presort.rows.shape)
    np.cumsum(np.where(positive, w, -w)[presort.rows[:, :-1]], axis=1, out=lead[:, 1:])
    # scores[f, k] is the cut before sorted position k (+inf between equal
    # values). Polarity +1 predicts -1 left of the threshold and +1 right
    # of it, so it errs on the positive mass left of the cut and the
    # negative mass right of it; polarity -1 errs on the rest.
    scores = np.empty(lead.shape + (2,))
    np.add(lead, total_neg, out=scores[..., 0])
    np.subtract(total_pos, lead, out=scores[..., 1])
    scores[:, 1:][presort.ties] = np.inf

    def rescore(f, idx):
        k, negative = divmod(idx, 2)
        stump = DecisionStump(f, presort.threshold(f, k), -1 if negative else 1)
        predictions = stump.predict_batch(X)
        return float(w[predictions != y].sum()), (stump, predictions)

    # (features, 2n) walks candidates threshold-ascending, +1 before -1
    err, (stump, predictions) = _argmin_rescored(scores.reshape(len(lead), -1), rescore)
    return stump, err, predictions


def adaboost_train(X, y, w, config, presort=None):
    """Discrete Adaboost over decision stumps.

    Per retained round: error eps, vote alpha = 0.5*ln((1-eps)/eps),
    multiplicative re-weighting (mistakes up, correct down), renormalize.
    Stops at max_rounds, on a perfect stump (eps below the floor, capped
    alpha), or the first time eps exceeds gamma (round discarded,
    exited_early set). ``presort`` is Presort.of(X) when the caller has it.
    Returns (model, scores): scores are H over the rows of X, summed in
    the same order as strong_score_batch(model, X), so they are equal bit
    for bit.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    _validate_binary_labels(y)
    total = w.sum()
    if total <= 0:
        raise ValidationError("weights must have positive total mass")
    w = w / total
    model = BoostedClassifier()
    h = np.zeros(X.shape[0])
    presort = Presort.of(X) if presort is None else presort
    for _ in range(config.max_rounds):
        stump, eps, predictions = train_stump(X, y, w, presort)
        if eps > config.gamma:
            model.exited_early = True
            break
        model.round_errors.append(eps)
        perfect = eps < _MIN_WEIGHT_FLOOR
        e = _MIN_WEIGHT_FLOOR if perfect else eps
        alpha = 0.5 * math.log((1.0 - e) / e)
        model.rounds.append((alpha, stump))
        h += alpha * predictions
        if perfect:
            break
        w = w * np.exp(-alpha * y * predictions)
        w = w / w.sum()
    return model, h


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


def logistic(h):
    """Partition probabilities 1/(1 + exp(-h)) of scores h, clamped into (0, 1)."""
    p = np.empty_like(h)
    pos = h >= 0
    p[pos] = 1.0 / (1.0 + np.exp(-h[pos]))
    e = np.exp(h[~pos])
    p[~pos] = e / (1.0 + e)
    return np.clip(p, _PROB_CLAMP, 1.0 - _PROB_CLAMP)


def prob_positive_batch(model, X):
    """Logistic partition probabilities of the rows of X: logistic(H(x))."""
    return logistic(strong_score_batch(model, X))


def error_bound(model):
    """Multiplicative training-error bound: prod over rounds of 2*sqrt(eps*(1-eps)).

    Diagnostic only; requires at least one recorded round.
    """
    if not model.round_errors:
        raise ValidationError("error_bound needs at least one recorded round")
    eps = np.asarray(model.round_errors, dtype=np.float64)
    return float(np.prod(2.0 * np.sqrt(eps * (1.0 - eps))))
