"""Binary max-margin classifiers: a linear solver, a kernel dual solver, and
the kernel-computation accounting used by the test-time cost reports.

Trained models are immutable; prediction is safe under concurrent readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

KERNEL_KINDS = ("linear", "rbf", "chi_square", "histogram_intersection")

# Guard for the chi-square denominator on zero bins.
_CHI2_EPS = 1e-12
# Dual weights at or below this are treated as zero when extracting SVs.
_SV_EPS = 1e-10
# The linear solver leaves a coordinate alone when its projected gradient is
# within this of zero (LIBLINEAR's threshold).
_PG_EPS = 1e-12
# Element budget of one (rows, m, d) broadcast block of the chi-square and
# histogram-intersection kernels (8 MB of float64 per intermediate).
_CHUNK_ELEMENTS = 1 << 20
# Side of the square tiles that training_gram swaps (32 KB of float64 each).
_TILE = 64


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its parameter.

    linear: x.z
    rbf: exp(-gamma*||x - z||^2)
    chi_square: exp(-gamma * sum (x_j - z_j)^2 / (x_j + z_j + eps))
    histogram_intersection: sum min(x_j, z_j)

    The last two require nonnegative features.
    """

    kind: str
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValidationError(f"unknown kernel kind {self.kind!r}")
        if self.kind in ("rbf", "chi_square"):
            if self.gamma is None or self.gamma <= 0:
                raise ValidationError(f"{self.kind} kernel needs gamma > 0")
        elif self.gamma is not None:
            raise ValidationError(f"{self.kind} kernel takes no gamma")

    @property
    def is_linear(self):
        return self.kind == "linear"


def _require_nonnegative(A, kind):
    if A.size and A.min() < 0:
        raise ValidationError(f"{kind} kernel requires nonnegative features")


def _cross(A, B):
    """Inner products a_i . b_j, one row of A at a time: each row's values
    are those of A[i:i+1] @ B.T alone, whatever the other rows are."""
    return np.matmul(A[:, None, :], B.T)[:, 0, :]


def _chunked(A, B, kernel_rows):
    """kernel_rows(A[block], B) over blocks of rows of A that keep each
    (rows, len(B), d) intermediate within _CHUNK_ELEMENTS."""
    rows = max(1, _CHUNK_ELEMENTS // max(1, B.size))
    out = np.empty((len(A), len(B)))
    for i in range(0, len(A), rows):
        out[i:i + rows] = kernel_rows(A[i:i + rows], B)
    return out


def squared_norms(A):
    """|a_i|^2 for every row of the 2-d array A, in the expression the rbf
    kernel uses. A row's value depends on that row alone."""
    return (A * A).sum(axis=1)


def kernel_matrix(spec, A, B, b_norms=None):
    """Gram block k(a_i, b_j) with shape (len(A), len(B)).

    Rows are independent: row i depends on A[i] alone, so a row is
    bit-identical whether A holds one instance or many. Columns are not: the
    cross products come from one BLAS product over all of B, so an entry's
    bits can depend on its column's position among B's rows.

    b_norms optionally gives squared_norms(B) for the rbf kernel, computed
    beforehand; entries are bit-identical with and without it. Other kernels
    ignore it. A's norms are computed here, once per call.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[1] != B.shape[1]:
        raise ValidationError("kernel operands must share a dimension")
    if spec.kind == "linear":
        return _cross(A, B)
    if spec.kind == "rbf":
        # exp(-gamma * max(|a|^2 + |b|^2 - 2 a.b, 0)), computed in place
        cross = _cross(A, B)
        cross *= 2.0
        if b_norms is None:
            b_norms = squared_norms(B)
        elif np.shape(b_norms) != (len(B),):
            raise ValidationError("precomputed norms must have one entry per row")
        d2 = squared_norms(A)[:, None] + b_norms[None, :]
        d2 -= cross
        np.maximum(d2, 0.0, out=d2)
        d2 *= -spec.gamma
        return np.exp(d2, out=d2)
    _require_nonnegative(A, spec.kind)
    _require_nonnegative(B, spec.kind)
    if spec.kind == "chi_square":
        def rows(a, b):
            diff2 = (a[:, None, :] - b[None, :, :]) ** 2
            denom = a[:, None, :] + b[None, :, :] + _CHI2_EPS
            return np.exp(-spec.gamma * (diff2 / denom).sum(axis=2))
    else:
        def rows(a, b):
            return np.minimum(a[:, None, :], b[None, :, :]).sum(axis=2)
    return _chunked(A, B, rows)


@dataclass
class SvmConfig:
    """Solver knobs shared by both trainers.

    tolerance is the spread of the KKT violation at which a solver stops:
    PGmax - PGmin over the projected gradients for the linear solver, the
    maximal-violating-pair gap for the kernel solver. max_passes bounds work:
    passes over the active set for the linear solver (LIBLINEAR's max_iter),
    n*max_passes pairwise updates for the kernel solver. A solver that
    exhausts the budget returns its last iterate rather than raising; the
    model's convergence record says whether that iterate meets the tolerance.
    """

    c: float = 1.0
    tolerance: float = 1e-3
    max_passes: int = 400
    seed: int = 0

    def __post_init__(self):
        if self.c <= 0:
            raise ValidationError("regularization c must be positive")
        if not 0.0 < self.tolerance <= 1e-2:
            raise ValidationError("tolerance must lie in (0, 1e-2]")
        if self.max_passes < 1:
            raise ValidationError("max_passes must be positive")


@dataclass(frozen=True)
class SolverRecord:
    """How a solve ended.

    iterations counts passes over the active set (linear solver) or pairwise
    updates (kernel solver). gap is the spread of the KKT violation at the
    returned iterate, as SvmConfig.tolerance measures it, and converged is
    whether it is within the tolerance.
    """

    iterations: int
    gap: float
    converged: bool


@dataclass(frozen=True, eq=False)
class LinearSvmModel:
    """Hyperplane classifier; one evaluation costs O(d) regardless of data size.

    convergence is the solver's record; a model read back from JSON has none.
    Models compare by identity: equal-valued arrays do not make equal models.
    """

    weights: np.ndarray
    bias: float
    convergence: SolverRecord | None = None


@dataclass(frozen=True, eq=False)
class KernelSvmModel:
    """Dual model: f(x) = sum_i coeff_i * k(sv_i, x) + bias.

    dual_coefficients are label-signed dual weights; sv_ids are stable ids of
    the training samples retained as support vectors, unique across every
    model trained from the same dataset so union-based accounting can share a
    cache. convergence is the solver's record; a model read back from JSON
    has none. sv_norms holds squared_norms of the support vectors, derived
    once when the model is built; it is never serialized. Models compare by
    identity, as linear ones do.
    """

    support_vectors: np.ndarray
    dual_coefficients: np.ndarray
    bias: float
    kernel: KernelSpec
    sv_ids: np.ndarray
    convergence: SolverRecord | None = None
    sv_norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        S = np.atleast_2d(np.asarray(self.support_vectors, dtype=np.float64))
        object.__setattr__(self, "sv_norms", squared_norms(S))

    @property
    def n_support(self):
        return len(self.dual_coefficients)


def _split_labels(y):
    y = np.asarray(y, dtype=np.float64)
    values = set(np.unique(y).tolist())
    if not values <= {-1.0, 1.0}:
        raise ValidationError("labels must be in {+1, -1}")
    if len(values) < 2:
        raise ValidationError("training data must contain both labels")
    return y


def train_linear_svm(X, y, config):
    """Hinge-loss linear SVM via dual coordinate descent with shrinking
    (Hsieh et al., ICML 2008, section 3.2; LIBLINEAR's L1-loss solver).

    The bias is handled by feature augmentation (a constant 1 column), so it
    is weakly regularized along with the weights. Each pass visits the active
    coordinates in an order shuffled from the configured seed; runs are
    deterministic. A coordinate at a bound whose gradient lies outside the
    previous pass's range of projected gradients leaves the active set.
    ``config.max_passes`` caps the passes over the active set and
    ``config.tolerance`` bounds the spread PGmax - PGmin of the projected
    gradients. When a pass meets that bound, the spread over all n
    coordinates at the current weights decides: within the bound the solve
    has converged, otherwise every coordinate is re-activated. The model's
    ``convergence`` records the passes, that spread at the returned weights
    and whether it is within the tolerance.
    """
    X = np.asarray(X, dtype=np.float64)
    y = _split_labels(y)
    n, d = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    # Python floats and row views keep each step out of numpy scalar
    # arithmetic; the dot stays `row @ w`, whose summation order is fixed.
    rows = list(Xa)
    qd = (Xa * Xa).sum(axis=1).tolist()
    y = y.tolist()
    alpha = [0.0] * n
    w = np.zeros(d + 1)
    C = config.c
    rng = np.random.default_rng(config.seed)
    everyone = np.arange(n)
    active = everyone
    # bounds of the previous pass's projected gradients that shrinking uses
    old_max, old_min = math.inf, -math.inf
    passes = 0
    while passes < config.max_passes:
        passes += 1
        pg_max, pg_min = -math.inf, math.inf
        kept = []
        for i in rng.permutation(active).tolist():
            a = alpha[i]
            g = y[i] * float(rows[i] @ w) - 1.0
            if a <= 0.0:
                if g > old_max:
                    continue
                pg = g if g < 0.0 else 0.0
            elif a >= C:
                if g < old_min:
                    continue
                pg = g if g > 0.0 else 0.0
            else:
                pg = g
            kept.append(i)
            if pg > pg_max:
                pg_max = pg
            if pg < pg_min:
                pg_min = pg
            if pg > _PG_EPS or pg < -_PG_EPS:
                new = a - g / qd[i]
                if new < 0.0:
                    new = 0.0
                elif new > C:
                    new = C
                w += (new - a) * y[i] * rows[i]
                alpha[i] = new
        if pg_max - pg_min <= config.tolerance:
            # the pass saw moving iterates and only the active set: measure
            # every coordinate at the current weights before stopping
            if _pg_spread(Xa, y, alpha, w, C) <= config.tolerance:
                break
            active, old_max, old_min = everyone, math.inf, -math.inf
            continue
        active = np.array(kept, dtype=np.int64)
        old_max = pg_max if pg_max > 0.0 else math.inf
        old_min = pg_min if pg_min < 0.0 else -math.inf
    gap = _pg_spread(Xa, y, alpha, w, C)
    record = SolverRecord(passes, gap, gap <= config.tolerance)
    return LinearSvmModel(w[:d].copy(), float(w[d]), record)


def _pg_spread(Xa, y, alpha, w, C):
    """PGmax - PGmin of the dual's projected gradients over all coordinates
    at the weights w, the linear solver's stopping measure."""
    g = np.asarray(y) * (Xa @ w) - 1.0
    alpha = np.asarray(alpha)
    pg = np.where(alpha <= 0.0, np.minimum(g, 0.0),
                  np.where(alpha >= C, np.maximum(g, 0.0), g))
    return float(pg.max() - pg.min())


def training_gram(kernel, X):
    """kernel_matrix(kernel, X, X), bit for bit, laid out column-major so
    that the kernel solver reads each column contiguously. The Gram is
    transposed in place tile by tile and returned as the transpose's view,
    so no second n x n array is allocated. Its entries need not be
    symmetric bit for bit, so the layout cannot come from a plain
    transpose."""
    K = kernel_matrix(kernel, X, X)
    for a in range(0, len(K), _TILE):
        rows = slice(a, a + _TILE)
        K[rows, rows] = K[rows, rows].T.copy()
        for b in range(a + _TILE, len(K), _TILE):
            cols = slice(b, b + _TILE)
            upper = K[rows, cols].copy()
            K[rows, cols] = K[cols, rows].T
            K[cols, rows] = upper.T
    return K.T


def train_kernel_svm(X, y, kernel, config, sample_ids=None, gram=None):
    """Kernel SVM via maximal-violating-pair dual updates (Keerthi et al.,
    Neural Computation 2001).

    Runs until the maximal-violating-pair gap falls to the configured
    tolerance or the budget of n*max_passes updates is exhausted; the model's
    convergence records the updates made, the gap at exit and whether it
    converged. The full Gram matrix is materialized, which is intended for
    desk-scale node problems. ``gram`` optionally gives it, as
    kernel_matrix(kernel, X, X) or training_gram(kernel, X) computed
    beforehand with shape (n, n): one-vs-all shares one Gram across its
    classes, while the tree's nodes and one-vs-one compute their own. The tree and both baselines reach this
    solver through train_svm. Only samples with a nonzero dual weight are
    retained as support vectors.

    The solver holds the Gram column-major, so each update reads two
    contiguous columns. It keeps vals = -y * gradient rather than the
    gradient: y is +-1, so every update rounds exactly as it would on the
    gradient. The masks of coordinates that may move up or down change only
    at the two updated coordinates and are updated there.
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
    if gram is not None and np.shape(gram) != (n, n):
        raise ValidationError("gram must have one row and one column per sample")
    K = training_gram(kernel, X) if gram is None else np.asfortranarray(gram)
    C = config.c
    alpha = np.zeros(n)
    vals = y.copy()              # -y * gradient of the dual objective at alpha
    pos = y > 0
    up = pos.copy()              # coordinates that may move along +y
    low = ~pos                   # coordinates that may move along -y
    vals_up = np.empty(n)
    vals_low = np.empty(n)
    delta = np.empty(n)
    budget = config.max_passes * n
    updates = 0
    while True:
        vals_up.fill(-np.inf)
        np.copyto(vals_up, vals, where=up)
        vals_low.fill(np.inf)
        np.copyto(vals_low, vals, where=low)
        i = int(vals_up.argmax())
        j = int(vals_low.argmin())
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
        np.subtract(K[:, i], K[:, j], out=delta)
        delta *= t
        vals -= delta
        for k in (i, j):
            a = alpha[k]
            up[k] = (a < C) if pos[k] else (a > 0)
            low[k] = (a > 0) if pos[k] else (a < C)
        updates += 1
    free = (alpha > _SV_EPS) & (alpha < C - _SV_EPS)
    if free.any():
        bias = float(np.mean(vals[free]))
    else:
        # every exit leaves vals, up and low as computed at the final alpha
        hi = vals[up].max() if up.any() else 0.0
        lo = vals[low].min() if low.any() else 0.0
        bias = float((hi + lo) / 2.0)
    keep = alpha > _SV_EPS
    return KernelSvmModel(
        support_vectors=X[keep].copy(),
        dual_coefficients=(alpha[keep] * y[keep]),
        bias=bias,
        kernel=kernel,
        sv_ids=sample_ids[keep].copy(),
        convergence=SolverRecord(updates, gap, gap <= config.tolerance),
    )


def train_svm(X, y, kernel, config, sample_ids=None, gram=None):
    """The linear solver for a linear kernel, else the kernel solver, whose
    support vectors take their ids from sample_ids and which takes a
    precomputed Gram from gram. The linear solver uses neither."""
    if kernel.is_linear:
        return train_linear_svm(X, y, config)
    return train_kernel_svm(X, y, kernel, config, sample_ids, gram)


def kernel_computations(models):
    """Kernel computations needed to evaluate ``models`` on one instance, as
    (union, uncached). Under a per-instance cache a support vector shared by
    several models is computed once, so union counts the distinct sv_ids;
    uncached sums every model's support-vector count."""
    if not models:
        return 0, 0
    ids = np.concatenate([m.sv_ids for m in models])
    return len(np.unique(ids)), len(ids)


@dataclass(frozen=True, eq=False)
class SupportVectorTable:
    """The distinct support vectors of kernel models that share one kernel
    and one sv_id space, one row each, sorted by sv_id.

    norms holds the rows' squared_norms. coefficients has one column per
    model: column j holds model j's dual coefficient in the row of each of
    its support vectors and 0 in every other row. A Gram block over the rows
    times coefficients therefore gives every model's kernel sum from one
    computation of each kernel value.
    """

    sv_ids: np.ndarray
    rows: np.ndarray
    norms: np.ndarray
    coefficients: np.ndarray


def support_vector_table(models):
    """The SupportVectorTable of one or more kernel models."""
    ids = np.concatenate([m.sv_ids for m in models])
    sv_ids, first, row = np.unique(ids, return_index=True, return_inverse=True)
    coefficients = np.zeros((len(sv_ids), len(models)))
    owner = np.repeat(np.arange(len(models)), [m.n_support for m in models])
    coefficients[row, owner] = np.concatenate([m.dual_coefficients for m in models])
    rows = np.concatenate([m.support_vectors for m in models])[first]
    return SupportVectorTable(sv_ids, rows, squared_norms(rows), coefficients)


def decision_values_batch(model, X):
    """f(x) for either model type over the rows of X. A single instance of
    shape (d,) gives a scalar, an (n, d) batch gives n values. Each value
    depends on its own row alone, so it is bit-identical to the value of
    that row evaluated by itself. A kernel model hands kernel_matrix its
    own sv_norms."""
    X = np.asarray(X, dtype=np.float64)
    if isinstance(model, LinearSvmModel):
        if X.shape[-1] != model.weights.shape[0]:
            raise ValidationError("dimension mismatch")
        return np.vecdot(X, model.weights) + model.bias
    if X.shape[-1] != model.support_vectors.shape[1]:
        raise ValidationError("dimension mismatch")
    k = np.vecdot(kernel_matrix(model.kernel, X, model.support_vectors,
                                b_norms=model.sv_norms),
                  model.dual_coefficients)
    return k.reshape(X.shape[:-1]) + model.bias


def predict(model, X):
    """Sign of the decision values, with 0 mapped to +1; a scalar for a
    single instance."""
    return np.where(decision_values_batch(model, X) >= 0, 1, -1)[()]


def truncate_svs(model, n_keep):
    """Keep the n_keep largest-|coefficient| support vectors and refit bias.

    The bias is shifted by the mean of the dropped component evaluated over
    the original support-vector set, keeping decision levels centered.
    """
    if n_keep < 1:
        raise ValidationError("n_keep must be positive")
    if n_keep >= model.n_support:
        return model
    order = np.argsort(-np.abs(model.dual_coefficients), kind="stable")
    keep = np.sort(order[:n_keep])
    drop = np.sort(order[n_keep:])
    dropped_part = kernel_matrix(model.kernel, model.support_vectors,
                                 model.support_vectors[drop]) @ model.dual_coefficients[drop]
    return KernelSvmModel(
        support_vectors=model.support_vectors[keep].copy(),
        dual_coefficients=model.dual_coefficients[keep].copy(),
        bias=model.bias + float(dropped_part.mean()),
        kernel=model.kernel,
        sv_ids=model.sv_ids[keep].copy(),
        convergence=model.convergence,
    )
