"""Binary max-margin classifiers: a linear solver, a kernel dual solver, and
the kernel-computation accounting used by the test-time cost reports.

Trained models are immutable; prediction is safe under concurrent readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, check_field_types

KERNEL_KINDS = ("linear", "rbf", "chi_square", "histogram_intersection")

# Guard for the chi-square denominator on zero bins.
_CHI2_EPS = 1e-12
# The linear solver leaves a coordinate alone when its projected gradient is
# within this of zero (LIBLINEAR's threshold).
_PG_EPS = 1e-12
# Rows of A per block of kernel_matrix: against a table of a few thousand
# support vectors, a block's (rows, m) temporaries stay within L2.
_BLOCK_ROWS = 64
# Element budget of one (rows, m, d) broadcast block of the chi-square and
# histogram-intersection kernels (8 MB of float64 per intermediate).
_CHUNK_ELEMENTS = 1 << 20
# Largest training Gram, in entries, that training_gram builds (256 MB of
# float64, n up to 5792).
_GRAM_ELEMENTS = 1 << 25
# Largest (rows, inputs) block, in entries, that evaluation builds at a time
# (32 MB of float64): ClassifierBank.input_blocks splits a test set to fit.
_EVAL_ELEMENTS = 1 << 22


def _finite_positive(v):
    """Whether v is a finite number above zero; NaN fails both tests."""
    return math.isfinite(v) and v > 0


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
        check_field_types(self)
        if self.kind not in KERNEL_KINDS:
            raise ValidationError(f"unknown kernel kind {self.kind!r}")
        if self.kind in ("rbf", "chi_square"):
            if self.gamma is None or not _finite_positive(self.gamma):
                raise ValidationError(f"{self.kind} kernel needs a finite gamma > 0, "
                                      f"got {self.gamma}")
        elif self.gamma is not None:
            raise ValidationError(f"{self.kind} kernel takes no gamma")

    @property
    def is_linear(self):
        return self.kind == "linear"


_NONNEGATIVE_KINDS = ("chi_square", "histogram_intersection")


def _require_nonnegative(A, kind):
    if A.size and A.min() < 0:
        raise ValidationError(f"{kind} kernel requires nonnegative features")


def _cross(A, B, out):
    """Inner products a_i . b_j into out, one row of A at a time: each row's
    values are those of A[i:i+1] @ B.T alone, whatever the other rows are.
    A single row is that product itself, without the stacking views: numpy
    computes it by the same vector-matrix product as a row of a stack."""
    if len(A) == 1:
        np.matmul(A, B.T, out=out)
    else:
        np.matmul(A[:, None, :], B.T, out=out[:, None, :])


def squared_norms(A):
    """|a_i|^2 for every row of the 2-d array A, in the expression the rbf
    kernel uses. A row's value depends on that row alone."""
    return (A * A).sum(axis=1)


# How far each kernel's training arithmetic reaches in multiples of the
# largest row measure: a dot product to the squared norm, the rbf
# |a|^2 + |b|^2 - 2 a.b to 4 times it (a = -b), a chi-square (a_j - b_j)^2 on
# nonnegative features to at most max(a_j, b_j)^2. Histogram intersection's
# largest Gram entry is a diagonal one, a row's feature sum, and the kernel
# solver's eta adds two of them.
_REACH = {"linear": 1, "rbf": 4, "chi_square": 1, "histogram_intersection": 2}


def _training_norms(A, kind):
    """The row measure that the kernel ``kind`` trains on, computed without
    an overflow warning: each row's feature sum for histogram intersection,
    else squared_norms(A). Rejects with a ValidationError features that are
    not finite, and features that the kernel's arithmetic would overflow:
    where _REACH[kind] times the largest magnitude of a measure is not
    finite."""
    summed = kind == "histogram_intersection"
    with np.errstate(over="ignore"):
        norms = A.sum(axis=1) if summed else squared_norms(A)
        largest = float(np.abs(norms).max(initial=0.0))
    if not math.isfinite(largest) and not np.isfinite(A).all():
        raise ValidationError("features must be finite (no NaN or inf)")
    reach = _REACH[kind]
    if not math.isfinite(largest * reach):
        measure = "feature sum" if summed else "squared norm"
        times = "" if reach == 1 else f" times {reach}"
        raise ValidationError(f"features too large to train on: a training row's {measure}"
                              f"{times} is not finite in float64")
    return norms


# The kernel formulas, one block function each: block(gamma, A, B, a_norms,
# b_norms, out, scratch) writes k(a_i, b_j) for the rows of A into out. The
# rbf kernel reads the squared norms of A's and B's rows and uses scratch, an
# array of out's shape; the others ignore all three.

def _linear_block(gamma, A, B, a_norms, b_norms, out, scratch):
    _cross(A, B, out)


def _rbf_block(gamma, A, B, a_norms, b_norms, out, scratch):
    # exp(-gamma * max(|b|^2 + |a|^2 - 2 a.b, 0)), computed in place
    _cross(A, B, out)
    out *= 2.0
    np.add(b_norms, a_norms[:, None], out=scratch)
    scratch -= out
    np.maximum(scratch, 0.0, out=scratch)
    scratch *= -gamma
    np.exp(scratch, out=out)


def _chi_square_block(gamma, A, B, a_norms, b_norms, out, scratch):
    a = A[:, None, :]
    diff2 = (a - B) ** 2
    diff2 /= a + B + _CHI2_EPS
    diff2.sum(axis=2, out=out)
    out *= -gamma
    np.exp(out, out=out)


def _histogram_intersection_block(gamma, A, B, a_norms, b_norms, out, scratch):
    np.minimum(A[:, None, :], B).sum(axis=2, out=out)


_KERNEL_BLOCKS = {"linear": _linear_block, "rbf": _rbf_block,
                  "chi_square": _chi_square_block,
                  "histogram_intersection": _histogram_intersection_block}


def _kernel_rows(spec, A, B, b_norms):
    """kernel_matrix(spec, A, B) of checked operands: 2-d float64 arrays of
    one width, b_norms squared_norms(B) for the rbf kernel. A's rows go
    through their kernel's block function in blocks of _BLOCK_ROWS rows, or
    fewer for the chi-square and histogram-intersection kernels when their
    (rows, len(B), d) broadcast would exceed _CHUNK_ELEMENTS; when A fits in
    one block it is passed whole, with no slicing. The rbf kernel computes
    A's norms once and reuses one scratch block across blocks."""
    n, m = len(A), len(B)
    rows = _BLOCK_ROWS
    if spec.kind in ("chi_square", "histogram_intersection"):
        rows = max(1, min(rows, _CHUNK_ELEMENTS // max(1, B.size)))
    block = _KERNEL_BLOCKS[spec.kind]
    a_norms = scratch = None
    if spec.kind == "rbf":
        a_norms = squared_norms(A)
        scratch = np.empty((min(rows, n), m))
    out = np.empty((n, m))
    if n <= rows:
        block(spec.gamma, A, B, a_norms, b_norms, out, scratch)
        return out
    for i in range(0, n, rows):
        j = min(i + rows, n)
        block(spec.gamma, A[i:j], B, None if a_norms is None else a_norms[i:j],
              b_norms, out[i:j], None if scratch is None else scratch[:j - i])
    return out


def kernel_matrix(spec, A, B):
    """Gram block k(a_i, b_j) with shape (len(A), len(B)), computed in
    blocks of _BLOCK_ROWS rows of A (see _kernel_rows).

    Rows are independent: row i depends on A[i] alone, so a row is
    bit-identical whether A holds one instance or many. Columns are not: the
    cross products come from one BLAS product over all of B, so an entry's
    bits can depend on B's layout and on its column's position among B's
    rows. The rbf kernel computes both operands' norms here, once per call.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[1] != B.shape[1]:
        raise ValidationError("kernel operands must share a dimension")
    if spec.kind in _NONNEGATIVE_KINDS:
        _require_nonnegative(A, spec.kind)
        _require_nonnegative(B, spec.kind)
    return _kernel_rows(spec, A, B, squared_norms(B) if spec.kind == "rbf" else None)


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
        check_field_types(self)
        if not _finite_positive(self.c):
            raise ValidationError(f"regularization c must be finite and positive, "
                                  f"got {self.c}")
        if not 0.0 < self.tolerance <= 1e-2:
            raise ValidationError("tolerance must lie in (0, 1e-2]")
        if self.max_passes < 1:
            raise ValidationError("max_passes must be positive")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")


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
    has none. Models compare by identity, as linear ones do.
    """

    support_vectors: np.ndarray
    dual_coefficients: np.ndarray
    bias: float
    kernel: KernelSpec
    sv_ids: np.ndarray
    convergence: SolverRecord | None = None

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

    The solver keeps each augmented row multiplied by its label. y is +-1,
    so y*x is exact, and the gradient y*(x.w) and the update (delta*y)*x
    round exactly as they would on the unsigned rows. The dual weights and
    the rows' squared norms are Python floats and each row is a view, so a
    step costs one dot, one scaled row and one in-place add in numpy.

    A row whose squared norm (with the constant column) overflows would
    leave its dual weight at 0 whatever its gradient, and the solve would
    end at once, converged on zero weights; such features are rejected with
    a ValidationError instead.
    """
    X = np.asarray(X, dtype=np.float64)
    y = _split_labels(y)
    n, d = X.shape
    # label-signed augmented rows y_i * [x_i, 1]
    Ya = np.hstack([X, np.ones((n, 1))])
    Ya *= y[:, None]
    rows = list(Ya)
    qd = _training_norms(Ya, "linear").tolist()
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
            # `dot` dispatches in about half the time of `@` on short rows;
            # both reach the same BLAS dot, whose summation order is fixed
            g = float(rows[i].dot(w)) - 1.0
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
                w += (new - a) * rows[i]
                alpha[i] = new
        if pg_max - pg_min <= config.tolerance:
            # the pass saw moving iterates and only the active set: measure
            # every coordinate at the current weights before stopping
            gap = _pg_spread(Ya, alpha, w, C)
            if gap <= config.tolerance:
                break
            active, old_max, old_min = everyone, math.inf, -math.inf
            continue
        active = np.array(kept, dtype=np.int64)
        old_max = pg_max if pg_max > 0.0 else math.inf
        old_min = pg_min if pg_min < 0.0 else -math.inf
    else:
        gap = _pg_spread(Ya, alpha, w, C)
    record = SolverRecord(passes, gap, gap <= config.tolerance)
    return LinearSvmModel(w[:d].copy(), float(w[d]), record)


def _pg_spread(Ya, alpha, w, C):
    """PGmax - PGmin of the dual's projected gradients over all coordinates
    at the weights w, the linear solver's stopping measure. Ya holds the
    label-signed augmented rows."""
    g = Ya @ w - 1.0
    alpha = np.asarray(alpha)
    pg = np.where(alpha <= 0.0, np.minimum(g, 0.0),
                  np.where(alpha >= C, np.maximum(g, 0.0), g))
    return float(pg.max() - pg.min())


def training_gram(kernel, X):
    """kernel_matrix(kernel, X, X), bit for bit, laid out column-major so
    that the kernel solver reads each column contiguously: each block of
    _BLOCK_ROWS rows is computed as kernel_matrix computes it (rows are
    independent) and copied into its rows of the Gram, so no second n x n
    array is made. The feature check's squared norms are the rbf Gram's
    column norms. Raises ValidationError when the Gram would exceed _GRAM_ELEMENTS
    entries, for features that _training_norms rejects, and for negative
    features under the chi-square and histogram-intersection kernels."""
    n = len(X)
    if n * n > _GRAM_ELEMENTS:
        raise ValidationError(f"a training Gram of {n} x {n} kernel values exceeds the "
                              f"limit of {_GRAM_ELEMENTS} entries (at most "
                              f"{math.isqrt(_GRAM_ELEMENTS)} training samples)")
    norms = _training_norms(X, kernel.kind)
    if kernel.kind in _NONNEGATIVE_KINDS:
        _require_nonnegative(X, kernel.kind)
    K = np.empty((n, n), order="F")
    for i in range(0, n, _BLOCK_ROWS):
        K[i:i + _BLOCK_ROWS] = _kernel_rows(kernel, X[i:i + _BLOCK_ROWS], X, norms)
    return K


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
    contiguous columns. Its state is vals = -y * gradient, kept as two
    masked copies: vals_up holds it where a coordinate may move along +y and
    -inf elsewhere, vals_low where it may move along -y and +inf elsewhere.
    y is +-1, so vals rounds exactly as the gradient would; each update
    subtracts the same delta from both copies, which leaves an infinite
    entry infinite and rounds a finite one exactly as vals would. Every
    coordinate may move one way or the other, so one of the copies holds
    its value. The masks change only at the two updated coordinates, whose
    entries are rewritten there. The dual weights, labels, Gram diagonal and
    masks are Python floats and bools, so an update costs two arg-extrema,
    four array operations on columns and a few scalar reads and writes.
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
    labels = y.tolist()
    diag = K.diagonal().tolist()
    alpha = [0.0] * n
    pos = [label > 0 for label in labels]
    up = pos[:]                  # coordinates that may move along +y
    low = [not p for p in pos]   # coordinates that may move along -y
    # vals = -y * gradient of the dual objective, -y * -1 = y at alpha = 0
    vals_up = np.where(y > 0, y, -np.inf)
    vals_low = np.where(y > 0, np.inf, y)
    delta = np.empty(n)
    budget = config.max_passes * n
    updates = 0
    while True:
        i = int(vals_up.argmax())
        j = int(vals_low.argmin())
        hi = vals_up.item(i)
        lo = vals_low.item(j)
        gap = hi - lo
        if gap <= config.tolerance or updates == budget:
            break
        eta = diag[i] + diag[j] - 2.0 * K.item(i, j)
        if eta <= 1e-12:
            eta = 1e-12
        # the gap exceeds the tolerance and each bound is positive, as the
        # masks admit i and j, so the step t is positive
        step_i = C - alpha[i] if pos[i] else alpha[i]
        step_j = alpha[j] if pos[j] else C - alpha[j]
        t = min(gap / eta, step_i, step_j)
        alpha[i] += labels[i] * t
        alpha[j] -= labels[j] * t
        np.subtract(K[:, i], K[:, j], out=delta)
        delta *= t
        vals_up -= delta
        vals_low -= delta
        for k in (i, j):
            v = vals_up.item(k) if up[k] else vals_low.item(k)
            a = alpha[k]
            up[k] = (a < C) if pos[k] else (a > 0)
            low[k] = (a > 0) if pos[k] else (a < C)
            vals_up[k] = v if up[k] else -math.inf
            vals_low[k] = v if low[k] else math.inf
        updates += 1
    alpha = np.array(alpha)
    free = (alpha > 0.0) & (alpha < C)
    if free.any():
        # a free coordinate may move either way: vals_up holds its value
        bias = float(np.mean(vals_up[free]))
    else:
        # the exit's extrema, over the final masks. Neither mask is empty:
        # updates keep sum y*alpha at 0, so the positives cannot all sit at
        # C (or all at 0) while the negatives all sit at 0 (or at C)
        bias = (hi + lo) / 2.0
    keep = alpha > 0.0
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


class Placement(NamedTuple):
    """Where the models of a ClassifierBank read its inputs, all models
    together: model j's entries are those from starts[j] to starts[j + 1],
    entry k belongs to model owners[k] and reads the input column columns[k]
    with coefficient values[k]."""

    columns: np.ndarray
    values: np.ndarray
    starts: np.ndarray
    owners: np.ndarray


@dataclass(frozen=True, eq=False)
class ClassifierBank:
    """What models of one kernel read, computed together, and their biases.
    Linear models read the rows of X. Kernel models read kernel values
    against one table of their distinct support vectors (sv_ids, rows,
    norms = squared_norms(rows)), so a shared support vector costs one
    kernel computation. Where each model's coefficients sit among the inputs
    comes with the bank from of(), for its consumer to lay out and count.

    The table is column-major, so that kernel_matrix's product of an
    instance with the table reads the table's transpose contiguously. Its
    values may differ in the last bits from those against the models' own
    row-major rows."""

    kernel: KernelSpec
    biases: np.ndarray
    sv_ids: np.ndarray
    rows: np.ndarray
    norms: np.ndarray

    @classmethod
    def of(cls, models, kernel, dimension):
        """The bank of ``models``, of the family of ``kernel``, over rows of
        ``dimension`` features, and their Placement: the columns of the
        inputs each model reads and its coefficients there, its weights over
        every feature or its dual coefficients at their support vectors'
        table columns. The table lists the support vectors in one group per
        model, in model order, each group by sv_id: a support vector joins
        the group of the last model that keeps it, and its row is that
        model's. Rejects values that are not finite, and negative
        support-vector features under the chi-square and
        histogram-intersection kernels. Each of these steps is one pass over
        all the models together."""
        biases = np.array([m.bias for m in models], dtype=np.float64)
        sv_ids, rows = np.empty(0, dtype=np.int64), np.empty((0, dimension))
        counts = [dimension if kernel.is_linear else len(m.sv_ids) for m in models]
        owners = np.repeat(np.arange(len(models)), np.array(counts, dtype=np.intp))
        if kernel.is_linear:
            columns = np.tile(np.arange(dimension), len(models))
            values = [m.weights for m in models]
        else:
            ids = np.concatenate([sv_ids] + [m.sv_ids for m in models])
            sv_ids, inverse = np.unique(ids, return_inverse=True)
            # each support vector's last entry, in its keeper's group
            last = np.zeros(len(sv_ids), dtype=np.intp)
            np.maximum.at(last, inverse, np.arange(len(ids)))
            order = np.argsort(owners[last], kind="stable")
            rows = np.concatenate([rows] + [m.support_vectors for m in models])[last[order]]
            sv_ids = sv_ids[order]
            columns = np.argsort(order)[inverse]
            values = [m.dual_coefficients for m in models]
        values = np.concatenate([np.empty(0)] + values, dtype=np.float64)
        if not all(np.isfinite(a).all() for a in (biases, rows, values)):
            raise ValidationError("classifier weights, biases, dual coefficients and "
                                  "support vectors must be finite")
        if kernel.kind in _NONNEGATIVE_KINDS:
            _require_nonnegative(rows, kernel.kind)
        rows = np.asfortranarray(rows)
        bank = cls(kernel, biases, sv_ids, rows, squared_norms(rows))
        return bank, Placement(columns, values, np.cumsum([0] + counts), owners)

    @property
    def width(self):
        """Inputs per row: features for linear models, else table rows."""
        return self.rows.shape[1] if self.kernel.is_linear else len(self.sv_ids)

    def inputs(self, X):
        """What the models read: the rows of X or their kernel values, as
        kernel_matrix(kernel, X, rows) gives them bit for bit. X is a
        2-d float64 array as wide as the table's rows. of() has checked that
        the table is finite, and nonnegative where the kernel requires it,
        and computed its norms, so only X's own sign is checked here."""
        if self.kernel.is_linear:
            return X
        if self.kernel.kind in _NONNEGATIVE_KINDS:
            _require_nonnegative(X, self.kernel.kind)
        return _kernel_rows(self.kernel, X, self.rows, self.norms)

    def coefficients(self, placed):
        """The (inputs, models) matrix of the Placement ``placed`` that of()
        gave with this bank, 0 where a model reads nothing: model j's
        decision values are inputs(X) @ matrix[:, j] + biases[j]."""
        matrix = np.zeros((self.width, len(placed.starts) - 1))
        matrix[placed.columns, placed.owners] = placed.values
        return matrix

    def input_blocks(self, X, outputs=0):
        """(i, inputs(X[i:j])) over consecutive row blocks of X, each block
        of inputs, and the caller's ``outputs`` values per row of it, at most
        _EVAL_ELEMENTS entries. A row's inputs are those of one inputs(X)
        call, bit for bit (kernel_matrix's rows are independent)."""
        rows = max(1, _EVAL_ELEMENTS // max(1, self.width, outputs))
        for i in range(0, len(X), rows):
            yield i, self.inputs(X[i:i + rows])
