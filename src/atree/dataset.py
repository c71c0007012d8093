"""Labeled feature-vector datasets: CSV ingestion, synthesis, splitting.

All randomness flows through numpy's default_rng (PCG64); a fixed seed and
parameter tuple reproduce a dataset bit for bit. Datasets are immutable after
construction (their arrays are marked read-only), so they are safe to share
across any number of concurrent readers.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError, ValidationError


def check_label_names(names, error=ValidationError):
    """Raise ``error``, naming label_names, unless names is a list of at
    least two ints or strings by exact type (no bool, float or numpy int)
    whose str() forms differ: files name classes by them, and a model file
    holds them as JSON."""
    if (type(names) is not list or len(names) < 2 or not set(map(type, names)) <= {int, str}
            or len(set(map(str, names))) < len(names)):
        raise error(f"label_names {names!r} is not a list of at least two ints or strings "
                    "whose str() forms, which name classes in files, differ")


class Dataset:
    """Finite feature matrix plus dense integer labels and positive weights.

    Labels are dense ids in ``[0, num_classes)``; ``label_names[k]`` maps the
    dense id ``k`` back to the label value found in the source data, and the
    names must pass check_label_names. Weights of freshly loaded or
    generated data are uniform and sum to 1.

    The Dataset owns read-only copies of the arrays it is given, so neither
    the caller's arrays nor any view of them can change it.
    """

    def __init__(self, features, labels, weights, num_classes, label_names=None):
        features = np.array(features, dtype=np.float64, order="C")
        labels = np.array(labels, dtype=np.int64, order="C")
        weights = np.array(weights, dtype=np.float64, order="C")
        if features.ndim != 2 or features.shape[0] == 0 or features.shape[1] == 0:
            raise ValidationError("features must be a non-empty (n, d) matrix")
        if not np.isfinite(features).all():
            raise ValidationError("features must be finite (no NaN or inf)")
        n = features.shape[0]
        if labels.shape != (n,) or weights.shape != (n,):
            raise ValidationError("labels and weights must have one entry per sample")
        if num_classes < 2:
            raise ValidationError("a dataset needs at least 2 classes")
        if labels.min() < 0 or labels.max() >= num_classes:
            raise ValidationError("labels must lie in [0, num_classes)")
        if (weights <= 0).any():
            raise ValidationError("weights must be positive")
        label_names = list(range(num_classes) if label_names is None else label_names)
        check_label_names(label_names)
        if len(label_names) != num_classes:
            raise ValidationError("label_names must have one entry per class")
        for arr in (features, labels, weights):
            arr.setflags(write=False)
        self.features = features
        self.labels = labels
        self.weights = weights
        self.num_classes = int(num_classes)
        self.label_names = label_names

    def __len__(self):
        return self.features.shape[0]

    @property
    def dimension(self):
        return self.features.shape[1]

    def subset(self, indices):
        """New Dataset restricted to ``indices`` (class ids and names kept),
        its weights renormalized to sum 1."""
        indices = np.asarray(indices, dtype=np.int64)
        w = self.weights[indices]
        return Dataset(self.features[indices], self.labels[indices], w / w.sum(),
                       self.num_classes, self.label_names)


def _rng(seed):
    """numpy's default generator for seed, a nonnegative int."""
    if type(seed) is not int or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    return np.random.default_rng(seed)


def _uniform_weights(n):
    return np.full(n, 1.0 / n)


_NON_NUMERIC = "non-numeric feature value"


def _loadtxt(lines):
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def _parse_features(path, linenos, texts):
    """The feature matrix of the lines whose feature text is ``texts``, from
    one np.loadtxt call. loadtxt parses a cell with the same correctly rounded
    PyOS_string_to_double as float(), so the values are bit-identical to
    float() of each cell. Its error names no file line, so on failure each
    line is parsed alone, by the same parser, to name the first that fails.
    """
    try:
        return _loadtxt(texts)
    except ValueError:
        for lineno, text in zip(linenos, texts):
            try:
                _loadtxt([text])
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: {_NON_NUMERIC}") from None
        raise


def _decoded_lines(path, fh):
    """The lines of the text file fh; text it cannot decode is a ParseError
    naming path."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _line_error(path, lineno, message, linenos, texts, error=ParseError):
    """The error for line ``lineno``, which the structural pass rejects. The
    features of the lines before it are parsed first, and a bad cell there
    raises for its own line: a row-by-row reader stops at it first."""
    if texts:
        _parse_features(path, linenos, texts)
    return error(f"{path}: line {lineno}: {message}")


def load_csv(path, has_header=False, label_names=None):
    """Read ``label,f_1,...,f_d`` rows into a Dataset.

    Labels are remapped to dense ids in sorted order of their original values;
    the original values are retained in ``label_names``. Given
    ``label_names`` (a model's classes, or a training file's), the file's
    labels map through them instead: the label written as
    ``str(label_names[k])`` becomes id k, whichever of them the file holds,
    and a label not among them is a ValidationError that names it and its
    line. Weights are initialized uniform.

    The file is UTF-8, with or without a byte-order mark; other text is a
    ParseError naming the file. A label is what ``int`` accepts. A feature
    cell is an ASCII decimal or exponent float (``nan`` and ``inf``
    spellings parse, and the Dataset rejects them), with any surrounding
    characters ``str.isspace`` counts as whitespace; digit-group underscores
    (``1_0``) and non-ASCII digits are rejected. Every other rejected file
    names its first bad line, the line a row-by-row reader stops at.
    """
    known = None
    if label_names is not None:
        known = {str(name): k for k, name in enumerate(label_names)}
    raw_labels = []
    linenos = []
    texts = []
    dim = None
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(_decoded_lines(path, fh), start=1):
            if has_header and lineno == 1:
                continue
            line = line.strip()
            if not line:
                continue
            label, comma, text = line.partition(",")
            if not comma:
                raise _line_error(path, lineno, "expected a label and at least one feature",
                                  linenos, texts)
            width = text.count(",") + 1
            if dim is None:
                dim = width
            elif width != dim:
                raise _line_error(path, lineno, f"expected {dim} features, found {width}",
                                  linenos, texts)
            try:
                label = int(label)
            except ValueError:
                raise _line_error(path, lineno, f"label {label!r} is not an integer",
                                  linenos, texts) from None
            if known is not None and str(label) not in known:
                raise _line_error(path, lineno, f"label {label} is not one of the "
                                  f"{len(known)} known class labels", linenos, texts,
                                  ValidationError)
            if not text:
                # loadtxt would skip the empty line, and the row with it
                raise _line_error(path, lineno, _NON_NUMERIC, linenos, texts)
            raw_labels.append(label)
            linenos.append(lineno)
            texts.append(text)
    if not texts:
        raise ValidationError(f"{path}: no data rows")
    features = _parse_features(path, linenos, texts)
    if known is None:
        label_names = sorted(set(raw_labels))
        if len(label_names) < 2:
            raise ValidationError(f"{path}: found {len(label_names)} distinct label(s), "
                                  "need at least 2")
        known = {str(name): k for k, name in enumerate(label_names)}
    labels = np.array([known[str(v)] for v in raw_labels], dtype=np.int64)
    return Dataset(features, labels, _uniform_weights(len(texts)),
                   len(known), list(label_names))


def write_csv(data, path):
    """Write a Dataset as headerless ``label,f_1,...,f_d`` rows.

    Original label values (``label_names``) are written, so a load/write
    round-trip preserves the file's label vocabulary. Floats are written with
    repr so the round-trip is exact.
    """
    names = [str(name) for name in data.label_names]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{names[label]},{','.join(map(repr, row))}\n"
                      for label, row in zip(data.labels.tolist(), data.features.tolist()))


# Mixture components of the two-cluster synthetic set: (fraction, class,
# center, stddev). Class 0 owns a distant "anchor" cluster that is linearly
# separable from everything else; the remaining mass interleaves class 1 on
# both sides of a class-0 cluster along the first feature, so no single
# linear separator handles the whole set and the hierarchy must keep
# partitioning below the root.
_TWO_CLUSTER_PARTS = (
    (0.50, 0, (6.5, 0.0), 0.50),
    (0.20, 0, (0.0, 0.0), 0.50),
    (0.15, 1, (-2.5, 0.0), 0.50),
    (0.15, 1, (2.5, 0.0), 0.50),
)


def _largest_remainder_counts(fractions, total):
    raw = [f * total for f in fractions]
    counts = [int(np.floor(r)) for r in raw]
    short = total - sum(counts)
    remainders = sorted(range(len(raw)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in remainders[:short]:
        counts[i] += 1
    return counts


def generate_two_cluster_2d(count, seed):
    """Two-class 2-D benchmark set with one easy and one interleaved region."""
    if count < 4:
        raise ValidationError("count must be at least 4")
    counts = _largest_remainder_counts([p[0] for p in _TWO_CLUSTER_PARTS], count)
    rng = _rng(seed)
    feats = []
    labels = []
    for (_, cls, center, std), k in zip(_TWO_CLUSTER_PARTS, counts):
        if k == 0:
            continue
        feats.append(rng.normal(loc=center, scale=std, size=(k, 2)))
        labels.append(np.full(k, cls, dtype=np.int64))
    features = np.vstack(feats)
    labels = np.concatenate(labels)
    order = rng.permutation(count)
    return Dataset(features[order], labels[order], _uniform_weights(count), 2)


# Class means are drawn hierarchically: ceil(sqrt(n)) group centers (scale
# 3.0) plus per-class offsets (scale 1.0). Classes therefore share coarse
# structure the way feature vectors of related categories do, which is the
# regime hierarchical classifiers target.
_BLOB_GROUP_SCALE = 3.0
_BLOB_CLASS_SCALE = 1.0


def generate_gaussian_blobs(num_classes, per_class, dimension, spread, seed):
    """Isotropic Gaussian blobs, one per class, with clustered class means.

    Means are placed deterministically from the seed; samples add isotropic
    noise with standard deviation ``spread``. ``spread=0`` collapses every
    sample onto its class mean.
    """
    if num_classes < 2:
        raise ValidationError("num_classes must be at least 2")
    if per_class < 2:
        raise ValidationError("per_class must be at least 2")
    if dimension < 1:
        raise ValidationError("dimension must be at least 1")
    if spread < 0:
        raise ValidationError("spread must be nonnegative")
    rng = _rng(seed)
    n_groups = max(2, int(np.ceil(np.sqrt(num_classes))))
    centers = rng.standard_normal((n_groups, dimension)) * _BLOB_GROUP_SCALE
    offsets = rng.standard_normal((num_classes, dimension)) * _BLOB_CLASS_SCALE
    means = centers[np.arange(num_classes) % n_groups] + offsets
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    noise = rng.standard_normal((len(labels), dimension)) * spread
    features = means[labels] + noise
    order = rng.permutation(len(labels))
    return Dataset(features[order], labels[order], _uniform_weights(len(labels)), num_classes)


def split_train_test(data, train_fraction, seed, stratified=True):
    """Disjoint train/test partition; weights renormalized within each side.

    With ``stratified=True`` every class keeps its proportion up to rounding,
    and the per-class train count is clamped to [1, class_size - 1] so both
    sides see every class.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValidationError("train_fraction must lie strictly between 0 and 1")
    rng = _rng(seed)
    n = len(data)
    if stratified:
        train_idx = []
        test_idx = []
        for cls in range(data.num_classes):
            members = np.flatnonzero(data.labels == cls)
            if len(members) < 2:
                raise ValidationError(
                    f"class {data.label_names[cls]} has {len(members)} sample(s); "
                    "stratified splitting needs at least 2 per class")
            k = int(round(train_fraction * len(members)))
            k = min(max(k, 1), len(members) - 1)
            perm = rng.permutation(len(members))
            train_idx.append(members[perm[:k]])
            test_idx.append(members[perm[k:]])
        train_idx = np.concatenate(train_idx)
        test_idx = np.concatenate(test_idx)
    else:
        perm = rng.permutation(n)
        k = min(max(int(round(train_fraction * n)), 1), n - 1)
        train_idx, test_idx = perm[:k], perm[k:]
    train_idx = np.sort(train_idx)
    test_idx = np.sort(test_idx)
    return data.subset(train_idx), data.subset(test_idx)
