import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from atree.dataset import (Dataset, generate_gaussian_blobs,
                           generate_two_cluster_2d, load_csv, split_train_test,
                           write_csv)
from atree.errors import AtreeError, ParseError, ValidationError
from oracles import reference_load_csv, reference_write_csv


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# Finite float64 values, with the edges of the format drawn often: signed
# zeros, the smallest subnormal and the largest magnitudes.
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308]))


@st.composite
def labelled_matrices(draw):
    """A Dataset of random finite features whose label names are distinct
    ints, or those ints as strings."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 5))
    k = draw(st.integers(2, 4))
    names = draw(st.lists(st.integers(-10**20, 10**20), min_size=k, max_size=k,
                          unique=True))
    if draw(st.booleans()):
        names = [str(name) for name in names]
    features = draw(hnp.arrays(np.float64, (n, d), elements=_FINITE))
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
    return Dataset(features, labels, np.full(n, 1.0 / n), k, names)


def _loaded(load, path, label_names):
    """What load makes of the file: the features' bytes, labels and names,
    or the class and message of its error."""
    try:
        data = load(path, label_names=label_names)
    except AtreeError as exc:
        return type(exc), str(exc)
    return data.features.tobytes(), data.labels.tolist(), data.label_names


class TestLoadCsv:
    @pytest.mark.parametrize("text", [b"\xff\xfe0,1.0\n1,2.0\n", b"0,1.0\n1,2\xe9\n"],
                             ids=["utf-16-mark", "latin-1"])
    def test_text_that_is_not_utf8_names_the_file(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text)
        with pytest.raises(ParseError, match=f"{path}: not UTF-8 text"):
            load_csv(path)

    def test_basic_rows_and_uniform_weights(self, tmp_path):
        path = _write(tmp_path, "0,1.0,2.0\n1,3.0,4.0\n")
        data = load_csv(path)
        assert data.num_classes == 2
        assert data.dimension == 2
        np.testing.assert_allclose(data.weights, [0.5, 0.5])

    def test_labels_remapped_dense_in_sorted_order(self, tmp_path):
        path = _write(tmp_path, "7,1.0\n3,2.0\n7,3.0\n")
        data = load_csv(path)
        assert data.label_names == [3, 7]
        assert data.labels.tolist() == [1, 0, 1]

    def test_labels_map_through_given_names(self, tmp_path):
        path = _write(tmp_path, "7,1.0\n3,2.0\n7,3.0\n")
        data = load_csv(path, label_names=[9, 7, 3])
        assert data.label_names == [9, 7, 3] and data.num_classes == 3
        assert data.labels.tolist() == [1, 2, 1]

    def test_label_outside_given_names_names_label_and_line(self, tmp_path):
        path = _write(tmp_path, "7,1.0\n3,2.0\n5,3.0\n")
        with pytest.raises(ValidationError, match="line 3: label 5 is not one of the 2 "):
            load_csv(path, label_names=[3, 7])

    def test_string_names_match_the_labels_as_written(self, tmp_path):
        # a model's names may be strings; write_csv writes str(name)
        path = _write(tmp_path, "7,1.0\n3,2.0\n")
        data = load_csv(path, label_names=["3", "7", "cat"])
        assert data.label_names == ["3", "7", "cat"] and data.labels.tolist() == [1, 0]

    def test_given_names_accept_a_single_label(self, tmp_path):
        path = _write(tmp_path, "4,1.0\n4,2.0\n")
        assert load_csv(path, label_names=[4, 8]).labels.tolist() == [0, 0]

    def test_empty_file_rejected(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(ValidationError):
            load_csv(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = _write(tmp_path, "0,1.0,2.0\n1,3.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = _write(tmp_path, "0,1.0\n1,zap\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path)

    def test_non_integer_label_rejected(self, tmp_path):
        path = _write(tmp_path, "0.5,1.0\n1,2.0\n")
        with pytest.raises(ParseError, match="label"):
            load_csv(path)

    def test_single_label_rejected(self, tmp_path):
        path = _write(tmp_path, "4,1.0\n4,2.0\n")
        with pytest.raises(ValidationError):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, tmp_path, cell):
        path = _write(tmp_path, f"0,1.0\n1,{cell}\n")
        with pytest.raises(ValidationError, match="finite"):
            load_csv(path)

    def test_header_skipped(self, tmp_path):
        path = _write(tmp_path, "label,f1\n0,1.0\n1,2.0\n")
        data = load_csv(path, has_header=True)
        assert len(data) == 2

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf0,1.0\n1,2.0\n")
        data = load_csv(str(path))
        assert data.label_names == [0, 1]
        assert data.features.tolist() == [[1.0], [2.0]]

    def test_write_load_round_trip_exact(self, tmp_path):
        data = generate_gaussian_blobs(3, 5, 4, 0.7, seed=9)
        path = str(tmp_path / "round.csv")
        write_csv(data, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.labels, data.labels)


class TestAgainstTheRowByRowOracle:
    """load_csv and write_csv work on whole columns; tests/oracles.py keeps
    the row-by-row reader and writer they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(data=labelled_matrices())
    def test_same_bytes_written_and_same_dataset_read(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "new.csv"
            write_csv(data, path)
            reference_write_csv(data, pathlib.Path(tmp) / "old.csv")
            assert path.read_bytes() == (pathlib.Path(tmp) / "old.csv").read_bytes()
            for names in (None, data.label_names):
                got = _loaded(load_csv, str(path), names)
                assert got == _loaded(reference_load_csv, str(path), names)
            # read through its own names, the file gives the dataset back
            assert got[0] == data.features.tobytes()
            assert got[1] == data.labels.tolist()

    @pytest.mark.parametrize("text, names, line", [
        ("0,1.0,2.0\n1,,2.0\n", None, 2),              # empty field
        ("0,1.0,2.0\n1,3.0,\n", None, 2),              # trailing comma
        ("0,1.0\n1,\n", None, 2),                      # a label, then an empty field
        ("0,1.0\n1\n", None, 2),                       # no feature
        ("0,1.0,2.0\n1,3.0\n", None, 2),               # ragged row
        ("0,1.0\n1,zap\n", None, 2),                   # non-numeric cell
        ('0,1.0\n1,"2.0"\n', None, 2),                 # quoted cell
        ("0,1.0\n1,2#3\n", None, 2),                   # '#' inside a cell
        ("0,1.0\n1.5,2.0\n", None, 2),                 # label not an int
        ("x,1.0\n0,2.0\n", None, 1),                   # ... on the first line
        ("0,1.0\n5,2.0\n", [0, 1], 2),                 # label not known
        ("0,1.0\n1,zap\nx,2.0\n", None, 2),            # bad cell, then bad label
        ("0,1.0\n1,zap\n5,2.0\n", [0, 1], 2),          # bad cell, then unknown label
        ("0,1.0\n1,zap\n1,2.0,3.0\n", None, 2),        # bad cell, then ragged row
        ("0,1.0\n5,2.0\n1,zap\n", [0, 1], 2),          # unknown label, then bad cell
    ])
    def test_rejected_like_the_oracle(self, tmp_path, text, names, line):
        path = _write(tmp_path, text)
        with pytest.raises(AtreeError) as want:
            reference_load_csv(path, label_names=names)
        with pytest.raises(AtreeError, match=f"line {line}: ") as got:
            load_csv(path, label_names=names)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "\uff11"])
    def test_cells_only_float_reads_are_rejected_naming_their_line(self, tmp_path, cell):
        # underscores and non-ASCII digits: float() reads them, np.loadtxt does not
        path = _write(tmp_path, f"0,1.0\n1,{cell}\n0,2.0\n")
        assert reference_load_csv(path).features[1, 0] == float(cell)
        with pytest.raises(ParseError, match="line 2: non-numeric feature value"):
            load_csv(path)


class TestTwoCluster:
    def test_requested_size_and_shape(self):
        data = generate_two_cluster_2d(3000, seed=1)
        assert len(data) == 3000
        assert data.num_classes == 2
        assert data.dimension == 2

    def test_deterministic(self):
        a = generate_two_cluster_2d(3000, seed=1)
        b = generate_two_cluster_2d(3000, seed=1)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_minimum_size_has_both_classes(self):
        data = generate_two_cluster_2d(4, seed=9)
        assert len(data) == 4
        assert set(np.unique(data.labels)) == {0, 1}

    def test_too_small_rejected(self):
        with pytest.raises(ValidationError):
            generate_two_cluster_2d(3, seed=0)

    def test_anchor_subpopulation_is_linearly_separable(self):
        # all class-1 mass stays left of the gap before the anchor cluster
        data = generate_two_cluster_2d(3000, seed=1)
        anchor = data.features[:, 0] > 4.5
        assert (data.labels[anchor] == 0).all()
        assert anchor.sum() > 1000


class TestBlobs:
    def test_size_bookkeeping(self):
        data = generate_gaussian_blobs(20, 100, 16, 0.5, seed=7)
        assert len(data) == 2000
        assert data.num_classes == 20
        assert data.dimension == 16

    def test_zero_spread_collapses_to_class_means(self):
        data = generate_gaussian_blobs(3, 4, 5, 0.0, seed=2)
        for cls in range(3):
            rows = data.features[data.labels == cls]
            assert np.ptp(rows, axis=0).max() == 0.0
        means = {tuple(data.features[data.labels == cls][0]) for cls in range(3)}
        assert len(means) == 3

    def test_minimum_size(self):
        data = generate_gaussian_blobs(2, 2, 1, 1.0, seed=3)
        assert len(data) == 4

    @pytest.mark.parametrize("kwargs", [
        dict(num_classes=1, per_class=5, dimension=2, spread=1.0, seed=0),
        dict(num_classes=2, per_class=1, dimension=2, spread=1.0, seed=0),
        dict(num_classes=2, per_class=5, dimension=0, spread=1.0, seed=0),
        dict(num_classes=2, per_class=5, dimension=2, spread=-0.1, seed=0),
    ])
    def test_invalid_sizes_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            generate_gaussian_blobs(**kwargs)

    def test_deterministic(self):
        a = generate_gaussian_blobs(5, 10, 3, 0.8, seed=42)
        b = generate_gaussian_blobs(5, 10, 3, 0.8, seed=42)
        np.testing.assert_array_equal(a.features, b.features)


class TestSplit:
    def test_stratified_half_split_counts(self):
        data = generate_gaussian_blobs(4, 80, 3, 1.0, seed=1)
        train, test = split_train_test(data, 0.5, seed=2, stratified=True)
        for cls in range(4):
            assert (train.labels == cls).sum() == 40
            assert (test.labels == cls).sum() == 40

    def test_smallest_stratified_split(self):
        data = generate_gaussian_blobs(3, 2, 2, 0.5, seed=1)
        train, test = split_train_test(data, 0.5, seed=0, stratified=True)
        for cls in range(3):
            assert (train.labels == cls).sum() == 1
            assert (test.labels == cls).sum() == 1

    def test_partition_property(self):
        data = generate_gaussian_blobs(3, 11, 2, 1.0, seed=5)
        train, test = split_train_test(data, 0.34, seed=7, stratified=True)
        assert len(train) + len(test) == len(data)

        def multiset(ds):
            return sorted((int(l),) + tuple(map(float, f))
                          for l, f in zip(ds.labels, ds.features))

        combined = sorted(multiset(train) + multiset(test))
        assert combined == multiset(data)

    def test_train_weights_renormalized(self):
        data = generate_gaussian_blobs(2, 10, 2, 1.0, seed=3)
        train, test = split_train_test(data, 0.3, seed=1, stratified=True)
        assert abs(train.weights.sum() - 1.0) < 1e-12
        assert abs(test.weights.sum() - 1.0) < 1e-12

    def test_singleton_class_rejected_when_stratified(self):
        features = np.array([[0.0], [1.0], [2.0]])
        data = Dataset(features, np.array([0, 0, 1]), np.full(3, 1 / 3), 2)
        with pytest.raises(ValidationError):
            split_train_test(data, 0.5, seed=0, stratified=True)

    def test_unstratified_split_covers_everything(self):
        data = generate_gaussian_blobs(2, 20, 2, 1.0, seed=9)
        train, test = split_train_test(data, 0.25, seed=4, stratified=False)
        assert len(train) == 10
        assert len(test) == 30

    def test_bad_fraction_rejected(self):
        data = generate_gaussian_blobs(2, 4, 2, 1.0, seed=0)
        for frac in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValidationError):
                split_train_test(data, frac, seed=0)


class TestDatasetInvariants:
    def test_arrays_are_read_only(self):
        data = generate_gaussian_blobs(2, 4, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            data.features[0, 0] = 99.0
        with pytest.raises(ValueError):
            data.weights[0] = 0.5

    def test_arrays_are_copies_of_the_callers(self):
        features = np.array([[0.0, 1.0], [2.0, 3.0]])
        labels, weights = np.array([0, 1]), np.array([0.5, 0.5])
        view = features[1]
        data = Dataset(features, labels, weights, 2)
        for given in (features, labels, weights):
            assert given.flags.writeable
        view[1] = np.nan
        labels[0], weights[0] = 1, 0.0
        assert data.features.tolist() == [[0.0, 1.0], [2.0, 3.0]]
        assert data.labels.tolist() == [0, 1] and data.weights.tolist() == [0.5, 0.5]

    def test_generated_weights_sum_to_one(self):
        for seed in range(5):
            data = generate_two_cluster_2d(101, seed=seed)
            assert abs(data.weights.sum() - 1.0) < 1e-12

    def test_label_bounds_validated(self):
        with pytest.raises(ValidationError):
            Dataset(np.zeros((2, 1)), np.array([0, 2]), np.array([0.5, 0.5]), 2)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValidationError):
            Dataset(np.zeros((2, 1)), np.array([0, 1]), np.array([-0.1, 1.1]), 2)

    def test_zero_weights_rejected(self):
        # a class of zero mass would have no side to take at a tree node
        with pytest.raises(ValidationError, match="positive"):
            Dataset(np.zeros((3, 1)), np.array([0, 1, 1]), np.array([0.0, 0.5, 0.5]), 2)

    def test_subset_renormalizes_and_rejects_empty(self):
        data = generate_gaussian_blobs(3, 10, 2, 1.0, seed=2)
        sub = data.subset(np.flatnonzero(data.labels != 0))
        assert abs(sub.weights.sum() - 1.0) < 1e-12
        assert sub.num_classes == 3 and sub.label_names == data.label_names
        with pytest.raises(ValidationError):
            data.subset(np.array([], dtype=np.int64))

    # a model file holds the names as JSON, and files name classes by str()
    @pytest.mark.parametrize("names, accepted", [
        ([0, "0", 2], False),
        ([0.0, 1.0, 2.0], False),
        ([True, 1, 2], False),
        (["a", "b", "a"], False),
        ([np.int64(0), np.int64(1), np.int64(2)], False),
        ([3, 7, 9], True),
        (["3", "7", "cat"], True),
    ], ids=repr)
    def test_label_names_must_be_ints_or_strings_with_distinct_str_forms(self, names,
                                                                         accepted):
        def make():
            return Dataset(np.zeros((3, 1)), [0, 1, 2], np.full(3, 1 / 3), 3, names)

        if accepted:
            assert make().label_names == names
        else:
            with pytest.raises(ValidationError, match="label_names"):
                make()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        features = np.array([[0.0, 1.0], [2.0, bad]])
        with pytest.raises(ValidationError, match="finite"):
            Dataset(features, np.array([0, 1]), np.array([0.5, 0.5]), 2)


@pytest.mark.parametrize("seed", [-1, 1.0, True, None, "0", np.int64(1)])
@pytest.mark.parametrize("make", [
    lambda seed: generate_two_cluster_2d(10, seed),
    lambda seed: generate_gaussian_blobs(2, 4, 2, 1.0, seed),
    lambda seed: split_train_test(generate_gaussian_blobs(2, 4, 2, 1.0, 0), 0.5, seed),
], ids=["two-cluster", "blobs", "split"])
def test_seed_must_be_a_nonnegative_int(make, seed):
    with pytest.raises(ValidationError, match="seed"):
        make(seed)
